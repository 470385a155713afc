"""Abstract syntax of the HTML-template language.

The language (paper section 2.4, Fig. 5) is plain HTML extended with
exactly three expressions, "each of which produces plain HTML text":

* ``<SFMT attr-expr directives...>`` -- format expression;
* ``<SIF attr-expr [op "literal"]> ... <SELSE> ... </SIF>`` -- conditional;
* ``<SFOR var IN attr-expr [DELIM="s"]> ... </SFOR>`` -- enumeration.

An *attribute expression* is "either a single attribute, e.g. Paper, or a
bounded sequence of attributes that reference reachable objects", with
``@var`` referring to an enclosing SFOR binding.

Directives on SFMT:

=========  ==================================================
EMBED      render a referenced internal object inline (its own
           template) instead of as a hyperlink
LINK       force hyperlink rendering of an atomic value
ENUM       render *all* values of the expression, DELIM-joined
UL / OL    shorthand for ENUM emitted as an HTML list
DELIM="s"  separator for ENUM / SFOR
ORDER=     ascend | descend -- sort the values
KEY=attr   sort objects by this attribute's value
COUNT      render the *number* of values instead of the values
           (a small extension beyond the paper's grammar; sites
           routinely need "12 papers" headings)
=========  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class AttrExpr:
    """A (possibly ``@``-rooted) dotted attribute path.

    ``var`` is the SFOR variable name when the expression starts with
    ``@var``; ``path`` is the tuple of labels to follow.  ``@a`` alone has
    an empty path.
    """

    path: Tuple[str, ...]
    var: str = ""

    def __str__(self) -> str:
        head = f"@{self.var}" if self.var else ""
        tail = ".".join(self.path)
        if head and tail:
            return f"{head}.{tail}"
        return head or tail


@dataclass(frozen=True)
class Directives:
    """Normalized SFMT directives."""

    embed: bool = False
    link: bool = False
    enum: bool = False
    list_style: str = ""  # "", "ul", "ol"
    delim: Optional[str] = None
    order: str = ""  # "", "ascend", "descend"
    key: str = ""
    count: bool = False

    @property
    def enumerates(self) -> bool:
        return self.enum or bool(self.list_style)


class Node:
    """Base class of template AST nodes."""


@dataclass(frozen=True)
class Literal(Node):
    """A run of plain HTML text, emitted verbatim."""

    text: str


@dataclass(frozen=True)
class Format(Node):
    """``<SFMT expr directives>``."""

    expr: AttrExpr
    directives: Directives = Directives()
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Conditional(Node):
    """``<SIF expr [op "literal"]> then <SELSE> otherwise </SIF>``.

    Without a comparison the test is existence: the expression has at
    least one value.  With ``=`` the test is "some value equals the
    literal (coercing)", with ``!=`` "no value equals the literal".
    """

    expr: AttrExpr
    op: str = ""  # "", "=", "!="
    literal: str = ""
    then_nodes: Tuple[Node, ...] = ()
    else_nodes: Tuple[Node, ...] = ()
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Loop(Node):
    """``<SFOR var IN expr [DELIM="s"]> body </SFOR>``."""

    var: str
    expr: AttrExpr
    body: Tuple[Node, ...] = ()
    delim: str = ""
    line: int = field(compare=False, default=0)


@dataclass
class Template:
    """A parsed template: a name plus its node sequence.

    ``source_lines`` is the non-blank line count -- the measure the paper
    reports site templates in ("17 HTML templates (380 lines)").
    """

    name: str
    nodes: List[Node] = field(default_factory=list)
    source_text: str = ""

    @property
    def source_lines(self) -> int:
        return sum(1 for line in self.source_text.splitlines() if line.strip())

    @cached_property
    def embeds(self) -> bool:
        """True when some ``SFMT`` of the template, in any branch or loop
        body, inlines with ``EMBED`` (``COUNT`` renders no value, so it
        does not count).  When false the embed stack steers nothing, so
        an object's page and its top-level fragment ``(oid, ())`` are the
        same bytes; a self-embedding template embeds.  Computed on first
        use: ``nodes`` must not change after that."""
        return _reaches_embed(self.nodes)


def _reaches_embed(nodes: Sequence[Node]) -> bool:
    for node in nodes:
        if isinstance(node, Format):
            if node.directives.embed and not node.directives.count:
                return True
        elif isinstance(node, Conditional):
            if _reaches_embed(node.then_nodes) or _reaches_embed(node.else_nodes):
                return True
        elif isinstance(node, Loop) and _reaches_embed(node.body):
            return True
    return False
