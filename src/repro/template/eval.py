"""Rendering engine for the HTML-template language.

Given a site-graph object and its template, :class:`Renderer` "evaluates
all expressions in the template, concatenates them together, and produces
plain HTML text" (paper section 2.4).  Internal objects referenced from a
template are, by default, realized as hyperlinks to their own pages; the
``EMBED`` directive overrides this and inlines the referenced object's
rendering.  Which file a hyperlink points at is the
:class:`~repro.template.generator.HtmlGenerator`'s business -- the
renderer only calls back through :class:`PageRegistry`.

Atoms render by flavour: URLs become anchors, image files become ``img``
tags, PostScript files become download links, text files render their
payload as escaped text, HTML files are inlined raw under ``EMBED``.
All other atom text is HTML-escaped; literal template HTML never is.

**Fragments.**  An ``EMBED`` rendering depends only on
:data:`FragmentKey` ``(oid, embed_stack)`` and the graph nodes it
reads, and every ``EMBED`` of an object goes through
:meth:`Renderer.render_embedded`, the hook a caching renderer overrides
(the selective regenerator's ``_FragmentRenderer`` records each fragment
apart, and an embedding render reads the fragment's key).  Inside
:meth:`Renderer.fragment_pass` (one ``HtmlGenerator.generate`` call)
each fragment is rendered once, and a page whose template reaches no
``EMBED`` (:attr:`~repro.template.ast.Template.embeds` is false)
shares bytes with its top-level fragment ``(oid, ())``, in both
directions.  The pass cache holds bytes, not reads: one
:class:`~repro.struql.footprint.RecordingView` recording around a pass
still sees every read, because a cache hit's reads were made earlier in
that recording.  The cache is dropped when the pass ends.  Embedded
output is copied verbatim: what :meth:`Renderer.render_embedded`
returns is joined, delimited or wrapped in ``<li>`` as it is, never
inspected, and embeds are called in output order.  The selective
regenerator relies on that to re-join a page from the literal text
between its fragments.
"""

from __future__ import annotations

import functools
import html
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TemplateEvaluationError
from ..graph import Atom, AtomType, Graph, Oid, Target, atoms_equal, compare_atoms
from ..resilience.deadline import current_deadline
from .ast import (
    AttrExpr,
    Conditional,
    Directives,
    Format,
    Literal,
    Loop,
    Node,
    Template,
)

#: Attributes probed, in order, for an object's human-readable anchor text.
ANCHOR_ATTRIBUTES = (
    "title", "name", "Name", "label", "heading", "Year", "year",
    "Category", "headline",
)

_DEFAULT_DELIM = ", "
_MAX_EMBED_DEPTH = 16

#: An embedded rendering's cache key: the embedded object and the
#: stack of objects it is embedded in.
FragmentKey = Tuple[Oid, Tuple[Oid, ...]]


class PageRegistry:
    """What the renderer needs from the surrounding generator.

    ``href_for`` must return a relative URL for an internal object that
    should be realized as its own page, or ``None`` when the object has no
    renderable page (the renderer then falls back to plain text).
    """

    def href_for(self, oid: Oid) -> Optional[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def template_for(self, oid: Oid) -> Optional[Template]:  # pragma: no cover
        raise NotImplementedError


class _NoPages(PageRegistry):
    """Registry for standalone rendering: everything becomes plain text."""

    def href_for(self, oid: Oid) -> Optional[str]:
        return None

    def template_for(self, oid: Oid) -> Optional[Template]:
        return None


def canonical_order(values: List[Target]) -> List[Target]:
    """SFMT's order for values without ``ORDER``: a list of two or more
    objects sorted by oid name, anything else in discovery order.

    Object-link lists are derived by query evaluation, whose row order
    shifts with the optimizer's statistics, and incremental maintenance
    appends late arrivals -- rendering must not depend on that insertion
    history or a maintained site could never be byte-identical to a
    fresh build.  Atom lists keep discovery order: it mirrors the data
    graph's edge order, which is meaningful (e.g. author lists).  Sorts
    ``values`` in place and returns it."""
    if len(values) > 1 and all(isinstance(value, Oid) for value in values):
        values.sort(key=_oid_name)
    return values


def _oid_name(oid: Oid) -> str:
    return oid.name


class Renderer:
    """Renders templates against one site graph."""

    def __init__(self, graph: Graph, registry: Optional[PageRegistry] = None) -> None:
        self.graph = graph
        self.registry = registry if registry is not None else _NoPages()
        #: fragment key -> html while a :meth:`fragment_pass` is open
        self._pass: Optional[Dict[FragmentKey, str]] = None

    # ------------------------------------------------------------ #

    def render(self, template: Template, obj: Oid) -> str:
        """Render a full template for one object."""
        return self._body(template, obj, ())

    def render_page(self, template: Template, oid: Oid) -> str:
        """Render ``oid``'s page with ``template``, the template the
        registry resolves for ``oid``.  Inside a :meth:`fragment_pass` a
        page whose template reaches no ``EMBED`` shares bytes with the
        fragment ``(oid, ())``."""
        cache = self._pass
        if cache is None or template.embeds:
            return self._body(template, oid, ())
        key = (oid, ())
        html_text = cache.get(key)
        if html_text is None:
            html_text = cache[key] = self._body(template, oid, ())
        return html_text

    @contextmanager
    def fragment_pass(self) -> Iterator[None]:
        """Render each ``EMBED`` fragment at most once inside the block.

        The cache is dropped when the block exits, also when a render
        inside it raised."""
        self._pass = {}
        try:
            yield
        finally:
            self._pass = None

    def _body(self, template: Template, obj: Oid, embed_stack: Tuple[Oid, ...]) -> str:
        """Render ``template``'s body: every template body rendered goes
        through here."""
        return self._render_nodes(template.nodes, obj, {}, embed_stack)

    def _render_nodes(
        self,
        nodes: Sequence[Node],
        obj: Oid,
        bindings: Dict[str, Target],
        embed_stack: Tuple[Oid, ...],
    ) -> str:
        pieces: List[str] = []
        deadline = current_deadline()
        for node in nodes:
            if deadline is not None:
                deadline.tick("template.render")
            if isinstance(node, Literal):
                pieces.append(node.text)
            elif isinstance(node, Format):
                pieces.append(self._render_format(node, obj, bindings, embed_stack))
            elif isinstance(node, Conditional):
                pieces.append(self._render_conditional(node, obj, bindings, embed_stack))
            elif isinstance(node, Loop):
                pieces.append(self._render_loop(node, obj, bindings, embed_stack))
            else:
                raise TemplateEvaluationError(f"unknown template node: {node!r}")
        return "".join(pieces)

    # ------------------------------------------------------------ #
    # attribute expressions

    def values_of(
        self, expr: AttrExpr, obj: Oid, bindings: Dict[str, Target]
    ) -> List[Target]:
        """All values of an attribute expression, duplicates removed,
        discovery order preserved."""
        if expr.var:
            bound = bindings.get(expr.var)
            if bound is None:
                raise TemplateEvaluationError(
                    f"@{expr.var} is not bound by an enclosing SFOR"
                )
            current: List[Target] = [bound]
        else:
            current = [obj]
        for label in expr.path:
            next_values: Dict[Target, None] = {}
            for value in current:
                if not isinstance(value, Oid):
                    continue
                for target in self.graph.targets(value, label):
                    next_values.setdefault(target, None)
            current = list(next_values)
        return current

    # ------------------------------------------------------------ #
    # SFMT

    def _render_format(
        self,
        node: Format,
        obj: Oid,
        bindings: Dict[str, Target],
        embed_stack: Tuple[Oid, ...],
    ) -> str:
        values = self.values_of(node.expr, obj, bindings)
        if node.directives.count:
            return str(len(values))
        if node.directives.order:
            values = self._sort(values, node.directives)
        else:
            values = canonical_order(values)
        if not values:
            return ""
        if not node.directives.enumerates:
            return self._render_value(values[0], node.directives, embed_stack)
        rendered = [self._render_value(v, node.directives, embed_stack) for v in values]
        if node.directives.list_style:
            tag = node.directives.list_style
            items = "".join(f"<li>{piece}</li>" for piece in rendered)
            return f"<{tag}>{items}</{tag}>"
        delim = node.directives.delim
        if delim is None:
            delim = _DEFAULT_DELIM
        return delim.join(rendered)

    def _sort(self, values: List[Target], directives: Directives) -> List[Target]:
        key_label = directives.key

        def sort_atom(value: Target) -> Tuple[int, Atom]:
            if isinstance(value, Atom):
                return (0, value)
            if key_label:
                keyed = self.graph.attribute(value, key_label)
                if isinstance(keyed, Atom):
                    return (0, keyed)
                return (1, Atom(AtomType.STRING, self.anchor_text(value)))
            return (0, Atom(AtomType.STRING, self.anchor_text(value)))

        def compare(left: Target, right: Target) -> int:
            left_rank, left_atom = sort_atom(left)
            right_rank, right_atom = sort_atom(right)
            if left_rank != right_rank:
                return left_rank - right_rank
            return compare_atoms(left_atom, right_atom)

        ordered = sorted(values, key=functools.cmp_to_key(compare))
        if directives.order == "descend":
            ordered.reverse()
        return ordered

    # ------------------------------------------------------------ #
    # value rendering

    def _render_value(
        self, value: Target, directives: Directives, embed_stack: Tuple[Oid, ...]
    ) -> str:
        if isinstance(value, Oid):
            return self._render_object(value, directives, embed_stack)
        return self._render_atom(value, directives)

    def _render_object(
        self, oid: Oid, directives: Directives, embed_stack: Tuple[Oid, ...]
    ) -> str:
        if directives.embed:
            return self.render_embedded(oid, embed_stack)
        return self._object_link_or_text(oid)

    def render_embedded(self, oid: Oid, embed_stack: Tuple[Oid, ...]) -> str:
        """Inline ``oid``'s rendering under ``EMBED``.

        The result depends only on ``(oid, embed_stack)`` and the graph
        nodes read while producing it -- no SFOR binding or directive
        besides ``EMBED`` reaches it -- so a caller that records those
        reads may cache it under that :data:`FragmentKey`."""
        cache = self._pass
        if cache is not None:
            key = (oid, embed_stack)
            cached = cache.get(key)
            if cached is not None:
                return cached
        if oid in embed_stack or len(embed_stack) >= _MAX_EMBED_DEPTH:
            html_text = self._object_link_or_text(oid)
        else:
            template = self.registry.template_for(oid)
            if template is None:
                html_text = html.escape(self.anchor_text(oid))
            else:
                html_text = self._body(template, oid, embed_stack + (oid,))
        if cache is not None:
            cache[key] = html_text
        return html_text

    def _object_link_or_text(self, oid: Oid) -> str:
        href = self.registry.href_for(oid)
        anchor = html.escape(self.anchor_text(oid))
        if href is None:
            return anchor
        return f'<a href="{html.escape(href, quote=True)}">{anchor}</a>'

    def anchor_text(self, oid: Oid) -> str:
        """Human-readable text for an object: its first naming attribute,
        falling back to the oid name."""
        for label in ANCHOR_ATTRIBUTES:
            value = self.graph.attribute(oid, label)
            if isinstance(value, Atom):
                return value.as_string()
        return oid.name

    def _render_atom(self, atom: Atom, directives: Directives) -> str:
        raw = atom.as_string()
        # html.escape quotes by default: one form serves text and attributes
        text = html.escape(raw)
        atom_type = atom.type
        if atom_type is AtomType.URL:
            return f'<a href="{text}">{text}</a>'
        if atom_type is AtomType.IMAGE_FILE:
            return f'<img src="{text}" alt="{text}">'
        if atom_type is AtomType.POSTSCRIPT_FILE:
            return f'<a href="{text}">[PostScript]</a>'
        if atom_type is AtomType.HTML_FILE:
            if directives.embed:
                return raw  # raw HTML payload, inlined
            return f'<a href="{text}">[HTML]</a>'
        if directives.link:
            return f'<a href="{text}">{text}</a>'
        return text

    # ------------------------------------------------------------ #
    # SIF / SFOR

    def _render_conditional(
        self,
        node: Conditional,
        obj: Oid,
        bindings: Dict[str, Target],
        embed_stack: Tuple[Oid, ...],
    ) -> str:
        values = self.values_of(node.expr, obj, bindings)
        if node.op:
            literal = Atom(AtomType.STRING, node.literal)
            matched = any(
                isinstance(v, Atom) and atoms_equal(v, literal) for v in values
            )
            truth = matched if node.op == "=" else not matched
        else:
            truth = bool(values)
        chosen = node.then_nodes if truth else node.else_nodes
        return self._render_nodes(chosen, obj, bindings, embed_stack)

    def _render_loop(
        self,
        node: Loop,
        obj: Oid,
        bindings: Dict[str, Target],
        embed_stack: Tuple[Oid, ...],
    ) -> str:
        values = self.values_of(node.expr, obj, bindings)
        pieces: List[str] = []
        for value in values:
            extended = dict(bindings)
            extended[node.var] = value
            pieces.append(self._render_nodes(node.body, obj, extended, embed_stack))
        return node.delim.join(pieces)
