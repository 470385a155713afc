"""Abstract syntax of STRUQL.

A STRUQL query (paper section 2.2) has a *query stage* -- the ``where``
clause, a conjunction of conditions over a labeled graph -- and a
*construction stage* -- ``create`` (Skolem-function node creation),
``link`` (edge creation) and ``collect`` (output collections).  Nested
blocks extend the bindings of their parent and carry their own
construction clauses; this is how Fig. 3 of the paper builds year pages
inside the homepage query.

The AST is deliberately plain: frozen dataclasses, no behaviour beyond
variable accounting and pretty-printing.  Evaluation lives in
:mod:`repro.struql.eval`, parsing in :mod:`repro.struql.parser`, and
regular-path-expression compilation in :mod:`repro.struql.paths`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, List, Optional, Tuple, Union

from ..graph import Atom


# ---------------------------------------------------------------------- #
# terms

@dataclass(frozen=True)
class Var:
    """A query variable.  Binds to an oid, an atom, or (for arc variables)
    an edge label string."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant atomic value appearing literally in the query."""

    atom: Atom

    def __str__(self) -> str:
        if isinstance(self.atom.value, str):
            return f'"{self.atom.value}"'
        return str(self.atom.value)


Term = Union[Var, Const]


# ---------------------------------------------------------------------- #
# regular path expressions:  R := Pred | R.R | (R|R) | R*

class PathExpr:
    """Base class for regular path expressions."""

    def predicates(self) -> List["PathExpr"]:
        """All leaf predicates, for analysis."""
        return [self]


@dataclass(frozen=True)
class LabelIs(PathExpr):
    """Matches one edge whose label equals ``label`` exactly."""

    label: str

    def __str__(self) -> str:
        return f'"{self.label}"'


@dataclass(frozen=True)
class LabelPredicate(PathExpr):
    """Matches one edge whose label satisfies a named predicate
    (e.g. ``isName``); predicates are resolved from the builtin registry
    at evaluation time."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AnyLabel(PathExpr):
    """``true`` -- matches any single edge.  ``*`` in query text is
    shorthand for ``true*`` (any path), i.e. ``Star(AnyLabel())``."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Concat(PathExpr):
    """``R . R`` -- path concatenation."""

    parts: Tuple[PathExpr, ...]

    def __str__(self) -> str:
        return ".".join(_wrap(p) for p in self.parts)

    def predicates(self) -> List[PathExpr]:
        found: List[PathExpr] = []
        for part in self.parts:
            found.extend(part.predicates())
        return found


@dataclass(frozen=True)
class Alternation(PathExpr):
    """``R | R`` -- alternation."""

    options: Tuple[PathExpr, ...]

    def __str__(self) -> str:
        return "(" + "|".join(str(o) for o in self.options) + ")"

    def predicates(self) -> List[PathExpr]:
        found: List[PathExpr] = []
        for option in self.options:
            found.extend(option.predicates())
        return found


@dataclass(frozen=True)
class Star(PathExpr):
    """``R*`` -- zero or more repetitions."""

    inner: PathExpr

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}*"

    def predicates(self) -> List[PathExpr]:
        return self.inner.predicates()


def _wrap(expr: PathExpr) -> str:
    if isinstance(expr, (Concat, Alternation)):
        return f"({expr})"
    return str(expr)


def any_path() -> PathExpr:
    """The ``*`` abbreviation: any path, including the empty one."""
    return Star(AnyLabel())


# ---------------------------------------------------------------------- #
# where-clause conditions

class Condition:
    """Base class for where-clause conditions.

    Every concrete condition carries a source span (``line``, ``column``
    of its first token, 0 when synthesized programmatically).  Spans are
    excluded from equality and hashing so that structurally identical
    conditions written at different positions still compare equal.
    """

    def variables(self) -> FrozenSet[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class CollectionCond(Condition):
    """``Publications(x)`` -- membership of ``x`` in a named collection."""

    collection: str
    var: Var

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.var.name})

    def __str__(self) -> str:
        return f"{self.collection}({self.var})"


@dataclass(frozen=True)
class PredicateCond(Condition):
    """``isImageFile(q)`` -- a named predicate applied to a bound object."""

    name: str
    var: Var

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.var.name})

    def __str__(self) -> str:
        return f"{self.name}({self.var})"


@dataclass(frozen=True)
class EdgeCond(Condition):
    """``x -> "year" -> y`` / ``x -> l -> y`` -- a single edge.

    ``label`` is a string constant or an arc :class:`Var` that the edge's
    label is bound to.  Source must be a node; target may be a node or an
    atom.
    """

    source: Var
    label: Union[str, Var]
    target: Term

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        names = {self.source.name}
        if isinstance(self.label, Var):
            names.add(self.label.name)
        if isinstance(self.target, Var):
            names.add(self.target.name)
        return frozenset(names)

    def __str__(self) -> str:
        label = f'"{self.label}"' if isinstance(self.label, str) else str(self.label)
        return f"{self.source} -> {label} -> {self.target}"


@dataclass(frozen=True)
class PathCond(Condition):
    """``x -> R -> y`` -- a path from x to y matching regular expression R."""

    source: Var
    path: PathExpr
    target: Term

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        names = {self.source.name}
        if isinstance(self.target, Var):
            names.add(self.target.name)
        return frozenset(names)

    def __str__(self) -> str:
        return f"{self.source} -> {self.path} -> {self.target}"


@dataclass(frozen=True)
class ComparisonCond(Condition):
    """``y = "1998"``, ``x != y``, ``n < 10`` -- coercing comparison."""

    left: Term
    op: str  # one of = != < <= > >=
    right: Term

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        names = set()
        if isinstance(self.left, Var):
            names.add(self.left.name)
        if isinstance(self.right, Var):
            names.add(self.right.name)
        return frozenset(names)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class NotCond(Condition):
    """``not(...)`` -- negation as failure of a conjunction of conditions.

    Every variable occurring only inside the negation is existentially
    quantified within it; variables shared with the outside must be bound
    before the negation is checked.
    """

    inner: Tuple[Condition, ...]

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        names: set = set()
        for condition in self.inner:
            names |= condition.variables()
        return frozenset(names)

    def __str__(self) -> str:
        return "not(" + ", ".join(str(c) for c in self.inner) + ")"


# ---------------------------------------------------------------------- #
# construction clauses

class _ConstructionClause:
    """What construction needs of a ``create``, ``link`` or ``collect``
    clause beyond its fields."""

    @cached_property
    def sorted_variables(self) -> Tuple[str, ...]:
        """:meth:`variables`, sorted and computed once per clause: the
        values construction keys its repeated applications on."""
        return tuple(sorted(self.variables()))  # type: ignore[attr-defined]


@dataclass(frozen=True)
class SkolemTerm(_ConstructionClause):
    """``AbstractPage(x)`` / ``RootPage()`` -- a Skolem-function application.

    Arguments are variables or constants; at evaluation time each argument
    is the bound oid / atom / label value.
    """

    function: str
    args: Tuple[Term, ...]

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        return frozenset(a.name for a in self.args if isinstance(a, Var))

    def __str__(self) -> str:
        return f"{self.function}({', '.join(str(a) for a in self.args)})"


#: A node reference in link/collect: a Skolem term or a bound variable.
NodeRef = Union[SkolemTerm, Var]


@dataclass(frozen=True)
class LinkClause(_ConstructionClause):
    """``P(x) -> l -> v`` in a ``link`` clause.

    ``label`` is a string constant or an arc variable; ``target`` may be a
    Skolem term, a variable (data-graph node or atom), or a constant atom.
    """

    source: NodeRef
    label: Union[str, Var]
    target: Union[SkolemTerm, Var, Const]

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        names: set = set()
        for side in (self.source, self.target):
            if isinstance(side, SkolemTerm):
                names |= side.variables()
            elif isinstance(side, Var):
                names.add(side.name)
        if isinstance(self.label, Var):
            names.add(self.label.name)
        return frozenset(names)

    def __str__(self) -> str:
        label = f'"{self.label}"' if isinstance(self.label, str) else str(self.label)
        return f"{self.source} -> {label} -> {self.target}"


@dataclass(frozen=True)
class CollectClause(_ConstructionClause):
    """``collect TextOnlyRoot(New(p))`` -- put a node in an output collection."""

    collection: str
    node: NodeRef

    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    def variables(self) -> FrozenSet[str]:
        if isinstance(self.node, SkolemTerm):
            return self.node.variables()
        return frozenset({self.node.name})

    def __str__(self) -> str:
        return f"{self.collection}({self.node})"


# ---------------------------------------------------------------------- #
# queries

@dataclass
class Query:
    """One STRUQL query block.

    ``name`` identifies the block's where-clause for site-schema labels
    (Q1, Q2, ... in the paper's Fig. 7); the parser assigns names in
    depth-first order when the source does not.  ``blocks`` holds nested
    sub-queries; each extends this block's bindings and constructs once
    per distinct binding of the variables it uses (:meth:`variables`).
    """

    where: List[Condition] = field(default_factory=list)
    create: List[SkolemTerm] = field(default_factory=list)
    link: List[LinkClause] = field(default_factory=list)
    collect: List[CollectClause] = field(default_factory=list)
    blocks: List["Query"] = field(default_factory=list)
    name: str = ""

    def where_variables(self) -> FrozenSet[str]:
        names: set = set()
        for condition in self.where:
            names |= condition.variables()
        return frozenset(names)

    def variables(self) -> FrozenSet[str]:
        """Variables of the where, create, link and collect clauses of
        this block and its descendants: all of a parent binding that the
        block's evaluation and construction can read."""
        names: set = set()
        for query in self.walk():
            names |= query.where_variables()
            for clause in (*query.create, *query.link, *query.collect):
                names |= clause.variables()
        return frozenset(names)

    def skolem_functions(self) -> List[str]:
        """All Skolem function names in this block and its descendants."""
        found: List[str] = []

        def note(term: object) -> None:
            if isinstance(term, SkolemTerm) and term.function not in found:
                found.append(term.function)

        for query in self.walk():
            for created in query.create:
                note(created)
            for link in query.link:
                note(link.source)
                note(link.target)
            for collect in query.collect:
                note(collect.node)
        return found

    def walk(self) -> List["Query"]:
        """This block followed by all nested blocks, depth first."""
        out: List[Query] = [self]
        for block in self.blocks:
            out.extend(block.walk())
        return out

    def link_clause_count(self) -> int:
        """Total link clauses including nested blocks -- the paper's
        structural-complexity measure (section 6.1)."""
        return sum(len(q.link) for q in self.walk())

    def __str__(self) -> str:
        return format_query(self)


@dataclass
class Program:
    """A sequence of queries evaluated in order into one result graph.

    This models section 6.2's composition: "we allowed queries to add
    nodes and arcs to a graph ... different queries [can] create different
    parts of the same site".
    """

    queries: List[Query] = field(default_factory=list)
    source_text: str = ""

    def skolem_functions(self) -> List[str]:
        found: List[str] = []
        for query in self.queries:
            for function in query.skolem_functions():
                if function not in found:
                    found.append(function)
        return found

    def link_clause_count(self) -> int:
        return sum(q.link_clause_count() for q in self.queries)

    def line_count(self) -> int:
        """Non-blank, non-comment source lines -- the paper's query-size
        measure ("defined by a 115-line query")."""
        count = 0
        for line in self.source_text.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
        return count


def format_query(query: Query, indent: str = "") -> str:
    """Pretty-print a query block back to concrete syntax."""
    pieces: List[str] = []
    if query.where:
        pieces.append(indent + "where " + ",\n      ".join(
            indent + str(c) for c in query.where).lstrip())
    if query.create:
        pieces.append(indent + "create " + ", ".join(str(c) for c in query.create))
    if query.link:
        pieces.append(indent + "link " + ",\n     ".join(
            indent + str(l) for l in query.link).lstrip())
    if query.collect:
        pieces.append(indent + "collect " + ", ".join(str(c) for c in query.collect))
    for block in query.blocks:
        pieces.append(indent + "{\n" + format_query(block, indent + "  ") + "\n" + indent + "}")
    return "\n".join(pieces)
