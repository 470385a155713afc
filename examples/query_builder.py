"""A fluent, programmatic builder for STRUQL queries.

Section 7 of the paper: "many potential users of STRUDEL asked whether
we can provide a friendly visual interface for specifying queries,
instead of having to write STRUQL queries by hand ... One research issue
is what subset of STRUQL can be expressed" through such an interface.
This builder is that subset made programmatic: every method corresponds
to one visual gesture (add a membership test, draw an edge, create a
page type, link two page types), and the result is an ordinary
:class:`~repro.struql.ast.Program` -- or its concrete STRUQL text, which
round-trips through the parser.

Example (the homepage year-pages fragment)::

    from query_builder import ProgramBuilder, arc, skolem

    b = ProgramBuilder()
    q = (b.query()
         .collection("Publications", "x")
         .edge("x", arc("l"), "v")
         .create(skolem("PaperPage", "x"))
         .link(skolem("PaperPage", "x"), arc("l"), "v")
         .collect("PaperPages", skolem("PaperPage", "x")))
    (q.block()
      .edge("x", "year", "y")
      .create(skolem("YearPage", "y"))
      .link(skolem("YearPage", "y"), "Paper", skolem("PaperPage", "x")))
    program = b.build()        # validated Program
    text = b.text()            # equivalent STRUQL source

Conventions: a bare string denotes a *variable* in term positions and a
*constant label* in label positions; wrap with :func:`const` for atomic
constants, :func:`arc` for arc variables, :func:`skolem` for Skolem
terms, and :func:`path` / :func:`star` / :func:`label` / :func:`alt` /
:func:`seq` for regular path expressions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import StruqlSemanticError
from repro.graph import Atom, from_python
from repro.struql.ast import (
    Alternation,
    AnyLabel,
    CollectClause,
    CollectionCond,
    ComparisonCond,
    Concat,
    Condition,
    Const,
    EdgeCond,
    LabelIs,
    LabelPredicate,
    LinkClause,
    NotCond,
    PathCond,
    PathExpr,
    PredicateCond,
    Program,
    Query,
    SkolemTerm,
    Star,
    Term,
    Var,
    format_query,
)
from repro.struql.parser import validate_query

# ---------------------------------------------------------------------- #
# term helpers


def var(name: str) -> Var:
    """An explicit variable (bare strings in term positions do the same)."""
    return Var(name)


def const(value: object) -> Const:
    """An atomic constant: ``const(1998)``, ``const("sports")``."""
    if isinstance(value, Atom):
        return Const(value)
    return Const(from_python(value))


def arc(name: str) -> Var:
    """An arc variable for a label position: ``edge("x", arc("l"), "v")``."""
    return Var(name)


def skolem(function: str, *args: Union[str, Var, Const, object]) -> SkolemTerm:
    """A Skolem term: ``skolem("YearPage", "y")``."""
    return SkolemTerm(function=function, args=tuple(_term(a) for a in args))


def _term(value: Union[str, Var, Const, object]) -> Term:
    if isinstance(value, (Var, Const)):
        return value
    if isinstance(value, str):
        return Var(value)
    return const(value)


# ---------------------------------------------------------------------- #
# path helpers


def label(text: str) -> PathExpr:
    """A single-edge label match inside a path expression."""
    return LabelIs(text)


def predicate(name: str) -> PathExpr:
    """A registered label predicate inside a path expression."""
    return LabelPredicate(name)


def any_label() -> PathExpr:
    """``true`` -- any single edge."""
    return AnyLabel()


def star(inner: Optional[Union[str, PathExpr]] = None) -> PathExpr:
    """``R*``; with no argument, ``*`` (any path, including empty)."""
    if inner is None:
        return Star(AnyLabel())
    return Star(_path(inner))


def seq(*parts: Union[str, PathExpr]) -> PathExpr:
    """Concatenation: ``seq("a", "b")`` is ``"a"."b"``."""
    return Concat(tuple(_path(p) for p in parts))


def alt(*options: Union[str, PathExpr]) -> PathExpr:
    """Alternation: ``alt("a", "b")`` is ``("a"|"b")``."""
    return Alternation(tuple(_path(o) for o in options))


def _path(value: Union[str, PathExpr]) -> PathExpr:
    if isinstance(value, PathExpr):
        return value
    return LabelIs(value)


# ---------------------------------------------------------------------- #
# builders


class QueryBuilder:
    """Builds one query block; obtained from :meth:`ProgramBuilder.query`
    or :meth:`QueryBuilder.block`.  All methods return ``self``."""

    def __init__(self, name: str = "") -> None:
        self._query = Query(name=name)

    # ---- where ---------------------------------------------------- #

    def collection(self, name: str, variable: str) -> "QueryBuilder":
        """``Name(x)`` membership condition."""
        self._query.where.append(CollectionCond(name, Var(variable)))
        return self

    def predicate(self, name: str, variable: str) -> "QueryBuilder":
        """``isImageFile(x)``-style object predicate."""
        self._query.where.append(PredicateCond(name, Var(variable)))
        return self

    def edge(
        self,
        source: str,
        edge_label: Union[str, Var],
        target: Union[str, Var, Const, object],
    ) -> "QueryBuilder":
        """``x -> "label" -> y`` or ``x -> l -> y`` (pass ``arc("l")``)."""
        self._query.where.append(
            EdgeCond(source=Var(source), label=edge_label, target=_term(target))
        )
        return self

    def path(
        self,
        source: str,
        expression: Union[str, PathExpr],
        target: Union[str, Var, Const, object],
    ) -> "QueryBuilder":
        """``x -> R -> y`` with a regular path expression."""
        self._query.where.append(
            PathCond(source=Var(source), path=_path(expression), target=_term(target))
        )
        return self

    def compare(
        self,
        left: Union[str, Var, Const, object],
        op: str,
        right: Union[str, Var, Const, object],
    ) -> "QueryBuilder":
        """``y = "1998"``, ``a != b``, ``n < 10`` ..."""
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise StruqlSemanticError(f"unknown comparison operator {op!r}")
        self._query.where.append(
            ComparisonCond(left=_term(left), op=op, right=_term(right))
        )
        return self

    def negate(self, *conditions: Condition) -> "QueryBuilder":
        """``not(...)`` over conditions built with the module helpers or
        taken from another builder's :meth:`conditions`."""
        self._query.where.append(NotCond(inner=tuple(conditions)))
        return self

    def conditions(self) -> List[Condition]:
        """The conditions collected so far (useful to feed :meth:`negate`)."""
        return list(self._query.where)

    # ---- construction ---------------------------------------------- #

    def create(self, *terms: SkolemTerm) -> "QueryBuilder":
        self._query.create.extend(terms)
        return self

    def link(
        self,
        source: Union[SkolemTerm, str],
        edge_label: Union[str, Var],
        target: Union[SkolemTerm, str, Var, Const, object],
    ) -> "QueryBuilder":
        """``P(x) -> "label" -> target``; source may be a Skolem term or a
        variable naming a new node."""
        resolved_source = source if isinstance(source, SkolemTerm) else Var(source)
        if isinstance(target, SkolemTerm):
            resolved_target: Union[SkolemTerm, Var, Const] = target
        else:
            resolved_target = _term(target)
        self._query.link.append(
            LinkClause(source=resolved_source, label=edge_label,
                       target=resolved_target)
        )
        return self

    def collect(
        self, collection_name: str, node: Union[SkolemTerm, str]
    ) -> "QueryBuilder":
        resolved = node if isinstance(node, SkolemTerm) else Var(node)
        self._query.collect.append(CollectClause(collection_name, resolved))
        return self

    # ---- structure ------------------------------------------------- #

    def block(self) -> "QueryBuilder":
        """Open a nested block; returns the child builder."""
        child = QueryBuilder()
        self._query.blocks.append(child._query)
        return child

    def build(self) -> Query:
        """The (unvalidated) Query; ProgramBuilder.build validates."""
        return self._query


class ProgramBuilder:
    """Accumulates queries into a validated :class:`Program`."""

    def __init__(self) -> None:
        self._builders: List[QueryBuilder] = []

    def query(self) -> QueryBuilder:
        """Start a new top-level query."""
        builder = QueryBuilder()
        self._builders.append(builder)
        return builder

    def build(self) -> Program:
        """Name the blocks, validate scoping, and return the Program."""
        program = Program(queries=[b.build() for b in self._builders])
        counter = 0

        def name_blocks(query: Query) -> None:
            nonlocal counter
            counter += 1
            query.name = f"Q{counter}"
            for block in query.blocks:
                name_blocks(block)

        for query in program.queries:
            name_blocks(query)
        for query in program.queries:
            validate_query(query, inherited=frozenset())
        program.source_text = self.text()
        return program

    def text(self) -> str:
        """Concrete STRUQL source equivalent to the built program."""
        return "\n".join(format_query(b.build()) for b in self._builders) + "\n"
