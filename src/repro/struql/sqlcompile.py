"""STRUQL -> SQL compilation over the SQLite edge-triple backend.

:class:`SqlQueryEngine` is the :class:`~repro.struql.eval.QueryEngine`
variant registered for :class:`~repro.repository.sql.SqlGraph` sources.
Its one override is `_run_blocks`: when a top-level evaluation starts
from the empty seed, the maximal *prefix* of the ordered plan that
falls in the conjunctive fragment -- collection membership, edge
conditions, comparisons and type predicates -- is compiled into a
single parameterized SELECT and executed inside SQLite; the decoded
rows then flow through the in-memory operator loop for whatever residue
the compiler declined (negation, regular paths, label predicates,
custom predicates).

The compiled query must reproduce the in-memory engine's binding
relation *exactly* -- rows and row order -- because warm and cold
engines and the incremental regenerator all promise byte-identical
output.  Three mechanisms deliver that:

* **Order parity.**  Every generating step appends the ORDER BY keys
  that replicate the in-memory iteration order at that step: `m.id` for
  collection scans (member insertion order), `(g.seq, e.id)` for
  out-edge enumeration (label-group order, then edge order),
  `(probe rank, e.id)` for reverse value probes (probe-major, the
  coercion spelling order), `e.id` for label scans.  The composite sort
  is exactly the nested-loop visit order because each step's key is
  unique per emitted row of that step.
* **Coercion parity.**  Value equality compiles to the same dynamic
  coercion :func:`~repro.graph.values.atoms_equal` performs -- same-type
  rows compare by identity (the ``(graph, typ, val)`` key is injective),
  cross-type rows numerically when both sides carry a number, else by
  rendered string -- and reverse probes resolve the shared
  :func:`~repro.graph.values.coercion_probes` spellings, statically for
  constants and through the ``atom_probes`` table for runtime values.
* **Error parity.**  A condition whose in-memory evaluation would raise
  (an order comparison or predicate over an unbound variable, an
  unknown or custom predicate, a premature negation) stops the prefix,
  so the residual loop raises the identical error.

A regular path condition ends the prefix: it runs on the engine's one
path evaluator (the paper's NFA search, batched per distinct endpoint
and memoised per graph epoch) over the decoded rows.

Pushdown is chosen per query by a cost cutoff
(``SqlQueryEngine.pushdown_cutoff``) against
:class:`~repro.repository.indexes.IndexStatistics`: below the cutoff the
in-memory operators over the fetched frontier win (the per-row overhead
of SQLite beats its set-at-a-time advantage on small frontiers), so the
in-memory engine remains the ablation baseline at small scale without
any configuration.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..graph import Atom, AtomType, coercion_probes, type_predicate_names
from ..repository.sql import SqlGraph, atom_num, atom_val
from . import builtins
from .ast import (
    CollectionCond,
    ComparisonCond,
    Condition,
    Const,
    EdgeCond,
    PredicateCond,
    Var,
)
from .eval import (
    OperatorStats,
    QueryEngine,
    Row,
    _Frame,
    _UNSET,
    _values_equal,
    register_engine_factory,
)
from .optimizer import estimate_cost
from .plancache import PlanCache

#: Predicate names with a compiled SQL form; anything else stops the
#: prefix so the residual loop resolves (or rejects) it identically.
_COMPILABLE_PREDICATES = frozenset(type_predicate_names()) | {"isNode", "isAtom"}

#: predicate name -> atom ``typ`` values satisfying it (type checks only;
#: isNumber / isNode / isAtom are handled structurally)
_PREDICATE_TYPES: Dict[str, Tuple[str, ...]] = {
    "isString": ("string",),
    "isInteger": ("integer",),
    "isFloat": ("float",),
    "isBoolean": ("boolean",),
    "isUrl": ("url",),
    "isTextFile": ("text",),
    "isImageFile": ("image",),
    "isPostScript": ("postscript",),
    "isHtmlFile": ("html",),
    "isFile": ("text", "image", "postscript", "html"),
}


@dataclass
class _VarInfo:
    """Compile-time binding state of one frame variable.

    ``node`` carries a node-id expression; ``target`` a (node-id,
    atom-id) expression pair of which exactly one is non-NULL per row;
    ``label`` a text expression; ``const`` a compile-time atom (from an
    equality against a literal).  Kinds mirror the runtime value space
    (Oid / Target / str / Atom), so bound-ness and type dispatch at
    compile time agree with the runtime row contents.
    """

    kind: str
    node_expr: Optional[str] = None
    atom_expr: Optional[str] = None
    text_expr: Optional[str] = None
    const: Optional[Atom] = None


@dataclass
class PushdownPlan:
    """One compiled prefix: the SELECT, its parameters, and the decode
    recipe mapping result columns back onto frame slots."""

    sql: str
    params: Dict[str, object]
    #: per frame slot: ("node", col) | ("target", ncol, acol) |
    #: ("label", col) | ("const", value) | ("unset",)
    slots: Tuple[Tuple[object, ...], ...]
    pushed: int
    #: compile-time-proven empty result (e.g. a probe with no spellings
    #: in the store); execution is skipped entirely
    empty: bool = False


@dataclass
class PushdownReport:
    """What happened to the most recent top-level evaluation."""

    pushed: int
    total: int
    sql: Optional[str] = None
    fallback_reason: Optional[str] = None

    def describe(self) -> str:
        if self.sql is None:
            return f"no pushdown ({self.fallback_reason})"
        return f"pushed {self.pushed}/{self.total} conditions"


class _Bail(Exception):
    """Internal: the current condition cannot be compiled; stop the
    prefix here (never propagates out of the compiler)."""


class _Compiler:
    """Compiles a maximal plan prefix into one SELECT statement."""

    def __init__(self, graph: SqlGraph, frame: _Frame) -> None:
        self.graph = graph
        self.frame = frame
        self.params: Dict[str, object] = {"g": graph._graph_id}
        self._counter = 0
        self.from_parts: List[str] = []
        self.where: List[str] = []
        self.order: List[str] = []
        self.vars: Dict[str, _VarInfo] = {}
        self.empty = False
        self.pushed = 0

    # ------------------------------------------------------------ #
    # plumbing

    def p(self, value: object) -> str:
        name = f"p{self._counter}"
        self._counter += 1
        self.params[name] = value
        return f":{name}"

    def alias(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def table(self, clause: str) -> None:
        self.from_parts.append(clause)

    def _atom_join(self, atom_expr: str) -> str:
        """LEFT JOIN the atoms row of an atom-id expression; returns the
        alias (at most one row: id is the primary key)."""
        a = self.alias("a")
        self.table(f"LEFT JOIN atoms {a} ON {a}.id = {atom_expr}")
        return a

    # ------------------------------------------------------------ #
    # coercing equality fragments

    def _eq_atom_const(self, alias: str, const: Atom) -> str:
        """atoms_equal(<atoms row `alias`>, const) -- NULL/false when the
        row is absent (edge target is a node), true/false otherwise."""
        typ = self.p(const.type.value)
        val = self.p(atom_val(const))
        num = self.p(atom_num(const))
        text = self.p(const.as_string())
        return (
            f"(({alias}.typ = {typ} AND {alias}.val = {val})"
            f" OR ({alias}.typ IS NOT NULL AND {alias}.typ != {typ}"
            f" AND (({num} IS NOT NULL AND {alias}.num IS NOT NULL"
            f" AND {alias}.num = {num})"
            f" OR (({num} IS NULL OR {alias}.num IS NULL)"
            f" AND {alias}.str = {text}))))"
        )

    @staticmethod
    def _eq_atom_atom(left: str, right: str) -> str:
        """atoms_equal between two atoms rows (same-type rows are equal
        exactly when they are the same row: (graph, typ, val) is unique
        and ``val`` is injective per type)."""
        return (
            f"(({left}.id = {right}.id)"
            f" OR ({left}.id IS NOT NULL AND {right}.id IS NOT NULL"
            f" AND {left}.typ != {right}.typ"
            f" AND (({left}.num IS NOT NULL AND {right}.num IS NOT NULL"
            f" AND {left}.num = {right}.num)"
            f" OR (({left}.num IS NULL OR {right}.num IS NULL)"
            f" AND {left}.str = {right}.str))))"
        )

    def _static_probe_ids(self, const: Atom) -> List[Tuple[int, int]]:
        """(atom row id, probe rank) for the coercion spellings of a
        constant that exist in the store, original ranks preserved."""
        found: List[Tuple[int, int]] = []
        for rank, probe in enumerate(coercion_probes(const)):
            atom_id = self.graph._atom_id(probe)
            if atom_id is not None:
                found.append((atom_id, rank))
        return found

    # ------------------------------------------------------------ #
    # condition dispatch

    def compile(self, ordered: Sequence[Condition]) -> Tuple[int, bool]:
        """Compile the maximal prefix; returns (pushed count, empty)."""
        for condition in ordered:
            try:
                self._compile_one(condition)
            except _Bail:
                break
            self.pushed += 1
            if self.empty:
                # constant-false: the in-memory loop would observe zero
                # rows here and break; later conditions never run
                break
        return self.pushed, self.empty

    def _compile_one(self, condition: Condition) -> None:
        if self.empty:
            raise _Bail
        if isinstance(condition, CollectionCond):
            self._compile_collection(condition)
        elif isinstance(condition, EdgeCond):
            self._compile_edge(condition)
        elif isinstance(condition, ComparisonCond):
            self._compile_comparison(condition)
        elif isinstance(condition, PredicateCond):
            self._compile_predicate(condition)
        else:
            # negation, regular paths and anything unknown stay residual
            raise _Bail

    # ------------------------------------------------------------ #
    # collection membership

    def _compile_collection(self, condition: CollectionCond) -> None:
        info = self.vars.get(condition.var.name)
        name = self.p(condition.collection)
        if info is None:
            m = self.alias("m")
            join = f"members {m}"
            on = f"{m}.graph = :g AND {m}.collection = {name}"
            if self.from_parts:
                self.table(f"JOIN {join} ON {on}")
            else:
                self.table(join)
                self.where.append(on)
            self.order.append(f"{m}.id")
            self.vars[condition.var.name] = _VarInfo(
                "node", node_expr=f"{m}.node"
            )
            return
        if info.kind == "node":
            self.where.append(
                f"EXISTS (SELECT 1 FROM members WHERE graph = :g"
                f" AND collection = {name} AND node = {info.node_expr})"
            )
        elif info.kind == "target":
            self.where.append(
                f"({info.node_expr} IS NOT NULL AND EXISTS ("
                f"SELECT 1 FROM members WHERE graph = :g"
                f" AND collection = {name} AND node = {info.node_expr}))"
            )
        else:
            # a label or constant atom is never a collection member
            self.empty = True

    # ------------------------------------------------------------ #
    # edge conditions

    def _compile_edge(self, condition: EdgeCond) -> None:
        # a variable repeated across positions must take one value: a
        # loop x -> l -> x is a same-row equality on the edge, and an arc
        # variable repeated (a label never equals an oid, and equals a
        # target only under runtime coercion) stays residual
        target_name = condition.target.name if isinstance(condition.target, Var) else None
        loop = target_name == condition.source.name
        if isinstance(condition.label, Var) and condition.label.name in (
            condition.source.name, target_name
        ):
            raise _Bail

        # --- resolve the label position
        label = condition.label
        arc_gen: Optional[str] = None
        label_expr: Optional[str] = None
        label_guard: Optional[str] = None
        if isinstance(label, str):
            label_expr = self.p(label)
        else:
            linfo = self.vars.get(label.name)
            if linfo is None:
                arc_gen = label.name
            elif linfo.kind == "label":
                label_expr = linfo.text_expr
            elif linfo.kind == "const":
                label_expr = self.p(linfo.const.as_string())
            elif linfo.kind == "target":
                # runtime: an atom labels by its string rendering, a
                # node never labels anything (the row is dropped)
                label_expr = (
                    f"(SELECT str FROM atoms WHERE id = {linfo.atom_expr})"
                )
                label_guard = f"{linfo.atom_expr} IS NOT NULL"
            else:  # node-bound arc variable: nothing matches
                self.empty = True
                return

        # --- resolve the source position
        src_info = self.vars.get(condition.source.name)
        if src_info is not None and src_info.kind in ("label", "const"):
            self.empty = True  # a non-oid can never be an edge source
            return

        # --- resolve the target position
        target = condition.target
        tgt_const: Optional[Atom] = None
        tgt_info: Optional[_VarInfo] = None
        tgt_gen: Optional[str] = None
        if isinstance(target, Const):
            tgt_const = target.atom
        else:
            tinfo = self.vars.get(target.name)
            if tinfo is None:
                tgt_gen = target.name
            elif tinfo.kind == "const":
                tgt_const = tinfo.const
            else:
                tgt_info = tinfo
        if src_info is None and tgt_info is not None and tgt_info.kind == "label":
            # probing by a runtime string needs its coercion spellings,
            # which only exist at run time: leave it to the residual
            raise _Bail
        if (
            src_info is not None
            and tgt_info is not None
            and tgt_info.kind == "label"
        ):
            raise _Bail  # same runtime-coercion problem, filter shape

        e = self.alias("e")
        on = [f"{e}.graph = :g"]  # attached to the edges join
        pre_table: Optional[str] = None  # derived table edges joins against
        post_joins: List[str] = []  # joins that reference the edge alias
        order_keys: List[str] = []

        if src_info is not None:
            # source-bound: out-edge enumeration (or a pure filter)
            on.append(f"{e}.src = {src_info.node_expr}")
            if label_expr is not None:
                on.append(f"{e}.label = {label_expr}")
                order_keys.append(f"{e}.id")
            else:
                g = self.alias("g")
                post_joins.append(
                    f"JOIN egroups {g} ON {g}.graph = :g"
                    f" AND {g}.src = {e}.src AND {g}.label = {e}.label"
                )
                order_keys.extend([f"{g}.seq", f"{e}.id"])
        elif tgt_const is not None:
            # reverse probe of a literal: its coercion spellings resolve
            # to atom row ids at compile time, probe-major order
            probe_ids = self._static_probe_ids(tgt_const)
            if not probe_ids:
                self.empty = True
                return
            rows = " UNION ALL ".join(
                f"SELECT {self.p(atom_id)} AS atom, {rank} AS rnk"
                for atom_id, rank in probe_ids
            )
            pr = self.alias("pr")
            pre_table = f"({rows}) {pr}"
            on.append(f"{e}.tgt_atom = {pr}.atom")
            if label_expr is not None:
                on.append(f"{e}.label = {label_expr}")
            order_keys.extend([f"{pr}.rnk", f"{e}.id"])
        elif tgt_info is not None:
            # reverse probe of a runtime value
            if tgt_info.kind == "node":
                on.append(f"{e}.tgt_node = {tgt_info.node_expr}")
                order_keys.append(f"{e}.id")
            else:  # target kind: node arm or probe-table arm
                ap = self.alias("ap")
                post_joins.append(
                    f"LEFT JOIN atom_probes {ap} ON {ap}.graph = :g"
                    f" AND {ap}.atom = {tgt_info.atom_expr}"
                    f" AND {ap}.probe = {e}.tgt_atom"
                )
                self.where.append(
                    f"(({tgt_info.node_expr} IS NOT NULL"
                    f" AND {e}.tgt_node = {tgt_info.node_expr})"
                    f" OR {ap}.probe IS NOT NULL)"
                )
                order_keys.extend([f"COALESCE({ap}.rank, 0)", f"{e}.id"])
            if label_expr is not None:
                on.append(f"{e}.label = {label_expr}")
        elif label_expr is not None:
            # label scan, extent order
            on.append(f"{e}.label = {label_expr}")
            order_keys.append(f"{e}.id")
        else:
            # full scan: all edges in edges() order
            g = self.alias("g")
            post_joins.append(
                f"JOIN egroups {g} ON {g}.graph = :g"
                f" AND {g}.src = {e}.src AND {g}.label = {e}.label"
            )
            order_keys.extend([f"{e}.src", f"{g}.seq", f"{e}.id"])

        # --- emit: derived table, the edges join, dependent joins
        if pre_table is not None:
            if self.from_parts:
                self.table(f"JOIN {pre_table} ON 1=1")
            else:
                self.table(pre_table)
            self.table(f"JOIN edges {e} ON " + " AND ".join(on))
        elif self.from_parts:
            self.table(f"JOIN edges {e} ON " + " AND ".join(on))
        else:
            self.table(f"edges {e}")
            self.where.extend(on)
        self.from_parts.extend(post_joins)
        if label_guard is not None:
            self.where.append(label_guard)
        self.order.extend(order_keys)

        # --- bound-target filter for the source-bound shapes (the
        # unbound-source shapes constrained the target in the join)
        if src_info is not None:
            if tgt_const is not None:
                ta = self._atom_join(f"{e}.tgt_atom")
                self.where.append(self._eq_atom_const(ta, tgt_const))
            elif tgt_info is not None:
                self.where.append(self._eq_target_var(e, tgt_info))

        # --- bind generated positions
        if src_info is None:
            self.vars[condition.source.name] = _VarInfo(
                "node", node_expr=f"{e}.src"
            )
        if arc_gen is not None:
            self.vars[arc_gen] = _VarInfo("label", text_expr=f"{e}.label")
        if loop and src_info is None:
            # the target slot is the source variable, bound above
            self.where.append(f"{e}.tgt_node = {e}.src")
        elif tgt_gen is not None:
            self.vars[tgt_gen] = _VarInfo(
                "target",
                node_expr=f"{e}.tgt_node",
                atom_expr=f"{e}.tgt_atom",
            )

    def _eq_target_var(self, e: str, info: _VarInfo) -> str:
        """Edge target equals a bound variable (filter shape)."""
        if info.kind == "node":
            return f"{e}.tgt_node = {info.node_expr}"
        if info.kind == "const":
            ta = self._atom_join(f"{e}.tgt_atom")
            return self._eq_atom_const(ta, info.const)
        if info.kind == "target":
            ta = self._atom_join(f"{e}.tgt_atom")
            va = self._atom_join(info.atom_expr)
            return (
                f"(({info.node_expr} IS NOT NULL"
                f" AND {e}.tgt_node = {info.node_expr})"
                f" OR {self._eq_atom_atom(ta, va)})"
            )
        raise _Bail  # label kind: runtime string coercion

    # ------------------------------------------------------------ #
    # comparisons

    def _resolve_term(self, term: Union[Var, Const]):
        if isinstance(term, Const):
            return _VarInfo("const", const=term.atom), None
        info = self.vars.get(term.name)
        return info, term.name

    def _compile_comparison(self, condition: ComparisonCond) -> None:
        left, left_name = self._resolve_term(condition.left)
        right, right_name = self._resolve_term(condition.right)
        op = condition.op
        if left is None and right is None:
            raise _Bail  # the in-memory operator raises here
        if left is None or right is None:
            if op != "=":
                raise _Bail  # order comparison with an unbound side raises
            # equality binds the unbound side by copying the other's state
            if left is None:
                self.vars[left_name] = right
            else:
                self.vars[right_name] = left
            return
        if op in ("=", "!="):
            verdict = self._eq_fragment(left, right)
            if verdict is True:
                matched = "1"
            elif verdict is False:
                matched = "0"
            else:
                matched = verdict
            if op == "=":
                if matched == "0":
                    self.empty = True
                elif matched != "1":
                    self.where.append(matched)
            else:
                if matched == "1":
                    self.empty = True
                elif matched != "0":
                    self.where.append(f"NOT COALESCE({matched}, 0)")
            return
        self._compile_order(left, right, op)

    def _eq_fragment(self, left: _VarInfo, right: _VarInfo):
        """SQL for _values_equal(left, right); True/False when decidable
        at compile time.  Raises _Bail for label-vs-atom shapes (their
        coercion needs a runtime numeric parse)."""
        if left.kind == "const" and right.kind == "const":
            return _values_equal(left.const, right.const)
        # oid on either side: plain equality
        if left.kind == "node" or right.kind == "node":
            node, other = (left, right) if left.kind == "node" else (right, left)
            if other.kind == "node":
                return f"({node.node_expr} = {other.node_expr})"
            if other.kind == "target":
                return (
                    f"({other.node_expr} IS NOT NULL"
                    f" AND {node.node_expr} = {other.node_expr})"
                )
            return False  # node vs label/const-atom is never equal
        if left.kind == "label" and right.kind == "label":
            return f"({left.text_expr} = {right.text_expr})"
        if left.kind == "label" or right.kind == "label":
            lab, other = (left, right) if left.kind == "label" else (right, left)
            if other.kind == "const" and other.const.type is AtomType.STRING:
                return f"({lab.text_expr} = {self.p(other.const.value)})"
            raise _Bail  # coercing a label needs a runtime numeric parse
        # both sides are atoms (target rows or constants)
        if left.kind == "target" and right.kind == "target":
            la = self._atom_join(left.atom_expr)
            ra = self._atom_join(right.atom_expr)
            node_arm = (
                f"({left.node_expr} IS NOT NULL AND {right.node_expr} IS NOT NULL"
                f" AND {left.node_expr} = {right.node_expr})"
            )
            return f"({node_arm} OR {self._eq_atom_atom(la, ra)})"
        mixed, const = (
            (left, right) if left.kind == "target" else (right, left)
        )
        va = self._atom_join(mixed.atom_expr)
        return self._eq_atom_const(va, const.const)

    def _compile_order(self, left: _VarInfo, right: _VarInfo, op: str) -> None:
        if left.kind == "const" and right.kind == "const":
            if QueryEngine._compare(left.const, right.const, op):
                return
            self.empty = True
            return
        if left.kind == "node" or right.kind == "node":
            self.empty = True  # oids are not ordered
            return
        if left.kind == "label" or right.kind == "label":
            raise _Bail  # numeric-or-lexicographic needs a runtime parse
        lnum, lstr = self._order_operand(left)
        rnum, rstr = self._order_operand(right)
        sql_op = op
        guards: List[str] = []
        for info in (left, right):
            if info.kind == "target":
                guards.append(f"{info.atom_expr} IS NOT NULL")
        compare = (
            f"(CASE WHEN {lnum} IS NOT NULL AND {rnum} IS NOT NULL"
            f" THEN {lnum} {sql_op} {rnum}"
            f" ELSE {lstr} {sql_op} {rstr} END)"
        )
        self.where.append(" AND ".join(guards + [compare]))

    def _order_operand(self, info: _VarInfo) -> Tuple[str, str]:
        if info.kind == "const":
            return self.p(atom_num(info.const)), self.p(info.const.as_string())
        alias = self._atom_join(info.atom_expr)
        return f"{alias}.num", f"{alias}.str"

    # ------------------------------------------------------------ #
    # predicates

    def _compile_predicate(self, condition: PredicateCond) -> None:
        info = self.vars.get(condition.var.name)
        if info is None:
            raise _Bail  # the in-memory operator raises on unbound vars
        name = condition.name
        if name not in _COMPILABLE_PREDICATES:
            raise _Bail  # custom or unknown: residual resolves or raises
        if info.kind == "const":
            predicate = builtins.object_predicate(name)
            if not predicate(info.const):
                self.empty = True
            return
        if info.kind == "node":
            if name != "isNode":
                self.empty = True
            return
        if info.kind == "label":
            # runtime wraps the string as a STRING atom
            if name in ("isString", "isAtom"):
                return
            if name == "isNumber":
                raise _Bail  # needs a runtime numeric parse
            self.empty = True
            return
        # target kind
        if name == "isNode":
            self.where.append(f"{info.node_expr} IS NOT NULL")
        elif name == "isAtom":
            self.where.append(f"{info.atom_expr} IS NOT NULL")
        elif name == "isNumber":
            alias = self._atom_join(info.atom_expr)
            self.where.append(f"{alias}.num IS NOT NULL")
        else:
            types = _PREDICATE_TYPES[name]
            alias = self._atom_join(info.atom_expr)
            if len(types) == 1:
                self.where.append(f"{alias}.typ = {self.p(types[0])}")
            else:
                marks = ", ".join(self.p(t) for t in types)
                self.where.append(f"{alias}.typ IN ({marks})")

    # ------------------------------------------------------------ #
    # assembly

    def finalize(self) -> Optional[PushdownPlan]:
        if self.pushed == 0 or not self.from_parts:
            return None
        selects: List[str] = []
        slots: List[Tuple[object, ...]] = []
        for name in self.frame.names:
            info = self.vars.get(name)
            if info is None:
                slots.append(("unset",))
            elif info.kind == "node":
                slots.append(("node", len(selects)))
                selects.append(info.node_expr)
            elif info.kind == "target":
                slots.append(("target", len(selects), len(selects) + 1))
                selects.extend([info.node_expr, info.atom_expr])
            elif info.kind == "label":
                slots.append(("label", len(selects)))
                selects.append(info.text_expr)
            else:
                slots.append(("const", info.const))
        sql = "SELECT " + (", ".join(selects) if selects else "1")
        sql += " FROM " + " ".join(self.from_parts)
        if self.where:
            sql += " WHERE " + " AND ".join(f"({w})" for w in self.where)
        if self.order:
            sql += " ORDER BY " + ", ".join(self.order)
        return PushdownPlan(
            sql=sql,
            params=self.params,
            slots=tuple(slots),
            pushed=self.pushed,
            empty=self.empty,
        )


# ---------------------------------------------------------------------- #
# the engine


class SqlQueryEngine(QueryEngine):
    """A :class:`QueryEngine` that pushes plan prefixes into SQLite.

    Construction and the public API are identical to the in-memory
    engine.  The most recent top-level decision is recorded in
    ``last_pushdown`` for EXPLAIN.
    """

    #: Estimated first-operator cardinality below which the in-memory
    #: operators are kept.
    pushdown_cutoff = 64.0
    last_pushdown: Optional[PushdownReport] = None

    # ------------------------------------------------------------ #

    def _run_blocks(
        self,
        ordered: Sequence[Condition],
        rows: List[Row],
        conditions: Sequence[Condition],
        frame: _Frame,
    ) -> List[Row]:
        if not (len(rows) == 1 and all(v is _UNSET for v in rows[0])):
            # nested (seeded) evaluations -- negation verdicts, block
            # sub-queries -- run on the in-memory operators
            return super()._run_blocks(ordered, rows, conditions, frame)
        reason = self._fallback_reason(ordered)
        if reason is None:
            plan = self._compiled_plan(ordered, frame)
            if plan is None:
                reason = "prefix not compilable"
        if reason is not None:
            self.metrics.sql_fallbacks += 1
            self.last_pushdown = PushdownReport(
                pushed=0, total=len(ordered), fallback_reason=reason
            )
            return super()._run_blocks(ordered, rows, conditions, frame)

        metrics = self.metrics
        metrics.sql_pushdowns += 1
        metrics.sql_pushed_conditions += plan.pushed
        metrics.conditions_evaluated += plan.pushed
        if plan.empty:
            fetched: List[Tuple] = []
        else:
            fetched = self.graph._store.query_named(plan.sql, plan.params)
        metrics.sql_rows_fetched += len(fetched)
        rows = self._decode(plan, fetched, frame)
        self.last_pushdown = PushdownReport(
            pushed=plan.pushed, total=len(ordered), sql=plan.sql
        )

        ops: List[OperatorStats] = [
            OperatorStats(
                condition=f"SQL[{plan.pushed} pushed]",
                rows_in=1,
                rows_out=len(rows),
                probes=1,
                dedup_hits=0,
            )
        ]
        if rows:
            # the residue runs on the in-memory operator loop, deadline
            # checks included
            rows = self._run_operators(
                ordered[plan.pushed:], rows, conditions, frame, ops
            )
        self.last_operator_stats = ops
        return rows

    # ------------------------------------------------------------ #

    def _fallback_reason(self, ordered: Sequence[Condition]) -> Optional[str]:
        if not isinstance(self.graph, SqlGraph):
            return "graph is not SQL-backed"
        if self.footprint is not None:
            return "footprint recording"
        if not ordered:
            return "empty where-clause"
        cost = estimate_cost(ordered[0], set(), self.stats, ordered)
        if cost < self.pushdown_cutoff:
            return "below cost cutoff"
        return None

    def _compiled_plan(
        self, ordered: Sequence[Condition], frame: _Frame
    ) -> Optional[PushdownPlan]:
        fingerprint = self.stats.fingerprint()
        key = PlanCache.sql_key(ordered, frame.names, fingerprint)
        cached = self.plan_cache.get_sql(key)
        if cached is not None:
            return cached[0]
        compiler = _Compiler(self.graph, frame)
        compiler.compile(ordered)
        plan = compiler.finalize()
        self.plan_cache.put_sql(key, ordered, plan)
        return plan

    def _decode(
        self, plan: PushdownPlan, fetched: List[Tuple], frame: _Frame
    ) -> List[Row]:
        graph = self.graph
        node_ids: Set[int] = set()
        atom_ids: Set[int] = set()
        for spec in plan.slots:
            kind = spec[0]
            if kind == "node":
                column = spec[1]
                node_ids.update(
                    row[column] for row in fetched if row[column] is not None
                )
            elif kind == "target":
                ncol, acol = spec[1], spec[2]
                node_ids.update(
                    row[ncol] for row in fetched if row[ncol] is not None
                )
                atom_ids.update(
                    row[acol] for row in fetched if row[acol] is not None
                )
        nodes = graph.resolve_nodes(node_ids)
        atoms = graph.resolve_atoms(atom_ids)
        out: List[Row] = []
        intern = sys.intern
        for db_row in fetched:
            values: List[object] = []
            for spec in plan.slots:
                kind = spec[0]
                if kind == "node":
                    values.append(nodes[db_row[spec[1]]])
                elif kind == "target":
                    node_id = db_row[spec[1]]
                    if node_id is not None:
                        values.append(nodes[node_id])
                    else:
                        values.append(atoms[db_row[spec[2]]])
                elif kind == "label":
                    values.append(intern(db_row[spec[1]]))
                elif kind == "const":
                    values.append(spec[1])
                else:
                    values.append(_UNSET)
            out.append(tuple(values))
        return out


def explain_pushdown(engine: QueryEngine) -> str:
    """One-line description of the engine's most recent pushdown
    decision (for EXPLAIN output and diagnostics)."""
    report = getattr(engine, "last_pushdown", None)
    if report is None:
        return "no pushdown-capable evaluation yet"
    return report.describe()


register_engine_factory(
    lambda graph: isinstance(graph, SqlGraph), SqlQueryEngine
)
