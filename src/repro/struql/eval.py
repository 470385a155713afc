"""STRUQL evaluation: the query stage and the construction stage.

Semantics follow paper section 2.2 exactly:

* **Query stage.**  "The meaning of the where-clause is a relation
  defined by the set of assignments from variables in the query to oid
  and label values in the data graph that satisfy all conditions."
  :meth:`QueryEngine.bindings` computes that relation as a list of
  binding dicts (deduplicated -- it is a set).  The conditions run in
  planner order, each as one set-at-a-time block operator over the
  whole frontier.  Rows and their order follow the naive nested-loop
  reference evaluator in ``tests/reference_eval.py``, which the test
  suite checks them against.

* **Construction stage.**  "For each row in the relation, first
  construct all new node oids, as specified in the create clause ...
  next, construct the new edges, as described in the link clause."
  Skolem functions are memoized per result graph, so composed queries
  and repeated link clauses agree on identity, and a repeated edge or
  member is a no-op (set semantics).  So the semantics are per row,
  while the implementation applies each clause once per distinct
  binding of its own variables and skips only no-ops
  (:class:`_Constructor`).  "Edges are added from
  new nodes to new or existing nodes; existing nodes are immutable and
  cannot be extended" -- enforced: a link source must resolve to a
  Skolem-created node of the result graph, otherwise
  :class:`~repro.errors.ImmutableNodeError`.

Nested blocks extend the parent's binding relation with their own
conditions and run their own construction clauses once per distinct
binding of the variables the block uses (:meth:`Query.variables`): a
parent row that agrees with an earlier one on those variables would only
re-apply memoized Skolem terms and already-present edges and members.
For the same reason a top-level block whose clauses and nested blocks
read either the variables bound before its last join or only that
join's variables expands the join once per distinct join value
(:func:`_join_split`): the rows that skips are ones construction skips.

Binding values are :class:`~repro.graph.Oid` (nodes),
:class:`~repro.graph.Atom` (atomic values), or ``str`` (arc-variable
labels -- "elements of the graph's schema").
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import (
    ImmutableNodeError,
    StruqlEvaluationError,
)
from ..graph import (
    Atom,
    AtomType,
    Graph,
    Oid,
    Target,
    atoms_equal,
    coercion_probes,
    compare_atoms,
)
from ..repository.indexes import IndexStatistics, graph_statistics
from ..resilience.chaos import maybe_fail
from ..resilience.deadline import current_deadline
from . import builtins
from .ast import (
    CollectClause,
    CollectionCond,
    ComparisonCond,
    Condition,
    Const,
    EdgeCond,
    LinkClause,
    NotCond,
    PathCond,
    PathExpr,
    PredicateCond,
    Program,
    Query,
    SkolemTerm,
    Var,
)
from .footprint import Footprint, path_alphabet
from .optimizer import choose_path_direction, order_conditions, shared_not_variables
from .parser import parse
from .paths import NFA, sources_to_many, targets_from_many
from .plancache import PlanCache, global_plan_cache

#: A binding value: node oid, atomic value, or arc-variable label.
Value = Union[Oid, Atom, str]
Binding = Dict[str, Value]


@dataclass
class Metrics:
    """Counters the benchmarks read after an evaluation."""

    bindings_produced: int = 0
    edges_examined: int = 0
    conditions_evaluated: int = 0
    nodes_created: int = 0
    edges_created: int = 0
    #: compiled-plan cache lookups that were served from the cache
    plan_cache_hits: int = 0
    #: compiled-plan cache lookups that had to run the planner
    plan_cache_misses: int = 0
    #: fresh statistics snapshots this engine observed (epoch changes)
    stats_snapshots: int = 0
    #: rows answered from a per-distinct-key cache instead of
    #: re-probing the indexes
    dedup_hits: int = 0
    #: index probes actually executed (one per distinct key)
    hash_join_probes: int = 0
    #: path endpoints answered from the shared reachability memo
    path_memo_hits: int = 0
    #: path endpoints that had to run the batched product-automaton search
    path_memo_misses: int = 0
    #: top-level where-clauses whose plan prefix ran as one SQL SELECT
    sql_pushdowns: int = 0
    #: conditions folded into pushed-down SELECTs (across all pushdowns)
    sql_pushed_conditions: int = 0
    #: binding rows fetched from pushed-down SELECTs before residual work
    sql_rows_fetched: int = 0
    #: SQL-capable evaluations that fell back to the in-memory operators
    sql_fallbacks: int = 0

    def merge(self, other: "Metrics") -> None:
        """Fold another engine's counters into this one.

        Thread-safety contract: a ``Metrics`` instance belongs to one
        engine, and an engine to one thread (serve workers each own a
        warm engine).  Cross-thread aggregation happens by merging
        snapshots here, never by sharing an instance between
        incrementing threads.
        """
        for spec in dataclass_fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )


@dataclass
class OperatorStats:
    """Row counts of one block operator in a ``bindings`` call.

    ``probes`` is how many distinct-key index probes the operator ran;
    ``dedup_hits`` is how many input rows were answered from its per-key
    cache instead.  EXPLAIN renders these per plan step.
    """

    condition: str
    rows_in: int
    rows_out: int
    probes: int
    dedup_hits: int


@dataclass
class SplitStats:
    """Row counts of a top-level block whose last operator ran once per
    distinct join value (:func:`_join_split`).  EXPLAIN renders these."""

    #: the last operator's variables that the operators before it bind
    join: Tuple[str, ...]
    #: distinct rows of the operators before it
    prefix_rows: int
    #: distinct join values the split operator was seeded with
    join_values: int
    #: rows the split operator produced from those seeds
    suffix_rows: int
    #: rows handed to construction
    rows: int


# ---------------------------------------------------------------------- #
# value plumbing


def _as_atom(value: Value) -> Optional[Atom]:
    if isinstance(value, Atom):
        return value
    if isinstance(value, str):
        return Atom(AtomType.STRING, value)
    return None


def _values_equal(left: Value, right: Value) -> bool:
    left_is_oid = isinstance(left, Oid)
    right_is_oid = isinstance(right, Oid)
    if left_is_oid or right_is_oid:
        return left == right
    left_atom, right_atom = _as_atom(left), _as_atom(right)
    assert left_atom is not None and right_atom is not None
    return atoms_equal(left_atom, right_atom)


def _coercion_probes(value: Value) -> Tuple[Atom, ...]:
    """Atoms to probe in exact-match indexes for a coercing equality.

    The reverse-adjacency (value) index is exact, but STRUQL equality
    coerces; so a constant ``"1998"`` must also probe the INTEGER and
    FLOAT spellings, and vice versa.  Memoized per distinct atom: the
    same constant is probed for every frontier row, and the spelling
    set never changes.
    """
    atom = _as_atom(value)
    if atom is None:
        return ()
    return coercion_probes(atom)


def _repeated_positions(
    source: int, arc: Optional[int], target: Optional[int]
) -> Tuple[Tuple[int, int], ...]:
    """Pairs of positions in an edge match ``(source, label, target)``
    that one repeated variable fills, and so must hold equal values."""
    pairs = []
    if target == source:
        pairs.append((0, 2))
    if arc is not None:
        if arc == source:
            pairs.append((0, 1))
        if arc == target:
            pairs.append((1, 2))
    return tuple(pairs)


# ---------------------------------------------------------------------- #
# the query stage

#: Sentinel marking an unbound slot in a tuple row.
_UNSET = object()

#: A tuple row: one slot per variable of the frame, ``_UNSET`` if unbound.
Row = Tuple[object, ...]


def _record_edge_footprint(
    footprint: Footprint,
    source_value: Optional[Value],
    label_value: Optional[str],
    target_value: Optional[Value],
) -> None:
    """Semantic dependence of one edge-condition bound/unbound pattern."""
    if source_value is not None:
        if isinstance(source_value, Oid):
            if label_value is not None:
                footprint.edge_reads.add((source_value, label_value))
            else:
                footprint.oid_reads_all.add(source_value)
    elif target_value is not None:
        if isinstance(target_value, Oid):
            footprint.value_probes.add((target_value, label_value))
        else:
            for probe_atom in _coercion_probes(target_value):
                footprint.value_probes.add((probe_atom, label_value))
    elif label_value is not None:
        footprint.label_scans.add(label_value)
    else:
        footprint.all_edges = True


class _Frame:
    """Slot table for one :meth:`QueryEngine.bindings` call.

    The binding relation is pipelined as slot-indexed tuple rows instead
    of per-row dicts: a row copy is one tuple allocation, membership and
    deduplication are plain tuple hashing, and variables resolve to
    integer slots once per condition instead of string lookups per row.
    Dicts appear only at the API boundary (:meth:`to_dict`).
    """

    __slots__ = ("names", "slots")

    def __init__(self, names: List[str]) -> None:
        self.names = names
        self.slots = {name: index for index, name in enumerate(names)}

    @classmethod
    def for_call(
        cls, conditions: Sequence[Condition], initial_rows: Sequence[Binding]
    ) -> "_Frame":
        names: List[str] = []
        seen: Set[str] = set()
        for row in initial_rows:
            for name in row:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        for condition in conditions:
            for name in condition.variables():
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return cls(names)

    def from_dict(self, binding: Binding) -> Row:
        return tuple(binding.get(name, _UNSET) for name in self.names)

    def to_dict(self, row: Row) -> Binding:
        return {
            name: value
            for name, value in zip(self.names, row)
            if value is not _UNSET
        }

    def get(self, row: Row, name: str) -> Optional[Value]:
        index = self.slots.get(name)
        if index is None:
            return None
        value = row[index]
        return None if value is _UNSET else value  # type: ignore[return-value]

    def unique_dicts(self, rows: List[Row], fully_bound: bool = False) -> List[Binding]:
        """Deduplicate (first occurrence wins) and convert to dicts.

        One hashed pass: ``dict.fromkeys`` preserves first-occurrence
        order and hashes each tuple row exactly once, instead of the
        probe-then-insert double hash of a seen-set loop.

        ``fully_bound=True`` promises no row contains ``_UNSET`` (no
        negation inner variables, no partially bound seeds), letting
        conversion skip the per-slot filter for a C-level ``dict(zip)``.
        """
        if fully_bound:
            names = self.names
            return [dict(zip(names, row)) for row in dict.fromkeys(rows)]
        to_dict = self.to_dict
        return [to_dict(row) for row in dict.fromkeys(rows)]


class _FootprintScope:
    """Swaps a :class:`QueryEngine`'s active footprint recorder in and out."""

    __slots__ = ("_engine", "_footprint", "_previous")

    def __init__(self, engine: "QueryEngine", footprint: Optional[Footprint]) -> None:
        self._engine = engine
        self._footprint = footprint
        self._previous: Optional[Footprint] = None

    def __enter__(self) -> Optional[Footprint]:
        self._previous = self._engine.footprint
        self._engine.footprint = self._footprint
        return self._footprint

    def __exit__(self, *exc_info: object) -> None:
        self._engine.footprint = self._previous


class QueryEngine:
    """Evaluates where-clauses over one graph.

    Each planned condition runs as one block operator: it consumes the
    whole frontier at once, probes the indexes once per *distinct*
    bound key and hash-joins the results back onto the rows; path
    conditions batch all their endpoints into one origin-tagged
    product-automaton search backed by a per-``(NFA, graph epoch)``
    reachability memo.  The rows and their order are those of the
    naive nested-loop evaluator in ``tests/reference_eval.py`` run over
    the same condition order, so a warm engine reproduces a cold one.

    Construction is O(1): statistics come lazily from the shared
    epoch-stamped provider (:func:`~repro.repository.indexes.graph_statistics`)
    unless an explicit ``stats`` snapshot is supplied, and condition
    orderings / compiled path NFAs are served from ``plan_cache``
    (defaulting to the process-wide cache) keyed by condition identity
    and the statistics fingerprint, so repeated evaluation over an
    unchanged graph re-plans nothing.
    """

    def __init__(
        self,
        graph: Graph,
        stats: Optional[IndexStatistics] = None,
        metrics: Optional[Metrics] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.graph = graph
        self._explicit_stats = stats
        self._seen_stats: Optional[IndexStatistics] = None
        self.metrics = metrics if metrics is not None else Metrics()
        self.plan_cache = plan_cache if plan_cache is not None else global_plan_cache()
        #: per-operator row counts of the most recent top-level
        #: ``bindings`` call (EXPLAIN renders these)
        self.last_operator_stats: List[OperatorStats] = []
        #: the split of the most recent ``bindings(query)`` call, or
        #: None when its block ran whole
        self.last_split: Optional[SplitStats] = None
        #: when set, every condition evaluated records its semantic
        #: dependence here (see :mod:`repro.struql.footprint`)
        self.footprint: Optional[Footprint] = None

    def record_into(self, footprint: Optional[Footprint]) -> "_FootprintScope":
        """Context manager: record reads into ``footprint`` for the
        duration (restoring whatever recorder was active before)."""
        return _FootprintScope(self, footprint)

    @property
    def stats(self) -> IndexStatistics:
        """Planning statistics: the explicit snapshot if one was given,
        otherwise the graph's shared epoch-stamped snapshot (refreshed
        automatically after any mutation)."""
        if self._explicit_stats is not None:
            return self._explicit_stats
        current = graph_statistics(self.graph)
        if current is not self._seen_stats:
            self._seen_stats = current
            self.metrics.stats_snapshots += 1
        return current

    @stats.setter
    def stats(self, value: Optional[IndexStatistics]) -> None:
        self._explicit_stats = value

    # ------------------------------------------------------------ #

    def bindings(
        self,
        conditions: Union[Sequence[Condition], Query],
        initial: Optional[Iterable[Binding]] = None,
    ) -> List[Binding]:
        """The binding relation of a conjunction of conditions.

        ``initial`` seeds the pipeline (used for nested blocks); default
        is the single empty binding.  The result is deduplicated.

        Given a top-level :class:`Query` instead, as :func:`evaluate`
        does, the result is the rows the block's construction reads.
        When :func:`_join_split` splits the block's plan, that is a
        subsequence of the relation in which every clause and nested
        block sees the same distinct bindings in the same order; else
        it is the whole relation.  ``last_split`` describes the split.
        """
        query: Optional[Query] = None
        if isinstance(conditions, Query):
            query, conditions = conditions, conditions.where
            self.last_split = None
        maybe_fail("engine.bindings")
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("engine.bindings")
        initial_rows: List[Binding] = [
            dict(b) for b in (initial if initial is not None else [{}])
        ]
        frame = _Frame.for_call(conditions, initial_rows)
        rows: List[Row] = [frame.from_dict(b) for b in initial_rows]
        if not conditions:
            return frame.unique_dicts(rows)
        bound = (
            frozenset().union(*[frozenset(b) for b in initial_rows])
            if initial_rows
            else frozenset()
        )
        ordered = self._plan(conditions, bound)
        split = _join_split(query, ordered) if query is not None and not bound else None
        if split is None:
            rows = self._run_blocks(ordered, rows, conditions, frame)
        else:
            rows = self._run_split(split, ordered, rows, conditions, frame)
        self.metrics.bindings_produced += len(rows)
        # every slot of a surviving row is bound unless a seed row left
        # one open or a negation carried inner-only variables into the
        # frame -- outside those, conversion can take the C-level path
        fully_bound = not bound and not any(
            isinstance(condition, NotCond) for condition in conditions
        )
        return frame.unique_dicts(rows, fully_bound=fully_bound)

    def _run_blocks(
        self,
        ordered: Sequence[Condition],
        rows: List[Row],
        conditions: Sequence[Condition],
        frame: _Frame,
    ) -> List[Row]:
        """Set-at-a-time pipeline: each condition consumes the whole
        frontier as one block operator.  Per-operator row counts land in
        ``last_operator_stats``."""
        ops: List[OperatorStats] = []
        rows = self._run_operators(ordered, rows, conditions, frame, ops)
        # assigned last so nested calls (negations) don't clobber it
        self.last_operator_stats = ops
        return rows

    def _run_split(
        self,
        split: Tuple[FrozenSet[str], FrozenSet[str]],
        ordered: Sequence[Condition],
        rows: List[Row],
        conditions: Sequence[Condition],
        frame: _Frame,
    ) -> List[Row]:
        """A split block's collapsed rows (see :func:`_join_split`).

        The operators before the last run as planned (on a stored
        generation, one pushed-down statement) and their rows are
        deduplicated.  The last operator runs once, seeded with the
        distinct join values.  Each prefix row then takes all suffix
        rows of its join value the first time that value occurs, and
        only the first one after that; a value with none drops its rows.
        """
        join, suffix = split
        prefix = list(dict.fromkeys(self._run_blocks(ordered[:-1], rows, conditions, frame)))
        ops = self.last_operator_stats
        slots = frame.slots
        join_names = [name for name in frame.names if name in join]
        suffix_names = [name for name in frame.names if name in suffix]
        join_slots = [slots[name] for name in join_names]
        suffix_slots = [slots[name] for name in suffix_names]
        row_keys = [tuple([row[i] for i in join_slots]) for row in prefix]
        keys = dict.fromkeys(row_keys)
        found: List[Binding] = []
        if keys:
            found = self.bindings(
                [ordered[-1]], initial=[dict(zip(join_names, key)) for key in keys]
            )
            ops = ops + self.last_operator_stats
        tails: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for binding in found:
            tails.setdefault(tuple([binding[name] for name in join_names]), []).append(
                tuple([binding[name] for name in suffix_names])
            )
        out: List[Row] = []
        for row, key in zip(prefix, row_keys):
            matches = tails.get(key)
            if not matches:
                continue
            if len(matches) > 1:
                # later rows with this join value take only the first
                tails[key] = matches[:1]
            new = list(row)
            for match in matches:
                for slot, value in zip(suffix_slots, match):
                    new[slot] = value
                out.append(tuple(new))
        self.last_operator_stats = ops
        self.last_split = SplitStats(
            join=tuple(join_names),
            prefix_rows=len(prefix),
            join_values=len(keys),
            suffix_rows=len(found),
            rows=len(out),
        )
        return out

    def _run_operators(
        self,
        ordered: Sequence[Condition],
        rows: List[Row],
        conditions: Sequence[Condition],
        frame: _Frame,
        ops: List[OperatorStats],
    ) -> List[Row]:
        """Apply ``ordered`` block operators to ``rows`` in turn, appending
        one :class:`OperatorStats` per operator to ``ops``.  Checks the
        ambient deadline before each operator and stops at the first
        empty frontier."""
        metrics = self.metrics
        deadline = current_deadline()
        for condition in ordered:
            metrics.conditions_evaluated += 1
            if deadline is not None:
                deadline.check("engine.block")
            rows_in = len(rows)
            probes_before = metrics.hash_join_probes
            dedup_before = metrics.dedup_hits
            rows = self._apply_block(condition, rows, conditions, frame)
            ops.append(
                OperatorStats(
                    condition=str(condition),
                    rows_in=rows_in,
                    rows_out=len(rows),
                    probes=metrics.hash_join_probes - probes_before,
                    dedup_hits=metrics.dedup_hits - dedup_before,
                )
            )
            if not rows:
                break
        return rows

    def _plan(
        self, conditions: Sequence[Condition], bound: frozenset
    ) -> List[Condition]:
        """The ordered plan, via the compiled-plan cache.

        The key ties the plan to the exact condition objects, the seed
        binding pattern, and the statistics fingerprint
        ``(graph, epoch)`` -- so any graph mutation invalidates it.
        """
        stats = self.stats
        key = PlanCache.plan_key(conditions, bound, stats.fingerprint())
        cached = self.plan_cache.get_plan(key)
        if cached is not None:
            self.metrics.plan_cache_hits += 1
            return cached
        self.metrics.plan_cache_misses += 1
        ordered = order_conditions(conditions, bound, stats)
        self.plan_cache.put_plan(key, conditions, ordered)
        return ordered

    # ------------------------------------------------------------ #
    # block operators (set-at-a-time execution)
    #
    # Each operator consumes the whole frontier, probes the graph once
    # per *distinct* bound key, and hash-joins the materialized matches
    # back onto the rows.  Match lists keep the reference evaluator's
    # enumeration order and rows are processed in frontier order, so
    # the output (values and order) is the reference's.

    def _nfas(self, path: PathExpr) -> Tuple[NFA, NFA]:
        return self.plan_cache.nfas(path)

    @staticmethod
    def _compare(left: Value, right: Value, op: str) -> bool:
        if op == "=":
            return _values_equal(left, right)
        if op == "!=":
            return not _values_equal(left, right)
        left_atom, right_atom = _as_atom(left), _as_atom(right)
        if left_atom is None or right_atom is None:
            return False  # oids are not ordered
        sign = compare_atoms(left_atom, right_atom)
        return {"<": sign < 0, "<=": sign <= 0, ">": sign > 0, ">=": sign >= 0}[op]

    def _apply_block(
        self,
        condition: Condition,
        rows: List[Row],
        siblings: Sequence[Condition],
        frame: _Frame,
    ) -> List[Row]:
        if isinstance(condition, CollectionCond):
            return self._block_collection(condition, rows, frame)
        if isinstance(condition, EdgeCond):
            return self._block_edge(condition, rows, frame)
        if isinstance(condition, PathCond):
            return self._block_path(condition, rows, frame)
        if isinstance(condition, ComparisonCond):
            return self._block_comparison(condition, rows, frame)
        if isinstance(condition, PredicateCond):
            return self._block_predicate(condition, rows, frame)
        if isinstance(condition, NotCond):
            return self._block_not(condition, rows, siblings, frame)
        raise StruqlEvaluationError(f"unknown condition type: {condition!r}")

    def _block_collection(
        self, condition: CollectionCond, rows: List[Row], frame: _Frame
    ) -> List[Row]:
        index = frame.slots[condition.var.name]
        name = condition.collection
        graph = self.graph
        footprint = self.footprint
        metrics = self.metrics
        members: Optional[List[Target]] = None
        verdicts: Dict[object, bool] = {}
        out: List[Row] = []
        deadline = current_deadline()
        ticks = 0
        for row in rows:
            ticks += 1
            if not (ticks & 1023) and deadline is not None:
                deadline.check("block.collection")
            value = row[index]
            if value is _UNSET:
                if footprint is not None:
                    footprint.collection_scans.add(name)
                if members is None:
                    members = graph.collection(name)
                    metrics.hash_join_probes += 1
                else:
                    metrics.dedup_hits += 1
                prefix, suffix = row[:index], row[index + 1:]
                for member in members:
                    ticks += 1
                    if not (ticks & 1023) and deadline is not None:
                        deadline.check("block.collection")
                    out.append(prefix + (member,) + suffix)
                continue
            if footprint is not None and isinstance(value, Oid):
                footprint.membership_reads.add((name, value))
            verdict = verdicts.get(value, _UNSET)
            if verdict is _UNSET:
                verdict = isinstance(value, Oid) and graph.in_collection(name, value)
                verdicts[value] = verdict
                metrics.hash_join_probes += 1
            else:
                metrics.dedup_hits += 1
            if verdict:
                out.append(row)
        return out

    def _block_edge(
        self, condition: EdgeCond, rows: List[Row], frame: _Frame
    ) -> List[Row]:
        slots = frame.slots
        source_index = slots[condition.source.name]
        label_const = condition.label if isinstance(condition.label, str) else None
        arc_index = (
            slots[condition.label.name] if isinstance(condition.label, Var) else None
        )
        target = condition.target
        if isinstance(target, Const):
            target_slot: Optional[int] = None
            target_const: Optional[Value] = target.atom
        else:
            target_slot = slots[target.name]
            target_const = None
        # a variable repeated inside the condition (x -> "n" -> x) must
        # take one value: decided here, once, so that conditions without
        # a repeat pay nothing per match
        repeats = _repeated_positions(source_index, arc_index, target_slot)
        footprint = self.footprint
        metrics = self.metrics
        # distinct (source, label, target) key -> materialized matches;
        # the key determines which slots are unbound, so every row
        # sharing a key also shares its write mask
        cache: Dict[Tuple[object, object, object], List[Tuple[Oid, str, Target]]] = {}
        out: List[Row] = []
        deadline = current_deadline()
        ticks = 0
        for row in rows:
            ticks += 1
            if not (ticks & 1023) and deadline is not None:
                deadline.check("block.edge")
            if arc_index is not None:
                bound_label = row[arc_index]
                if bound_label is _UNSET:
                    label_value: Optional[str] = None
                    label_unbound = True
                elif isinstance(bound_label, str):
                    label_value, label_unbound = bound_label, False
                elif isinstance(bound_label, Atom):
                    label_value, label_unbound = bound_label.as_string(), False
                else:
                    continue  # arc variable bound to an oid: nothing matches
            else:
                label_value, label_unbound = label_const, False
            source_value = row[source_index]
            if source_value is _UNSET:
                source_value = None
            if target_slot is not None:
                target_value = row[target_slot]
                if target_value is _UNSET:
                    target_value = None
            else:
                target_value = target_const
            if footprint is not None:
                _record_edge_footprint(footprint, source_value, label_value, target_value)
            key = (source_value, label_value, target_value)
            matches = cache.get(key)
            if matches is None:
                matches = self._edge_matches(source_value, label_value, target_value)
                if repeats:
                    matches = [
                        match for match in matches
                        if all(_values_equal(match[a], match[b]) for a, b in repeats)
                    ]
                cache[key] = matches
                metrics.hash_join_probes += 1
            else:
                metrics.dedup_hits += 1
            if not matches:
                continue
            set_source = source_value is None
            # a repeated slot keeps its first write (source, then label)
            set_target = (
                target_value is None
                and target_slot is not None
                and target_slot != source_index
                and target_slot != arc_index
            )
            if not set_source and not label_unbound and not set_target:
                # pure filter: the row survives once per matching edge
                if len(matches) == 1:
                    out.append(row)
                else:
                    out.extend([row] * len(matches))
                continue
            # the write mask is constant per key, so one mutable copy
            # serves every match of this row
            new = list(row)
            for source, label, edge_target in matches:
                ticks += 1
                if not (ticks & 1023) and deadline is not None:
                    deadline.check("block.edge")
                if set_source:
                    new[source_index] = source
                if label_unbound:
                    new[arc_index] = label
                if set_target:
                    new[target_slot] = edge_target
                out.append(tuple(new))
        return out

    def _edge_matches(
        self,
        source_value: Optional[Value],
        label_value: Optional[str],
        target_value: Optional[Value],
    ) -> List[Tuple[Oid, str, Target]]:
        """Materialized matches of one distinct edge-probe key, in the
        reference evaluator's enumeration order."""
        graph = self.graph
        metrics = self.metrics
        # one clock read per distinct probe: each probe scans at most the
        # whole edge relation, so the gap between checks stays bounded by
        # one scan without per-edge overhead in these hot loops
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("engine.edge-probe")
        matches: List[Tuple[Oid, str, Target]] = []
        if source_value is not None:
            if not isinstance(source_value, Oid) or not graph.has_node(source_value):
                return matches
            if label_value is not None:
                candidates: Iterable[Tuple[str, Target]] = (
                    (label_value, t) for t in graph.targets(source_value, label_value)
                )
            else:
                candidates = graph.out_edges(source_value)
            for label, edge_target in candidates:
                metrics.edges_examined += 1
                if target_value is not None and not _values_equal(edge_target, target_value):
                    continue
                matches.append((source_value, label, edge_target))
            return matches
        if target_value is not None:
            probes: Sequence[Target]
            if isinstance(target_value, Oid):
                probes = (target_value,)
            else:
                probes = _coercion_probes(target_value)
            seen: Set[Tuple[Oid, str]] = set()
            for probe in probes:
                for source, label in graph.in_edges(probe):
                    metrics.edges_examined += 1
                    if label_value is not None and label != label_value:
                        continue
                    if (source, label) in seen:
                        continue
                    seen.add((source, label))
                    matches.append((source, label, probe))
            return matches
        if label_value is not None:
            for source, edge_target in graph.edges_with_label(label_value):
                metrics.edges_examined += 1
                matches.append((source, label_value, edge_target))
            return matches
        for source, label, edge_target in graph.edges():
            metrics.edges_examined += 1
            matches.append((source, label, edge_target))
        return matches

    def _block_comparison(
        self, condition: ComparisonCond, rows: List[Row], frame: _Frame
    ) -> List[Row]:
        left_term, right_term = condition.left, condition.right
        left_const = left_term.atom if isinstance(left_term, Const) else None
        left_slot = None if isinstance(left_term, Const) else frame.slots[left_term.name]
        right_const = right_term.atom if isinstance(right_term, Const) else None
        right_slot = (
            None if isinstance(right_term, Const) else frame.slots[right_term.name]
        )
        op = condition.op
        metrics = self.metrics
        verdicts: Dict[Tuple[object, object], object] = {}
        out: List[Row] = []
        for row in rows:
            if left_slot is None:
                left: Optional[Value] = left_const
            else:
                left = None if row[left_slot] is _UNSET else row[left_slot]  # type: ignore[assignment]
            if right_slot is None:
                right: Optional[Value] = right_const
            else:
                right = None if row[right_slot] is _UNSET else row[right_slot]  # type: ignore[assignment]
            if left is None and right is None:
                raise StruqlEvaluationError(
                    f"comparison {condition} has no bound side; "
                    "reorder the query or enable the optimizer"
                )
            if left is None or right is None:
                if op != "=":
                    raise StruqlEvaluationError(
                        f"order comparison {condition} requires both sides bound"
                    )
                index = left_slot if left is None else right_slot
                bound_value = right if left is None else left
                assert index is not None and bound_value is not None
                out.append(row[:index] + (bound_value,) + row[index + 1:])
                continue
            key = (left, right)
            verdict = verdicts.get(key, _UNSET)
            if verdict is _UNSET:
                verdict = self._compare(left, right, op)
                verdicts[key] = verdict
                metrics.hash_join_probes += 1
            else:
                metrics.dedup_hits += 1
            if verdict:
                out.append(row)
        return out

    def _block_predicate(
        self, condition: PredicateCond, rows: List[Row], frame: _Frame
    ) -> List[Row]:
        index = frame.slots[condition.var.name]
        metrics = self.metrics
        predicate = None
        verdicts: Dict[object, object] = {}
        out: List[Row] = []
        for row in rows:
            value = row[index]
            if value is _UNSET:
                raise StruqlEvaluationError(
                    f"predicate {condition} applied to unbound variable"
                )
            if predicate is None:
                predicate = builtins.object_predicate(condition.name)
                if predicate is None:
                    raise StruqlEvaluationError(
                        f"unknown predicate {condition.name!r}"
                    )
            verdict = verdicts.get(value, _UNSET)
            if verdict is _UNSET:
                probe: object = value
                if isinstance(value, str):
                    probe = Atom(AtomType.STRING, value)
                verdict = predicate(probe)
                verdicts[value] = verdict
                metrics.hash_join_probes += 1
            else:
                metrics.dedup_hits += 1
            if verdict:
                out.append(row)
        return out

    def _block_not(
        self,
        condition: NotCond,
        rows: List[Row],
        siblings: Sequence[Condition],
        frame: _Frame,
    ) -> List[Row]:
        """Anti-join: the rows whose projection onto the negation's
        variables has no match.  Every distinct projection seeds ONE
        evaluation of the inner conditions (one per pattern of bound
        variables), so their path searches batch like any other
        frontier's; the block operators map each seed row to its own
        matches, so a seed survives exactly when it alone would."""
        needed = shared_not_variables(condition, siblings)
        slots = frame.slots
        # the inner conditions only mention the negation's own variables,
        # so rows agreeing on that projection share one verdict
        negation_vars = condition.variables()
        proj = [name for name in frame.names if name in negation_vars]
        proj_slots = [slots[name] for name in proj]
        metrics = self.metrics
        keys: List[Tuple[object, ...]] = []
        seeds: Dict[Tuple[bool, ...], Dict[Tuple[object, ...], None]] = {}
        for row in rows:
            missing = [name for name in needed if frame.get(row, name) is None]
            if missing:
                raise StruqlEvaluationError(
                    f"negation {condition} checked before {missing} were bound"
                )
            key = tuple(row[i] for i in proj_slots)
            keys.append(key)
            group = seeds.setdefault(tuple(v is not _UNSET for v in key), {})
            if key in group:
                metrics.dedup_hits += 1
            else:
                group[key] = None
                metrics.hash_join_probes += 1
        matched: Set[Tuple[object, ...]] = set()
        for mask, group in seeds.items():
            found = self.bindings(
                list(condition.inner),
                initial=[
                    {name: value for name, value in zip(proj, key) if value is not _UNSET}
                    for key in group
                ],
            )
            for binding in found:
                matched.add(tuple(
                    binding[name] if bound else _UNSET for name, bound in zip(proj, mask)
                ))
        return [row for row, key in zip(rows, keys) if key not in matched]

    def _block_path(
        self, condition: PathCond, rows: List[Row], frame: _Frame
    ) -> List[Row]:
        forward, backward = self._nfas(condition.path)
        slots = frame.slots
        source_index = slots[condition.source.name]
        target = condition.target
        if isinstance(target, Const):
            target_slot: Optional[int] = None
            target_const: Optional[Value] = target.atom
        else:
            target_slot = slots[target.name]
            target_const = None
        graph = self.graph
        footprint = self.footprint
        metrics = self.metrics
        alphabet_known = False
        alphabet: Optional[Set[str]] = None

        # ---- pass 1: resolve endpoints, record footprints, and gather
        # the distinct seeds each direction's batched search needs
        resolved: List[Tuple[Optional[Value], Optional[Value]]] = []
        distinct_keys: Set[Tuple[object, object]] = set()
        forward_seeds: Dict[Oid, None] = {}
        backward_seeds: Dict[Target, None] = {}
        pair_rows: Dict[Tuple[Value, Value], None] = {}
        target_only: Dict[Value, None] = {}
        probe_lists: Dict[Value, Tuple[Target, ...]] = {}
        enumerate_all = False

        def probes_for(value: Value) -> Tuple[Target, ...]:
            cached = probe_lists.get(value)
            if cached is None:
                if isinstance(value, Oid):
                    cached = (value,)
                else:
                    cached = tuple(_coercion_probes(value))
                probe_lists[value] = cached
            return cached

        deadline = current_deadline()
        ticks = 0
        for row in rows:
            ticks += 1
            if not (ticks & 1023) and deadline is not None:
                deadline.check("block.path")
            source_value = row[source_index]
            if source_value is _UNSET:
                source_value = None
            if target_slot is not None:
                target_value = row[target_slot]
                if target_value is _UNSET:
                    target_value = None
            else:
                target_value = target_const
            resolved.append((source_value, target_value))
            key = (source_value, target_value)
            if key in distinct_keys:
                metrics.dedup_hits += 1
            else:
                distinct_keys.add(key)
            if footprint is not None:
                # Conservative: a path depends on its whole label alphabet
                # plus zero-length existence checks on its endpoints;
                # wildcards widen to all edges.
                if source_value is None and target_value is None:
                    footprint.all_edges = True
                else:
                    if not alphabet_known:
                        alphabet = path_alphabet(condition.path)
                        alphabet_known = True
                    if alphabet is None:
                        footprint.all_edges = True
                    else:
                        footprint.label_scans |= alphabet
                    if isinstance(source_value, Oid):
                        footprint.node_checks.add(source_value)
                    if isinstance(target_value, Oid):
                        footprint.node_checks.add(target_value)
            if source_value is not None:
                if not isinstance(source_value, Oid) or not graph.has_node(source_value):
                    continue  # this row can never match
                if target_value is None:
                    forward_seeds[source_value] = None
                else:
                    pair_rows[(source_value, target_value)] = None
            elif target_value is not None:
                target_only[target_value] = None
            else:
                enumerate_all = True

        # fully-bound checks can search from either side; let the
        # optimizer pick the cheaper frontier from the statistics
        pair_direction = "forward"
        if pair_rows:
            pair_direction = choose_path_direction(
                len({sv for sv, _ in pair_rows}),
                len({tv for _, tv in pair_rows}),
                self.stats,
            )
            if pair_direction == "forward":
                for sv, _ in pair_rows:
                    forward_seeds[sv] = None
            else:
                for _, tv in pair_rows:
                    for probe in probes_for(tv):
                        backward_seeds[probe] = None
        for tv in target_only:
            for probe in probes_for(tv):
                backward_seeds[probe] = None
        all_nodes: List[Oid] = []
        if enumerate_all:
            all_nodes = list(graph.nodes())
            for node in all_nodes:
                forward_seeds[node] = None

        forward_map: Dict[object, Tuple[object, ...]] = {}
        if forward_seeds:
            forward_map = self._path_reach(forward, list(forward_seeds), backward=False)
        backward_map: Dict[object, Tuple[object, ...]] = {}
        if backward_seeds:
            backward_map = self._path_reach(backward, list(backward_seeds), backward=True)

        forward_sets: Dict[object, FrozenSet[object]] = {}

        def forward_set(seed: object) -> FrozenSet[object]:
            cached = forward_sets.get(seed)
            if cached is None:
                cached = forward_sets[seed] = frozenset(forward_map[seed])
            return cached

        backward_sets: Dict[object, FrozenSet[object]] = {}

        def backward_set(seed: object) -> FrozenSet[object]:
            cached = backward_sets.get(seed)
            if cached is None:
                cached = backward_sets[seed] = frozenset(backward_map[seed])
            return cached

        # ---- pass 2: emit per row, in frontier order, from the shared
        # per-distinct-key results
        pair_verdicts: Dict[Tuple[Value, Value], bool] = {}
        tv_sources: Dict[Value, Tuple[Oid, ...]] = {}
        out: List[Row] = []
        for row, (source_value, target_value) in zip(rows, resolved):
            ticks += 1
            if not (ticks & 1023) and deadline is not None:
                deadline.check("block.path")
            if source_value is not None:
                if not isinstance(source_value, Oid) or not graph.has_node(source_value):
                    continue
                if target_value is not None:
                    pair = (source_value, target_value)
                    verdict = pair_verdicts.get(pair)
                    if verdict is None:
                        probes = probes_for(target_value)
                        if pair_direction == "forward":
                            reach = forward_set(source_value)
                            verdict = any(p in reach for p in probes)
                        else:
                            verdict = any(
                                source_value in backward_set(p) for p in probes
                            )
                        pair_verdicts[pair] = verdict
                    if verdict:
                        out.append(row)
                    continue
                assert target_slot is not None
                prefix, suffix = row[:target_slot], row[target_slot + 1:]
                for reached in forward_map[source_value]:
                    ticks += 1
                    if not (ticks & 1023) and deadline is not None:
                        deadline.check("block.path")
                    out.append(prefix + (reached,) + suffix)
                continue
            if target_value is not None:
                sources = tv_sources.get(target_value)
                if sources is None:
                    found: Dict[Oid, None] = {}
                    for probe in probes_for(target_value):
                        for source in backward_map[probe]:
                            found.setdefault(source, None)
                    sources = tuple(found)
                    tv_sources[target_value] = sources
                prefix, suffix = row[:source_index], row[source_index + 1:]
                for source in sources:
                    ticks += 1
                    if not (ticks & 1023) and deadline is not None:
                        deadline.check("block.path")
                    out.append(prefix + (source,) + suffix)
                continue
            assert target_slot is not None
            if target_slot == source_index:
                # x -> R -> x: the nodes a path leads back to themselves
                prefix, suffix = row[:source_index], row[source_index + 1:]
                for source in all_nodes:
                    if source in forward_set(source):
                        out.append(prefix + (source,) + suffix)
                continue
            for source in all_nodes:
                for reached in forward_map[source]:
                    ticks += 1
                    if not (ticks & 1023) and deadline is not None:
                        deadline.check("block.path")
                    new = list(row)
                    new[source_index] = source
                    new[target_slot] = reached
                    out.append(tuple(new))
        return out

    def _path_reach(
        self, nfa: NFA, seeds: List[object], backward: bool
    ) -> Dict[object, Tuple[object, ...]]:
        """Per-seed path reachability through the epoch-keyed memo.

        Seeds already answered for this automaton and graph epoch --
        by an earlier row, an earlier query, or another engine sharing
        the plan cache -- come from the memo; the rest run as ONE
        batched origin-tagged product-automaton search and are memoized
        for everyone downstream.
        """
        graph = self.graph
        fingerprint = (graph.token, graph.epoch)
        cache = self.plan_cache
        metrics = self.metrics
        found: Dict[object, Tuple[object, ...]] = {}
        missing: List[object] = []
        for seed in seeds:
            hit = cache.path_memo_get(nfa, fingerprint, seed)
            if hit is None:
                missing.append(seed)
            else:
                metrics.path_memo_hits += 1
                found[seed] = hit
        if missing:
            metrics.path_memo_misses += len(missing)
            metrics.hash_join_probes += len(missing)
            if backward:
                computed, examined = sources_to_many(graph, nfa, missing)
            else:
                computed, examined = targets_from_many(graph, nfa, missing)
            metrics.edges_examined += examined
            for seed in missing:
                reached = computed.get(seed, ())
                cache.path_memo_put(nfa, fingerprint, seed, reached)
                found[seed] = reached
        return found


# ---------------------------------------------------------------------- #
# the construction stage


#: A compiled construction clause: applies the clause to one row.
_Apply = Callable[[Binding], object]


class _Constructor:
    """Applies create/link/collect clauses of a query tree to a result graph.

    Paper section 2.2 constructs once per row of the binding relation.
    A row that agrees with an earlier row on every variable of a clause
    would re-apply it to the same values: a memoized Skolem term, an
    edge already present, a member already collected.  The graph only
    grows during :meth:`construct`, so such an application is a no-op,
    and :meth:`construct` skips it.  It applies each clause once per
    distinct binding of the clause's own variables
    (``sorted_variables``), rows still in order.

    A top-level block's rows may be fewer than its binding relation:
    when :func:`_join_split` splits its plan, ``bindings(query)`` expands
    the last join once per distinct join value, and the rows it drops
    repeat, for every clause and nested block, a key an earlier row
    already had.  :meth:`construct` would skip them anyway, so it makes
    the same mutations in the same order either way.

    Each :meth:`construct` call compiles its clauses once into closures
    over one row: a clause's shape (a Skolem or variable source, a
    constant or arc-variable label, a Skolem, constant or variable
    target) is decided then, not per row.  Skolem terms resolve through
    one memo per ``(function, arity)`` for the call, keyed on the bare
    value for one argument and resolved once for none; a miss goes to
    ``result.skolem``.  The effective mutations, and so the result graph
    and its delta log, are the row-at-a-time ones.

    When a link or collect clause references a *data-graph* node (allowed:
    "each node in link or collect is either mentioned in create or is a
    node in the data graph"), that node is imported into the result graph
    together with everything reachable from it -- the site graph "models
    both the site's content and structure", so referenced content must be
    renderable from the site graph alone.  Imported nodes stay immutable,
    and ``nodes_created``/``edges_created`` do not count them.
    """

    def __init__(self, result: Graph, metrics: Metrics, source: Graph) -> None:
        self.result = result
        self.metrics = metrics
        self.source = source
        self._imported: Set[Oid] = set()
        #: this call's Skolem memos: (function, arity) -> {argument
        #: values, or the bare value of a lone argument: oid}
        self._memos: Dict[Tuple[str, int], Dict[object, Oid]] = {}
        #: the result's node and edge counts at the start of this call,
        #: moved up by whatever :meth:`_import_subgraph` adds
        self._nodes_base = 0
        self._edges_base = 0

    def run(self, query: Query, rows: List[Binding], engine: QueryEngine) -> None:
        self.construct(query, rows)
        for block in query.blocks:
            block_rows = engine.bindings(
                block.where, initial=_project(rows, block.variables())
            )
            self.run(block, block_rows, engine)

    def construct(self, query: Query, rows: List[Binding]) -> None:
        """Apply ``query``'s own clauses (not its nested blocks') to
        ``rows``, each clause once per distinct binding of its variables.

        The clauses are compiled once per call, which costs O(clauses):
        nothing is cached on the query between calls.  Clauses with the
        same sorted variables share one set of the bindings seen.  A
        clause whose variables are all those the rows bind has none:
        callers pass distinct rows (``bindings()`` and :func:`_project`
        return sets), and a duplicate row would only re-apply no-ops.
        """
        if not rows:
            return
        result = self.result
        self._memos = {}
        self._nodes_base = result.node_count
        self._edges_base = result.edge_count
        dedup = len(rows) > 1
        bound = tuple(sorted(rows[0])) if dedup else ()
        groups: Dict[Tuple[str, ...], int] = {}
        keyed: List[Tuple[object, Set[object]]] = []
        steps: List[Tuple[_Apply, int]] = []
        for compile_clause, clauses in (
            (self._compile_term, query.create),
            (self._compile_link, query.link),
            (self._compile_collect, query.collect),
        ):
            for clause in clauses:
                names = clause.sorted_variables
                group = -1
                if dedup and names != bound:
                    group = groups.get(names, -1)
                    if group < 0:
                        group = groups[names] = len(keyed)
                        keyed.append((names[0] if len(names) == 1 else names, set()))
                steps.append((compile_clause(clause), group))
        fresh: List[bool] = []
        for row in rows:
            if keyed:
                fresh = []
                for names, seen in keyed:
                    key = row.get(names) if names.__class__ is str else tuple(map(row.get, names))
                    fresh.append(key not in seen)
                    seen.add(key)
            for apply, group in steps:
                if group < 0 or fresh[group]:
                    apply(row)
        self.metrics.nodes_created += result.node_count - self._nodes_base
        self.metrics.edges_created += result.edge_count - self._edges_base

    # ------------------------------------------------------------ #
    # clause compilers: each returns a closure over one row

    def _compile_term(self, term: SkolemTerm) -> Callable[[Binding], Oid]:
        """The oid ``term`` denotes in a row."""
        args = term.args
        memo = self._memos.setdefault((term.function, len(args)), {})
        skolem = self._skolem
        if len(args) == 1 and isinstance(args[0], Var):
            name = args[0].name

            def resolve(row: Binding) -> Oid:
                value = row.get(name)
                oid = memo.get(value)
                return skolem(term, memo, value) if oid is None else oid
        elif any(isinstance(arg, Var) for arg in args):
            parts = [(arg.name, None) if isinstance(arg, Var) else (None, arg.atom) for arg in args]

            def resolve(row: Binding) -> Oid:
                key = tuple([value if name is None else row.get(name) for name, value in parts])
                oid = memo.get(key)
                return skolem(term, memo, key) if oid is None else oid
        else:
            key = args[0].atom if len(args) == 1 else tuple(arg.atom for arg in args)

            def resolve(row: Binding) -> Oid:
                oid = memo.get(key)
                return skolem(term, memo, key) if oid is None else oid
        return resolve

    def _skolem(self, term: SkolemTerm, memo: Dict[object, Oid], key: object) -> Oid:
        """A memo miss: apply ``term`` to the values ``key`` holds."""
        values = (key,) if len(term.args) == 1 else key
        args: List[object] = []
        for arg, value in zip(term.args, values):
            if value is None:
                raise StruqlEvaluationError(
                    f"Skolem argument {arg.name!r} unbound in {term}"
                )
            if isinstance(value, str):
                value = Atom(AtomType.STRING, value)
            args.append(value)
        oid = memo[key] = self.result.skolem(term.function, *args)
        return oid

    def _compile_collect(self, collect: CollectClause) -> _Apply:
        collection = collect.collection
        add_to_collection = self.result.add_to_collection
        if isinstance(collect.node, SkolemTerm):
            node = self._compile_term(collect.node)
            return lambda row: add_to_collection(collection, node(row))
        name = collect.node.name
        has_node = self.result.has_node

        def member(row: Binding) -> None:
            value = row.get(name)
            if not isinstance(value, Oid):
                raise StruqlEvaluationError(
                    f"variable {name!r} does not denote a node (got {value!r})"
                )
            if not has_node(value):
                self._import_subgraph(value)
            add_to_collection(collection, value)
        return member

    def _compile_link(self, link: LinkClause) -> _Apply:
        source = self._compile_term(link.source) if isinstance(link.source, SkolemTerm) \
            else self._compile_source(link.source.name)
        target = self._compile_target(link.target)
        add_edge = self.result.add_edge
        if isinstance(link.label, str):
            label = sys.intern(link.label)
            return lambda row: add_edge(source(row), label, target(row))
        name = link.label.name

        def arc(row: Binding) -> None:
            bound = row.get(name)
            label = bound if bound.__class__ is str else _bound_label(name, bound)
            add_edge(source(row), label, target(row))
        return arc

    def _compile_source(self, name: str) -> Callable[[Binding], Oid]:
        """A link source variable: a node this or an earlier construction
        created (Skolem-created); an existing data node is immutable."""
        skolems = self.result.skolems

        def source(row: Binding) -> Oid:
            value = row.get(name)
            if not isinstance(value, Oid):
                raise StruqlEvaluationError(
                    f"link source {name!r} does not denote a node (got {value!r})"
                )
            if value not in skolems:
                raise ImmutableNodeError(
                    f"link source {value} is an existing node; STRUQL only adds "
                    "edges out of new (Skolem-created) nodes"
                )
            return value
        return source

    def _compile_target(self, target: Union[SkolemTerm, Var, Const]) -> Callable[[Binding], Target]:
        if isinstance(target, SkolemTerm):
            return self._compile_term(target)
        if isinstance(target, Const):
            atom = target.atom
            return lambda row: atom
        name = target.name
        has_node = self.result.has_node

        def value(row: Binding) -> Target:
            bound = row.get(name)
            if bound.__class__ is Atom:
                return bound
            if bound is None:
                raise StruqlEvaluationError(f"link target {name!r} unbound")
            if isinstance(bound, Oid):
                if not has_node(bound):
                    self._import_subgraph(bound)
                return bound
            if isinstance(bound, str):
                return Atom(AtomType.STRING, bound)
            return bound
        return value

    def _import_subgraph(self, root: Oid) -> None:
        """Copy a data-graph node and its reachable closure into the result."""
        result = self.result
        nodes, edges = result.node_count, result.edge_count
        if root in self._imported or not self.source.has_node(root):
            result.add_node(root)
        else:
            reached = self.source.reachable(root)
            for oid in reached:
                result.add_node(oid)
                self._imported.add(oid)
            for oid in reached:
                for label, target in self.source.out_edges(oid):
                    result.add_edge(oid, label, target)
        self._nodes_base += result.node_count - nodes
        self._edges_base += result.edge_count - edges


def link_label(link: LinkClause, row: Binding) -> str:
    """The label ``link`` writes for ``row``: its constant, or the label
    its arc variable is bound to."""
    if isinstance(link.label, str):
        return link.label
    return _bound_label(link.label.name, row.get(link.label.name))


def _bound_label(name: str, bound: object) -> str:
    """The label an arc variable ``name`` bound to ``bound`` writes."""
    if isinstance(bound, Atom):
        return bound.as_string()
    if isinstance(bound, str):
        return bound
    raise StruqlEvaluationError(f"arc variable {name!r} is not bound to a label")


def _join_split(
    query: Query, ordered: Sequence[Condition]
) -> Optional[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """The join and suffix variables ``(J, S)`` at which a top-level
    block's plan splits before its last operator, or None.

    Let P be the variables the operators before the last one bind,
    J = vars(last) & P and S = vars(last) - P.  The block's rows are
    read by its clauses, each keyed on its own variables, and by its
    nested blocks, through :func:`_project` onto their variables.  The
    plan splits when S is non-empty, P has a variable outside J, and
    there is at least one key set and each lies within P or within
    J | S.  (A block that constructs nothing keeps its relation whole,
    so EXPLAIN of a bare where-clause still shows the full join.)

    The last operator's matches for a row depend on the row's J values
    alone, so the full relation repeats, for every prefix row with a
    given J value, that value's suffix rows.  The split keeps all of
    them at the value's first prefix row and one at every later prefix
    row (:meth:`QueryEngine._run_split`).  What it drops repeats a key
    within P (the prefix row already appeared) or within J | S (the
    suffix row already appeared), so each key set sees the same
    distinct values in the same first-occurrence order, and
    construction makes the same mutations in the same order.
    """
    if len(ordered) < 2 or isinstance(ordered[-1], NotCond):
        return None
    prefix: Set[str] = set()
    for condition in ordered[:-1]:
        # a negation's own variables stay existential: it binds none
        if not isinstance(condition, NotCond):
            prefix |= condition.variables()
    own = ordered[-1].variables()
    join, suffix = own & prefix, own - prefix
    if not suffix or prefix <= join:
        return None
    rows_bind = prefix | suffix
    tail = join | suffix
    keys = [clause.variables() for clause in (*query.create, *query.link, *query.collect)]
    keys += [block.variables() & rows_bind for block in query.blocks]
    # a block that constructs nothing keeps its whole relation
    if keys and all(names <= prefix or names <= tail for names in keys):
        return frozenset(join), frozenset(suffix)
    return None


def _project(rows: List[Binding], names: FrozenSet[str]) -> List[Binding]:
    """``rows`` restricted to ``names``, keeping the first occurrence of
    each distinct projection in row order.

    The names a row keeps are worked out once per row shape (its key
    tuple).  A projection is keyed on its values in sorted-name order,
    in one seen set per set of kept names, so rows of different shapes
    that keep the same names still share one set."""
    projected: List[Binding] = []
    shapes: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], Callable[[Binding], object], Set[object]]] = {}
    seen_by_names: Dict[Tuple[str, ...], Set[object]] = {}
    for row in rows:
        shape = tuple(row)
        entry = shapes.get(shape)
        if entry is None:
            kept = tuple(name for name in shape if name in names)
            ordered = tuple(sorted(kept))
            values = itemgetter(*ordered) if ordered else (lambda _: ())
            entry = shapes[shape] = (kept, values, seen_by_names.setdefault(ordered, set()))
        kept, values, seen = entry
        key = values(row)
        if key not in seen:
            seen.add(key)
            projected.append({name: row[name] for name in kept})
    return projected


# ---------------------------------------------------------------------- #
# engine selection

#: (predicate over graphs, engine class) pairs, latest registration wins.
_ENGINE_FACTORIES: List[Tuple[Callable[[Graph], bool], Callable[..., QueryEngine]]] = []


def register_engine_factory(
    predicate: Callable[[Graph], bool], factory: Callable[..., QueryEngine]
) -> None:
    """Register an engine class for graphs matching ``predicate``.

    :func:`make_engine` consults registrations newest-first, so a backend
    module can claim its graphs (the SQLite backend registers
    ``SqlQueryEngine`` for :class:`~repro.repository.sql.SqlGraph`)
    without this module importing the backend.
    """
    _ENGINE_FACTORIES.insert(0, (predicate, factory))


def make_engine(graph: Graph, **kwargs: object) -> QueryEngine:
    """A query engine fit for ``graph``: the first registered factory
    whose predicate matches, else the in-memory :class:`QueryEngine`."""
    for predicate, factory in _ENGINE_FACTORIES:
        if predicate(graph):
            return factory(graph, **kwargs)
    return QueryEngine(graph, **kwargs)


# ---------------------------------------------------------------------- #
# public API


def evaluate(
    program: Union[Program, Query, str],
    source: Graph,
    into: Optional[Graph] = None,
    metrics: Optional[Metrics] = None,
    engine: Optional[QueryEngine] = None,
) -> Graph:
    """Evaluate a STRUQL program over ``source`` and return the result graph.

    ``into`` composes onto an existing graph ("queries [may] add nodes and
    arcs to a graph", section 6.2); passing ``into=source`` queries a
    graph while extending it, with the binding relation computed before
    construction starts (the where stage sees a consistent snapshot
    because rows are fully materialized per block).

    Passing ``engine`` reuses a warm :class:`QueryEngine` (its plan cache
    and statistics snapshot carry across calls); its metrics are pointed
    at this call's ``metrics`` object for the duration.

    Each top-level block's rows come from ``engine.bindings(query)``:
    when the block's clauses and nested blocks each read only variables
    bound before its last planned join, or only that join's variables
    (:func:`_join_split`), the join is expanded once per distinct join
    value instead of once per row, and construction gets the rows that
    differ in some key it reads.  The result graph, its orders and its
    delta log are those of the full relation.
    """
    if isinstance(program, str):
        program = parse(program)
    if isinstance(program, Query):
        program = Program(queries=[program])
    result = into if into is not None else Graph()
    shared_metrics = metrics or Metrics()
    if engine is None:
        engine = make_engine(source, metrics=shared_metrics)
    else:
        engine.metrics = shared_metrics
    for query in program.queries:
        rows = engine.bindings(query)
        _Constructor(result, shared_metrics, source).run(query, rows, engine)
    return result


def query_bindings(
    text: Union[str, Sequence[Condition]],
    graph: Graph,
) -> List[Binding]:
    """Evaluate just a where-clause and return its binding relation.

    Accepts either a full query text (its first query's where clause is
    used) or a pre-built condition list.  Handy for ad-hoc querying and
    for the test suite.
    """
    if isinstance(text, str):
        program = parse(text)
        conditions: Sequence[Condition] = program.queries[0].where
    else:
        conditions = text
    return make_engine(graph).bindings(conditions)
