"""Condition ordering for STRUQL where-clauses.

"As in traditional query processing, a query is first translated by the
query optimizer into an efficient physical-operation tree" (paper section
2.1).  Our physical plan is an *ordering* of the where-clause conditions:
evaluation is a pipelined index-nested-loop join, so the dominant cost
decision is which condition extends the bindings next.

The planner is greedy: starting from the initially-bound variables, it
repeatedly picks the ready condition with the lowest estimated extension
cardinality, using :class:`~repro.repository.indexes.IndexStatistics`
snapshots.  Filters (predicates, comparisons with all variables bound,
negations) cost less than one and therefore run as early as they are
applicable -- classic selection push-down.

A condition is *ready* when the variables it needs bound are bound:

* negations need their variables that are shared with positive
  conditions (purely-inner variables are existential inside the not);
* order comparisons (``< <= > >=``) need both sides;
* ``=`` needs at least one side (it can bind the other);
* predicates need their argument;
* edge, path and collection conditions are always ready (they can
  generate), they just cost more when unbound.

The plan fixes the row order: the engine's block operators return the
rows a naive nested loop over the planned order would (the reference
evaluator in ``tests/reference_eval.py``), so the plan is a pure
function of the conditions, the seed bindings and the statistics.

For a fully-bound path check the block evaluator can search forward
from the distinct sources or backward from the distinct targets;
:func:`choose_path_direction` picks the side with the smaller estimated
total frontier from
:class:`~repro.repository.indexes.IndexStatistics` cardinalities
instead of hardcoding the binding order.  Either side gives the same
verdicts.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set

from ..errors import StruqlEvaluationError
from ..repository.indexes import IndexStatistics
from .ast import (
    CollectionCond,
    ComparisonCond,
    Condition,
    EdgeCond,
    NotCond,
    PathCond,
    PredicateCond,
    Var,
)

#: Cost assigned to pure filters -- always preferred once ready.
_FILTER_COST = 0.25
_NOT_READY = float("inf")


def choose_path_direction(
    distinct_sources: int, distinct_targets: int, stats: IndexStatistics
) -> str:
    """``"forward"`` or ``"backward"``: which side of a fully-bound path
    check the batched search should start from.

    The estimated total work is (number of distinct seed endpoints) x
    (branching factor on that side); out-degree and in-degree come from
    the statistics snapshot, so a graph with fat reverse fan-in (many
    edges into few atoms) prefers forward search and vice versa.
    """
    forward_branch = max(stats.average_out_degree(), 1.0)
    backward_branch = max(stats.average_in_degree(), 1.0)
    forward_cost = distinct_sources * forward_branch
    backward_cost = distinct_targets * backward_branch
    return "forward" if forward_cost <= backward_cost else "backward"


def shared_not_variables(negation: NotCond, positives: Sequence[Condition]) -> FrozenSet[str]:
    """Variables of a negation that also occur in positive conditions.

    These must be bound before the negation is checked; the rest are
    existentially quantified inside it.
    """
    outside: Set[str] = set()
    for condition in positives:
        if condition is not negation and not isinstance(condition, NotCond):
            outside |= condition.variables()
    return frozenset(negation.variables() & outside)


def estimate_cost(
    condition: Condition,
    bound: Set[str],
    stats: IndexStatistics,
    positives: Sequence[Condition],
) -> float:
    """Estimated number of bindings this condition will produce per input
    binding, or ``inf`` when it is not ready."""
    if isinstance(condition, CollectionCond):
        if condition.var.name in bound:
            return _FILTER_COST
        return max(stats.estimate_collection(condition.collection), 1)
    if isinstance(condition, PredicateCond):
        return _FILTER_COST if condition.var.name in bound else _NOT_READY
    if isinstance(condition, ComparisonCond):
        left_bound = not isinstance(condition.left, Var) or condition.left.name in bound
        right_bound = not isinstance(condition.right, Var) or condition.right.name in bound
        if left_bound and right_bound:
            return _FILTER_COST
        if condition.op == "=" and (left_bound or right_bound):
            return 1.0
        return _NOT_READY
    if isinstance(condition, NotCond):
        needed = shared_not_variables(condition, positives)
        if needed <= bound:
            return 2.0
        return _NOT_READY
    if isinstance(condition, EdgeCond):
        return _edge_cost(condition, bound, stats)
    if isinstance(condition, PathCond):
        return _path_cost(condition, bound, stats)
    raise StruqlEvaluationError(f"unknown condition type: {condition!r}")


def _edge_cost(condition: EdgeCond, bound: Set[str], stats: IndexStatistics) -> float:
    src_bound = condition.source.name in bound
    tgt_bound = not isinstance(condition.target, Var) or condition.target.name in bound
    label_known = isinstance(condition.label, str) or condition.label.name in bound
    if src_bound and tgt_bound and label_known:
        return _FILTER_COST + 0.1  # has_edge lookup
    degree = max(stats.average_out_degree(), 1.0)
    if src_bound:
        return degree
    if tgt_bound:
        # reverse value-index lookup; with a known label the classic
        # extent/distinct-values estimate applies
        if isinstance(condition.label, str):
            return max(float(stats.estimate_value_lookup(condition.label)), 1.0)
        return max(float(stats.estimate_value_lookup()), 1.0)
    if label_known and isinstance(condition.label, str):
        return max(stats.estimate_label_extent(condition.label), 1)
    return max(stats.estimate_any_label_extent(), 1)


def _path_cost(condition: PathCond, bound: Set[str], stats: IndexStatistics) -> float:
    src_bound = condition.source.name in bound
    tgt_bound = not isinstance(condition.target, Var) or condition.target.name in bound
    reachable = max(stats.average_out_degree(), 1.0) ** 2
    if src_bound and tgt_bound:
        return 1.5
    if src_bound or tgt_bound:
        return min(reachable, float(max(stats.node_count, 1)))
    return float(max(stats.node_count, 1)) * reachable


def order_conditions(
    conditions: Sequence[Condition],
    initially_bound: FrozenSet[str],
    stats: IndexStatistics,
) -> List[Condition]:
    """Greedy cost-ordered plan: cheapest ready condition first.

    Raises :class:`StruqlEvaluationError` if some condition can never
    become ready (e.g. an order comparison over variables no generator
    binds).
    """
    remaining = list(conditions)
    bound: Set[str] = set(initially_bound)
    ordered: List[Condition] = []
    while remaining:
        best_index = -1
        best_cost = _NOT_READY
        for index, condition in enumerate(remaining):
            cost = estimate_cost(condition, bound, stats, conditions)
            if cost < best_cost:
                best_cost = cost
                best_index = index
        if best_index < 0:
            stuck = ", ".join(str(c) for c in remaining)
            raise StruqlEvaluationError(
                f"cannot order conditions; unbindable variables in: {stuck}"
            )
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= _binds(chosen, bound)
    return ordered


def _binds(condition: Condition, bound: Set[str]) -> Set[str]:
    """Variables a condition binds when executed with ``bound`` available."""
    if isinstance(condition, NotCond):
        return set()
    if isinstance(condition, ComparisonCond):
        if condition.op != "=":
            return set()
        newly: Set[str] = set()
        if isinstance(condition.left, Var) and condition.left.name not in bound:
            newly.add(condition.left.name)
        if isinstance(condition.right, Var) and condition.right.name not in bound:
            newly.add(condition.right.name)
        return newly
    return set(condition.variables())
