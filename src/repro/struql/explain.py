"""EXPLAIN for STRUQL: show the plan the optimizer chose and why.

"As in traditional query processing, a query is first translated by the
query optimizer into an efficient physical-operation tree" (paper
section 2.1) -- and as in traditional query processing, site builders
need to see that plan when a query is slow.  :func:`explain` renders,
per condition in execution order: the access path the evaluator will
take given what is bound at that point, the optimizer's cardinality
estimate, and the variables the step binds.

The output is text, stable enough to assert against in tests::

    plan for: where Publications(x), x -> "year" -> y, y = "1998"
    step  est.   binds   access path
    1     30     x       collection scan Publications
    2     1      y       bind y = "1998"
    3     1.2    -       reverse value-index probe "year" -> y

``counts=True`` (EXPLAIN ANALYZE) additionally *executes* the plan with
the set-at-a-time engine and renders, per block operator, the input and
output row counts, the distinct-key index probes it ran, and how many
rows were answered from its per-key cache instead::

    step  est.  binds  rows in  rows out  probes  dedup  access path
    1     30    x      1        30        1       0      collection scan Publications
    ...
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .eval import OperatorStats

from ..graph import Graph
from ..repository.indexes import IndexStatistics, graph_statistics
from .ast import (
    CollectionCond,
    ComparisonCond,
    Condition,
    Const,
    EdgeCond,
    NotCond,
    PathCond,
    PredicateCond,
    Query,
    Var,
)
from .optimizer import _binds, estimate_cost, order_conditions
from .parser import parse


def explain(
    query: Union[str, Query, Sequence[Condition]],
    graph: Optional[Graph] = None,
    stats: Optional[IndexStatistics] = None,
    counts: bool = False,
) -> str:
    """Render the execution plan for a where clause.

    Pass either a graph (statistics are snapshotted) or pre-built
    statistics; with neither, an empty-statistics plan is shown (all
    estimates zero -- still useful to see the ordering logic).

    ``counts=True`` requires a graph: the plan is *executed* by the
    block engine and each step gains observed rows-in/rows-out, index
    probes, and per-key cache hits.
    """
    if isinstance(query, str):
        conditions: Sequence[Condition] = parse(query).queries[0].where
        header = query.strip().splitlines()[0].strip()
    elif isinstance(query, Query):
        conditions = query.where
        header = f"query {query.name or '?'}"
    else:
        conditions = list(query)
        header = f"{len(conditions)} conditions"
    if stats is None:
        stats = graph_statistics(graph) if graph is not None else IndexStatistics()
    ordered = order_conditions(conditions, frozenset(), stats)

    op_stats: List["OperatorStats"] = []
    if counts:
        if graph is None:
            raise ValueError("counts=True requires a graph to execute against")
        from .eval import make_engine
        from .plancache import PlanCache

        engine = make_engine(graph, stats=stats, plan_cache=PlanCache())
        engine.bindings(conditions)
        op_stats = engine.last_operator_stats

    out = io.StringIO()
    out.write(f"plan for: {header}\n")
    header_row = ["step", "est.", "binds"]
    if counts:
        header_row += ["rows in", "rows out", "probes", "dedup"]
    header_row.append("access path")
    rows: List[List[str]] = [header_row]
    bound: Set[str] = set()
    for index, condition in enumerate(ordered, start=1):
        cost = estimate_cost(condition, bound, stats, conditions)
        newly = sorted(_binds(condition, bound) - bound)
        row = [str(index), _fmt(cost), ", ".join(newly) or "-"]
        if counts:
            # the engine ran the same ordered plan; a step past an empty
            # frontier was never executed
            if index - 1 < len(op_stats):
                op = op_stats[index - 1]
                row += [
                    str(op.rows_in),
                    str(op.rows_out),
                    str(op.probes),
                    str(op.dedup_hits),
                ]
            else:
                row += ["-", "-", "-", "-"]
        row.append(_access_path(condition, bound))
        rows.append(row)
        bound |= set(newly)
    width_count = len(rows[0])
    widths = [max(len(row[i]) for row in rows) for i in range(width_count)]
    for row in rows:
        out.write(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            + "\n"
        )
    return out.getvalue()


def _fmt(cost: float) -> str:
    if cost == float("inf"):
        return "inf"
    if cost == int(cost):
        return str(int(cost))
    return f"{cost:.1f}"


def _access_path(condition: Condition, bound: Set[str]) -> str:
    if isinstance(condition, CollectionCond):
        if condition.var.name in bound:
            return f"membership check {condition.collection}({condition.var})"
        return f"collection scan {condition.collection}"
    if isinstance(condition, PredicateCond):
        return f"filter {condition.name}({condition.var})"
    if isinstance(condition, ComparisonCond):
        left_bound = not isinstance(condition.left, Var) or condition.left.name in bound
        right_bound = (
            not isinstance(condition.right, Var) or condition.right.name in bound
        )
        if left_bound and right_bound:
            return f"filter {condition}"
        unbound = condition.left if not left_bound else condition.right
        other = condition.right if not left_bound else condition.left
        return f"bind {unbound} = {other}"
    if isinstance(condition, NotCond):
        inner = ", ".join(str(c) for c in condition.inner)
        return f"anti-join not({inner})"
    if isinstance(condition, EdgeCond):
        return _edge_access(condition, bound)
    if isinstance(condition, PathCond):
        source_bound = condition.source.name in bound
        target_bound = (
            not isinstance(condition.target, Var) or condition.target.name in bound
        )
        if source_bound and target_bound:
            return f"path check {condition.path}"
        if source_bound:
            return f"path expansion {condition.source} -> {condition.path}"
        if target_bound:
            return f"reverse path expansion {condition.path} -> {condition.target}"
        return f"full path enumeration {condition.path}"
    return str(condition)


def _edge_access(condition: EdgeCond, bound: Set[str]) -> str:
    label = (
        f'"{condition.label}"' if isinstance(condition.label, str) else str(condition.label)
    )
    source_bound = condition.source.name in bound
    target_bound = (
        not isinstance(condition.target, Var) or condition.target.name in bound
    )
    if source_bound and target_bound:
        return f"edge existence check {condition}"
    if source_bound:
        return f"forward adjacency {condition.source} -> {label}"
    if target_bound:
        return f"reverse value-index probe {label} -> {condition.target}"
    if isinstance(condition.label, str):
        return f"label-extent scan {label}"
    return "all-edges scan (arc variable)"
