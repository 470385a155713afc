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
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
from .eval import Binding, OperatorStats, QueryEngine, _join_split, _project, make_engine
from .optimizer import _binds, estimate_cost, order_conditions
from .parser import parse
from .plancache import PlanCache


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

    Program text with more than one query block is explained block by
    block, depth first: one table per block, headed by the block's name,
    and each nested block planned with the variables its enclosing
    blocks bind already bound, as the evaluator runs it.

    ``counts=True`` requires a graph: the plan is *executed* by the
    block engine and each step gains observed rows-in/rows-out, index
    probes, and per-key cache hits.
    """
    if stats is None:
        stats = graph_statistics(graph) if graph is not None else IndexStatistics()
    engine = None
    if counts:
        if graph is None:
            raise ValueError("counts=True requires a graph to execute against")
        engine = make_engine(graph, stats=stats, plan_cache=PlanCache())
    if isinstance(query, str):
        queries = parse(query).queries
        if len(queries) > 1 or queries[0].blocks:
            return "\n".join(
                section
                for top in queries
                for section in _explain_tree(top, "", frozenset(), stats, engine, None)
            )
        header = query.strip().splitlines()[0].strip()
        block, top_level = queries[0], True
    elif isinstance(query, Query):
        header = f"query {query.name or '?'}"
        block, top_level = query, True
    else:
        # bare conditions: a where-clause with no block around it
        block, top_level = Query(where=list(query)), False
        header = f"{len(block.where)} conditions"
    return _plan_table(
        header, block, frozenset(), stats, engine, None, top_level=top_level
    )[0]


def _explain_tree(
    block: Query,
    parent: str,
    outer: FrozenSet[str],
    stats: IndexStatistics,
    engine: Optional[QueryEngine],
    rows: Optional[List[Binding]],
) -> Iterator[str]:
    """The plan tables of ``block`` and its nested blocks, depth first.
    ``outer`` is what the enclosing blocks bind and ``rows`` their
    binding rows (with ``counts``), of which the block sees its own
    variables, as in evaluation."""
    own = block.variables()
    bound = outer & own
    header = f"query {block.name or '?'}"
    if parent:
        names = ", ".join(sorted(bound))
        header += f", nested in {parent}" + (f" (bound: {names})" if names else "")
    initial = None if rows is None else _project(rows, own)
    text, inner, rows = _plan_table(
        header, block, bound, stats, engine, initial, top_level=not parent
    )
    yield text
    for child in block.blocks:
        yield from _explain_tree(child, block.name or "?", inner, stats, engine, rows)


def _plan_table(
    header: str,
    block: Query,
    initially_bound: FrozenSet[str],
    stats: IndexStatistics,
    engine: Optional[QueryEngine],
    initial: Optional[List[Binding]],
    top_level: bool,
) -> Tuple[str, FrozenSet[str], Optional[List[Binding]]]:
    """One block's plan table, the variables bound after the block and,
    when ``engine`` executed it from the ``initial`` rows, its rows.

    A ``top_level`` block whose plan splits before its last operator
    (see :func:`~repro.struql.eval._join_split`) gets a line naming
    the split; with ``engine``, the block runs split, as
    :func:`~repro.struql.eval.evaluate` runs it, and a second line
    gives the split's row counts."""
    conditions = block.where
    ordered = order_conditions(conditions, initially_bound, stats)
    split = _join_split(block, ordered) if top_level else None

    op_stats: List[OperatorStats] = []
    found: Optional[List[Binding]] = None
    if engine is not None:
        found = engine.bindings(block if top_level else conditions, initial=initial)
        op_stats = engine.last_operator_stats

    out = io.StringIO()
    out.write(f"plan for: {header}\n")
    header_row = ["step", "est.", "binds"]
    if engine is not None:
        header_row += ["rows in", "rows out", "probes", "dedup"]
    header_row.append("access path")
    rows: List[List[str]] = [header_row]
    bound: Set[str] = set(initially_bound)
    for index, condition in enumerate(ordered, start=1):
        cost = estimate_cost(condition, bound, stats, conditions)
        newly = sorted(_binds(condition, bound) - bound)
        row = [str(index), _fmt(cost), ", ".join(newly) or "-"]
        if engine is not None:
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
    if split is not None:
        join = ", ".join(sorted(split[0])) or "-"
        out.write(
            f"split: step {len(ordered)} ({ordered[-1]}) runs once per "
            f"distinct join value of {join}\n"
        )
        counts = engine.last_split if engine is not None else None
        if counts is not None:
            out.write(
                f"split rows: {counts.prefix_rows} prefix, {counts.join_values} "
                f"join values, {counts.suffix_rows} suffix, {counts.rows} to "
                "construction\n"
            )
    return out.getvalue(), frozenset(bound), found


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
