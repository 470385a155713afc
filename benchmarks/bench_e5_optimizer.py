"""E5 -- the full-indexing / optimizer claim (section 2.1).

"Without schema information, we fully index both the schema and the
data ... Obviously, maintaining these indexes is expensive, but they
provide many benefits to our query language."

We compare the real evaluator (index lookups + greedy cost ordering)
against the ablation (written-order evaluation over full scans) on a
query suite over the mediated org-site data graph, reporting wall time
and, for the engine, edges examined.  The ablation is the full-scan
mode of the reference evaluator in ``tests/reference_eval.py`` (run
from the repository root with ``python -m pytest`` so ``tests`` is
importable); it keeps no metrics and searches paths one row at a time,
unbatched.  The expected shape: indexes win by one to three orders of
magnitude on selective queries, and never lose.
"""

import time

import pytest

from repro.struql import PlanCache, QueryEngine, parse_query
from repro.workloads import build_mediator
from tests.reference_eval import reference_bindings
from tests.reference_stats import recount_statistics

QUERY_SUITE = [
    ("collection scan + copy", "where People(p), p -> l -> v"),
    ("selective value lookup",
     'where People(p), p -> "dept" -> g, g = "d0", p -> "name" -> n'),
    ("join people-departments",
     'where Departments(d), d -> "directorPerson" -> p, p -> "name" -> n'),
    ("path reachability",
     'where Departments(d), d -> * -> v, isPostScript(v)'),
    ("negation",
     'where Projects(j), not(j -> "sponsor" -> s)'),
    ("arc-variable join",
     'where Projects(j), j -> "memberPerson" -> p, p -> l -> v'),
]


@pytest.fixture(scope="module")
def data_graph():
    return build_mediator(people=200, seed=13).materialize()


def _run(graph, query_text):
    query = parse_query(query_text + " create Probe()")
    engine = QueryEngine(graph)
    start = time.perf_counter()
    rows = engine.bindings(query.where)
    elapsed = time.perf_counter() - start
    return rows, elapsed, engine.metrics.edges_examined


def _run_naive(graph, query_text):
    query = parse_query(query_text + " create Probe()")
    start = time.perf_counter()
    rows = reference_bindings(graph, query.where, use_indexes=False)
    return rows, time.perf_counter() - start


def test_e5_indexed_vs_naive(report, data_graph, benchmark):
    rows_out = []
    speedups = []
    for name, text in QUERY_SUITE:
        fast_rows, fast_time, fast_edges = _run(data_graph, text)
        slow_rows, slow_time = _run_naive(data_graph, text)
        assert len(fast_rows) == len(slow_rows), name
        speedup = slow_time / max(fast_time, 1e-9)
        speedups.append(speedup)
        rows_out.append(
            {
                "query": name,
                "rows": len(fast_rows),
                "indexed ms": round(fast_time * 1e3, 2),
                "naive ms": round(slow_time * 1e3, 2),
                "speedup x": round(speedup, 1),
                "edges (indexed)": fast_edges,
            }
        )
    report("E5_optimizer_ablation", rows_out,
           note="Full indexing + cost ordering vs the reference evaluator's "
                "written-order full scans on the 5-source org data graph "
                "(200 people).")
    # indexes must win overall and never lose badly
    assert sum(speedups) / len(speedups) > 2.0
    assert all(s > 0.5 for s in speedups)

    # benchmark the indexed path on the most selective query
    benchmark.pedantic(
        lambda: _run(data_graph, QUERY_SUITE[1][1]),
        rounds=5, iterations=1,
    )


def test_e5_warm_engine_speedup(report, json_report, data_graph, benchmark):
    """The query-engine fast path: repeated evaluation of the selective
    (click-shaped) E5 queries on an unchanged graph with one warm engine
    (epoch-cached statistics, compiled-plan and NFA caches hot) vs the
    seed's per-query cold construction (full statistics scan + fresh
    planning every time -- exactly what the click-time server used to
    pay per request).  The selective subset is the workload the fast
    path exists for: each query's evaluation is tiny, so per-query
    engine construction used to dominate the click.
    """
    selective = [QUERY_SUITE[1], QUERY_SUITE[2], QUERY_SUITE[4]]
    queries = [parse_query(text + " create Probe()") for _, text in selective]

    def cold_pass():
        results = []
        for query in queries:
            engine = QueryEngine(
                data_graph,
                stats=recount_statistics(data_graph),
                plan_cache=PlanCache(),
            )
            results.append(engine.bindings(query.where))
        return results

    warm_engine = QueryEngine(data_graph, plan_cache=PlanCache())

    def warm_pass():
        return [warm_engine.bindings(query.where) for query in queries]

    # correctness first: warm results must match cold results exactly
    cold_results = cold_pass()
    warm_pass()  # first warm run populates the caches
    warm_results = warm_pass()  # the steady state being measured
    for cold_rows, warm_rows in zip(cold_results, warm_results):
        assert cold_rows == warm_rows

    rounds = 5
    cold_time = min(_timed(cold_pass) for _ in range(rounds))
    warm_time = min(_timed(warm_pass) for _ in range(rounds))
    speedup = cold_time / max(warm_time, 1e-9)

    hits = warm_engine.metrics.plan_cache_hits
    misses = warm_engine.metrics.plan_cache_misses
    report(
        "E5_warm_engine",
        [{
            "pass": "cold (per-query engine, stats re-scan)",
            "suite ms": round(cold_time * 1e3, 2),
        }, {
            "pass": "warm (shared engine, hot caches)",
            "suite ms": round(warm_time * 1e3, 2),
        }, {
            "pass": f"speedup {speedup:.1f}x",
            "suite ms": f"plan cache {hits} hits / {misses} misses",
        }],
        note="Selective E5 queries over the 200-person org graph; the warm "
             "pass re-plans nothing because the graph epoch is unchanged.",
    )
    json_report("E5", {
        "experiment": "E5 warm-engine speedup",
        "graph": {"nodes": data_graph.node_count, "edges": data_graph.edge_count},
        "suite_queries": len(queries),
        "rounds": rounds,
        "cold_suite_s": round(cold_time, 6),
        "warm_suite_s": round(warm_time, 6),
        "speedup": round(speedup, 2),
        "warm_plan_cache_hits": hits,
        "warm_plan_cache_misses": misses,
        "warm_stats_snapshots": warm_engine.metrics.stats_snapshots,
    })
    assert speedup >= 3.0, f"warm engine only {speedup:.2f}x faster than cold"
    benchmark.pedantic(warm_pass, rounds=5, iterations=1)


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_e5_index_maintenance_cost(report, data_graph, benchmark):
    """The flip side the paper concedes: "maintaining these indexes is
    expensive".  Measure raw edge-insertion throughput (all three indexes
    are updated per insertion)."""
    from repro.graph import Graph, string

    def build(n=3000):
        graph = Graph()
        nodes = [graph.add_node() for _ in range(100)]
        for index in range(n):
            graph.add_edge(nodes[index % 100], f"l{index % 7}", string(f"v{index}"))
        return graph

    graph = benchmark.pedantic(build, rounds=3, iterations=1)
    assert graph.edge_count == 3000
    report(
        "E5_index_maintenance",
        [{"operation": "add_edge (3 indexes maintained)", "count": 3000,
          "note": "see pytest-benchmark table for timing"}],
    )
