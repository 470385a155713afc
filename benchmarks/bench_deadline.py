"""Deadline-check overhead on the warm E5 optimizer workload.

The robustness PR threads a request-scoped deadline through every
evaluation layer; the hot-loop form (:meth:`Deadline.tick`) is one
integer increment and a mask, with a clock read every 1024 ticks.  This
bench proves the tax is negligible: the warm E5 query suite under a
far-future ambient deadline must run within 3% of the same suite with
no deadline installed.

Guarded and unguarded suite runs alternate in one process, back to back
in pairs (which side goes first alternates too), each timed with
``time.thread_time()`` so other processes' CPU use does not count.  The
gated figure is the median over the pairs of the paired relative
difference: drift and scheduler noise hit both runs of a pair alike.
Automatic cyclic collection is paused while the pairs run, so a
collection pause lands on neither side.  Both sides reuse one warm
engine (plan cache + statistics snapshot hot), so the only difference
between the two timings is the deadline plumbing.
"""

import gc
import statistics
import time
from contextlib import nullcontext

from repro.graph import collection_paused
from repro.resilience import Deadline, deadline_scope
from repro.struql import QueryEngine, parse_query
from repro.workloads import build_mediator

QUERY_SUITE = [
    ("collection scan + copy", "where People(p), p -> l -> v"),
    ("selective value lookup",
     'where People(p), p -> "dept" -> g, g = "d0", p -> "name" -> n'),
    ("join people-departments",
     'where Departments(d), d -> "directorPerson" -> p, p -> "name" -> n'),
    ("path reachability",
     'where Departments(d), d -> * -> v, isPostScript(v)'),
    ("arc-variable join",
     'where Projects(j), j -> "memberPerson" -> p, p -> l -> v'),
]

PAIRS = 201
FAR_FUTURE = 3600.0
OVERHEAD_GATE = 0.03


def _suite_once(engine, queries):
    rows_total = 0
    for _, conditions in queries:
        rows_total += len(engine.bindings(conditions))
    return rows_total


def _timed_suite(engine, queries, guarded):
    with deadline_scope(Deadline(FAR_FUTURE)) if guarded else nullcontext():
        start = time.thread_time()
        _suite_once(engine, queries)
        return time.thread_time() - start


def _paired_overheads(engine, queries, pairs=PAIRS):
    """One ``(guarded - unguarded) / unguarded`` per pair of back-to-back
    runs; even pairs run the unguarded side first, odd pairs second."""
    overheads = []
    baselines = []
    for index in range(pairs):
        times = {}
        for guarded in (False, True) if index % 2 == 0 else (True, False):
            times[guarded] = _timed_suite(engine, queries, guarded)
        baselines.append(times[False])
        overheads.append((times[True] - times[False]) / times[False])
    return overheads, baselines


def test_deadline_overhead_on_warm_e5(report, json_report):
    graph = build_mediator(people=200, seed=13).materialize()
    engine = QueryEngine(graph)
    queries = [
        (name, parse_query(text + " create Probe()").where)
        for name, text in QUERY_SUITE
    ]
    expected = _suite_once(engine, queries)  # warm plans, indexes, stats
    assert expected > 0
    with deadline_scope(Deadline(FAR_FUTURE)):
        assert _suite_once(engine, queries) == expected  # same answers

    gc.collect()
    with collection_paused():
        overheads, baselines = _paired_overheads(engine, queries)
    overhead = statistics.median(overheads)
    quartiles = statistics.quantiles(overheads, n=4)
    baseline = statistics.median(baselines)
    rows = [
        {
            "suite": "E5 (warm, 5 queries)",
            "no deadline ms": round(baseline * 1e3, 3),
            "overhead % (median)": round(overhead * 100, 2),
            "paired IQR %": round((quartiles[2] - quartiles[0]) * 100, 2),
            "gate %": OVERHEAD_GATE * 100,
        }
    ]
    report("DEADLINE_overhead", rows,
           note="median of %d alternating guarded/unguarded pairs, thread "
                "CPU time; identical warm engine, the only delta is the "
                "ambient-deadline plumbing." % PAIRS)
    json_report("DEADLINE_overhead", {
        "baseline_s": baseline,
        "overhead": overhead,
        "overhead_q1": quartiles[0],
        "overhead_q3": quartiles[2],
        "pairs": PAIRS,
        "gate": OVERHEAD_GATE,
    })

    assert overhead <= OVERHEAD_GATE, (
        f"deadline checks cost {overhead * 100:.2f}% on the warm E5 suite "
        f"(gate {OVERHEAD_GATE * 100:.0f}%)"
    )
