"""A3 (extension) -- what one insert costs a maintained homepage site, by size.

Section 7 calls incremental site updates an open problem.  A1 shows the
maintenance half of an insert is delta-seeded; this bench measures the
whole insert as the site grows, split into its two stages: maintenance
of the site graph and re-rendering of the pages it staled.  Each size
builds a :class:`~repro.core.RegeneratingSite` over the Fig. 3 homepage
(``HOMEPAGE_QUERY``, ``homepage_templates()``) and times ``RUNS``
in-process ``add_object`` inserts of publications generated the way the
e2e serve-insert workload generates them.

Timings are reported as the median and IQR of each stage, not gated.
Asserted: no insert falls back to a coarse pass, and every insert
re-renders the same pages whatever the size: the root, abstracts and
year pages, and the category page when the publication has a category.

    PYTHONPATH=src python -m pytest benchmarks/bench_a3_insert_cost.py \\
        -q -s --benchmark-disable --bench-json
"""

import statistics
import time
from collections import Counter

import pytest

from repro.core import RegeneratingSite
from repro.graph import Oid
from repro.workloads import (
    HOMEPAGE_QUERY,
    bibliography_graph,
    generate_entries,
    homepage_templates,
)
from repro.wrappers import BibtexWrapper

SIZES = (250, 500, 1000, 2000)
#: timed inserts per size
RUNS = 60

#: per-size results of this session, written together as one artifact
_RESULTS = {}


class _TimedSite(RegeneratingSite):
    """Times the re-render stage of each mutation."""

    rerender_s = 0.0

    def _regenerate(self):
        start = time.perf_counter()
        report = super()._regenerate()
        self.rerender_s = time.perf_counter() - start
        return report


def _summary(seconds):
    q1, median, q3 = statistics.quantiles([s * 1000 for s in seconds], n=4)
    return {"median": round(median, 3), "iqr": round(q3 - q1, 3)}


@pytest.mark.parametrize("publications", SIZES)
def test_a3_insert_cost(report, json_report, publications):
    regen = _TimedSite(
        HOMEPAGE_QUERY, bibliography_graph(publications, seed=0),
        homepage_templates(), ["RootPage()"],
    )
    fresh = BibtexWrapper(generate_entries(RUNS, seed=1_000_003)).wrap()
    inserts, rerenders, reports, expected = [], [], [], []
    for index, entry in enumerate(fresh.collection("Publications")):
        attributes = [(label, value) for label, value in fresh.out_edges(entry) if label != "key"]
        expected.append(3 + any(label == "category" for label, _ in attributes))
        start = time.perf_counter()
        regen.add_object("Publications", attributes, oid=Oid(f"inserted{index}"))
        inserts.append(time.perf_counter() - start)
        rerenders.append(regen.rerender_s)
        reports.append(regen.last_report)
    maintains = [insert - rerender for insert, rerender in zip(inserts, rerenders)]
    insert = _summary(inserts)
    pages = Counter(r.pages_rerendered for r in reports)
    _RESULTS[publications] = {
        "scale": {"publications": publications},
        "runs": RUNS,
        "unit": "ms",
        **insert,
        "stages": {"maintain": _summary(maintains), "rerender": _summary(rerenders)},
        "pages_rerendered": {str(count): runs for count, runs in sorted(pages.items())},
    }
    report(
        "A3_insert_cost",
        [
            {"publications": size,
             "maintain ms": entry["stages"]["maintain"]["median"],
             "re-render ms": entry["stages"]["rerender"]["median"],
             "insert ms": entry["median"],
             "insert IQR ms": entry["iqr"],
             "pages re-rendered": entry["pages_rerendered"]}
            for size, entry in sorted(_RESULTS.items())
        ],
        note=f"Medians of {RUNS} in-process inserts per size; reported, not gated.",
    )
    json_report("A3_insert_cost", {
        "experiment": "A3 one insert into a maintained Fig. 3 homepage site, by size",
        "results": [entry for _, entry in sorted(_RESULTS.items())],
    })
    assert not any(r.coarse or r.maintenance.full_rebuilds for r in reports)
    assert [r.pages_rerendered for r in reports] == expected
