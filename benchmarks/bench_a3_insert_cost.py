"""A3 (extension) -- what one edit costs a maintained homepage site, by size.

Section 7 calls incremental site updates an open problem.  A1 shows the
maintenance half of an insert is delta-seeded; this bench measures the
whole edit as the site grows, split into its two stages: maintenance
of the site graph and re-rendering of the pages it staled.  Each size
builds a :class:`~repro.core.RegeneratingSite` over the Fig. 3 homepage
(``HOMEPAGE_QUERY``, ``homepage_templates()``) and times ``RUNS``
in-process edits of one of two kinds, the e2e serve workloads' edits:

* ``insert``: ``add_object`` of a publication generated the way the e2e
  serve-insert workload generates them;
* ``update``: ``add_edge`` of one more author to a seeded choice of an
  existing publication, as serve-update does.  The abstracts, year and
  category pages are stale only through the edited publication's
  embedded fragments, so after the first such edit of a page they are
  re-joined from their skeletons.

Timings are reported as the median and IQR of each stage, not gated.
Asserted: no edit falls back to a coarse pass, and every edit
re-renders the same pages whatever the size.  An insert re-renders the
root, abstracts and year pages, and the category page when the
publication has a category; an update re-renders the abstracts page,
the publication's abstract page and its year and category pages.

    PYTHONPATH=src python -m pytest benchmarks/bench_a3_insert_cost.py \\
        -q -s --benchmark-disable --bench-json
"""

import random
import statistics
import time
from collections import Counter

import pytest

from repro.core import RegeneratingSite
from repro.graph import Oid, string
from repro.workloads import (
    HOMEPAGE_QUERY,
    bibliography_graph,
    generate_entries,
    homepage_templates,
)
from repro.wrappers import BibtexWrapper

SIZES = (250, 500, 1000, 2000)
#: timed edits per size and kind
RUNS = 60

#: (edit kind, size) -> results of this session, written together as one
#: artifact
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


def _site(publications):
    return _TimedSite(
        HOMEPAGE_QUERY, bibliography_graph(publications, seed=0),
        homepage_templates(), ["RootPage()"],
    )


def _insert_edits():
    """(edit, pages it must re-render) for each timed insert."""
    fresh = BibtexWrapper(generate_entries(RUNS, seed=1_000_003)).wrap()
    edits = []
    for index, entry in enumerate(fresh.collection("Publications")):
        attributes = [(label, value) for label, value in fresh.out_edges(entry) if label != "key"]
        edits.append((
            lambda regen, attributes=attributes, oid=Oid(f"inserted{index}"):
                regen.add_object("Publications", attributes, oid=oid),
            3 + any(label == "category" for label, _ in attributes),
        ))
    return edits


def _update_edits(data):
    """(edit, pages it must re-render) for each timed author edit."""
    publications = sorted(data.collection("Publications"), key=lambda oid: oid.name)
    rng = random.Random(61)
    edits = []
    for index in range(RUNS):
        target = rng.choice(publications)
        pages = 2 + len(data.targets(target, "year")) + len(data.targets(target, "category"))
        edits.append((
            lambda regen, target=target, author=string(f"Guest Author {index}"):
                regen.add_edge(target, "author", author),
            pages,
        ))
    return edits


def _run(regen, edits):
    """Apply ``edits``; returns the per-edit times, re-render times and
    reports."""
    totals, rerenders, reports = [], [], []
    for edit, _ in edits:
        start = time.perf_counter()
        edit(regen)
        totals.append(time.perf_counter() - start)
        rerenders.append(regen.rerender_s)
        reports.append(regen.last_report)
    return totals, rerenders, reports


def _record(report, json_report, kind, publications, totals, rerenders, reports):
    maintains = [total - rerender for total, rerender in zip(totals, rerenders)]
    pages = Counter(r.pages_rerendered for r in reports)
    _RESULTS[kind, publications] = {
        "edit": kind,
        "scale": {"publications": publications},
        "runs": RUNS,
        "unit": "ms",
        **_summary(totals),
        "stages": {"maintain": _summary(maintains), "rerender": _summary(rerenders)},
        "pages_rerendered": {str(count): runs for count, runs in sorted(pages.items())},
        "rejoined": sum(r.rejoined for r in reports),
    }
    results = [entry for _, entry in sorted(_RESULTS.items())]
    report(
        "A3_insert_cost",
        [
            {"edit": entry["edit"],
             "publications": entry["scale"]["publications"],
             "maintain ms": entry["stages"]["maintain"]["median"],
             "re-render ms": entry["stages"]["rerender"]["median"],
             "edit ms": entry["median"],
             "edit IQR ms": entry["iqr"],
             "pages re-rendered": entry["pages_rerendered"],
             "re-joined": entry["rejoined"]}
            for entry in results
        ],
        note=f"Medians of {RUNS} in-process edits per size and kind; reported, not gated.",
    )
    json_report("A3_insert_cost", {
        "experiment": "A3 one edit of a maintained Fig. 3 homepage site, by size",
        "results": results,
    })


@pytest.mark.parametrize("publications", SIZES)
def test_a3_insert_cost(report, json_report, publications):
    regen = _site(publications)
    edits = _insert_edits()
    totals, rerenders, reports = _run(regen, edits)
    _record(report, json_report, "insert", publications, totals, rerenders, reports)
    assert not any(r.coarse or r.maintenance.full_rebuilds for r in reports)
    assert [r.pages_rerendered for r in reports] == [pages for _, pages in edits]


@pytest.mark.parametrize("publications", SIZES)
def test_a3_update_cost(report, json_report, publications):
    regen = _site(publications)
    edits = _update_edits(regen.maintainer.data_graph)
    totals, rerenders, reports = _run(regen, edits)
    _record(report, json_report, "update", publications, totals, rerenders, reports)
    assert not any(r.coarse or r.maintenance.full_rebuilds for r in reports)
    assert [r.pages_rerendered for r in reports] == [pages for _, pages in edits]
