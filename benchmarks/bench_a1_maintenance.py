"""A1 (extension) -- incremental site maintenance vs rebuild-from-scratch.

Section 7 lists "computing incremental updates of site graphs" as an
open problem the prototype sidestepped by full recomputation.  Our
:class:`~repro.core.maintenance.SiteMaintainer` implements
insert-maintenance with safe fallbacks; this bench quantifies the win
over the prototype's behaviour for the common update kinds, and shows
the honest fallback costs.

Expected shape: seeded updates, nested blocks included, cost orders of
magnitude less than a full rebuild; path matches degrade to single-query
recomputes; deletions and negation pay the full price.  Downstream, a
:class:`~repro.core.RegeneratingSite` author edit re-renders only the
edited publication's ``EMBED`` fragments, not every page embedding them.
"""

import statistics
import time

import pytest

from repro.core import RegeneratingSite, SiteMaintainer
from repro.graph import integer, string
from repro.struql import evaluate, parse
from repro.workloads import (
    HOMEPAGE_QUERY,
    NEWS_SITE_QUERY,
    bibliography_graph,
    homepage_templates,
    news_graph,
)

FLAT_NEWS_QUERY = """
create FrontPage()
where Articles(a), a -> "headline" -> h
create ArticlePage(a)
link ArticlePage(a) -> "headline" -> h, FrontPage() -> "Story" -> ArticlePage(a)
collect ArticlePages(ArticlePage(a))
where Articles(a), a -> "category" -> c
create CategoryPage(c)
link CategoryPage(c) -> "Name" -> c, CategoryPage(c) -> "Story" -> ArticlePage(a)
collect CategoryPages(CategoryPage(c))
"""


#: alternating seeded-insert / full-rebuild pairs behind each median
REPEATS = 7


def _median_costs(maintainer, program, article):
    """Median seconds of a seeded insert and of a full rebuild, timed
    alternately over ``REPEATS`` pairs (pair ``i`` inserts the distinct
    article ``article(i)`` first), plus every insert's report."""
    seeded, rebuilt, reports = [], [], []
    for index in range(REPEATS):
        start = time.perf_counter()
        maintainer.add_object("Articles", article(index))
        seeded.append(time.perf_counter() - start)
        reports.append(maintainer.last_report)
        start = time.perf_counter()
        evaluate(program, maintainer.data_graph)
        rebuilt.append(time.perf_counter() - start)
    return statistics.median(seeded), statistics.median(rebuilt), reports


@pytest.mark.parametrize("articles", [100, 400])
def test_a1_update_cost(report, benchmark, articles):
    data = news_graph(articles, seed=61)
    program = parse(FLAT_NEWS_QUERY)

    start = time.perf_counter()
    maintainer = SiteMaintainer(program, data)
    initial_build = time.perf_counter() - start

    # seeded update: one new article object, against a full rebuild
    # (what the prototype always did)
    seeded_time, rebuild_time, seeded_reports = _median_costs(
        maintainer, program,
        lambda index: [
            ("headline", string(f"Breaking story {index}")),
            ("category", string("world")), ("date", string("1998-06-01")),
        ],
    )
    seeded_report = seeded_reports[-1]

    # nested-block insert: NEWS_SITE_QUERY's article, related and top
    # blocks are seeded too, not recomputed
    nested_program = parse(NEWS_SITE_QUERY)
    nested = SiteMaintainer(nested_program, news_graph(articles, seed=61))
    related = nested.data_graph.collection("Articles")[0]
    nested_time, nested_rebuild_time, nested_reports = _median_costs(
        nested, nested_program,
        lambda index: [
            ("headline", string(f"Nested story {index}")),
            ("category", string("world")), ("related", related),
            ("top", string("yes")),
        ],
    )
    nested_report = nested_reports[-1]

    # deletion: forced rebuild
    member = maintainer.data_graph.collection("Articles")[0]
    target = maintainer.data_graph.attribute(member, "headline")
    start = time.perf_counter()
    maintainer.remove_edge(member, "headline", target)
    deletion_time = time.perf_counter() - start
    deletion_report = maintainer.last_report

    rows = [
        {"operation": "initial materialization", "seconds": round(initial_build, 4),
         "disposition": "n/a"},
        {"operation": f"insert article (incremental, median of {REPEATS})",
         "seconds": round(seeded_time, 5),
         "disposition": f"{seeded_report.queries_seeded} seeded, "
                        f"{seeded_report.queries_skipped} skipped"},
        {"operation": f"insert article (prototype: full rebuild, median of {REPEATS})",
         "seconds": round(rebuild_time, 4), "disposition": "rebuild"},
        {"operation": f"insert article, nested blocks (incremental, median of {REPEATS})",
         "seconds": round(nested_time, 5),
         "disposition": f"{nested_report.queries_seeded} seeded, "
                        f"{nested_report.queries_recomputed} recomputed"},
        {"operation": f"insert article, nested blocks (full rebuild, median of {REPEATS})",
         "seconds": round(nested_rebuild_time, 4), "disposition": "rebuild"},
        {"operation": "delete edge (falls back to rebuild)",
         "seconds": round(deletion_time, 4), "disposition": "rebuild"},
    ]
    report(f"A1_maintenance_{articles}_articles", rows,
           note="Insert maintenance is delta-seeded; deletions and negation "
                "honestly pay the prototype's full-recompute price.")
    assert seeded_time < rebuild_time / 3
    assert all(r.full_rebuilds == 0 for r in seeded_reports)
    assert all(r.queries_recomputed == 0 for r in nested_reports)
    assert all(r.full_rebuilds == 0 for r in nested_reports)
    assert nested_time < nested_rebuild_time / 3
    assert deletion_report.full_rebuilds == 1

    benchmark.pedantic(
        lambda: maintainer.add_object(
            "Articles", [("headline", string("another")),
                         ("category", string("sports"))]
        ),
        rounds=3, iterations=1,
    )


def test_a1_seeded_cost_is_size_independent(report, benchmark):
    """The seeded path's cost should not grow with the existing site."""
    times = {}
    for articles in (50, 400):
        data = news_graph(articles, seed=62)
        maintainer = SiteMaintainer(FLAT_NEWS_QUERY, data)
        start = time.perf_counter()
        for index in range(10):
            maintainer.add_object(
                "Articles",
                [("headline", string(f"story {index}")),
                 ("category", string("us"))],
            )
        times[articles] = (time.perf_counter() - start) / 10
    report(
        "A1_size_independence",
        [{"site articles": size, "seconds per insert": round(seconds, 5)}
         for size, seconds in times.items()],
        note="Per-insert cost should be flat across site sizes "
             "(index lookups, not scans).",
    )
    assert times[400] < times[50] * 8  # generous bound for noise

    data = news_graph(100, seed=63)
    maintainer = SiteMaintainer(FLAT_NEWS_QUERY, data)
    benchmark.pedantic(
        lambda: maintainer.add_object(
            "Articles", [("headline", string("benchmarked"))]
        ),
        rounds=5, iterations=1,
    )


def test_a1_regen_author_edit_100_publications(report):
    """Maintenance plus fragment-granular re-rendering of the paper's
    Fig. 3 homepage site: an author edit renders the edited
    publication's presentation and abstract fragments only."""
    data = bibliography_graph(100, seed=64)
    regen = RegeneratingSite(HOMEPAGE_QUERY, data, homepage_templates(), ["RootPage()"])
    publications = sorted(data.collection("Publications"), key=lambda oid: oid.name)
    times, reports = [], []
    for index in range(5):
        start = time.perf_counter()
        regen.add_edge(publications[index * 7], "author", string(f"Author {index}"))
        times.append(time.perf_counter() - start)
        reports.append(regen.last_report)
    start = time.perf_counter()
    regen.rebuild()
    rebuild_time = time.perf_counter() - start
    edit_time = statistics.median(times)
    report(
        "A1_regen_author_edit_100_publications",
        [
            {"operation": "author edit (median of 5)", "seconds": round(edit_time, 5),
             "pages re-rendered": reports[-1].pages_rerendered,
             "fragments rendered": max(r.fragments_rendered for r in reports)},
            {"operation": "rebuild()", "seconds": round(rebuild_time, 4),
             "pages re-rendered": regen.last_report.pages_rerendered,
             "fragments rendered": regen.last_report.fragments_rendered},
        ],
        note="A stale page re-renders only its stale EMBED fragments; the "
             "rest are reused byte for byte.",
    )
    assert all(not r.coarse and r.fragments_rendered <= 3 for r in reports)
    assert edit_time < rebuild_time / 10
