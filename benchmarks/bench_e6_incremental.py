"""E6 -- dynamic ("click time") site computation (sections 2.5 and 7).

The paper: full materialization "is feasible for sites whose data changes
infrequently, but is infeasible for sites that are updated frequently";
incremental queries computed per click are costly naively "because they
often recompute information derived for already browsed pages", so the
optimizations are result *caching* and *lookahead* prefetch.

We browse a news site with a random 30-click trace under four policies
and compare per-click latency against full materialization:

* naive: every click re-evaluates its incremental queries;
* cached: results memoized per (edge, instance);
* cached + lookahead: successors prefetched after each click;
* static: the whole site graph materialized up front (then clicks are
  free graph lookups).

Expected shape: naive is the slowest per click; caching wins on
revisits; lookahead converts most clicks into cache hits; one full
materialization costs many clicks' worth, so for short sessions over
fresh data the dynamic site wins -- the paper's motivation.
"""

import os
import random
import re
import time

import pytest

from repro.core import BrowseSession, DynamicSite, NodeInstance, PageServer
from repro.graph import string
from repro.struql import evaluate, parse
from repro.workloads import NEWS_SITE_QUERY, news_graph, news_templates

CLICKS = 30

#: CI runs the edit benchmark at a tiny size (fail-on-crash smoke);
#: locally the default reproduces the committed BENCH_E6.json numbers.
EDIT_ARTICLES = int(os.environ.get("E6_ARTICLES", "400"))


def _browse(site, clicks=CLICKS, seed=0, lookahead=False):
    """A realistic trace: mostly forward clicks, ~30% returns to the
    front page (real users bounce back to hubs, which is what makes
    caching pay)."""
    session = BrowseSession(site, lookahead=lookahead)
    rng = random.Random(seed)
    front = NodeInstance("FrontPage", ())

    def chooser(candidates):
        if rng.random() < 0.3:
            return front
        return rng.choice(candidates)

    start = time.perf_counter()
    session.walk(front, chooser=chooser, clicks=clicks)
    return time.perf_counter() - start


@pytest.mark.parametrize("articles", [50, 300])
def test_e6_click_time_policies(report, benchmark, articles):
    data = news_graph(articles, seed=31)
    program = parse(NEWS_SITE_QUERY)

    naive = DynamicSite(program, data, cache=False)
    naive_time = _browse(naive)

    cached = DynamicSite(program, data, cache=True)
    cached_time = _browse(cached)

    lookahead = DynamicSite(program, data, cache=True)
    lookahead_time = _browse(lookahead, lookahead=True)

    start = time.perf_counter()
    site_graph = evaluate(program, data)
    materialize_time = time.perf_counter() - start
    # browsing the materialized graph: pure lookups
    start = time.perf_counter()
    rng = random.Random(0)
    from repro.graph import Oid

    current = Oid("FrontPage()")
    for _ in range(CLICKS):
        successors = [t for _, t in site_graph.out_edges(current)
                      if isinstance(t, Oid)]
        if not successors:
            break
        current = rng.choice(successors)
    static_browse_time = time.perf_counter() - start

    rows = [
        {"policy": "dynamic, naive", "total s": round(naive_time, 4),
         "per click ms": round(1e3 * naive_time / CLICKS, 2),
         "queries": naive.metrics.queries_evaluated,
         "cache hits": naive.metrics.cache_hits},
        {"policy": "dynamic, cached", "total s": round(cached_time, 4),
         "per click ms": round(1e3 * cached_time / CLICKS, 2),
         "queries": cached.metrics.queries_evaluated,
         "cache hits": cached.metrics.cache_hits},
        {"policy": "dynamic, cached+lookahead",
         "total s": round(lookahead_time, 4),
         "per click ms": round(1e3 * lookahead_time / CLICKS, 2),
         "queries": lookahead.metrics.queries_evaluated,
         "cache hits": lookahead.metrics.cache_hits},
        {"policy": "static (materialize once)",
         "total s": round(materialize_time + static_browse_time, 4),
         "per click ms": round(1e3 * static_browse_time / CLICKS, 4),
         "queries": "all up front", "cache hits": "n/a"},
    ]
    report(f"E6_click_time_{articles}_articles", rows,
           note=f"{CLICKS}-click random trace over a {articles}-article site.")

    assert cached.metrics.queries_evaluated <= naive.metrics.queries_evaluated
    assert lookahead.metrics.cache_hits > cached.metrics.cache_hits

    benchmark.pedantic(
        lambda: _browse(DynamicSite(program, data, cache=True), lookahead=True),
        rounds=1, iterations=1,
    )


def test_e6_dynamic_avoids_full_materialization_cost(report, benchmark):
    """For a short session over a large, fresh site, click-time evaluation
    does less total work than materializing everything."""
    data = news_graph(600, seed=32)
    program = parse(NEWS_SITE_QUERY)
    start = time.perf_counter()
    evaluate(program, data)
    materialize_time = time.perf_counter() - start
    dynamic = DynamicSite(program, data, cache=True)
    dynamic_time = benchmark.pedantic(
        lambda: _browse(dynamic, clicks=10), rounds=1, iterations=1
    )
    session_time = _browse(dynamic, clicks=10, seed=1)
    report(
        "E6_materialize_vs_session",
        [
            {"path": "materialize full site graph",
             "seconds": round(materialize_time, 4)},
            {"path": "10-click dynamic session (cached)",
             "seconds": round(session_time, 4)},
        ],
        note="600-article site: a short browse should be much cheaper than "
             "building the whole site.",
    )
    assert session_time < materialize_time


def _crawl(server):
    """Serve every reachable page once (breadth-first from the root)."""
    queue = ["/"]
    visited = set()
    while queue:
        path = queue.pop(0)
        if path in visited:
            continue
        visited.add(path)
        html = server.get(path)
        for href in re.findall(r'href="([^"]+)"', html):
            if href.startswith("/") and href not in visited:
                queue.append(href)
    return visited


def test_e6_warm_after_edit(report, json_report, benchmark):
    """The tentpole measurement: after a 1-edge edit to a warm site, the
    delta-driven :meth:`PageServer.refresh` drops only the expansions and
    pages whose recorded reads the delta touched, so restoring the fully
    warm state costs |delta| work.  The coarse baseline (the pre-existing
    :meth:`invalidate`) drops everything and re-renders the whole site."""
    articles = EDIT_ARTICLES
    data = news_graph(articles, seed=34)
    program = parse(NEWS_SITE_QUERY)
    server = PageServer(program, data, news_templates(), cache=True)
    _crawl(server)  # warm: every page rendered and cached
    paths = server.known_paths()

    target = sorted(data.collection("Articles"), key=lambda o: o.name)[articles // 2]
    data.add_edge(target, "headline", string("Updated: warm-after-edit probe"))

    # selective: delta-driven refresh, then re-serve every known page
    start = time.perf_counter()
    result = server.refresh()
    for path in paths:
        server.get(path)
    selective_time = time.perf_counter() - start
    selective_pages = {path: server.get(path) for path in paths}
    metrics = server.dynamic.metrics
    fine = metrics.fine_invalidations
    retained = metrics.entries_retained
    pages_invalidated = server.pages_invalidated
    pages_retained = server.pages_retained

    # coarse baseline: drop every cache, re-serve every known page
    start = time.perf_counter()
    server.invalidate()
    for path in paths:
        server.get(path)
    coarse_time = time.perf_counter() - start
    coarse_pages = {path: server.get(path) for path in paths}

    assert not result.coarse
    assert fine > 0 and retained > 0
    assert pages_invalidated > 0 and pages_retained > 0
    # the selectively refreshed site is byte-identical to a full re-render
    assert selective_pages == coarse_pages

    speedup = coarse_time / max(selective_time, 1e-9)
    if articles >= 200:  # tiny CI sizes only smoke-test for crashes
        assert speedup >= 5.0

    rows = [
        {"path": "coarse (invalidate + re-render all)",
         "seconds": round(coarse_time, 4),
         "pages re-rendered": len(paths)},
        {"path": "selective (refresh + re-serve all)",
         "seconds": round(selective_time, 4),
         "pages re-rendered": pages_invalidated},
    ]
    report("E6_warm_after_edit", rows,
           note=f"1-edge edit to a warm {articles}-article site "
                f"({len(paths)} pages); speedup {speedup:.1f}x.")
    json_report("E6", {
        "experiment": "E6 warm-after-edit: delta-driven selective refresh "
                      "vs coarse invalidation",
        "articles": articles,
        "pages": len(paths),
        "edit": "one headline edge added to one article",
        "coarse_s": round(coarse_time, 6),
        "selective_s": round(selective_time, 6),
        "speedup": round(speedup, 2),
        "fine_invalidations": fine,
        "entries_retained": retained,
        "pages_invalidated": pages_invalidated,
        "pages_retained": pages_retained,
        "refresh_delta_size": result.delta.size() if result.delta else 0,
    })
    benchmark.pedantic(server.refresh, rounds=1, iterations=1)
