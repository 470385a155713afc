"""A2 (extension) -- the click-time page server vs static pre-generation.

Section 7: dynamic sites were served by "often large sets of loosely
related CGI programs"; Strudel's promise was to generate those pages
from the same declarative definition.  :class:`~repro.core.PageServer`
does exactly that.  This bench measures:

* time-to-first-page (server) vs time-to-generate-everything (static);
* per-request latency as a session proceeds (caching effects);
* how little of the site a short session materializes.
"""

import random
import time

import pytest

from repro.core import PageServer
from repro.struql import evaluate, parse
from repro.template import generate_site
from repro.workloads import NEWS_SITE_QUERY, news_graph, news_templates


@pytest.mark.parametrize("articles", [100, 400])
def test_a2_first_page_latency(report, benchmark, articles):
    data = news_graph(articles, seed=71)
    program = parse(NEWS_SITE_QUERY)

    start = time.perf_counter()
    server = PageServer(program, data, news_templates())
    first_page = server.get("/")
    first_page_time = time.perf_counter() - start

    start = time.perf_counter()
    site_graph = evaluate(program, data)
    static = generate_site(site_graph, news_templates(), ["FrontPage()"])
    static_time = time.perf_counter() - start

    # a 15-request session
    rng = random.Random(0)
    request_times = []
    path = "/"
    for _ in range(15):
        links = [l for l in server.links_of(path)]
        start = time.perf_counter()
        if links:
            path = rng.choice(links)
        server.get(path)
        request_times.append(time.perf_counter() - start)

    total_instances = sum(
        len(server.dynamic.instances_of(f))
        for f in server.dynamic.schema.functions
    )
    rows = [
        {"metric": "time to first page (dynamic server)",
         "value": f"{first_page_time:.4f} s"},
        {"metric": "time to generate the whole site statically",
         "value": f"{static_time:.4f} s ({static.page_count} pages)"},
        {"metric": "mean request latency over a 15-click session",
         "value": f"{1e3 * sum(request_times) / len(request_times):.2f} ms"},
        {"metric": "site fraction materialized by the session",
         "value": f"{server.graph.expansions}/{total_instances} nodes"},
    ]
    report(f"A2_server_{articles}_articles", rows,
           note="The server touches only what is browsed; first-page "
                "latency is independent of site size.")
    assert first_page_time < static_time
    assert server.graph.expansions < total_instances

    benchmark.pedantic(lambda: server.get("/"), rounds=10, iterations=1)


def test_a2_served_pages_match_static(report, benchmark):
    """Correctness contract at bench scale: every served page equals the
    statically generated page for the same object."""
    data = news_graph(80, seed=72)
    program = parse(NEWS_SITE_QUERY)
    server = PageServer(program, data, news_templates())
    static = generate_site(
        evaluate(program, data), news_templates(), ["FrontPage()"]
    )

    def normalize(html):
        return html.replace('href="/"', 'href="index.html"').replace(
            'href="/', 'href="'
        )

    checked = 0
    mismatches = 0
    frontier = ["/"]
    seen = set()
    while frontier and checked < 40:
        path = frontier.pop(0)
        if path in seen:
            continue
        seen.add(path)
        html = server.get(path)
        static_name = "index.html" if path == "/" else path.lstrip("/")
        if static_name in static.pages:
            checked += 1
            if normalize(html) != static.pages[static_name]:
                mismatches += 1
        frontier.extend(server.links_of(path))
    report(
        "A2_server_correctness",
        [{"pages compared": checked, "mismatches": mismatches}],
        note="Dynamic pages must be byte-identical to static generation "
             "(modulo URL prefix).",
    )
    assert checked >= 20
    assert mismatches == 0
    benchmark.pedantic(lambda: server.get("/"), rounds=3, iterations=1)
