"""Unit tests for the click-time page server (repro.core.server)."""

import pytest

from repro.core import BrowseSession, LazySiteGraph, NodeInstance, PageServer, DynamicSite
from repro.errors import SiteDefinitionError
from repro.graph import Graph, Oid, integer, string
from repro.struql import evaluate, parse
from repro.template import TemplateSet, generate_site
from repro.workloads import (
    HOMEPAGE_QUERY,
    NEWS_SITE_QUERY,
    bibliography_graph,
    homepage_templates,
    news_graph,
    news_templates,
)


@pytest.fixture(scope="module")
def setup():
    data = bibliography_graph(12, seed=70)
    program = parse(HOMEPAGE_QUERY)
    return data, program


def _normalize(html: str) -> str:
    """Map server hrefs (/X.html, /) onto static filenames (X.html,
    index.html) for byte comparison."""
    return html.replace('href="/"', 'href="index.html"').replace('href="/', 'href="')


def _node(lazy, instance):
    """The instance's oid in the lazy graph's Skolem registry."""
    return lazy.skolems.apply(instance.function, instance.args)


class TestLazySiteGraph:
    def test_nodes_materialize_on_touch(self, setup):
        data, program = setup
        lazy = DynamicSite(program, data).graph
        root = _node(lazy, lazy.dynamic.roots()[0])
        assert lazy.expansions == 0
        labels = lazy.labels_of(root)
        assert lazy.expansions == 1
        assert "YearPage" in labels

    def test_expansion_matches_static_site(self, setup):
        data, program = setup
        static = evaluate(program, data)
        lazy = DynamicSite(program, data).graph
        root = _node(lazy, lazy.dynamic.roots()[0])
        static_edges = sorted(
            (l, str(t)) for l, t in static.out_edges(Oid("RootPage()"))
        )
        lazy_edges = sorted((l, str(t)) for l, t in lazy.out_edges(root))
        assert static_edges == lazy_edges

    def test_collections_from_schema(self, setup):
        data, program = setup
        dynamic = DynamicSite(program, data)
        year = dynamic.instances_of("YearPage")[0]
        oid = _node(dynamic.graph, year)
        assert "YearPages" in dynamic.graph.collections_of(oid)

    def test_data_nodes_copy_from_data_graph(self, setup):
        data, program = setup
        lazy = LazySiteGraph(DynamicSite(program, data))
        member = data.collection("Publications")[0]
        assert lazy.attribute(member, "title") is not None

    def test_untouched_nodes_absent(self, setup):
        data, program = setup
        lazy = LazySiteGraph(DynamicSite(program, data))
        assert lazy.node_count == 0


class TestLazyLinkTargets:
    """A data node a page links to is added without its out-edges; the
    copy waits for the first read of that node."""

    @pytest.fixture()
    def news(self):
        data = news_graph(20, seed=31)
        article = next(a for a in data.collection("Articles") if data.targets(a, "related"))
        return data, article, data.targets(article, "related")[0]

    def test_link_target_present_without_its_edges(self, news):
        data, article, related = news
        lazy = DynamicSite(parse(NEWS_SITE_QUERY), data).graph
        page = _node(lazy, NodeInstance("ArticlePage", (article,)))
        assert ("related", related) in list(lazy.out_edges(page))
        assert Graph.has_node(lazy, related)
        assert list(Graph.out_edges(lazy, related)) == []
        assert lazy.has_node(related)
        assert list(Graph.out_edges(lazy, related)) == []

    @pytest.mark.parametrize("read", ["targets", "attribute", "out_edges", "labels_of"])
    def test_first_read_copies_the_edges(self, news, read):
        data, article, related = news
        lazy = DynamicSite(parse(NEWS_SITE_QUERY), data).graph
        assert lazy.has_node(related)
        if read in ("targets", "attribute"):
            getattr(lazy, read)(related, "headline")
        else:
            list(getattr(lazy, read)(related))
        assert list(Graph.out_edges(lazy, related)) == list(data.out_edges(related))


class TestLazyGraphKeepsNoHistory:
    def test_delta_since_is_coarse_before_the_current_epoch(self, setup):
        data, program = setup
        lazy = DynamicSite(program, data).graph
        root = _node(lazy, lazy.dynamic.roots()[0])
        lazy.labels_of(root)
        assert lazy.epoch > 0
        assert lazy.delta_since(0) is None
        assert lazy.delta_since(lazy.epoch - 1) is None
        assert lazy.delta_since(lazy.epoch).empty

    def test_no_consumer_reads_its_deltas(self, monkeypatch):
        """Browsing, edits, refreshes and served pages read the data
        graph's deltas, never the lazy graph's."""

        def unread(self, epoch):
            raise AssertionError("a consumer read the lazy site graph's deltas")

        monkeypatch.setattr(LazySiteGraph, "delta_since", unread)
        data = news_graph(20, seed=31)
        program = parse(NEWS_SITE_QUERY)
        site = DynamicSite(program, data, cache=True)
        session = BrowseSession(site, lookahead=True)
        front = NodeInstance("FrontPage", ())
        session.walk(front, chooser=lambda candidates: candidates[0], clicks=6)
        article = data.collection("Articles")[0]
        data.add_edge(article, "headline", string("Edited"))
        assert not site.refresh().coarse
        session.walk(front, chooser=lambda candidates: candidates[-1], clicks=6)
        server = PageServer(program, data, news_templates())
        for href in ["/"] + server.links_of("/")[:4]:
            assert server.get(href)
        data.add_edge(article, "headline", string("Edited again"))
        server.refresh()
        assert server.get("/")


class TestPageServer:
    def test_root_served_at_slash(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        html = server.get("/")
        assert "<html>" in html and "<SFMT" not in html  # rendered, not raw

    def test_unknown_path(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        with pytest.raises(KeyError):
            server.get("/nope.html")

    def test_links_are_servable(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        for href in server.links_of("/"):
            assert server.get(href)

    def test_pages_match_static_generation(self, setup):
        """The dynamic server's correctness contract: every page equals
        the statically generated page for the same object."""
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        static = generate_site(
            evaluate(program, data), homepage_templates(), ["RootPage()"]
        )
        assert _normalize(server.get("/")) == static.pages["index.html"]
        for href in server.links_of("/"):
            static_name = href.lstrip("/")
            if static_name in static.pages:
                assert _normalize(server.get(href)) == static.pages[static_name], href

    def test_work_is_proportional_to_clicks(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        server.get("/")
        after_root = server.graph.expansions
        total_instances = sum(
            len(server.dynamic.instances_of(f))
            for f in server.dynamic.schema.functions
        )
        assert after_root < total_instances  # far from full materialization

    def test_requests_counted(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        server.get("/")
        server.get("/")
        assert server.requests == 2

    def test_known_paths_grow(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        before = len(server.known_paths())
        server.get("/")
        assert len(server.known_paths()) > before

    def test_multiple_roots(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        paths = server.known_paths()
        assert "/" in paths
        assert any("AbstractsPage" in p for p in paths)

    def test_no_roots_raises(self):
        data = bibliography_graph(3, seed=1)
        with pytest.raises(SiteDefinitionError):
            PageServer(
                "where Publications(x) create P(x) collect Ps(P(x))",
                data,
                homepage_templates(),
            )


    def test_refresh_without_cache_serves_the_new_data(self):
        """With caching off nothing records what it read, so a refresh
        after an edit must start over, not keep the old pages."""
        data = bibliography_graph(12, seed=70)
        program = parse(HOMEPAGE_QUERY)
        server = PageServer(program, data, homepage_templates(), cache=False)
        server.get("/")
        first = data.collection("Publications")[0]
        added = data.add_node(Oid("added-pub"))
        for label, target in list(data.out_edges(first)):
            data.add_edge(added, label, integer(1890) if label == "year" else target)
        data.add_to_collection("Publications", added)
        assert server.refresh().coarse
        assert server.get("/") == PageServer(program, data, homepage_templates()).get("/")


class TestPagePaths:
    def test_names_that_sanitize_alike_get_distinct_paths(self):
        """Keys "a b" and "a_b" both sanitize to Page_a_b: the static
        site suffixes the second file, and the server must serve each
        page at its own path, as the static site does."""
        data = Graph()
        for key in ("a b", "a_b"):
            item = data.add_node(Oid(f"item-{key}"))
            data.add_edge(item, "key", string(key))
            data.add_to_collection("Items", item)
        templates = TemplateSet()
        templates.add("root", "<SFMT Page UL>")
        templates.add("page", "<p>key=<SFMT key></p>")
        templates.for_object("Root()", "root")
        templates.for_collection("Pages", "page")
        program = parse(
            'where Items(x), x -> "key" -> k '
            "create Root(), Page(k) "
            'link Root() -> "Page" -> Page(k), Page(k) -> "key" -> k '
            "collect Pages(Page(k))"
        )
        static = generate_site(evaluate(program, data), templates, ["Root()"])
        assert sorted(static.pages) == ["Page_a_b.html", "Page_a_b_1.html", "index.html"]
        server = PageServer(program, data, templates)
        links = server.links_of("/")
        assert sorted(links) == ["/Page_a_b.html", "/Page_a_b_1.html"]
        for link in links:
            assert server.get(link) == static.pages[link[1:]]

    def test_suffixes_follow_the_order_pages_are_first_linked(self):
        """Reached through group pages in the reverse of the static
        site's order, the pair gets its suffixes the other way round;
        each path still serves its own page."""
        data = Graph()
        for key, group in (("a_b", "g1"), ("a b", "g2")):
            item = data.add_node(Oid(f"item-{key}"))
            data.add_edge(item, "key", string(key))
            data.add_edge(item, "group", string(group))
            data.add_to_collection("Items", item)
        templates = TemplateSet()
        templates.add("root", "<SFMT Group UL>")
        templates.add("group", "<SFMT Page UL>")
        templates.add("page", "<p>key=<SFMT key></p>")
        templates.for_object("Root()", "root")
        templates.for_collection("Groups", "group")
        templates.for_collection("Pages", "page")
        program = parse(
            'where Items(x), x -> "key" -> k, x -> "group" -> g '
            "create Root(), Group(g), Page(k) "
            'link Root() -> "Group" -> Group(g), Group(g) -> "Page" -> Page(k), '
            'Page(k) -> "key" -> k '
            "collect Groups(Group(g)), Pages(Page(k))"
        )
        static = generate_site(evaluate(program, data), templates, ["Root()"])
        assert static.pages["Page_a_b.html"] == "<p>key=a_b</p>"
        assert static.pages["Page_a_b_1.html"] == "<p>key=a b</p>"
        server = PageServer(program, data, templates)
        assert server.links_of("/") == ["/Group_g1.html", "/Group_g2.html"]
        served = {}
        for group in ("/Group_g2.html", "/Group_g1.html"):
            (link,) = server.links_of(group)
            served[link] = server.get(link)
        assert served == {
            "/Page_a_b.html": "<p>key=a b</p>",
            "/Page_a_b_1.html": "<p>key=a_b</p>",
        }


class TestGetResponse:
    """HTTP status mapping: get_response never raises and never
    answers with an in-process sentinel."""

    def test_unknown_path_is_404(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        response = server.get_response("/no-such-page.html")
        assert response.status == 404
        assert response.kind == "not-found"
        assert "404" in response.body
        assert "Traceback" not in response.body
        # the in-process API still raises for compatibility
        with pytest.raises(KeyError):
            server.get("/no-such-page.html")

    def test_unknown_path_not_counted_as_request(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        server.get_response("/no-such-page.html")
        assert server.requests == 0

    def test_healthy_render_is_200_ok(self, setup):
        data, program = setup
        server = PageServer(program, data, homepage_templates())
        response = server.get_response("/")
        assert (response.status, response.kind) == (200, "ok")
        assert response.body == server.get("/")

    def test_render_fault_without_stale_is_500(self, setup):
        from repro.resilience import chaos
        from repro.resilience.chaos import FaultPlan

        data, program = setup
        server = PageServer(program, data, homepage_templates())
        with chaos.installed(FaultPlan().fail_always("engine.bindings")):
            response = server.get_response("/")
        assert response.status == 500
        assert response.kind == "error-page"
        assert "Traceback" not in response.body

    def test_render_fault_with_stale_is_200_degraded(self, setup):
        from repro.resilience import chaos
        from repro.resilience.chaos import FaultPlan

        data, program = setup
        server = PageServer(program, data, homepage_templates())
        warm = server.get("/")
        server.invalidate()
        with chaos.installed(FaultPlan().fail_always("engine.bindings")):
            response = server.get_response("/")
        assert (response.status, response.kind) == (200, "stale")
        assert response.body == warm

    def test_failed_expansion_is_retried_on_the_next_request(self, setup):
        from repro.resilience import chaos
        from repro.resilience.chaos import FaultPlan

        data, program = setup
        clean = PageServer(program, data, homepage_templates()).get("/")
        server = PageServer(program, data, homepage_templates())
        with chaos.installed(FaultPlan().fail_always("engine.bindings")):
            assert server.get_response("/").status == 500
        assert server.get("/") == clean

    def test_strict_reraises_instead_of_mapping(self, setup):
        from repro.resilience import chaos
        from repro.resilience.chaos import ChaosFault, FaultPlan

        data, program = setup
        server = PageServer(program, data, homepage_templates())
        with chaos.installed(FaultPlan().fail_always("engine.bindings")):
            with pytest.raises(ChaosFault):
                server.get_response("/", strict=True)
