"""Unit tests for the click-time page server (repro.core.server)."""

import pytest

from repro.core import LazySiteGraph, PageServer, DynamicSite
from repro.errors import SiteDefinitionError
from repro.graph import Oid, integer
from repro.struql import evaluate, parse
from repro.template import generate_site
from repro.workloads import (
    HOMEPAGE_QUERY,
    bibliography_graph,
    homepage_templates,
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
