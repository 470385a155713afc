"""Unit tests for dynamic/incremental site evaluation (repro.core.incremental)."""

import random

import pytest

from repro.core import BrowseSession, DynamicSite, NodeInstance
from repro.errors import SiteDefinitionError
from repro.graph import Atom, Graph, Oid, integer, string
from repro.struql import evaluate, parse
from repro.workloads import HOMEPAGE_QUERY, NEWS_SITE_QUERY, bibliography_graph, news_graph


@pytest.fixture(scope="module")
def homepage():
    data = bibliography_graph(12, seed=9)
    program = parse(HOMEPAGE_QUERY)
    return data, program, evaluate(program, data)


def _edge_key(target):
    if isinstance(target, NodeInstance):
        return target.oid().name
    if isinstance(target, Oid):
        return target.name
    return repr(target)


class TestEquivalence:
    def test_every_instance_matches_static_site(self, homepage):
        data, program, site_graph = homepage
        dynamic = DynamicSite(program, data)
        total = 0
        for function in dynamic.schema.functions:
            for instance in dynamic.instances_of(function):
                total += 1
                oid = instance.oid()
                assert site_graph.has_node(oid)
                static = sorted(
                    (label, _edge_key(t)) for label, t in site_graph.out_edges(oid)
                )
                expanded = sorted(
                    (label, _edge_key(t)) for label, t in dynamic.expand(instance)
                )
                assert static == expanded, f"mismatch at {instance}"
        assert total == site_graph.node_count

    def test_news_site_equivalence(self):
        data = news_graph(40, seed=3)
        program = parse(NEWS_SITE_QUERY)
        site_graph = evaluate(program, data)
        dynamic = DynamicSite(program, data)
        front = NodeInstance("FrontPage", ())
        static = sorted(
            (label, _edge_key(t))
            for label, t in site_graph.out_edges(Oid("FrontPage()"))
        )
        expanded = sorted((label, _edge_key(t)) for label, t in dynamic.expand(front))
        assert static == expanded

    def test_membership_answers_agree_with_the_static_site(self, homepage):
        data, program, site_graph = homepage
        dynamic = DynamicSite(program, data)
        for function in dynamic.schema.functions:
            for instance in dynamic.instances_of(function):
                dynamic.expand(instance)
        graph = dynamic.graph
        names = site_graph.collection_names()
        assert graph.node_count == site_graph.node_count
        for oid in graph.nodes():
            members = graph.collections_of(oid)
            assert members == site_graph.collections_of(oid), oid
            for name in names:
                assert graph.in_collection(name, oid) == (name in members), (name, oid)


class TestInstances:
    def test_roots_are_zero_arg_functions(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data)
        roots = {str(r) for r in dynamic.roots()}
        assert roots == {"RootPage()", "AbstractsPage()"}

    def test_instances_of_parametric_function(self, homepage):
        data, program, site_graph = homepage
        dynamic = DynamicSite(program, data)
        year_pages = dynamic.instances_of("YearPage")
        static_years = [o for o in site_graph.nodes() if o.name.startswith("YearPage(")]
        assert len(year_pages) == len(static_years)

    def test_unknown_function_raises(self, homepage):
        data, program, _ = homepage
        with pytest.raises(SiteDefinitionError):
            DynamicSite(program, data).instances_of("Nonsense")


class TestCaching:
    def test_cache_hits_on_revisit(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data, cache=True)
        instance = dynamic.roots()[0]
        dynamic.expand(instance)
        before = dynamic.metrics.queries_evaluated
        dynamic.expand(instance)
        assert dynamic.metrics.queries_evaluated == before
        assert dynamic.metrics.cache_hits > 0

    def test_no_cache_reevaluates(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data, cache=False)
        instance = dynamic.roots()[0]
        dynamic.expand(instance)
        before = dynamic.metrics.queries_evaluated
        dynamic.expand(instance)
        assert dynamic.metrics.queries_evaluated > before

    def test_lookahead_prefetches(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data, cache=True)
        session = BrowseSession(dynamic, lookahead=True)
        session.visit(NodeInstance("RootPage", ()))
        assert dynamic.metrics.lookahead_prefetches > 0

    def test_lookahead_makes_next_click_cached(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data, cache=True)
        session = BrowseSession(dynamic, lookahead=True)
        edges = session.visit(NodeInstance("RootPage", ()))
        target = next(t for _, t in edges if isinstance(t, NodeInstance))
        hits_before = dynamic.metrics.cache_hits
        session.visit(target)
        assert dynamic.metrics.cache_hits > hits_before


class TestBrowseSession:
    def test_walk_trajectory(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data)
        session = BrowseSession(dynamic)
        rng = random.Random(0)
        trajectory = session.walk(
            NodeInstance("RootPage", ()), lambda cands: rng.choice(cands), clicks=4
        )
        assert len(trajectory) >= 2
        assert trajectory[0].function == "RootPage"
        assert session.history

    def test_walk_stops_at_dead_end(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data)
        session = BrowseSession(dynamic)
        # abstract pages have no NodeInstance successors
        abstracts = dynamic.instances_of("AbstractPage")
        trajectory = session.walk(abstracts[0], lambda cands: cands[0], clicks=5)
        assert trajectory == [abstracts[0]]

    def test_expansion_values_render_atoms(self, homepage):
        data, program, _ = homepage
        dynamic = DynamicSite(program, data)
        presentation = dynamic.instances_of("PaperPresentation")[0]
        edges = dynamic.expand(presentation)
        assert any(isinstance(t, Atom) for _, t in edges)


def _mixed_year_site():
    """Two pubs whose years are equal after coercion but differ in type:
    ``p0`` has INTEGER 1998, ``p1`` has STRING "1998"."""
    data = Graph()
    for name, year in (("p0", integer(1998)), ("p1", string("1998"))):
        pub = data.add_node(Oid(name))
        data.add_edge(pub, "year", year)
        data.add_to_collection("Pubs", pub)
    program = parse(
        'where Pubs(x), x -> "year" -> y create YearPage(y) '
        'link YearPage(y) -> "Paper" -> x'
    )
    return data, program


class TestSkolemIdentity:
    def test_instances_print_as_their_oids(self):
        data, program = _mixed_year_site()
        instances = DynamicSite(program, data).instances_of("YearPage")
        assert [str(i) for i in instances] == ["YearPage(1998)", "YearPage('1998')"]
        assert [str(i) for i in instances] == [i.oid().name for i in instances]

    def test_click_time_nodes_come_from_the_site_graph_registry(self, homepage):
        data, program, site_graph = homepage
        dynamic = DynamicSite(program, data)
        root = dynamic.roots()[0]
        for _, target in dynamic.expand(root):
            if isinstance(target, NodeInstance):
                oid = target.oid()
                assert site_graph.has_node(oid)
                assert dynamic.graph.skolems.term(oid) == (target.function, target.args)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2 (defect C): rows seeded with YearPage's INTEGER "
        "1998 keep that spelling for the STRING \"1998\" pub, so click time "
        "links both pubs from both year pages",
    )
    def test_mixed_type_years_expand_like_the_static_site(self):
        data, program = _mixed_year_site()
        site_graph = evaluate(program, data)
        dynamic = DynamicSite(program, data)
        for instance in dynamic.instances_of("YearPage"):
            static = sorted(
                (label, _edge_key(t)) for label, t in site_graph.out_edges(instance.oid())
            )
            expanded = sorted(
                (label, _edge_key(t)) for label, t in dynamic.expand(instance)
            )
            assert static == expanded, instance
