"""Additional coverage: unbound-unbound path conditions, constant link
targets in dynamic expansion, SIF over loop variables, maintenance with
arc-variable copies, and mediator re-registration."""

import pytest

from repro.core import DynamicSite, NodeInstance, SiteMaintainer
from repro.graph import Graph, Oid, string
from repro.mediator import Mediator
from repro.struql import evaluate, parse, parse_query, query_bindings
from repro.template import Renderer, parse_template
from repro.wrappers import DdlWrapper

from .reference_eval import reference_bindings


class TestUnboundPathCondition:
    def test_path_with_no_bound_endpoint(self):
        graph = Graph()
        a, b, c = graph.add_node(), graph.add_node(), graph.add_node()
        graph.add_edge(a, "n", b)
        graph.add_edge(b, "n", c)
        rows = query_bindings('where x -> "n"."n" -> y', graph)
        assert len(rows) == 1
        assert rows[0]["x"] == a and rows[0]["y"] == c

    def test_unbound_path_agrees_with_naive(self):
        graph = Graph()
        nodes = [graph.add_node() for _ in range(4)]
        for left, right in zip(nodes, nodes[1:]):
            graph.add_edge(left, "n", right)
        text = 'where x -> "n"* -> y'
        fast = query_bindings(text, graph)
        slow = reference_bindings(graph, parse_query(text).where, use_indexes=False)
        def canon(rows):
            return sorted((str(r["x"]), str(r["y"])) for r in rows)
        assert canon(fast) == canon(slow)
        assert len(fast) == 4 + 3 + 2 + 1  # all ordered pairs incl. empty path


class TestDynamicConstTargets:
    QUERY = """
    where Items(x)
    create Page(x)
    link Page(x) -> "kind" -> "item", Page(x) -> "self" -> x
    collect Pages(Page(x))
    """

    def _data(self):
        graph = Graph()
        oid = graph.add_node(Oid("i1"))
        graph.add_edge(oid, "name", string("x"))
        graph.add_to_collection("Items", oid)
        return graph

    def test_constant_target_in_expansion(self):
        data = self._data()
        dynamic = DynamicSite(self.QUERY, data)
        page = dynamic.instances_of("Page")[0]
        edges = dict()
        for label, target in dynamic.expand(page):
            edges[label] = target
        assert str(edges["kind"]) == "item"
        assert edges["self"] == Oid("i1")  # data-node target

    def test_matches_static(self):
        data = self._data()
        static = evaluate(parse(self.QUERY), data)
        dynamic = DynamicSite(self.QUERY, data)
        page_oid = Oid("Page(i1)")
        static_edges = sorted(
            (l, str(t)) for l, t in static.out_edges(page_oid)
        )
        dynamic_edges = sorted(
            (l, str(t if not isinstance(t, NodeInstance) else t.oid()))
            for l, t in dynamic.expand(dynamic.instances_of("Page")[0])
        )
        assert static_edges == dynamic_edges


class TestTemplateLoopConditionals:
    def _graph(self):
        graph = Graph()
        page = graph.add_node(Oid("P()"))
        for name, public in (("a", "yes"), ("b", "no"), ("c", "yes")):
            child = graph.add_node(Oid(f"C({name})"))
            graph.add_edge(child, "name", string(name))
            graph.add_edge(child, "public", string(public))
            graph.add_edge(page, "child", child)
        return graph, page

    def test_sif_over_loop_variable(self):
        graph, page = self._graph()
        template = parse_template(
            '<SFOR c IN child><SIF @c.public = "yes"><SFMT @c.name></SIF></SFOR>'
        )
        assert Renderer(graph).render(template, page) == "ac"

    def test_selse_over_loop_variable(self):
        graph, page = self._graph()
        template = parse_template(
            '<SFOR c IN child DELIM=","><SIF @c.public = "yes">+<SELSE>-</SIF></SFOR>'
        )
        assert Renderer(graph).render(template, page) == "+,-,+"

    def test_nested_loops_shadowing(self):
        graph, page = self._graph()
        template = parse_template(
            "<SFOR c IN child><SFOR c IN @c.name>[<SFMT @c>]</SFOR></SFOR>"
        )
        assert Renderer(graph).render(template, page) == "[a][b][c]"


class TestMaintenanceArcVariables:
    COPY_QUERY = """
    where Items(x), x -> l -> v
    create Page(x)
    link Page(x) -> l -> v
    collect Pages(Page(x))
    """

    def test_arc_variable_copy_seeded(self):
        data = Graph()
        oid = data.add_node(Oid("i1"))
        data.add_edge(oid, "name", string("x"))
        data.add_to_collection("Items", oid)
        maintainer = SiteMaintainer(self.COPY_QUERY, data)
        maintainer.add_edge(oid, "brand_new_attribute", string("v"))
        assert maintainer.last_report.queries_seeded == 1
        page_value = maintainer.site_graph.attribute(
            Oid("Page(i1)"), "brand_new_attribute"
        )
        assert str(page_value) == "v"
        fresh = evaluate(parse(self.COPY_QUERY), data)
        assert maintainer.site_graph.stats() == fresh.stats()


class TestMediatorReRegistration:
    def test_remove_then_add_same_name(self):
        mediator = Mediator()
        mediator.add_source("a", DdlWrapper('object x { v: "1" }\ncollection C\nmember C: x'))
        mediator.remove_source("a")
        mediator.add_source("a", DdlWrapper('object y { v: "2" }\ncollection C\nmember C: y'))
        mediator.import_collection("a", "C")
        warehouse = mediator.materialize()
        assert warehouse.has_node(Oid("y"))
        assert not warehouse.has_node(Oid("x"))

    def test_remove_source_drops_its_imports(self):
        mediator = Mediator()
        mediator.add_source("a", DdlWrapper('object x { v: "1" }\ncollection C\nmember C: x'))
        mediator.add_source("b", DdlWrapper('object z { v: "3" }\ncollection D\nmember D: z'))
        mediator.import_collection("a", "C")
        mediator.import_collection("b", "D")
        mediator.remove_source("a")
        warehouse = mediator.materialize()
        assert warehouse.has_collection("D")
        assert not warehouse.has_collection("C")
