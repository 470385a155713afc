"""Final corner coverage: explain access-path variants, coercion probes
over file-flavoured atoms, repository path safety, skolem arg mixing."""

import pytest

from repro.graph import Graph, Oid, integer, string, text_file
from repro.repository import Repository
from repro.struql import evaluate, parse_query, query_bindings
from repro.struql.explain import explain

from .reference_eval import reference_bindings


class TestExplainAccessPaths:
    def test_edge_existence_check(self, pub_graph):
        plan = explain(
            'where Publications(x), Publications(y), x -> "year" -> y',
            pub_graph,
        )
        assert "edge existence check" in plan

    def test_label_extent_scan(self, pub_graph):
        plan = explain('where x -> "year" -> y', pub_graph)
        assert "label-extent scan" in plan

    def test_all_edges_scan_for_arc_variable(self, pub_graph):
        plan = explain("where x -> l -> y", pub_graph)
        assert "all-edges scan" in plan

    def test_reverse_path_expansion(self, pub_graph):
        plan = explain(
            'where Publications(y), x -> "a"."b" -> y', pub_graph
        )
        assert "reverse path expansion" in plan

    def test_full_path_enumeration(self, pub_graph):
        plan = explain("where x -> * -> y", pub_graph)
        assert "full path enumeration" in plan

    def test_path_check_when_both_bound(self, pub_graph):
        plan = explain(
            "where Publications(x), Publications(y), x -> * -> y", pub_graph
        )
        assert "path check" in plan


class TestCoercionProbesFileAtoms:
    def test_string_constant_finds_text_file_value(self):
        graph = Graph()
        oid = graph.add_node()
        graph.add_edge(oid, "body", text_file("hello world"))
        rows = query_bindings('where x -> "body" -> b, b = "hello world"', graph)
        assert len(rows) == 1

    def test_scan_agrees(self):
        graph = Graph()
        oid = graph.add_node()
        graph.add_edge(oid, "body", text_file("hello"))
        text = 'where x -> "body" -> b, b = "hello"'
        fast = query_bindings(text, graph)
        slow = reference_bindings(graph, parse_query(text).where, use_indexes=False)
        assert len(fast) == len(slow) == 1


class TestRepositoryPathSafety:
    def test_separator_in_name_sanitized(self, tmp_path):
        repo = Repository(str(tmp_path))
        graph = Graph()
        graph.add_node()
        repo.store("weird/name", graph)
        import os

        files = os.listdir(str(tmp_path))
        assert all(os.sep not in f for f in files)
        assert "weird/name" in repo  # cached

    def test_fetch_uses_cache(self, tmp_path):
        repo = Repository(str(tmp_path))
        graph = Graph()
        graph.add_node()
        repo.store("g", graph)
        assert repo.fetch("g") is graph  # identity: cached, not reloaded


class TestSkolemArgMixing:
    def test_mixed_oid_and_atom_args(self):
        graph = Graph()
        data_node = graph.add_node(Oid("d1"))
        one = graph.skolem("F", data_node, 1998, "text")
        two = graph.skolem("F", data_node, 1998, "text")
        other = graph.skolem("F", data_node, 1997, "text")
        assert one == two != other
        assert "d1" in one.name and "1998" in one.name

    def test_skolem_over_labels_in_query(self, pub_graph):
        result = evaluate(
            "where Publications(x), x -> l -> v create AttrPage(x, l)",
            pub_graph,
        )
        names = {o.name for o in result.nodes()}
        assert any("'title'" in n for n in names)
        # one node per (pub, label), not per (pub, label, value)
        title_nodes = [n for n in names if "'title'" in n]
        assert len(title_nodes) == 3


class TestEvaluateVariants:
    def test_evaluate_accepts_query_object(self, pub_graph):
        from repro.struql import parse_query

        query = parse_query("where Publications(x) create P(x)")
        result = evaluate(query, pub_graph)
        assert result.node_count == 3

    def test_metrics_threading(self, pub_graph):
        from repro.struql import Metrics

        metrics = Metrics()
        evaluate(
            "where Publications(x) create P(x) collect O(P(x))",
            pub_graph,
            metrics=metrics,
        )
        assert metrics.nodes_created == 3
        assert metrics.bindings_produced >= 3
