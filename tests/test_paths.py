"""Unit tests for regular path expressions (repro.struql.paths)."""

import pytest

from repro.errors import StruqlEvaluationError
from repro.graph import Graph, string
from repro.struql import (
    Alternation,
    AnyLabel,
    Concat,
    LabelIs,
    LabelPredicate,
    QueryEngine,
    Star,
    any_path,
    compile_path,
    parse_query,
    register_label_predicate,
    sources_to_many,
    targets_from_many,
)

from .reference_constraints import path_exists, reverse_expr, sources_to, targets_from


@pytest.fixture
def diamond():
    """a -x-> b -y-> d; a -y-> c -x-> d; d -z-> "leaf"."""
    graph = Graph()
    a, b, c, d = (graph.add_node() for _ in range(4))
    graph.add_edge(a, "x", b)
    graph.add_edge(b, "y", d)
    graph.add_edge(a, "y", c)
    graph.add_edge(c, "x", d)
    leaf = graph.add_edge(d, "z", string("leaf"))
    return graph, (a, b, c, d), leaf


class TestForward:
    def test_single_label(self, diamond):
        graph, (a, b, c, d), _ = diamond
        assert targets_from(graph, compile_path(LabelIs("x")), a) == [b]

    def test_concat(self, diamond):
        graph, (a, b, c, d), _ = diamond
        nfa = compile_path(Concat((LabelIs("x"), LabelIs("y"))))
        assert targets_from(graph, nfa, a) == [d]

    def test_alternation(self, diamond):
        graph, (a, b, c, d), _ = diamond
        nfa = compile_path(Alternation((LabelIs("x"), LabelIs("y"))))
        assert set(targets_from(graph, nfa, a)) == {b, c}

    def test_any_label(self, diamond):
        graph, (a, b, c, d), _ = diamond
        assert set(targets_from(graph, compile_path(AnyLabel()), a)) == {b, c}

    def test_star_includes_empty_path(self, diamond):
        graph, (a, b, c, d), leaf = diamond
        reached = targets_from(graph, compile_path(any_path()), a)
        assert a in reached  # "including p itself"
        assert set(reached) == {a, b, c, d, leaf}

    def test_star_of_label(self, diamond):
        graph, (a, b, c, d), _ = diamond
        reached = targets_from(graph, compile_path(Star(LabelIs("x"))), a)
        assert set(reached) == {a, b}

    def test_atom_endpoint(self, diamond):
        graph, (a, b, c, d), leaf = diamond
        nfa = compile_path(Concat((LabelIs("x"), LabelIs("y"), LabelIs("z"))))
        assert targets_from(graph, nfa, a) == [leaf]

    def test_cycle_termination(self):
        graph = Graph()
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "n", b)
        graph.add_edge(b, "n", a)
        reached = targets_from(graph, compile_path(Star(LabelIs("n"))), a)
        assert set(reached) == {a, b}

    def test_missing_source(self, diamond):
        graph, nodes, _ = diamond
        from repro.graph import Oid

        assert targets_from(graph, compile_path(AnyLabel()), Oid("ghost")) == []

    def test_label_predicate(self, diamond):
        graph, (a, b, c, d), _ = diamond
        unregister = register_label_predicate("isX", lambda l: l == "x")
        try:
            assert targets_from(graph, compile_path(LabelPredicate("isX")), a) == [b]
        finally:
            unregister()

    def test_unregistered_predicate_raises(self, diamond):
        graph, (a, *_), _ = diamond
        with pytest.raises(StruqlEvaluationError):
            targets_from(graph, compile_path(LabelPredicate("nope")), a)


class TestReverse:
    def test_reverse_expr_flips_concat(self):
        expr = Concat((LabelIs("a"), LabelIs("b")))
        assert reverse_expr(expr) == Concat((LabelIs("b"), LabelIs("a")))

    def test_reverse_expr_recurses(self):
        expr = Star(Concat((LabelIs("a"), Alternation((LabelIs("b"), LabelIs("c"))))))
        reversed_expr = reverse_expr(expr)
        assert reversed_expr.inner.parts[0] == Alternation((LabelIs("b"), LabelIs("c")))

    def test_sources_to_matches_forward(self, diamond):
        graph, (a, b, c, d), _ = diamond
        expr = Concat((LabelIs("x"), LabelIs("y")))
        backward = compile_path(reverse_expr(expr))
        assert sources_to(graph, backward, d) == [a]

    def test_sources_to_atom(self, diamond):
        graph, (a, b, c, d), leaf = diamond
        backward = compile_path(reverse_expr(LabelIs("z")))
        assert sources_to(graph, backward, leaf) == [d]

    def test_sources_to_star(self, diamond):
        graph, (a, b, c, d), _ = diamond
        backward = compile_path(reverse_expr(any_path()))
        assert set(sources_to(graph, backward, d)) == {a, b, c, d}


class TestPathExists:
    def test_positive(self, diamond):
        graph, (a, b, c, d), _ = diamond
        assert path_exists(graph, compile_path(any_path()), a, d)

    def test_negative(self, diamond):
        graph, (a, b, c, d), _ = diamond
        assert not path_exists(graph, compile_path(LabelIs("x")), a, d)

    def test_empty_path_self(self, diamond):
        graph, (a, *_), _ = diamond
        assert path_exists(graph, compile_path(any_path()), a, a)

    def test_empty_path_requires_star(self, diamond):
        graph, (a, *_), _ = diamond
        assert not path_exists(graph, compile_path(LabelIs("x")), a, a)

    def test_atom_target(self, diamond):
        graph, (a, *_), leaf = diamond
        assert path_exists(graph, compile_path(any_path()), a, leaf)


class TestEquivalences:
    """Forward and backward evaluation must agree pairwise."""

    @pytest.mark.parametrize(
        "expr",
        [
            LabelIs("x"),
            Concat((LabelIs("x"), LabelIs("y"))),
            Alternation((LabelIs("x"), Concat((LabelIs("y"), LabelIs("x"))))),
            Star(AnyLabel()),
            Star(LabelIs("x")),
        ],
        ids=["label", "concat", "alt", "anystar", "labelstar"],
    )
    def test_forward_backward_agree(self, diamond, expr):
        graph, nodes, _ = diamond
        forward = compile_path(expr)
        backward = compile_path(reverse_expr(expr))
        forward_pairs = {
            (source, target)
            for source in nodes
            for target in targets_from(graph, forward, source)
        }
        backward_pairs = {
            (source, target)
            for target in list(nodes)
            for source in sources_to(graph, backward, target)
        }
        # restrict forward pairs to node targets for the comparison
        node_set = set(nodes)
        forward_pairs = {p for p in forward_pairs if p[1] in node_set}
        assert forward_pairs == backward_pairs


class TestEdgesExamined:
    """The batched searches count every edge they look at, and the
    engine adds that count to ``Metrics.edges_examined`` once per call."""

    def test_forward_search_counts_out_edges(self, diamond):
        graph, (a, b, c, d), _ = diamond
        reached, examined = targets_from_many(graph, compile_path(Star(LabelIs("x"))), [a])
        assert reached == {a: (a, b)}
        # a's two out-edges, then b's one; c is never entered
        assert examined == 3

    def test_backward_search_counts_in_edges(self, diamond):
        graph, (a, b, c, d), _ = diamond
        backward = compile_path(reverse_expr(Star(LabelIs("x"))))
        reached, examined = sources_to_many(graph, backward, [d])
        assert reached == {d: (d, c)}
        # d's two in-edges, then c's one
        assert examined == 3

    def test_engine_metrics_count_path_steps(self, diamond):
        graph, (a, b, c, d), _ = diamond
        engine = QueryEngine(graph)
        conditions = parse_query('where s -> "x"* -> t create P()').where
        rows = engine.bindings(conditions, initial=[{"s": a}])
        assert {row["t"] for row in rows} == {a, b}
        assert engine.metrics.edges_examined == 3
        engine.bindings(conditions, initial=[{"s": a}])
        assert engine.metrics.edges_examined == 3  # answered by the path memo
