"""Unit tests for the greedy condition planner (repro.struql.optimizer)."""

import pytest

from repro.errors import StruqlEvaluationError
from repro.repository import IndexStatistics
from repro.struql import estimate_cost, order_conditions, parse_query
from repro.workloads import bibliography_graph


@pytest.fixture
def stats():
    return IndexStatistics.snapshot(bibliography_graph(30, seed=0))


def _conditions(text):
    return parse_query(text + " create Dummy()").where


class TestOrdering:
    def test_filters_run_after_generators(self, stats):
        conditions = _conditions("where isImageFile(v), Publications(x), x -> l -> v")
        ordered = order_conditions(conditions, frozenset(), stats)
        assert str(ordered[0]) == "Publications(x)"
        assert str(ordered[-1]) == "isImageFile(v)"

    def test_selection_pushed_before_expansion(self, stats):
        conditions = _conditions(
            'where Publications(x), x -> "year" -> y, y = "1998", x -> l -> v'
        )
        ordered = [str(c) for c in order_conditions(conditions, frozenset(), stats)]
        assert ordered.index('y = "1998"') < ordered.index("x -> l -> v")

    def test_collection_before_unbound_arc_variable_edge(self, stats):
        # the any-label extent (every edge) dwarfs the collection extent
        conditions = _conditions("where x -> l -> v, Publications(x)")
        ordered = order_conditions(conditions, frozenset(), stats)
        assert str(ordered[0]) == "Publications(x)"

    def test_initially_bound_variables_respected(self, stats):
        conditions = _conditions("where isImageFile(v)")
        ordered = order_conditions(conditions, frozenset({"v"}), stats)
        assert len(ordered) == 1

    def test_unbindable_order_comparison_raises(self, stats):
        conditions = _conditions("where a < b")
        with pytest.raises(StruqlEvaluationError):
            order_conditions(conditions, frozenset(), stats)

    def test_negation_waits_for_shared_variables(self, stats):
        conditions = _conditions(
            'where not(x -> "journal" -> j), Publications(x)'
        )
        ordered = order_conditions(conditions, frozenset(), stats)
        assert str(ordered[0]) == "Publications(x)"


class TestCostModel:
    def test_bound_collection_is_filter(self, stats):
        (condition,) = _conditions("where Publications(x)")
        assert estimate_cost(condition, {"x"}, stats, [condition]) < 1

    def test_unbound_collection_costs_extent(self, stats):
        (condition,) = _conditions("where Publications(x)")
        cost = estimate_cost(condition, set(), stats, [condition])
        assert cost == stats.estimate_collection("Publications")

    def test_edge_cheaper_when_source_bound(self, stats):
        (condition,) = _conditions('where x -> "year" -> y')
        bound = estimate_cost(condition, {"x"}, stats, [condition])
        unbound = estimate_cost(condition, set(), stats, [condition])
        assert bound < unbound

    def test_equality_binding_costs_one(self, stats):
        (condition,) = _conditions('where y = "1998"')
        assert estimate_cost(condition, set(), stats, [condition]) == 1.0

    def test_unready_predicate_is_infinite(self, stats):
        (condition,) = _conditions("where isImageFile(q)")
        assert estimate_cost(condition, set(), stats, [condition]) == float("inf")

    def test_path_cost_grows_when_unbound(self, stats):
        (condition,) = _conditions("where x -> * -> y")
        bound = estimate_cost(condition, {"x"}, stats, [condition])
        unbound = estimate_cost(condition, set(), stats, [condition])
        assert unbound > bound
