"""Unit tests for the data repository (repro.repository)."""

import pytest

from repro.errors import RepositoryError
from repro.graph import Graph, Oid, string
from repro.mediator import Mediator
from repro.repository import (
    IndexStatistics,
    Repository,
    SqlRepository,
    ddl,
)
from repro.repository.store import generation_path, read_generation
from repro.wrappers import DdlWrapper


def _small_graph():
    graph = Graph()
    a, b = graph.add_node(), graph.add_node()
    graph.add_edge(a, "name", string("x"))
    graph.add_edge(a, "to", b)
    graph.add_to_collection("C", a)
    return graph


class TestInMemory:
    def test_store_fetch(self):
        repo = Repository()
        graph = _small_graph()
        repo.store("g", graph)
        assert repo.fetch("g") is graph

    def test_contains(self):
        repo = Repository()
        repo.store("g", _small_graph())
        assert "g" in repo
        assert "h" not in repo

    def test_fetch_unknown_raises(self):
        with pytest.raises(RepositoryError):
            Repository().fetch("ghost")

    def test_empty_name_rejected(self):
        with pytest.raises(RepositoryError):
            Repository().store("", _small_graph())

    def test_delete(self):
        repo = Repository()
        repo.store("g", _small_graph())
        repo.delete("g")
        assert "g" not in repo

    def test_delete_unknown_raises(self):
        with pytest.raises(RepositoryError):
            Repository().delete("ghost")

    def test_graph_names_sorted(self):
        repo = Repository()
        repo.store("zz", _small_graph())
        repo.store("aa", _small_graph())
        assert repo.graph_names() == ["aa", "zz"]

    def test_catalog(self):
        repo = Repository()
        repo.store("g", _small_graph())
        assert repo.catalog()["g"]["nodes"] == 2


class TestPersistence:
    def test_round_trip_through_disk(self, tmp_path):
        repo = Repository(str(tmp_path))
        graph = _small_graph()
        repo.store("g", graph)
        fresh = Repository(str(tmp_path))  # new instance, cold cache
        reloaded = fresh.fetch("g")
        assert reloaded.stats() == graph.stats()

    def test_disk_listing(self, tmp_path):
        repo = Repository(str(tmp_path))
        repo.store("g", _small_graph())
        assert Repository(str(tmp_path)).graph_names() == ["g"]

    def test_delete_removes_file(self, tmp_path):
        repo = Repository(str(tmp_path))
        repo.store("g", _small_graph())
        repo.delete("g")
        assert "g" not in Repository(str(tmp_path))


class TestIndexStatistics:
    def test_snapshot_counts(self):
        stats = IndexStatistics.snapshot(_small_graph())
        assert stats.node_count == 2
        assert stats.edge_count == 2
        assert stats.label_cardinality == {"name": 1, "to": 1}
        assert stats.collection_cardinality == {"C": 1}

    def test_estimates(self):
        stats = IndexStatistics.snapshot(_small_graph())
        assert stats.estimate_label_extent("name") == 1
        assert stats.estimate_label_extent("missing") == 0
        assert stats.estimate_any_label_extent() == 2
        assert stats.estimate_collection("C") == 1

    def test_value_lookup_estimate(self):
        graph = Graph()
        oid = graph.add_node()
        for index in range(10):
            graph.add_edge(oid, "v", string(f"x{index}"))
        stats = IndexStatistics.snapshot(graph)
        assert stats.estimate_value_lookup("v") == 1  # all distinct
        assert stats.estimate_value_lookup() >= 1

    def test_average_out_degree(self):
        stats = IndexStatistics.snapshot(_small_graph())
        assert stats.average_out_degree() == 1.0

    def test_empty_graph_estimates(self):
        stats = IndexStatistics.snapshot(Graph())
        assert stats.average_out_degree() == 0.0
        assert stats.estimate_value_lookup() == 0

    def test_repository_statistics_accessor(self):
        repo = Repository()
        repo.store("g", _small_graph())
        assert repo.statistics("g").node_count == 2


# ---------------------------------------------------------------------- #
# the one rebuild contract, on both backends


def _interleaved(graph):
    """Fill ``graph`` so that its label extents and in-edge orders are
    not the ``edges()`` replay order."""
    a, b = graph.add_node(Oid("a")), graph.add_node(Oid("b"))
    graph.add_edge(b, "t", string("one"))
    graph.add_edge(a, "t", string("two"))
    graph.add_edge(b, "to", a)
    graph.add_edge(a, "to", a)
    graph.add_to_collection("C", b)
    graph.add_to_collection("C", a)
    return graph


@pytest.fixture(params=["ddl", "sqlite"])
def backend(request):
    return {"ddl": Repository, "sqlite": SqlRepository}[request.param]


@pytest.fixture(params=["memory", "directory"])
def directory(request, tmp_path):
    return None if request.param == "memory" else str(tmp_path)


def test_rebuild_rejects_an_empty_name_before_yielding(backend, directory):
    repo = backend(directory)
    entered = []
    with pytest.raises(RepositoryError):
        with repo.rebuild("") as graph:
            entered.append(graph)
    assert entered == []


def test_rebuild_error_keeps_the_previous_generation(backend, directory):
    repo = backend(directory)
    repo.store("g", _small_graph())
    previous = repo.fetch("g")
    dump = ddl.dumps(previous)
    with pytest.raises(RuntimeError):
        with repo.rebuild("g") as graph:
            _interleaved(graph)
            raise RuntimeError("abort the rebuild")
    assert repo.fetch("g") is previous
    assert ddl.dumps(repo.fetch("g")) == dump


def test_rebuild_stores_the_built_graph_and_its_snapshot(backend, directory):
    repo = backend(directory)
    repo.store("g", _small_graph())
    with repo.rebuild("g") as graph:
        _interleaved(graph)
    assert ddl.dumps(repo.fetch("g")) == ddl.dumps(graph)
    if directory is not None:
        snapshot = read_generation(generation_path(directory, "g"), "g")
        assert ddl.dumps(snapshot) == ddl.dumps(repo.fetch("g"))


def test_materialize_returns_the_fetched_generation(backend, directory):
    repo = backend(directory)
    mediator = Mediator(repository=repo)
    mediator.add_source(
        "s", DdlWrapper('collection C\nobject x { name: "X" }\nmember C: x\n')
    )
    mediator.import_source("s")
    for _ in range(2):
        assert mediator.materialize("data") is repo.fetch("data")
