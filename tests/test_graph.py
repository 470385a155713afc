"""Unit tests for the labeled directed graph (repro.graph.graph)."""

import sys

import pytest

from repro.errors import GraphError, UnknownObjectError
from repro.graph import Atom, AtomType, Graph, Oid, from_python, integer, string

from .reference_stats import recount_statistics


@pytest.fixture
def graph():
    return Graph("t")


class TestNodes:
    def test_add_anonymous(self, graph):
        oid = graph.add_node()
        assert graph.has_node(oid)
        assert graph.node_count == 1

    def test_add_named(self, graph):
        oid = graph.add_node(Oid("pub1"))
        assert oid.name == "pub1"

    def test_readd_is_noop(self, graph):
        oid = graph.add_node(Oid("x"))
        graph.add_edge(oid, "a", string("v"))
        graph.add_node(Oid("x"))
        assert graph.edge_count == 1

    def test_remove_node_removes_incident_edges(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "to", b)
        graph.add_edge(b, "back", a)
        graph.remove_node(b)
        assert graph.edge_count == 0
        assert not graph.has_node(b)
        assert list(graph.out_edges(a)) == []

    def test_remove_node_drops_collection_membership(self, graph):
        oid = graph.add_node()
        graph.add_to_collection("C", oid)
        graph.remove_node(oid)
        assert graph.collection("C") == []

    def test_remove_unknown_raises(self, graph):
        with pytest.raises(UnknownObjectError):
            graph.remove_node(Oid("ghost"))

    def test_skolem_creates_node(self, graph):
        oid = graph.skolem("YearPage", 1998)
        assert graph.has_node(oid)
        assert oid.name == "YearPage(1998)"

    def test_skolem_deterministic(self, graph):
        assert graph.skolem("F", "a") == graph.skolem("F", "a")
        assert graph.node_count == 1


class TestEdges:
    def test_add_edge_atom_target(self, graph):
        oid = graph.add_node()
        stored = graph.add_edge(oid, "year", 1998)
        assert isinstance(stored, Atom)
        assert graph.edge_count == 1

    def test_add_edge_node_target(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "to", b)
        assert graph.has_edge(a, "to", b)

    def test_duplicate_edge_ignored(self, graph):
        oid = graph.add_node()
        graph.add_edge(oid, "a", string("v"))
        graph.add_edge(oid, "a", string("v"))
        assert graph.edge_count == 1

    def test_multivalued_attribute(self, graph):
        oid = graph.add_node()
        graph.add_edge(oid, "author", string("Mary"))
        graph.add_edge(oid, "author", string("Dan"))
        assert [str(t) for t in graph.targets(oid, "author")] == ["Mary", "Dan"]

    def test_unknown_source_raises(self, graph):
        with pytest.raises(UnknownObjectError):
            graph.add_edge(Oid("ghost"), "a", string("v"))

    def test_unknown_oid_target_raises(self, graph):
        oid = graph.add_node()
        with pytest.raises(UnknownObjectError):
            graph.add_edge(oid, "to", Oid("ghost"))

    def test_empty_label_rejected(self, graph):
        oid = graph.add_node()
        with pytest.raises(GraphError):
            graph.add_edge(oid, "", string("v"))

    def test_remove_edge(self, graph):
        oid = graph.add_node()
        target = graph.add_edge(oid, "a", string("v"))
        graph.remove_edge(oid, "a", target)
        assert graph.edge_count == 0
        assert not graph.has_edge(oid, "a", target)
        assert "a" not in graph.labels()

    def test_remove_missing_edge_raises(self, graph):
        oid = graph.add_node()
        with pytest.raises(GraphError):
            graph.remove_edge(oid, "a", string("v"))

    def test_edges_iteration(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "x", b)
        graph.add_edge(a, "y", string("v"))
        assert len(list(graph.edges())) == 2


def _delta_summary(graph, epoch):
    delta = graph.delta_since(epoch)
    return [getattr(delta, name) for name in type(delta).__slots__]


class TestAddEdgeContract:
    """What every ``add_edge`` caller relies on: which error wins, how
    targets are wrapped, that labels are interned, and that a rejected
    or duplicate write changes nothing."""

    @pytest.fixture
    def nodes(self, graph):
        a, b = graph.add_node(Oid("a")), graph.add_node(Oid("b"))
        graph.add_edge(a, "to", b)
        graph.add_edge(a, "year", 1998)
        return a, b

    def test_unknown_source_wins_over_a_bad_label(self, graph):
        with pytest.raises(UnknownObjectError):
            graph.add_edge(Oid("ghost"), "", string("v"))
        with pytest.raises(UnknownObjectError):
            graph.add_edge(Oid("ghost"), None, Oid("ghost too"))

    def test_unknown_target_oid_wins_over_a_bad_label(self, graph, nodes):
        with pytest.raises(UnknownObjectError) as raised:
            graph.add_edge(nodes[0], "", Oid("ghost"))
        assert raised.value.args == UnknownObjectError(Oid("ghost")).args

    @pytest.mark.parametrize("label", [None, string("a"), 7, ""])
    def test_a_label_that_is_not_a_non_empty_string_is_rejected(self, graph, nodes, label):
        with pytest.raises(GraphError):
            graph.add_edge(nodes[0], label, string("v"))

    @pytest.mark.parametrize(
        "value, kind",
        [(True, AtomType.BOOLEAN), (3, AtomType.INTEGER), (2.5, AtomType.FLOAT),
         ("s", AtomType.STRING)],
    )
    def test_plain_targets_are_wrapped_with_from_python(self, graph, nodes, value, kind):
        stored = graph.add_edge(nodes[0], "v", value)
        assert stored.__class__ is Atom and stored.type is kind
        assert stored == from_python(value)
        assert graph.targets(nodes[0], "v") == [stored]

    def test_stored_labels_are_the_interned_strings(self, graph, nodes):
        label = "".join(["ti", "tle"])  # built at run time: not interned
        graph.add_edge(nodes[0], label, string("t"))
        interned = sys.intern("title")
        assert graph.labels_of(nodes[0])[-1] is interned
        assert graph.labels()[-1] is interned
        assert next(graph.in_edges(string("t")))[1] is interned

    @pytest.mark.parametrize(
        "source, label, target",
        [(Oid("ghost"), "a", string("v")), (Oid("a"), "a", Oid("ghost")),
         (Oid("a"), "", string("v")), (Oid("a"), None, string("v")),
         (Oid("a"), "a", object())],
    )
    def test_a_rejected_write_changes_nothing(self, graph, nodes, source, label, target):
        start = graph.epoch - 2
        before = (graph.epoch, graph.edge_count, _delta_summary(graph, start),
                  recount_statistics(graph))
        with pytest.raises((GraphError, TypeError)):
            graph.add_edge(source, label, target)
        assert (graph.epoch, graph.edge_count, _delta_summary(graph, start),
                recount_statistics(graph)) == before

    def test_a_duplicate_edge_bumps_no_epoch_and_records_no_delta(self, graph, nodes):
        a, b = nodes
        epoch = graph.epoch
        assert graph.add_edge(a, "to", b) == b
        assert graph.add_edge(a, "year", integer(1998)) == integer(1998)
        assert graph.epoch == epoch
        assert graph.delta_since(epoch).empty
        assert graph.edge_count == 2


class TestNavigation:
    def test_attribute_first_value(self, graph):
        oid = graph.add_node()
        graph.add_edge(oid, "a", string("first"))
        graph.add_edge(oid, "a", string("second"))
        assert str(graph.attribute(oid, "a")) == "first"

    def test_attribute_missing_is_none(self, graph):
        oid = graph.add_node()
        assert graph.attribute(oid, "a") is None

    def test_labels_of(self, graph):
        oid = graph.add_node()
        graph.add_edge(oid, "b", string("1"))
        graph.add_edge(oid, "a", string("2"))
        assert graph.labels_of(oid) == ["b", "a"]  # insertion order

    def test_in_edges(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "to", b)
        assert list(graph.in_edges(b)) == [(a, "to")]

    def test_value_index(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "year", integer(1998))
        graph.add_edge(b, "published", integer(1998))
        sources = set(graph.sources_of_value(integer(1998)))
        assert sources == {(a, "year"), (b, "published")}

    def test_label_extent(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "to", b)
        graph.add_edge(b, "to", a)
        assert set(graph.edges_with_label("to")) == {(a, b), (b, a)}
        assert graph.label_cardinality("to") == 2
        assert graph.label_cardinality("missing") == 0

    def test_atoms_iteration(self, graph):
        oid = graph.add_node()
        graph.add_edge(oid, "a", string("x"))
        graph.add_edge(oid, "b", string("x"))  # same atom twice
        assert len(list(graph.atoms())) == 1

    def test_out_edges_of_unknown_raises(self, graph):
        with pytest.raises(UnknownObjectError):
            list(graph.out_edges(Oid("ghost")))


class TestReachable:
    def test_includes_start(self, chain_graph):
        graph, (a, b, c) = chain_graph
        assert a in graph.reachable(a)

    def test_follows_edges(self, chain_graph):
        graph, (a, b, c) = chain_graph
        assert set(graph.reachable(a)) == {a, b, c}

    def test_label_restriction(self, chain_graph):
        graph, (a, b, c) = chain_graph
        reached = graph.reachable(a, via={"next"})
        assert set(reached) == {a, b, c}
        assert set(graph.reachable(a, via={"figure"})) == {a}

    def test_atoms_included_on_request(self, chain_graph):
        graph, (a, b, c) = chain_graph
        with_atoms = graph.reachable(a, include_atoms=True)
        assert any(isinstance(t, Atom) for t in with_atoms)

    def test_cycle_terminates(self, graph):
        a, b = graph.add_node(), graph.add_node()
        graph.add_edge(a, "to", b)
        graph.add_edge(b, "to", a)
        assert set(graph.reachable(a)) == {a, b}


class TestCollections:
    def test_create_and_membership(self, graph):
        oid = graph.add_node()
        graph.add_to_collection("C", oid)
        assert graph.in_collection("C", oid)
        assert graph.collection("C") == [oid]

    def test_multiple_collections_per_object(self, graph):
        oid = graph.add_node()
        graph.add_to_collection("A", oid)
        graph.add_to_collection("B", oid)
        assert set(graph.collections_of(oid)) == {"A", "B"}

    def test_unknown_member_raises(self, graph):
        with pytest.raises(UnknownObjectError):
            graph.add_to_collection("C", Oid("ghost"))

    def test_remove_from_collection(self, graph):
        oid = graph.add_node()
        graph.add_to_collection("C", oid)
        graph.remove_from_collection("C", oid)
        assert graph.collection("C") == []

    def test_remove_nonmember_raises(self, graph):
        oid = graph.add_node()
        with pytest.raises(GraphError):
            graph.remove_from_collection("C", oid)

    def test_missing_collection_is_empty(self, graph):
        assert graph.collection("Nope") == []
        assert not graph.has_collection("Nope")

    def test_cardinality(self, graph):
        for _ in range(3):
            graph.add_to_collection("C", graph.add_node())
        assert graph.collection_cardinality("C") == 3


class TestCopyAndMerge:
    def test_copy_is_deep(self, pub_graph):
        clone = pub_graph.copy()
        original_edges = pub_graph.edge_count
        member = clone.collection("Publications")[0]
        clone.add_edge(member, "extra", string("x"))
        assert pub_graph.edge_count == original_edges

    def test_copy_preserves_everything(self, pub_graph):
        clone = pub_graph.copy()
        assert clone.stats() == pub_graph.stats()
        assert clone.collection_names() == pub_graph.collection_names()

    def test_copy_preserves_skolems(self):
        graph = Graph()
        graph.skolem("F", 1)
        clone = graph.copy()
        assert clone.skolems.lookup("F", (integer(1),)) is not None

    def test_merge_renames_clashing_anonymous_oids(self):
        left, right = Graph(), Graph()
        l1 = left.add_node()
        r1 = right.add_node()  # both are &1
        right.add_edge(r1, "a", string("v"))
        rename = left.merge(right)
        assert left.node_count == 2
        assert rename[r1] != l1

    def test_merge_keeps_named_oids(self):
        left, right = Graph(), Graph()
        right.add_node(Oid("pub1"))
        left.merge(right)
        assert left.has_node(Oid("pub1"))

    def test_merge_prefixes_collections(self):
        left, right = Graph(), Graph()
        oid = right.add_node()
        right.add_to_collection("People", oid)
        left.merge(right, collection_prefix="src.")
        assert left.has_collection("src.People")

    def test_merge_carries_edges(self):
        left, right = Graph(), Graph()
        a, b = right.add_node(), right.add_node()
        right.add_edge(a, "to", b)
        rename = left.merge(right)
        assert left.has_edge(rename[a], "to", rename[b])

    def test_merged_allocator_does_not_collide(self):
        left, right = Graph(), Graph()
        right.add_node()
        left.merge(right)
        fresh = left.add_node()
        assert left.node_count == 2  # no silent reuse


class TestStats:
    def test_stats_shape(self, pub_graph):
        stats = pub_graph.stats()
        assert stats["nodes"] == 3
        assert stats["collections"] == 1
        assert stats["edges"] > 0
        assert stats["labels"] >= 5

    def test_repr(self, pub_graph):
        assert "pubs" in repr(pub_graph)
