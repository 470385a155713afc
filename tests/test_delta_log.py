"""The bounded delta log (:class:`repro.graph.DeltaLog`) against a
per-record reference.

A graph write appends one ``(epoch, kind, a, b, c)`` record with the
ring's own ``deque.append``; the ring keeps one record past its window,
whose epoch is the floor.  The reference below keeps every record ever
written and applies the window rule literally: the window is the newest
``maxlen`` records, and ``since(e)`` is ``None`` exactly when a record
outside the window is newer than ``e``.  Over random mutation scripts --
``remove_node`` writes several records in one epoch, and small rings
overflow -- both must give the same answer for every ``e``.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DeltaLog, Graph, integer, string
from repro.graph.delta import (
    COLLECTION_CREATE,
    EDGE_ADD,
    EDGE_REMOVE,
    MEMBER_ADD,
    MEMBER_REMOVE,
    NODE_ADD,
    NODE_REMOVE,
)

_FIELDS = {
    EDGE_ADD: "edges_added",
    EDGE_REMOVE: "edges_removed",
    NODE_ADD: "nodes_added",
    NODE_REMOVE: "nodes_removed",
    MEMBER_ADD: "members_added",
    MEMBER_REMOVE: "members_removed",
    COLLECTION_CREATE: "collections_created",
}


class ReferenceLog:
    """Every record ever written, aggregated by a forward scan."""

    def __init__(self, maxlen):
        self.maxlen = maxlen
        self.history = []

    def since(self, epoch, current_epoch):
        evicted = self.history[:max(0, len(self.history) - self.maxlen)]
        if evicted and epoch < evicted[-1][0]:
            return None
        fields = {name: [] for name in _FIELDS.values()}
        for at, kind, a, b, c in self.history:
            if at <= epoch:
                continue
            if kind in (EDGE_ADD, EDGE_REMOVE):
                entry = (a, b, c)
            elif kind in (MEMBER_ADD, MEMBER_REMOVE):
                entry = (a, b)
            else:
                entry = a
            fields[_FIELDS[kind]].append(entry)
        return (epoch, current_epoch, fields)


def _teed(graph, maxlen):
    """Give ``graph`` a ``maxlen`` ring whose writes also reach a
    reference log."""
    log = DeltaLog(maxlen)
    reference = ReferenceLog(maxlen)
    append = log.record

    def record(entry):
        reference.history.append(entry)
        append(entry)

    log.record = record
    graph._delta_log = log
    return reference


def _answer(delta):
    if delta is None:
        return None
    return (delta.base_epoch, delta.epoch,
            {name: getattr(delta, name) for name in _FIELDS.values()})


_COLLECTIONS = ["A", "B", "C"]

scripts = st.lists(
    st.tuples(
        st.sampled_from(
            ["node", "edge_node", "edge_atom", "remove_edge", "remove_node",
             "collect", "uncollect", "create"]
        ),
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from(["a", "b"]),
        st.sampled_from([string("x"), string("1"), integer(1)]),
    ),
    max_size=50,
)


def _apply(graph, nodes, step):
    op, i, j, label, atom = step
    collection = _COLLECTIONS[j % len(_COLLECTIONS)]
    if op == "create":
        graph.create_collection(collection)
        return
    if op == "node" or not nodes:
        nodes.append(graph.add_node())
        return
    source = nodes[i % len(nodes)]
    if not graph.has_node(source):
        return
    if op == "edge_node":
        target = nodes[j % len(nodes)]
        if graph.has_node(target):
            graph.add_edge(source, label, target)
    elif op == "edge_atom":
        graph.add_edge(source, label, atom)
    elif op == "remove_edge":
        targets = graph.targets(source, label)
        if targets:
            graph.remove_edge(source, label, targets[j % len(targets)])
    elif op == "remove_node":
        # one epoch: the node record, then one record per collection left
        graph.remove_node(source)
    elif op == "collect":
        for name in _COLLECTIONS[: 1 + j % len(_COLLECTIONS)]:
            graph.add_to_collection(name, source)
    elif op == "uncollect":
        if graph.in_collection(collection, source):
            graph.remove_from_collection(collection, source)


@given(scripts, st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_since_matches_the_per_record_reference(script, maxlen):
    graph = Graph()
    reference = _teed(graph, maxlen)
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
        current = graph.epoch
        for asked in range(-1, current + 2):
            assert _answer(graph.delta_since(asked)) == reference.since(asked, current), (
                asked, current, maxlen,
            )
        assert len(graph._delta_log) == min(len(reference.history), maxlen)


def test_remove_node_shares_one_epoch_across_an_overflowing_ring():
    """Evicting part of one epoch's records makes that epoch unusable:
    only a consumer at or past it gets a delta."""
    graph = Graph()
    reference = _teed(graph, 2)
    node = graph.add_node()
    for name in _COLLECTIONS:
        graph.add_to_collection(name, node)
    graph.remove_node(node)  # node_removed + three member_removed
    current = graph.epoch
    assert [entry[0] for entry in reference.history[-4:]] == [current] * 4
    assert graph.delta_since(current - 1) is None
    assert reference.since(current - 1, current) is None
    assert graph.delta_since(current).empty


def test_an_empty_window_answers_none_before_the_current_epoch():
    log = DeltaLog(maxlen=0)
    assert log.since(0, 0).empty  # nothing written, nothing missing
    log.record((1, NODE_ADD, "n", None, None))
    assert len(log) == 0
    assert log.since(0, 1) is None
    assert log.since(1, 1).empty


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy]
    + [lambda log, p=p: pickle.loads(pickle.dumps(log, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_a_cloned_log_records_into_its_own_ring(clone):
    """``record`` is a bound ``deque.append``: a copy must rebind it."""
    log = DeltaLog(maxlen=2)
    for epoch in (1, 2, 3):
        log.record((epoch, NODE_ADD, f"n{epoch}", None, None))
    twin = clone(log)
    twin.record((4, NODE_ADD, "n4", None, None))
    assert log.since(3, 3).empty and len(log) == 2
    assert twin.since(3, 4).nodes_added == ["n4"]
    assert twin.since(1, 4) is None and log.since(0, 3) is None
    assert log.since(1, 3).nodes_added == ["n2", "n3"]
    assert twin.since(2, 4).nodes_added == ["n3", "n4"]


def test_a_deep_copied_graph_keeps_its_own_delta_log():
    graph = Graph()
    node = graph.add_node()
    twin = copy.deepcopy(graph)
    epoch = twin.epoch
    twin.add_edge(node, "a", string("x"))
    assert twin.delta_since(epoch).edges_added == [(node, "a", string("x"))]
    assert graph.delta_since(epoch).empty
