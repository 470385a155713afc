"""Property-based test: the maintenance invariant under random update
sequences.

For any sequence of insert-style updates applied through the maintainer,
the maintained site graph must equal a fresh evaluation of the program
over the resulting data graph.  This is the central correctness property
of repro.core.maintenance, so it gets the hypothesis treatment.

Every insert into these path- and negation-free queries is seeded, at
whatever block depth it matches.  A second arm feeds the same updates to
a maintainer that recomputes each query instead of seeding it, and the
two site graphs must dump identically: node order, edge order and
collection order included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SiteMaintainer
from repro.graph import Graph, Oid, integer, string
from repro.repository import ddl
from repro.struql import evaluate
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph

SITE_QUERY = """
create Root()
where Items(x), x -> "name" -> n
create Page(x)
link Page(x) -> "name" -> n, Root() -> "Item" -> Page(x)
collect Pages(Page(x))
{
  where x -> "group" -> g
  create GroupPage(g)
  link GroupPage(g) -> "Member" -> Page(x), Root() -> "Group" -> GroupPage(g)
  collect Groups(GroupPage(g))
}
"""

# update operations: (kind, payload)
_updates = st.lists(
    st.one_of(
        st.tuples(st.just("object"), st.integers(0, 5)),       # add object
        st.tuples(st.just("group-edge"), st.integers(0, 5)),   # add group edge
        st.tuples(st.just("name-edge"), st.integers(0, 5)),    # extra name
        st.tuples(st.just("noise-edge"), st.integers(0, 5)),   # irrelevant
        st.tuples(st.just("member"), st.integers(0, 5)),       # collection add
    ),
    min_size=1,
    max_size=8,
)

# Fig. 3 updates: (kind, payload)
_homepage_updates = st.lists(
    st.one_of(
        st.tuples(st.just("publication"), st.integers(0, 5)),
        st.tuples(st.just("year"), st.integers(0, 5)),
        st.tuples(st.just("category"), st.integers(0, 5)),
        st.tuples(st.just("author"), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=8,
)


class RecomputingMaintainer(SiteMaintainer):
    """Recomputes every query the delta matches instead of seeding it."""

    def _classify(self, query):
        disposition = super()._classify(query)
        return "recompute" if disposition == "seed" else disposition


def _canon(graph):
    return (
        sorted(
            (s.name, l, t.name if isinstance(t, Oid) else repr(t))
            for s, l, t in graph.edges()
        ),
        sorted(o.name for o in graph.nodes()),
        {c: sorted(o.name for o in graph.collection(c))
         for c in graph.collection_names()},
    )


def _items_graph():
    data = Graph()
    for index in range(2):
        oid = data.add_node()
        data.add_edge(oid, "name", string(f"seed{index}"))
        data.add_to_collection("Items", oid)
    return data


def _apply_items_update(maintainer, kind, which, serial, loose_nodes):
    items = maintainer.data_graph.collection("Items")
    if kind == "object":
        maintainer.add_object(
            "Items",
            [("name", string(f"obj{serial}")),
             ("group", string(f"g{which % 3}"))],
        )
    elif kind == "group-edge":
        target = items[which % len(items)]
        maintainer.add_edge(target, "group", string(f"g{which % 3}"))
    elif kind == "name-edge":
        target = items[which % len(items)]
        maintainer.add_edge(target, "name", string(f"alias{serial}"))
    elif kind == "noise-edge":
        target = items[which % len(items)]
        maintainer.add_edge(target, "noise", integer(serial))
    else:  # member: promote a loose node
        if not loose_nodes:
            loose = maintainer.data_graph.add_node()
            maintainer.data_graph.add_edge(loose, "name", string(f"loose{serial}"))
            loose_nodes.append(loose)
        maintainer.add_to_collection("Items", loose_nodes.pop())


def _apply_homepage_update(maintainer, kind, which, serial, _loose_nodes):
    publications = maintainer.data_graph.collection("Publications")
    target = publications[which % len(publications)]
    if kind == "publication":
        maintainer.add_object(
            "Publications",
            [("title", string(f"Paper {serial}")),
             ("author", string(f"Author {which}")),
             ("year", integer(1990 + which)),
             ("category", string(f"Topic {which % 3}"))],
        )
    elif kind == "year":
        maintainer.add_edge(target, "year", integer(1980 + which))
    elif kind == "category":
        maintainer.add_edge(target, "category", string(f"Topic {which}"))
    else:
        maintainer.add_edge(target, "author", string(f"Coauthor {serial}"))


def _run(maintainer_class, query, data, apply_update, updates):
    maintainer = maintainer_class(query, data)
    loose_nodes = []
    for serial, (kind, which) in enumerate(updates, start=1):
        apply_update(maintainer, kind, which, serial, loose_nodes)
        assert maintainer.last_report.full_rebuilds == 0  # all inserts
        if maintainer_class is SiteMaintainer:
            assert maintainer.last_report.queries_recomputed == 0
    return maintainer


def _check(query, make_data, apply_update, updates):
    seeded = _run(SiteMaintainer, query, make_data(), apply_update, updates)
    fresh = evaluate(seeded.program, seeded.data_graph)
    assert _canon(seeded.site_graph) == _canon(fresh)
    recomputed = _run(
        RecomputingMaintainer, query, make_data(), apply_update, updates
    )
    assert ddl.dumps(seeded.site_graph) == ddl.dumps(recomputed.site_graph)


@given(_updates)
@settings(max_examples=40, deadline=None)
def test_maintenance_equals_fresh_evaluation(updates):
    _check(SITE_QUERY, _items_graph, _apply_items_update, updates)


@given(_homepage_updates)
@settings(max_examples=25, deadline=None)
def test_homepage_maintenance_equals_fresh_evaluation(updates):
    _check(
        HOMEPAGE_QUERY,
        lambda: bibliography_graph(5, seed=17),
        _apply_homepage_update,
        updates,
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 3 and 5: a pass whose delta spans two sources "
    "in other than plan order seeds rows in another order than a recompute",
)
def test_two_source_pass_adds_edges_in_recompute_order():
    """One pass sees a category edge of publication 0 and one of
    publication 3, the latter added first: the seeded site holds the
    recomputed site's edges, but ``RootPage()``'s two new
    ``CategoryPage`` edges come out swapped."""

    def run(maintainer_class):
        data = bibliography_graph(6, seed=0)
        maintainer = maintainer_class(HOMEPAGE_QUERY, data)
        publications = data.collection("Publications")
        data.add_edge(publications[3], "author", string("X2"))
        data.add_edge(publications[0], "category", string("C9"))
        maintainer.add_edge(publications[3], "category", string("C-last"))
        return maintainer

    seeded, recomputed = run(SiteMaintainer), run(RecomputingMaintainer)
    assert _canon(seeded.site_graph) == _canon(recomputed.site_graph)
    assert ddl.dumps(seeded.site_graph) == ddl.dumps(recomputed.site_graph)
