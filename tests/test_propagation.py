"""Unit tests for edit propagation (examples/edit_propagation.py)."""

import pytest

from repro.core import SiteMaintainer
from repro.graph import Graph, Oid, atoms_equal, string, text_file
from repro.struql import evaluate
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph

from edit_propagation import EditPropagator, PropagationError

SIMPLE_QUERY = """
where Items(x), x -> l -> v
create Page(x)
link Page(x) -> l -> v, Page(x) -> "kind" -> "item"
collect Pages(Page(x))
"""


@pytest.fixture
def simple():
    data = Graph()
    oid = data.add_node(Oid("i1"))
    data.add_edge(oid, "name", string("old name"))
    data.add_edge(oid, "note", text_file("old body"))
    data.add_to_collection("Items", oid)
    maintainer = SiteMaintainer(SIMPLE_QUERY, data)
    return maintainer, EditPropagator(maintainer), oid


class TestTrace:
    def test_traces_arc_variable_copy(self, simple):
        maintainer, propagator, item = simple
        origins = propagator.trace(Oid("Page(i1)"), "name", string("old name"))
        assert len(origins) == 1
        assert origins[0].source == item
        assert origins[0].label == "name"

    def test_constant_value_has_no_origin(self, simple):
        maintainer, propagator, item = simple
        assert propagator.trace(Oid("Page(i1)"), "kind", string("item")) == []

    def test_unknown_page_raises(self, simple):
        maintainer, propagator, item = simple
        with pytest.raises(PropagationError):
            propagator.trace(Oid("Ghost()"), "name", string("x"))

    def test_wrong_value_untraced(self, simple):
        maintainer, propagator, item = simple
        assert propagator.trace(Oid("Page(i1)"), "name", string("nope")) == []

    def test_instance_lookup(self, simple):
        maintainer, propagator, item = simple
        instance = propagator.instance_for(Oid("Page(i1)"))
        assert instance is not None and instance.function == "Page"
        assert propagator.instance_for(Oid("nope")) is None


class TestApply:
    def test_edit_rewrites_data_and_site(self, simple):
        maintainer, propagator, item = simple
        result = propagator.apply(
            Oid("Page(i1)"), "name", string("old name"), string("new name")
        )
        assert result.site_rebuilt
        assert len(result.origins_rewritten) == 1
        # data graph rewritten
        assert str(maintainer.data_graph.attribute(item, "name")) == "new name"
        # site graph reflects the edit
        page_value = maintainer.site_graph.attribute(Oid("Page(i1)"), "name")
        assert str(page_value) == "new name"

    def test_edit_preserves_atom_flavour(self, simple):
        maintainer, propagator, item = simple
        propagator.apply(
            Oid("Page(i1)"), "note", text_file("old body"), string("new body")
        )
        note = maintainer.data_graph.attribute(item, "note")
        assert note.type.value == "text"  # flavour kept
        assert str(note) == "new body"

    def test_editing_constant_raises(self, simple):
        maintainer, propagator, item = simple
        with pytest.raises(PropagationError):
            propagator.apply(Oid("Page(i1)"), "kind", string("item"), string("x"))

    def test_site_equals_fresh_evaluation_after_edit(self, simple):
        maintainer, propagator, item = simple
        propagator.apply(
            Oid("Page(i1)"), "name", string("old name"), string("renamed")
        )
        fresh = evaluate(maintainer.program, maintainer.data_graph)
        assert maintainer.site_graph.stats() == fresh.stats()


class TestOnHomepageSite:
    def test_edit_title_shown_on_presentation_page(self):
        data = bibliography_graph(5, seed=95)
        maintainer = SiteMaintainer(HOMEPAGE_QUERY, data)
        propagator = EditPropagator(maintainer)
        pub = data.collection("Publications")[0]
        old_title = data.attribute(pub, "title")
        page = Oid(f"PaperPresentation({pub.name})")
        result = propagator.apply(page, "title", old_title, string("Edited Title"))
        # the same title was copied to the AbstractPage too: both origins
        # point at the single data edge, so one rewrite covers both pages
        assert len(result.origins_rewritten) == 1
        assert str(data.attribute(pub, "title")) == "Edited Title"
        abstract_page = Oid(f"AbstractPage({pub.name})")
        shown = maintainer.site_graph.attribute(abstract_page, "title")
        assert str(shown) == "Edited Title"

    def test_shared_value_multiple_origins(self):
        """Two data edges with the same value feeding one page attribute:
        both are rewritten (the displayed value changes everywhere)."""
        data = Graph()
        oid = data.add_node(Oid("i1"))
        data.add_edge(oid, "tag", string("dup"))
        data.add_edge(oid, "alt", string("dup"))
        data.add_to_collection("Items", oid)
        query = """
        where Items(x), x -> l -> v
        create Page(x)
        link Page(x) -> "label" -> v
        collect Pages(Page(x))
        """
        maintainer = SiteMaintainer(query, data)
        propagator = EditPropagator(maintainer)
        origins = propagator.trace(Oid("Page(i1)"), "label", string("dup"))
        assert len(origins) == 2
