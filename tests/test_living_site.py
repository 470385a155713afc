"""Integration: a "living site" -- data changes flow through the
maintainer to both a materialized site and the dynamic server."""

import pytest

from repro.core import PageServer, SiteMaintainer
from repro.core.server import LazySiteGraph
from repro.graph import Graph, Oid, string
from repro.template import TemplateSet

QUERY = """
create Root()
where Items(x), x -> "name" -> n
create Page(x)
link Page(x) -> "name" -> n, Root() -> "Item" -> Page(x)
collect Pages(Page(x))
"""


def _templates() -> TemplateSet:
    templates = TemplateSet()
    templates.add("root", "<h1>Items: <SFMT Item COUNT></h1><SFMT Item UL>")
    templates.add("page", "<p><SFMT name></p>")
    templates.for_object("Root()", "root")
    templates.for_collection("Pages", "page")
    return templates


@pytest.fixture
def living():
    data = Graph()
    first = data.add_node(Oid("i1"))
    data.add_edge(first, "name", string("first"))
    data.add_to_collection("Items", first)
    server = PageServer(QUERY, data, _templates())
    maintainer = SiteMaintainer(QUERY, data)
    return data, server, maintainer


class TestLivingSite:
    def test_server_sees_update_after_invalidate(self, living):
        data, server, maintainer = living
        assert "Items: 1" in server.get("/")
        maintainer.add_object("Items", [("name", string("second"))])
        # stale until invalidated (caches are per-instance)
        server.invalidate()
        page = server.get("/")
        assert "Items: 2" in page and "second" in page

    def test_old_paths_survive_invalidation(self, living):
        data, server, maintainer = living
        first_link = server.links_of("/")[0]
        before = server.get(first_link)
        maintainer.add_object("Items", [("name", string("second"))])
        server.invalidate()
        assert server.get(first_link) == before  # unchanged page unchanged

    def test_page_served_again_after_its_item_comes_back(self, living):
        data, server, maintainer = living
        link = server.links_of("/")[0]
        first = Oid("i1")
        data.remove_edge(first, "name", string("first"))
        server.invalidate()  # the page's instance is gone at this reset
        data.add_edge(first, "name", string("back"))
        server.invalidate()
        response = server.get_response(link)
        assert (response.kind, response.body) == ("ok", "<p>back</p>")

    def test_new_pages_become_servable(self, living):
        data, server, maintainer = living
        maintainer.add_object("Items", [("name", string("second"))])
        server.invalidate()
        links = server.links_of("/")
        assert len(links) == 2
        assert any("second" in server.get(link) for link in links)

    def test_maintained_site_and_server_agree(self, living):
        data, server, maintainer = living
        maintainer.add_object("Items", [("name", string("second"))])
        server.invalidate()
        # both views show the same item names
        server_names = {
            server.get(link).replace("<p>", "").replace("</p>", "")
            for link in server.links_of("/")
        }
        site_names = {
            str(maintainer.site_graph.attribute(oid, "name"))
            for oid in maintainer.site_graph.collection("Pages")
        }
        assert server_names == site_names

    def test_edit_propagation_then_serve(self, living):
        from edit_propagation import EditPropagator

        data, server, maintainer = living
        propagator = EditPropagator(maintainer)
        propagator.apply(Oid("Page(i1)"), "name", string("first"),
                         string("renamed"))
        server.invalidate()
        assert "renamed" in server.get("/")
