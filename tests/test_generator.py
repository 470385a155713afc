"""Unit tests for the HTML generator (repro.template.generator)."""

import os

import pytest

from repro.errors import TemplateResolutionError
from repro.graph import Graph, Oid, string
from repro.struql import evaluate
from repro.template import (
    TEMPLATE_ATTRIBUTE,
    HtmlGenerator,
    TemplateSet,
    generate_site,
)
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates


@pytest.fixture
def site():
    graph = Graph()
    root = graph.add_node(Oid("Root()"))
    for index in range(3):
        child = graph.add_node(Oid(f"Item({index})"))
        graph.add_edge(child, "title", string(f"Item number {index}"))
        graph.add_edge(root, "item", child)
        graph.add_to_collection("Items", child)
    templates = TemplateSet()
    templates.add("root", "<h1>Root</h1><SFMT item UL>")
    templates.add("item", "<h2><SFMT title></h2>")
    templates.for_object("Root()", "root")
    templates.for_collection("Items", "item")
    return graph, templates, root


class TestTemplateSelection:
    def test_object_specific_wins(self, site):
        graph, templates, root = site
        templates.add("special", "special")
        templates.for_object("Item(0)", "special")
        assert templates.resolve(graph, Oid("Item(0)")).name == "special"
        assert templates.resolve(graph, Oid("Item(1)")).name == "item"

    def test_html_template_attribute_second(self, site):
        graph, templates, root = site
        templates.add("attrib", "via attribute")
        graph.add_edge(Oid("Item(1)"), TEMPLATE_ATTRIBUTE, string("attrib"))
        assert templates.resolve(graph, Oid("Item(1)")).name == "attrib"

    def test_collection_template_third(self, site):
        graph, templates, root = site
        assert templates.resolve(graph, Oid("Item(2)")).name == "item"

    def test_default_last(self, site):
        graph, templates, root = site
        orphan = graph.add_node(Oid("Orphan()"))
        assert templates.resolve(graph, orphan) is None
        templates.add("fallback", "x")
        templates.set_default("fallback")
        assert templates.resolve(graph, orphan).name == "fallback"

    def test_graph_collection_order_picks_among_templated_collections(self, site):
        """A node in two collections with templates gets the template of
        the one the graph lists first, whatever order the templates were
        registered in; a collection without a template is passed over."""
        graph, templates, root = site
        both = graph.add_node(Oid("Both()"))
        for name in ("Untemplated", "First", "Second"):
            graph.add_to_collection(name, both)
        templates.add("second", "2")
        templates.add("first", "1")
        templates.for_collection("Second", "second")
        templates.for_collection("First", "first")
        assert graph.collections_of(both) == ["Untemplated", "First", "Second"]
        assert templates.resolve(graph, both).name == "first"

    def test_registering_unknown_template_fails(self, site):
        _, templates, _ = site
        with pytest.raises(TemplateResolutionError):
            templates.for_collection("Items", "ghost")

    def test_template_counting(self, site):
        _, templates, _ = site
        assert templates.template_count() == 2
        assert templates.total_source_lines() == 2


class TestGeneration:
    def test_pages_generated_transitively(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root()"])
        assert generated.page_count == 4  # root + 3 items

    def test_first_root_is_index(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root()"])
        assert "index.html" in generated.pages
        assert "<h1>Root</h1>" in generated.pages["index.html"]

    def test_links_point_to_real_pages(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root()"])
        assert generated.dangling_links() == []
        assert len(generated.internal_hrefs()) == 3

    def test_filenames_sanitized(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root()"])
        for filename in generated.pages:
            assert "(" not in filename and ")" not in filename

    def test_collection_as_root(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Items"])
        assert generated.page_count == 3

    def test_oid_as_root(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, [root])
        assert generated.page_count == 4

    def test_bare_skolem_name_as_root(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root"])
        assert generated.page_count == 4

    def test_unknown_root_raises(self, site):
        graph, templates, _ = site
        with pytest.raises(TemplateResolutionError):
            generate_site(graph, templates, ["Nowhere"])

    def test_root_without_template_raises(self, site):
        graph, templates, _ = site
        orphan = graph.add_node(Oid("Orphan()"))
        with pytest.raises(TemplateResolutionError):
            generate_site(graph, templates, [orphan])

    def test_a_call_that_raised_leaves_nothing_queued(self, site):
        graph, templates, root = site
        orphans = [graph.add_node(Oid(f"Orphan({n})")) for n in (1, 2)]
        generator = HtmlGenerator(graph, templates)
        with pytest.raises(TemplateResolutionError):
            generator.generate(orphans)  # raises on the first, leaving the second
        again = generator.generate([root])
        assert len(again.pages) == 4 and "index.html" not in again.pages

    def test_object_without_template_rendered_as_text(self, site):
        graph, templates, root = site
        orphan = graph.add_node(Oid("Orphan()"))
        graph.add_edge(orphan, "title", string("Plain"))
        graph.add_edge(root, "item", orphan)
        generated = generate_site(graph, templates, ["Root()"])
        assert ">Plain<" in generated.pages["index.html"].replace("<li>Plain</li>", ">Plain<")
        assert generated.page_count == 4  # orphan is not a page

    def test_page_for_accessor(self, site):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root()"])
        assert "<h1>Root</h1>" in generated.page_for(root)
        assert generated.page_for(Oid("ghost")) is None

    def test_write(self, site, tmp_path):
        graph, templates, root = site
        generated = generate_site(graph, templates, ["Root()"])
        written = generated.write(str(tmp_path))
        assert len(written) == 4
        assert os.path.exists(os.path.join(str(tmp_path), "index.html"))

    def test_filename_collisions_disambiguated(self):
        graph = Graph()
        a = graph.add_node(Oid("P(x)"))
        b = graph.add_node(Oid("P(x )"))  # sanitizes to the same stem
        templates = TemplateSet()
        templates.add("t", "x")
        templates.for_object("P(x)", "t")
        templates.for_object("P(x )", "t")
        generator = HtmlGenerator(graph, templates)
        generated = generator.generate([a, b])
        assert len(generated.pages) == 2

    def test_embedded_objects_are_not_pages(self):
        graph = Graph()
        root = graph.add_node(Oid("Root()"))
        part = graph.add_node(Oid("Part()"))
        graph.add_edge(part, "title", string("part"))
        graph.add_edge(root, "part", part)
        graph.add_to_collection("Parts", part)
        templates = TemplateSet()
        templates.add("root", "<SFMT part EMBED>")
        templates.add("part", "[<SFMT title>]")
        templates.for_object("Root()", "root")
        templates.for_collection("Parts", "part")
        generated = generate_site(graph, templates, ["Root()"])
        assert generated.page_count == 1
        assert generated.pages["index.html"] == "[part]"

    def test_each_object_is_resolved_once_per_generate(self, site):
        graph, templates, root = site
        templates.add("twice", "<SFMT item UL><SFMT item EMBED>")
        templates.for_object("Root()", "twice")
        resolved = []
        resolve = templates.resolve
        templates.resolve = lambda graph, oid: resolved.append(oid) or resolve(graph, oid)
        generator = HtmlGenerator(graph, templates)
        first = generator.generate([root])
        assert sorted(resolved) == sorted([root] + graph.collection("Items"))
        # a later call resolves afresh, so it sees a changed selection
        templates.add("other", "other")
        graph.add_edge(Oid("Item(0)"), TEMPLATE_ATTRIBUTE, string("other"))
        again = generator.generate([root])
        assert len(resolved) == 8
        assert again.pages[first.filenames[Oid("Item(0)")]] == "other"

    def test_a_second_generate_rerenders_its_pages_under_the_same_names(self):
        graph = evaluate(HOMEPAGE_QUERY, bibliography_graph(5, seed=0))
        generator = HtmlGenerator(graph, homepage_templates())
        first = generator.generate(["RootPage()"])
        again = generator.generate(["RootPage()"])
        assert len(first.pages) == 13
        assert list(again.pages.items()) == list(first.pages.items())
        assert again.filenames == first.filenames
        # a root reached the first time keeps its name, and a call
        # renders only what its own roots reach
        year = graph.collection("YearPages")[0]
        subset = generator.generate([year])
        assert first.filenames[year] in subset.pages
        assert "index.html" not in subset.pages and len(subset.pages) < 13
        assert all(first.pages[name] == html for name, html in subset.pages.items())
