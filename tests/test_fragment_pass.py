"""One ``HtmlGenerator.generate`` call renders each ``EMBED`` fragment once.

Within a pass every fragment is cached under ``(oid, embed_stack)``, and
a page whose template reaches no ``EMBED`` shares bytes with its
top-level fragment ``(oid, ())``.  The contracts under test: every
template body of the homepage site is rendered once per build; the
bytes and file names equal those of a build that opens no pass, also
for self-embedding templates and embed chains; no fragment
outlives its pass; a later generator over an edited graph sees the
edit; and a build recorded around ``generate`` reads what an
uncached build reads.
"""

import contextlib
import weakref
from collections import Counter

import pytest

from repro.errors import DeadlineExceeded
from repro.graph import Graph, Oid, string
from repro.resilience import Deadline, deadline_scope
from repro.struql import RecordingView, evaluate, parse
from repro.template import HtmlGenerator, Renderer, TemplateSet
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates

ROOTS = ["RootPage()"]


class _CountingRenderer(Renderer):
    """Counts every template body rendered, by (template, object)."""

    def __init__(self, graph, registry):
        super().__init__(graph, registry)
        self.bodies = Counter()

    def _body(self, template, obj, embed_stack):
        self.bodies[(template.name, obj)] += 1
        return super()._body(template, obj, embed_stack)


class _Uncached(Renderer):
    """Opens no pass: every page and every fragment rendered afresh."""

    def fragment_pass(self):
        return contextlib.nullcontext()


def _generator(graph, templates, renderer_class):
    generator = HtmlGenerator(graph, templates)
    generator._renderer = renderer_class(graph, weakref.proxy(generator))
    return generator


def _uncached_site(graph, templates, roots):
    return _generator(graph, templates, _Uncached).generate(roots)


def _assert_same_site(graph, templates, roots):
    site = HtmlGenerator(graph, templates).generate(roots)
    uncached = _uncached_site(graph, templates, roots)
    assert site.pages == uncached.pages
    assert site.filenames == uncached.filenames


def test_a_homepage_build_renders_each_body_once():
    site_graph = evaluate(parse(HOMEPAGE_QUERY), bibliography_graph(120, seed=0))
    generator = _generator(site_graph, homepage_templates(), _CountingRenderer)
    site = generator.generate(ROOTS)
    bodies = generator._renderer.bodies
    assert set(bodies.values()) == {1}
    # every page, plus each presentation fragment its year and category
    # pages share
    presentations = [key for key in bodies if key[0] == "paperpresentation"]
    assert len(bodies) == site.page_count + len(presentations)
    uncached = _uncached_site(site_graph, homepage_templates(), ROOTS)
    assert site.pages == uncached.pages
    assert site.filenames == uncached.filenames


def test_self_embedding_templates_and_embed_chains_match_an_uncached_build():
    graph = Graph()
    root = graph.add_node(Oid("Root()"))
    loop = graph.add_node(Oid("Loop()"))
    graph.add_edge(loop, "self", loop)
    graph.add_edge(loop, "title", string("the loop"))
    chain = [graph.add_node(Oid(f"Link({index})")) for index in range(20)]
    for here, there in zip(chain, chain[1:]):
        graph.add_edge(here, "next", there)
    for oid in [loop] + chain:
        graph.add_edge(root, "item", oid)
        graph.add_edge(root, "embedded", oid)
        graph.add_to_collection("Items", oid)
    templates = TemplateSet()
    templates.add("root", "<SFMT item UL><SFOR e IN embedded><SFMT @e EMBED></SFOR>")
    templates.add("item", "[<SFMT title><SFMT self EMBED><SFMT next EMBED>]")
    templates.for_object("Root()", "root")
    templates.for_collection("Items", "item")
    assert templates.get("item").embeds
    _assert_same_site(graph, templates, ["Root()"])


def test_pages_without_embed_share_their_top_level_fragment():
    graph = Graph()
    root = graph.add_node(Oid("Root()"))
    for index in range(3):
        leaf = graph.add_node(Oid(f"Leaf({index})"))
        graph.add_edge(leaf, "title", string(f"leaf {index}"))
        graph.add_edge(root, "leaf", leaf)
        graph.add_to_collection("Leaves", leaf)
    templates = TemplateSet()
    # the leaves are embedded by the root and linked from each other's
    # pages through the root's list, so each is a page and a fragment
    templates.add("root", "<SFMT leaf EMBED ENUM><SFMT leaf UL>")
    templates.add("leaf", "<i><SFMT title></i>")
    templates.for_object("Root()", "root")
    templates.for_collection("Leaves", "leaf")
    assert not templates.get("leaf").embeds
    generator = _generator(graph, templates, _CountingRenderer)
    site = generator.generate(["Root()"])
    assert site.page_count == 4
    assert generator._renderer.bodies == Counter(
        {("root", root): 1, **{("leaf", Oid(f"Leaf({i})")): 1 for i in range(3)}}
    )
    _assert_same_site(graph, templates, ["Root()"])


def test_generate_keeps_no_fragment_after_it_returns():
    site_graph = evaluate(parse(HOMEPAGE_QUERY), bibliography_graph(10, seed=2))
    generator = HtmlGenerator(site_graph, homepage_templates())
    generator.generate(ROOTS)
    assert generator._renderer._pass is None
    failing = HtmlGenerator(site_graph, homepage_templates())
    with deadline_scope(Deadline(1e-9, stride=1)):
        with pytest.raises(DeadlineExceeded):
            failing.generate(ROOTS)
    assert failing._renderer._pass is None


def test_a_generator_over_an_edited_graph_sees_the_edit():
    data = bibliography_graph(30, seed=4)
    templates = homepage_templates()
    program = parse(HOMEPAGE_QUERY)
    before = HtmlGenerator(evaluate(program, data), templates).generate(ROOTS)
    publication = sorted(data.collection("Publications"), key=lambda oid: oid.name)[3]
    data.add_edge(publication, "author", string("A. Late Author"))
    edited = evaluate(program, data)
    after = HtmlGenerator(edited, templates).generate(ROOTS)
    assert after.pages != before.pages
    assert any("A. Late Author" in page for page in after.pages.values())
    # the parsed templates are shared; the fragments are not
    assert after.pages == _uncached_site(edited, homepage_templates(), ROOTS).pages


def test_a_recording_view_sees_the_reads_of_an_uncached_build():
    """A fragment served from the pass cache was read inside the same
    recording already: a build recorded around ``generate`` reads the
    nodes an uncached node-walking build reads, and gives its pages."""
    site_graph = evaluate(parse(HOMEPAGE_QUERY), bibliography_graph(30, seed=1))
    view = RecordingView(site_graph)
    with view.recording() as reads:
        site = HtmlGenerator(view, homepage_templates()).generate(ROOTS)
    uncached_view = RecordingView(site_graph)
    with uncached_view.recording() as uncached_reads:
        uncached = _uncached_site(uncached_view, homepage_templates(), ROOTS)
    assert reads == uncached_reads
    assert site.pages == uncached.pages
    assert site.filenames == uncached.filenames
