"""Fragment-granular regeneration: the ``EMBED`` fragment cache of
:class:`~repro.core.RegeneratingSite`.

The contracts under test:

* after every edit of a random script over the paper's Fig. 3 homepage
  site, the cached-fragment pages equal those of a regenerator that
  renders every embedded component afresh;
* an author edit renders the same number of fragments whatever the size
  of the site (the abstracts page embeds every abstract, and only the
  edited one is rendered again);
* a fragment that embeds a fragment: an edit to the inner one
  re-renders the outer one and the page that embeds it;
* known defects, pinned: a publication moved into an existing category
  lands at the end of that category page's ``SFOR`` list, while a fresh
  build lists it in object order; two page names that sanitize alike
  take their suffixes in the order pages are first rendered.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RegeneratingSite
from repro.graph import Graph, Oid, string
from repro.struql import evaluate, parse
from repro.template import TemplateSet, generate_site
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates

ROOTS = ["RootPage()"]


class PageGranularSite(RegeneratingSite):
    """Renders every ``EMBED`` component afresh, as a stale page did
    before fragments were cached: the reference arm."""

    def _fragment(self, oid, embed_stack, render):
        return render(oid, embed_stack)


def _publications(data):
    return sorted(data.collection("Publications"), key=lambda oid: oid.name)


_steps = st.one_of(
    st.tuples(st.just("author"), st.integers(0, 29), st.integers(0, 4)),
    st.tuples(st.just("abstract"), st.integers(0, 29), st.integers(0, 4)),
    st.tuples(st.just("category"), st.integers(0, 29),
              st.sampled_from(["languages", "web", "brand-new"])),
    st.tuples(st.just("year"), st.integers(0, 29), st.sampled_from(["1991", "2031"])),
    st.tuples(st.just("insert"), st.integers(0, 4)),
)


def _apply(regen, step):
    data = regen.maintainer.data_graph
    op = step[0]
    if op == "insert":
        regen.add_object("Publications", [
            ("title", string(f"Inserted {step[1]}")),
            ("author", string(f"Author {step[1]}")),
            ("year", string("1995")),
            ("category", string("web")),
        ])
        return
    pub = _publications(data)[step[1]]
    if op == "author":
        regen.add_edge(pub, "author", string(f"Author {step[2]}"))
    elif op == "abstract":
        regen.add_edge(pub, "abstract", string(f"Abstract text {step[2]}"))
    else:
        regen.add_edge(pub, op, string(step[2]))


@given(st.lists(_steps, min_size=1, max_size=8))
@settings(max_examples=10, deadline=None)
def test_cached_fragments_equal_page_granular_rendering(script):
    cached = RegeneratingSite(
        HOMEPAGE_QUERY, bibliography_graph(30, seed=6), homepage_templates(), ROOTS
    )
    reference = PageGranularSite(
        HOMEPAGE_QUERY, bibliography_graph(30, seed=6), homepage_templates(), ROOTS
    )
    assert cached.pages == reference.pages
    for step in script:
        _apply(cached, step)
        _apply(reference, step)
        assert cached.pages == reference.pages, step
        assert cached.site.filenames == reference.site.filenames
        report, expected = cached.last_report, reference.last_report
        assert report.pages_rerendered == expected.pages_rerendered
        assert report.pages_added == expected.pages_added


def _author_edit_fragments(publications):
    data = bibliography_graph(publications, seed=3)
    regen = RegeneratingSite(HOMEPAGE_QUERY, data, homepage_templates(), ROOTS)
    regen.add_edge(_publications(data)[7], "author", string("A. New Author"))
    assert not regen.last_report.coarse
    return regen.last_report.fragments_rendered


def test_author_edit_renders_a_size_independent_number_of_fragments():
    # the edited publication's presentation (shared by its year and
    # category pages) and its abstract (embedded by the abstracts page)
    assert _author_edit_fragments(50) == _author_edit_fragments(400) == 2


NESTED_QUERY = """
create RootPage()
where Publications(x), x -> l -> v
create Entry(x)
link Entry(x) -> l -> v
collect Entries(Entry(x))
{
  where x -> "category" -> c
  create Section(c)
  link Section(c) -> "Name" -> c, Section(c) -> "Entry" -> Entry(x),
       RootPage() -> "Section" -> Section(c)
  collect Sections(Section(c))
}
"""


def _nested_templates():
    templates = TemplateSet()
    templates.add("rootpage", "<html><body><SFMT Section EMBED UL></body></html>")
    templates.add("section", "<h2><SFMT Name></h2><SFMT Entry EMBED UL>")
    templates.add("entry", "<b><SFMT title></b> by <SFMT author ENUM>")
    templates.for_object("RootPage()", "rootpage")
    templates.for_collection("Sections", "section")
    templates.for_collection("Entries", "entry")
    return templates


def test_a_nested_fragment_edit_re_renders_its_embedders():
    """The root page embeds every section and a section embeds its
    entries, so an author edit stales one entry, the section that embeds
    it and the one page."""
    data = bibliography_graph(12, seed=3)
    regen = RegeneratingSite(NESTED_QUERY, data, _nested_templates(), ROOTS)
    for index, pub in enumerate(_publications(data)[:4]):
        regen.add_edge(pub, "author", string(f"Nested Author {index}"))
        fresh = generate_site(regen.maintainer.site_graph, _nested_templates(), ROOTS)
        assert regen.pages == fresh.pages
        assert f"Nested Author {index}" in regen.pages["index.html"]
        report = regen.last_report
        assert (report.pages_rerendered, report.fragments_rendered) == (1, 2)


def test_fragment_cache_starts_empty_after_a_coarse_rebuild():
    data = bibliography_graph(20, seed=8)
    regen = RegeneratingSite(HOMEPAGE_QUERY, data, homepage_templates(), ROOTS)
    built = regen.rebuild().fragments_rendered
    assert built > 0
    assert regen.rebuild().fragments_rendered == built


@pytest.mark.xfail(
    strict=True,
    reason="a category page's SFOR keeps the maintained edge order, and "
    "maintenance appends the moved publication's new Paper edge",
)
def test_category_edit_matches_a_fresh_build():
    data = bibliography_graph(60, seed=4)
    regen = RegeneratingSite(HOMEPAGE_QUERY, data, homepage_templates(), ROOTS)
    regen.add_edge(_publications(data)[0], "category", string("languages"))
    fresh = generate_site(
        evaluate(parse(HOMEPAGE_QUERY), data), homepage_templates(), ROOTS
    )
    assert regen.pages == fresh.pages


@pytest.mark.xfail(
    strict=True,
    reason="page names that sanitize alike take _1, _2, ... in the order "
    "pages are first rendered, so an insert can swap them (ROADMAP item 17)",
)
def test_page_name_suffixes_match_a_fresh_build():
    query = (
        'where Items(x), x -> "key" -> k, x -> "group" -> g '
        "create Root(), Group(g), Page(k) "
        'link Root() -> "Group" -> Group(g), Group(g) -> "Page" -> Page(k), '
        'Page(k) -> "key" -> k '
        "collect Groups(Group(g)), Pages(Page(k))"
    )
    templates = TemplateSet()
    templates.add("root", "<SFMT Group UL>")
    templates.add("group", "<SFMT Page UL>")
    templates.add("page", "<p>key=<SFMT key></p>")
    templates.for_object("Root()", "root")
    templates.for_collection("Groups", "group")
    templates.for_collection("Pages", "page")
    data = Graph()
    item = data.add_node(Oid("item-a_b"))
    data.add_edge(item, "key", string("a_b"))
    data.add_edge(item, "group", string("g2"))
    data.add_to_collection("Items", item)
    regen = RegeneratingSite(query, data, templates, ["Root()"])
    regen.add_object("Items", [("key", string("a b")), ("group", string("g1"))])
    fresh = generate_site(evaluate(parse(query), data), templates, ["Root()"])
    assert regen.pages == fresh.pages
