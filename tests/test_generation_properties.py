"""Property-based tests across the whole pipeline: for arbitrary family
sites, generation must produce a closed, well-formed page set, and
dynamic evaluation must agree with static evaluation."""

import re

from hypothesis import given, settings, strategies as st

from benchmarks.baselines import family_graph, run_strudel, strudel_query, strudel_templates
from repro.core import DynamicSite, NodeInstance
from repro.graph import Oid
from repro.struql import evaluate, parse
from repro.template import generate_site

_sizes = st.integers(1, 25)
_features = st.integers(0, 4)
_seeds = st.integers(0, 10)


@given(_sizes, _features, _seeds)
@settings(max_examples=25, deadline=None)
def test_generated_sites_have_no_dangling_links(items, features, seed):
    graph = family_graph(items, features, seed=seed)
    site_graph = evaluate(parse(strudel_query(features)), graph)
    site = generate_site(site_graph, strudel_templates(features), ["RootPage()"])
    assert site.dangling_links() == []
    if features:
        assert site.page_count >= 1 + items  # root + one page per item
    else:
        # with no grouping features nothing links to the item pages, and
        # generation is reachability-driven: only the root is emitted
        assert site.page_count == 1


@given(_sizes, _features, _seeds)
@settings(max_examples=25, deadline=None)
def test_every_page_is_reachable_from_index(items, features, seed):
    """Connectedness: following hrefs from index.html covers every page
    (the family site links root -> groups -> items; with zero features
    only the item pages hang off nothing, so skip that degenerate case)."""
    if features == 0:
        return
    graph = family_graph(items, features, seed=seed)
    site_graph = evaluate(parse(strudel_query(features)), graph)
    site = generate_site(site_graph, strudel_templates(features), ["RootPage()"])
    seen = {"index.html"}
    frontier = ["index.html"]
    while frontier:
        page = frontier.pop()
        for href in re.findall(r'href="([^"]+)"', site.pages[page]):
            if href.endswith(".html") and href not in seen:
                seen.add(href)
                frontier.append(href)
    assert seen == set(site.pages)


@given(_sizes, st.integers(1, 3), _seeds)
@settings(max_examples=20, deadline=None)
def test_dynamic_expansion_equals_static_site(items, features, seed):
    graph = family_graph(items, features, seed=seed)
    program = parse(strudel_query(features))
    static = evaluate(program, graph)
    dynamic = DynamicSite(program, graph)

    def key(target):
        if isinstance(target, NodeInstance):
            return target.oid().name
        if isinstance(target, Oid):
            return target.name
        return repr(target)

    for function in dynamic.schema.functions:
        for instance in dynamic.instances_of(function):
            oid = instance.oid()
            assert static.has_node(oid)
            static_edges = sorted((l, key(t)) for l, t in static.out_edges(oid))
            dynamic_edges = sorted((l, key(t)) for l, t in dynamic.expand(instance))
            assert static_edges == dynamic_edges


@given(_sizes, st.integers(1, 3), _seeds)
@settings(max_examples=15, deadline=None)
def test_atom_text_is_escaped_in_pages(items, features, seed):
    """No unescaped markup can leak from atom payloads: the family data
    contains no angle brackets, so any tag in output must come from a
    template literal -- all of which are in a fixed whitelist."""
    graph = family_graph(items, features, seed=seed)
    pages = run_strudel(graph, features)
    allowed = re.compile(
        r"</?(html|head|title|body|h1|h2|p|ul|li|a)\b[^>]*>", re.IGNORECASE
    )
    for content in pages.values():
        stripped = allowed.sub("", content)
        assert "<" not in stripped, stripped
