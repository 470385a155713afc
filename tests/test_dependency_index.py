"""One dependency index behind every "data changed, what is stale?" answer.

The contracts under test:

* :class:`~repro.struql.footprint.DependencyIndex` reports a key exactly
  when the delta meets what the key read -- footprint slots and render
  node sets alike -- forgets discarded keys, and answers ``COARSE`` when
  the delta log was truncated;
* the differential property: one random edit script, with removals and
  one step of more than 4096 mutations, runs over one data graph watched
  by all five index clients -- :class:`DynamicSite`, :class:`PageServer`,
  :class:`RegeneratingSite`, the :class:`SiteMaintainer` inside it, and
  :class:`IncrementalChecker` -- and after every step each client equals
  a from-scratch evaluation; the big step truncates the delta log and
  makes every client fall back to coarse.  A draft that already carries
  more edges than the log keeps, published by a pass the maintainer
  seeds, covers the regenerator's own site-graph truncated log.  Pages
  also embed the pages they cite, so cite cycles drive the ``EMBED``
  cycle cut-off through the regenerator's fragment cache.
"""

import re

from hypothesis import example, given, settings, strategies as st

from repro.constraints import CheckCounters, IncrementalChecker, parse_constraints
from repro.core import DynamicSite, PageServer, RegeneratingSite
from repro.graph import Graph, Oid, integer, string
from repro.struql import COARSE, DependencyIndex, Footprint, evaluate, parse
from repro.template import TemplateSet, generate_site

# ---------------------------------------------------------------------- #
# the index itself


def _footprint(**slots):
    footprint = Footprint()
    for slot, items in slots.items():
        if slot == "all_edges":
            footprint.all_edges = items
        else:
            getattr(footprint, slot).update(items)
    return footprint


def test_affected_matches_each_read_kind():
    graph = Graph()
    a, b = graph.add_node(hint="a"), graph.add_node(hint="b")
    graph.create_collection("C")
    index = DependencyIndex()
    index.add("edge", _footprint(edge_reads={(a, "x")}))
    index.add("all-out", _footprint(oid_reads_all={b}))
    index.add("label", _footprint(label_scans={"y"}))
    index.add("collection", _footprint(collection_scans={"C"}))
    index.add("member", _footprint(membership_reads={("C", b)}))
    index.add("value", _footprint(value_probes={(string("v"), "z")}))
    index.add("any-label value", _footprint(value_probes={(string("w"), None)}))
    index.add("node", _footprint(node_checks={Oid("later")}))
    index.add("wildcard", _footprint(all_edges=True))
    index.add("render", {a})
    index.add("nothing", Footprint())
    assert len(index) == 11

    def stale_after(mutate):
        epoch = graph.epoch
        mutate()
        return index.affected(graph, epoch)

    assert stale_after(lambda: graph.add_edge(a, "x", integer(1))) == {
        "edge", "wildcard", "render"
    }
    assert stale_after(lambda: graph.add_edge(b, "q", integer(1))) == {
        "all-out", "wildcard"
    }
    assert stale_after(lambda: graph.add_edge(b, "y", integer(2))) == {
        "all-out", "label", "wildcard"
    }
    assert stale_after(lambda: graph.add_to_collection("C", a)) == {
        "collection", "render"
    }
    assert stale_after(lambda: graph.add_to_collection("C", b)) == {
        "collection", "member"
    }
    assert stale_after(lambda: graph.add_edge(b, "z", string("v"))) == {
        "all-out", "value", "wildcard"
    }
    assert stale_after(lambda: graph.add_edge(a, "k", string("w"))) == {
        "any-label value", "wildcard", "render"
    }
    assert stale_after(lambda: graph.add_node(Oid("later"))) == {"node", "wildcard"}
    stale = stale_after(lambda: None)
    assert stale == set() and stale.delta.empty

    index.discard("render")
    index.discard("render")  # forgetting twice is harmless
    assert "render" not in index and len(index) == 10
    assert stale_after(lambda: graph.add_edge(a, "x", integer(9))) == {
        "edge", "wildcard"
    }


def test_readers_and_replacement():
    index = DependencyIndex()
    a, b, c = Oid("a"), Oid("b"), Oid("c")
    index.add("page1", {a, b})
    index.add("page2", {b})
    assert index.readers([b]) == {"page1", "page2"}
    index.add("page1", {c})  # a re-render replaces what the page read
    assert index.readers([a]) == set()
    assert index.readers([b, c]) == {"page1", "page2"}


def test_truncated_log_is_coarse():
    graph = Graph()
    node = graph.add_node(hint="n")
    index = DependencyIndex()
    index.add("k", _footprint(edge_reads={(node, "x")}))
    epoch = graph.epoch
    for i in range(5000):
        graph.add_edge(node, "noise", integer(i))
    assert index.affected(graph, epoch) is COARSE
    assert index.affected(graph, graph.epoch) == set()


# ---------------------------------------------------------------------- #
# differential property: five clients, one graph, one edit script

SITE_QUERY = """
create Home()
where Pubs(x)
create Page(x)
link Home() -> "Item" -> Page(x)
collect Pages(Page(x))
{
  where x -> l -> v
  link Page(x) -> l -> v
}
{
  where x -> "cites" -> y, Pubs(y)
  link Page(x) -> "Cites" -> Page(y)
}
"""

RULES = """
on Pubs {
  exclusive tag
  expression ( __subject__ -> "cites" -> y, y -> "title" -> t )
}
"""

#: A step that adds more mutations than the bounded delta log keeps (to a
#: label no template renders, which keeps the later steps cheap).
BURST = 4200
_NOTES = [("note", string(f"n{i}")) for i in range(BURST)]

_LABELS = ["title", "author", "tag"]
_VALUES = [string("t0"), string("t1"), string("t2"), string("Ann"), integer(7)]


def _templates():
    templates = TemplateSet()
    templates.add("home", "<html><body><SFMT Item UL></body></html>\n")
    templates.add(
        "page",
        "<html><body><h1><SFMT title></h1><SFMT author UL>"
        "<SFMT tag UL><SFMT Cites UL><SFMT Cites EMBED UL></body></html>\n",
    )
    templates.for_object("Home()", "home")
    templates.for_collection("Pages", "page")
    return templates


def _crawl(server):
    """Serve every page reachable from ``/``: path -> html."""
    queue, pages = ["/"], {}
    while queue:
        path = queue.pop(0)
        if path in pages:
            continue
        pages[path] = server.get(path)
        queue.extend(
            href for href in re.findall(r'href="(/[^"]*)"', pages[path])
            if href not in pages
        )
    return pages


def _expand_all(site):
    """Expand every instance of every function; returns the instances."""
    instances = []
    for function in site.schema.functions:
        instances.extend(site.instances_of(function))
    for instance in instances:
        site.expand(instance)
    return instances


_steps = st.one_of(
    st.tuples(st.just("edge"), st.integers(0, 9), st.sampled_from(_LABELS),
              st.integers(0, len(_VALUES) - 1)),
    st.tuples(st.just("cite"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("unlink"), st.integers(0, 9), st.sampled_from(_LABELS + ["cites"])),
    st.tuples(st.just("new"), st.integers(0, len(_VALUES) - 1)),
    st.tuples(st.just("draft"), st.integers(0, len(_VALUES) - 1)),
    st.tuples(st.just("publish"), st.integers(0, 9)),
    st.tuples(st.just("remove"), st.integers(0, 9)),
)


@st.composite
def edit_scripts(draw):
    steps = draw(st.lists(_steps, min_size=1, max_size=10))
    steps.insert(draw(st.integers(0, len(steps))), ("burst",))
    return steps


def _apply(regen, pubs, drafts, step):
    """Drive one step through the regenerating site's maintainer-mediated
    entry points."""
    data = regen.maintainer.data_graph
    op = step[0]
    if op == "burst":
        pubs.append(regen.add_object("Pubs", _NOTES))
    elif op == "big-draft":
        # half the notes come with the draft, half go straight into the
        # data graph and are folded into the publishing pass: neither
        # pass reaches the log bound, and publishing seeds every note
        # into the site graph at once
        draft = regen.add_object("Drafts", _NOTES[:BURST // 2])
        for label, value in _NOTES[BURST // 2:]:
            data.add_edge(draft, label, value)
        regen.add_to_collection("Pubs", draft)
        pubs.append(draft)
    elif op == "new":
        pubs.append(regen.add_object(
            "Pubs", [("title", string(f"P{len(pubs)}")), ("tag", _VALUES[step[1]])]
        ))
    elif op == "draft":
        drafts.append(regen.add_object("Drafts", [("tag", _VALUES[step[1]])]))
    elif op == "publish":
        if drafts:
            draft = drafts.pop(step[1] % len(drafts))
            if data.has_node(draft):
                regen.add_to_collection("Pubs", draft)
                pubs.append(draft)
    elif pubs:
        source = pubs[step[1] % len(pubs)]
        if not data.has_node(source):
            return
        if op == "edge":
            regen.add_edge(source, step[2], _VALUES[step[3]])
        elif op == "cite":
            target = pubs[step[2] % len(pubs)]
            if data.has_node(target):
                regen.add_edge(source, "cites", target)
        elif op == "unlink":
            targets = data.targets(source, step[2])
            if targets:
                regen.remove_edge(source, step[2], targets[0])
        elif op == "remove":
            regen.remove_object(source)


def _data_graph():
    data = Graph()
    pubs = []
    for i in range(4):
        pub = data.add_node(hint="pub")
        data.add_to_collection("Pubs", pub)
        data.add_edge(pub, "title", string(f"Title {i}"))
        data.add_edge(pub, "tag", _VALUES[i % 3])
        pubs.append(pub)
    data.add_edge(pubs[0], "cites", pubs[1])
    data.add_edge(pubs[2], "cites", pubs[3])
    data.create_collection("Drafts")
    return data, pubs


@given(edit_scripts())
# a draft joining the collection with a value an older member holds:
# that member's ``exclusive`` verdict flips although it did not change
@example([("draft", 1), ("publish", 0), ("burst",)])
@example([("edge", 1, "title", 3), ("remove", 0), ("burst",), ("cite", 1, 2)])
# a published draft already carrying more edges than the log keeps
@example([("big-draft",), ("edge", 0, "title", 2)])
# a cite cycle (0 -> 1 -> 0): each page embeds the other up to the cut-off
@example([("cite", 1, 0), ("edge", 0, "title", 2), ("burst",), ("edge", 1, "author", 3)])
@settings(max_examples=8, deadline=None)
def test_every_index_client_equals_a_fresh_evaluation(script):
    data, pubs = _data_graph()
    drafts = []
    program = parse(SITE_QUERY)
    rules = parse_constraints(RULES)
    assert rules.ok

    regen = RegeneratingSite(program, data, _templates(), ["Home()"])
    dynamic = DynamicSite(program, data)
    server = PageServer(program, data, _templates())
    counters = CheckCounters()
    checker = IncrementalChecker(data, rules, counters)
    checker.full_check()
    warmed = set(_expand_all(dynamic))
    _crawl(server)

    for step in script:
        epoch, coarse_fallbacks = data.epoch, counters.coarse_fallbacks
        _apply(regen, pubs, drafts, step)
        # the burst, the big draft, and removing either object overflow
        # the log
        truncated = data.delta_since(epoch) is None
        assert truncated or step[0] not in ("burst", "big-draft")
        refreshed = dynamic.refresh()
        served = server.refresh()
        checker.recheck()
        assert refreshed.coarse == served.coarse == truncated
        assert counters.coarse_fallbacks == coarse_fallbacks + truncated
        if step[0] == "burst":
            # the maintainer's data log is truncated too: one rebuild
            assert regen.last_report.coarse
            assert regen.last_report.maintenance.full_rebuilds == 1
        elif step[0] == "big-draft":
            # coarse through the site graph's own truncated log, not
            # through a maintainer rebuild
            assert regen.last_report.coarse
            assert regen.last_report.maintenance.full_rebuilds == 0

        fresh_site = generate_site(evaluate(program, data), _templates(), ["Home()"])
        assert regen.pages == fresh_site.pages

        fresh_dynamic = DynamicSite(program, data, cache=False)
        for function in dynamic.schema.functions:
            assert dynamic.instances_of(function) == fresh_dynamic.instances_of(function)
        warmed.update(_expand_all(fresh_dynamic))
        for instance in warmed:
            assert dynamic.expand(instance) == fresh_dynamic.expand(instance), instance

        assert _crawl(server) == _crawl(PageServer(program, data, _templates()))

        fresh_checker = IncrementalChecker(data, rules)
        fresh_checker.full_check()
        assert checker.verdicts() == fresh_checker.verdicts()
