"""A fragment pass against uncached rendering, on generated templates.

Inside :meth:`repro.template.Renderer.fragment_pass` each ``EMBED``
fragment is rendered once per ``(oid, embed_stack)`` and a page whose
template reaches no ``EMBED`` shares bytes with its top-level fragment.
For generated templates over generated graphs, a sequence of page and
template renders inside a pass must give the bytes of the same sequence
outside one, read the same graph nodes (a ``RecordingView`` records the
read set) and first call ``href_for`` for the same objects in the same
order -- the order that assigns a generated site's file names.  The
templates cover every SFMT directive, SIF with ``=``/``!=`` over
coercible atoms, nested SFOR with ``@var.path`` and EMBED, and the
graphs hold every atom type and objects that embed themselves.
"""

import contextlib

from hypothesis import given, settings, strategies as st

from repro.errors import TemplateEvaluationError
from repro.graph import Atom, AtomType, Graph, Oid
from repro.struql.footprint import RecordingView
from repro.template import (
    AttrExpr,
    Conditional,
    Directives,
    Format,
    Literal,
    Loop,
    PageRegistry,
    Renderer,
    Template,
    parse_template,
)
from repro.template.eval import _MAX_EMBED_DEPTH

LABELS = ("a", "b", "title", "next")
OBJECTS = tuple(Oid(f"O{index}()") for index in range(5))

#: payloads per atom type, chosen so that coercing comparisons meet:
#: ``"1"`` against INTEGER 1 and FLOAT 1.0, ``"true"`` against BOOLEAN
_ATOMS = st.one_of(
    st.builds(
        Atom, st.just(AtomType.STRING), st.sampled_from(["1", "x", "<b>&", "true", ""])
    ),
    st.builds(Atom, st.just(AtomType.INTEGER), st.sampled_from([0, 1, 2])),
    st.builds(Atom, st.just(AtomType.FLOAT), st.sampled_from([1.0, 2.5])),
    st.builds(Atom, st.just(AtomType.BOOLEAN), st.booleans()),
    st.builds(
        Atom,
        st.sampled_from([
            AtomType.URL, AtomType.TEXT_FILE, AtomType.IMAGE_FILE,
            AtomType.POSTSCRIPT_FILE, AtomType.HTML_FILE,
        ]),
        st.sampled_from(["f.ps", "http://x.org/?a=1&b=\"2\"", "<i>it</i>"]),
    ),
)

#: object targets are drawn twice as often as atoms, so that many
#: attribute paths reach several objects
_TARGETS = st.one_of(st.sampled_from(OBJECTS), st.sampled_from(OBJECTS), _ATOMS)
_EDGES = st.lists(
    st.tuples(st.sampled_from(OBJECTS), st.sampled_from(LABELS), _TARGETS), max_size=18
)


def _directives():
    return st.builds(
        Directives,
        embed=st.booleans(),
        link=st.booleans(),
        enum=st.booleans(),
        list_style=st.sampled_from(["", "", "ul", "ol"]),
        delim=st.sampled_from([None, " | "]),
        order=st.sampled_from(["", "", "ascend", "descend"]),
        key=st.sampled_from(["", "title", "a"]),
        count=st.integers(0, 5).map(lambda n: n == 0),
    )


@st.composite
def _expr(draw, bound):
    var = draw(st.sampled_from(("",) + bound)) if bound else ""
    path = draw(st.lists(st.sampled_from(LABELS), min_size=0 if var else 1, max_size=2))
    return AttrExpr(tuple(path), var)


@st.composite
def _nodes(draw, depth, bound=()):
    nodes = []
    kinds = ["format", "literal", "if", "for"] if depth else ["format", "literal"]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "literal":
            nodes.append(Literal(draw(st.sampled_from(["<p>", "x", "&amp;", " "]))))
        elif kind == "format":
            nodes.append(Format(draw(_expr(bound)), draw(_directives())))
        elif kind == "if":
            op = draw(st.sampled_from(["", "=", "!="]))
            literal = draw(st.sampled_from(["1", "1.0", "x", "true"])) if op else ""
            nodes.append(Conditional(
                draw(_expr(bound)), op, literal,
                tuple(draw(_nodes(depth - 1, bound))),
                tuple(draw(_nodes(depth - 1, bound))),
            ))
        else:
            var = f"v{depth}"
            nodes.append(Loop(
                var, draw(_expr(bound)),
                tuple(draw(_nodes(depth - 1, bound + (var,)))),
                draw(st.sampled_from(["", ", "])),
            ))
    return nodes


class _Registry(PageRegistry):
    """Pages for the objects with a template; logs every ``href_for``."""

    def __init__(self, templates):
        self.templates = templates
        self.hrefs = []

    def href_for(self, oid):
        self.hrefs.append(oid)
        return f"{oid.name}.html" if oid in self.templates else None

    def template_for(self, oid):
        return self.templates.get(oid)


def _attempt(render, template, obj):
    try:
        return render(template, obj)
    except TemplateEvaluationError as error:
        return ("error", str(error))


def _outcome(graph, objects, templates, template_list, in_pass):
    """(results, reads, first ``href_for`` order) of every page, then
    every template on every object, then every page again."""
    view = RecordingView(graph)
    registry = _Registry(templates)
    renderer = Renderer(view, registry)
    pages = [(templates[oid], oid) for oid in objects if oid in templates]
    calls = [(renderer.render_page, template, oid) for template, oid in pages]
    calls += [
        (renderer.render, template, obj) for template in template_list for obj in objects
    ]
    calls += [(renderer.render_page, template, oid) for template, oid in pages]
    scope = renderer.fragment_pass() if in_pass else contextlib.nullcontext()
    with view.recording() as reads, scope:
        results = [_attempt(*call) for call in calls]
    return results, reads, list(dict.fromkeys(registry.hrefs))


def _assert_same(graph, objects, templates, template_list):
    cached = _outcome(graph, objects, templates, template_list, in_pass=True)
    uncached = _outcome(graph, objects, templates, template_list, in_pass=False)
    assert cached == uncached


@given(
    edges=_EDGES,
    bodies=st.lists(_nodes(2), min_size=1, max_size=3),
    assigned=st.lists(st.integers(0, 3), min_size=len(OBJECTS), max_size=len(OBJECTS)),
)
@settings(max_examples=300, deadline=None)
def test_a_fragment_pass_matches_uncached_rendering(edges, bodies, assigned):
    graph = Graph()
    for oid in OBJECTS:
        graph.add_node(oid)
    # a fixed core: every object links two others out of name order
    for index, oid in enumerate(OBJECTS):
        graph.add_edge(oid, "a", OBJECTS[(index + 3) % len(OBJECTS)])
        graph.add_edge(oid, "a", OBJECTS[(index + 1) % len(OBJECTS)])
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    templates_list = [Template(f"T{index}", nodes) for index, nodes in enumerate(bodies)]
    # objects whose draw exceeds the template count have no template
    templates = {
        oid: templates_list[choice]
        for oid, choice in zip(OBJECTS, assigned)
        if choice < len(templates_list)
    }
    _assert_same(graph, OBJECTS, templates, templates_list)


def test_an_embed_chain_past_the_depth_limit_becomes_a_link():
    graph = Graph()
    chain = [graph.add_node(Oid(f"C{index}()")) for index in range(_MAX_EMBED_DEPTH + 4)]
    for here, there in zip(chain, chain[1:]):
        graph.add_edge(here, "next", there)
        graph.add_edge(here, "title", Atom(AtomType.INTEGER, len(here.name)))
    template = parse_template("[<SFMT title><SFMT next EMBED>]")
    templates = {oid: template for oid in chain}
    _assert_same(graph, chain, templates, [template])
    html = Renderer(graph, _Registry(templates)).render(template, chain[0])
    # a link to the first object past the limit ends the inlined chain
    assert f'href="{chain[_MAX_EMBED_DEPTH + 1].name}.html"' in html


def test_a_self_embedding_cycle_becomes_a_link():
    graph = Graph()
    loop = graph.add_node(Oid("Loop()"))
    graph.add_edge(loop, "a", loop)
    template = parse_template("<SFMT a EMBED>!")
    templates = {loop: template}
    _assert_same(graph, [loop], templates, [template])
    html = Renderer(graph, _Registry(templates)).render(template, loop)
    assert html == '<a href="Loop().html">Loop()</a>!!'
