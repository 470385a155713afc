"""Property-based test: builder-generated programs round-trip through the
concrete syntax.

Random programs assembled with the fluent builder must (a) validate,
(b) pretty-print to parseable STRUQL, and (c) parse back to the same
clauses.  This pins down the builder/format_query/parser triangle.
"""

import string as stringmod

from hypothesis import given, settings, strategies as st

from repro.struql import parse

from query_builder import ProgramBuilder, arc, const, skolem, star

_names = st.sampled_from(["Pubs", "Items", "People"])
_labels = st.sampled_from(["year", "title", "group", "kind"])
_variables = st.sampled_from(["x", "y", "z"])
_function_names = st.sampled_from(["Page", "Section", "Entry"])


@st.composite
def built_programs(draw):
    builder = ProgramBuilder()
    query = builder.query()
    base_var = draw(_variables)
    query.collection(draw(_names), base_var)
    function = draw(_function_names)
    bound = {base_var}
    # a few where conditions
    for index in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3))
        target = f"v{index}"
        if kind == 0:
            query.edge(base_var, draw(_labels), target)
            bound.add(target)
        elif kind == 1:
            query.edge(base_var, arc(f"l{index}"), target)
            bound.add(target)
            bound.add(f"l{index}")
        elif kind == 2:
            query.path(base_var, star(), target)
            bound.add(target)
        else:
            query.edge(base_var, draw(_labels), target)
            bound.add(target)
            query.compare(target, draw(st.sampled_from(["=", "!="])),
                          const(draw(st.integers(0, 5))))
    query.create(skolem(function, base_var))
    query.link(skolem(function, base_var), draw(_labels),
               draw(st.sampled_from(sorted(bound))))
    query.collect("Out", skolem(function, base_var))
    if draw(st.booleans()):
        child = query.block()
        child_label = draw(_labels)
        child.edge(base_var, child_label, "w")
        child.create(skolem("Sub", "w"))
        child.link(skolem("Sub", "w"), "parent", skolem(function, base_var))
    return builder


@given(built_programs())
@settings(max_examples=40, deadline=None)
def test_builder_text_round_trips(builder):
    program = builder.build()
    reparsed = parse(builder.text())
    assert len(reparsed.queries) == len(program.queries)
    for built_query, parsed_query in zip(program.queries, reparsed.queries):
        assert built_query.where == parsed_query.where
        assert built_query.create == parsed_query.create
        assert built_query.link == parsed_query.link
        assert built_query.collect == parsed_query.collect
        assert len(built_query.blocks) == len(parsed_query.blocks)
        for built_block, parsed_block in zip(built_query.blocks, parsed_query.blocks):
            assert built_block.where == parsed_block.where
            assert built_block.link == parsed_block.link


@given(built_programs())
@settings(max_examples=20, deadline=None)
def test_built_programs_evaluate(builder):
    """Every random built program must evaluate without error on a graph
    containing the referenced collections."""
    from repro.graph import Graph, string
    from repro.struql import evaluate

    graph = Graph()
    for collection in ("Pubs", "Items", "People"):
        for index in range(2):
            oid = graph.add_node()
            graph.add_edge(oid, "year", string(str(1990 + index)))
            graph.add_edge(oid, "title", string(f"t{index}"))
            graph.add_to_collection(collection, oid)
    result = evaluate(builder.build(), graph)
    assert result.node_count >= 0  # no exceptions is the property
