"""E8 -- semistructured vs. relational modelling (section 6.3).

The paper's argument: modelling Strudel's data relationally "would
require either building an artificial class hierarchy ... or
constructing a maximal schema, where each object has all attributes",
plus side tables for multi-valued attributes, and constant schema
migrations because "the data graph's schema changed frequently, e.g.
several attributes were added on-the-fly".

We encode the bibliography collection both ways across an irregularity
sweep (the optional-attribute rates) and report the relational costs the
graph model simply does not have: NULL padding, 1NF overflow tables, and
ALTER-TABLE migrations during iterative loading.
"""

import pytest

from benchmarks.baselines import graph_model, maximal_schema
from repro.workloads import bibliography_graph, build_mediator

SWEEP = [
    ("fully regular", dict(month_rate=1.0, abstract_rate=1.0,
                           postscript_rate=1.0, url_rate=1.0, category_rate=1.0)),
    ("paper-like", dict(month_rate=0.5, abstract_rate=0.7,
                        postscript_rate=0.6, url_rate=0.3, category_rate=0.9)),
    ("sparse", dict(month_rate=0.2, abstract_rate=0.3,
                    postscript_rate=0.2, url_rate=0.1, category_rate=0.4)),
]


def test_e8_irregularity_sweep(report, benchmark):
    rows = []
    for name, rates in SWEEP:
        graph = bibliography_graph(200, seed=51, **rates)
        relational = maximal_schema(graph, "Publications")
        semistructured = graph_model(graph, "Publications")
        rows.append(
            {
                "workload": name,
                "columns (maximal schema)": len(relational.columns),
                "null %": round(100 * relational.null_fraction, 1),
                "overflow tables": len(relational.overflow_tables),
                "migrations (relational)": relational.schema_migrations,
                "migrations (graph)": semistructured.schema_migrations,
                "graph edges": semistructured.edges,
            }
        )
    report("E8_irregularity_sweep", rows,
           note="200 publications per row. The graph model stores only the "
                "edges that exist: no NULL padding, no 1NF side tables, no "
                "ALTER TABLE during iterative wrapper development.")
    regular, paper_like, sparse = rows
    assert regular["null %"] < paper_like["null %"] < sparse["null %"]
    assert all(row["migrations (graph)"] == 0 for row in rows)
    assert paper_like["overflow tables"] >= 1  # authors are multi-valued

    benchmark.pedantic(
        lambda: maximal_schema(bibliography_graph(200, seed=51), "Publications"),
        rounds=3, iterations=1,
    )


def test_e8_mediated_collections(report, benchmark):
    """The same comparison on the org-site's mediated collections -- the
    paper's actual AT&T data shape (projects missing synopsis/sponsor,
    people missing phones/photos)."""
    warehouse = benchmark.pedantic(
        lambda: build_mediator(people=150, seed=52).materialize(),
        rounds=1, iterations=1,
    )
    rows = []
    for collection in ("People", "Projects", "Publications"):
        relational = maximal_schema(warehouse, collection)
        rows.append(relational.as_row())
    report("E8_org_collections", rows,
           note="Mediated org-site collections encoded relationally; "
                "'type conflicts' counts columns mixing atomic kinds and "
                "object references.")
    projects = next(r for r in rows if r["collection"] == "Projects")
    assert projects["null %"] > 0  # synopsis/sponsor omissions
    people = next(r for r in rows if r["collection"] == "People")
    assert people["overflow tables"] >= 1  # project/publication refs
