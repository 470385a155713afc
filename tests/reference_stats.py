"""The statistics oracle: index statistics recounted from the raw indexes.

:meth:`~repro.repository.IndexStatistics.snapshot` reads the graph's
incremental counters in O(labels + collections).  :func:`recount_statistics`
derives the same numbers the obvious way, in O(edges): it walks every
label extent for its distinct atomic targets and counts the atoms one by
one.  The two must agree exactly after any mutation sequence
(``tests/test_perf_caches.py``).
"""

from repro.graph import Atom
from repro.repository import IndexStatistics


def recount_statistics(graph) -> IndexStatistics:
    """Statistics for ``graph``, recounted from its raw indexes."""
    labels = graph.labels()
    return IndexStatistics(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        label_cardinality={label: graph.label_cardinality(label) for label in labels},
        collection_cardinality={
            name: graph.collection_cardinality(name)
            for name in graph.collection_names()
        },
        distinct_atoms=sum(1 for _ in graph.atoms()),
        label_distinct_values={
            label: len({
                target for _, target in graph.edges_with_label(label)
                if isinstance(target, Atom)
            })
            for label in labels
        },
        epoch=graph.epoch,
        graph_key=graph.token,
    )
