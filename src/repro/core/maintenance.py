"""Incremental maintenance of materialized site graphs.

Section 7 of the paper: "we need to solve the problem of incremental
view updates for semistructured data, which is an open problem" --
warehoused sites were rebuilt from scratch on every data change.  This
module implements a practical insert-maintenance algorithm on top of the
machinery we already have, with honest fallbacks.

Every pass asks one :class:`~repro.struql.footprint.DependencyIndex`,
holding what each query's where-clauses read, which queries the data
graph's changes since the last pass can have changed -- the same index,
and the same truncated-log rule, as every other "data changed, what is
stale?" answer in the repository:

* **Full rebuild** -- the index answers ``COARSE`` (the bounded delta
  log no longer reaches back), or the delta removed something
  (deletions are non-monotone: a materialized site graph cannot
  un-construct).  The maintainer rebuilds the site graph from scratch
  and says so.
* **Skip** -- the index reports the query unaffected: the delta meets
  none of its conditions (wrong label, wrong collection), so its output
  cannot change.
* **Seed** -- an affected monotone, path-free query, at whatever block
  depth: each block's new rows are computed from the delta as
  d(P join N) = dP join N + P join dN: for every condition of the
  where-clauses from the root down to the block that the delta
  matches, the other conditions are evaluated with that condition's
  variables pre-bound from the delta.  The rows are projected to the
  block's variables and only the block's own clauses are constructed
  for them, block by block in the order a full evaluation constructs
  them.  Skolem memoization and the graph's set semantics make
  re-construction idempotent: only genuinely new nodes and edges appear
  (the tests check they come in the order a recompute adds them).
* **Recompute** -- an affected query with a regular-path condition (a
  new edge or node anywhere can extend a path) is re-evaluated, and
  only it.
* **Rebuild** -- an affected query with negation: an insertion can
  *invalidate* old rows, so the site graph is rebuilt.

Every path preserves the invariant checked property-style in the tests:
after any sequence of updates, the maintained site graph equals a fresh
evaluation of the program over the current data graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..graph import Atom, Graph, Oid, Target
from ..struql.ast import (
    CollectionCond,
    Condition,
    Const,
    EdgeCond,
    NotCond,
    PathCond,
    Program,
    Query,
    Var,
)
from ..struql.eval import (
    Binding,
    Metrics,
    _Constructor,
    _project,
    _values_equal,
    make_engine,
)
from ..struql.footprint import COARSE, DependencyIndex, Footprint
from ..struql.parser import parse


@dataclass
class MaintenanceReport:
    """What one update cost: per-query dispositions plus graph deltas."""

    queries_skipped: int = 0
    queries_seeded: int = 0
    queries_recomputed: int = 0
    full_rebuilds: int = 0
    nodes_added: int = 0
    edges_added: int = 0


class SiteMaintainer:
    """Keeps a materialized site graph consistent with a mutating data graph.

    Every pass asks one :class:`~repro.struql.footprint.DependencyIndex`,
    holding one entry per query, what changed since the site graph was
    last brought up to date.  Changes made through the update methods
    and any other data change -- a direct mutation of ``data_graph``, or
    an edit whose pass raised -- are therefore maintained alike: from
    the data graph's delta log, or by a rebuild when the index answers
    ``COARSE`` (the log no longer reaches back) or the delta removed
    something.
    """

    def __init__(self, program: Union[Program, Query, str], data_graph: Graph) -> None:
        if isinstance(program, str):
            program = parse(program)
        if isinstance(program, Query):
            program = Program(queries=[program])
        self.program = program
        self.data_graph = data_graph
        # one warm engine for every maintenance pass: plans, the
        # statistics snapshot, and the path-reachability memo carry
        # across updates (epoch-invalidated)
        self._engine = make_engine(data_graph)
        self.site_graph = self._evaluate_all()
        #: the data-graph epoch the site graph was last brought up to
        self._synced = data_graph.epoch
        #: query position -> what its where-clauses read
        self._reads = DependencyIndex()
        for key, query in enumerate(program.queries):
            self._reads.add(key, _query_reads(query))
        self.last_report = MaintenanceReport()

    # ------------------------------------------------------------ #
    # update entry points

    def add_object(
        self,
        collection: str,
        attributes: Sequence[Tuple[str, object]],
        oid: Optional[Oid] = None,
    ) -> Oid:
        """Insert a new object with its attributes and membership; a
        single maintenance pass covers all of it."""
        node = self.data_graph.add_node(oid, hint=collection.lower())
        for label, value in attributes:
            self.data_graph.add_edge(node, label, value)
        self.data_graph.add_to_collection(collection, node)
        self.last_report = self._maintain()
        return node

    def add_edge(self, source: Oid, label: str, target: object) -> Target:
        """Insert one edge into the data graph and maintain the site."""
        stored = self.data_graph.add_edge(source, label, target)
        self.last_report = self._maintain()
        return stored

    def add_to_collection(self, collection: str, oid: Oid) -> None:
        """Add an existing object to a collection and maintain the site."""
        self.data_graph.add_to_collection(collection, oid)
        self.last_report = self._maintain()

    def remove_edge(self, source: Oid, label: str, target: Target) -> None:
        """Deletions are non-monotone: full rebuild."""
        self.data_graph.remove_edge(source, label, target)
        self.last_report = self._maintain()

    def remove_object(self, oid: Oid) -> None:
        """Object deletion: full rebuild."""
        self.data_graph.remove_node(oid)
        self.last_report = self._maintain()

    def rebuild(self) -> MaintenanceReport:
        """Re-derive the site graph from the current data graph."""
        self.site_graph = self._evaluate_all()
        self._synced = self.data_graph.epoch
        self.last_report = MaintenanceReport(full_rebuilds=1)
        return self.last_report

    # ------------------------------------------------------------ #
    # the maintenance pass

    def _maintain(self) -> MaintenanceReport:
        """One pass over every data change since the last one."""
        stale = self._reads.affected(self.data_graph, self._synced)
        if stale is COARSE or stale.delta.has_removals:
            return self.rebuild()
        new_edges, new_members = stale.delta.edges_added, stale.delta.members_added
        report = MaintenanceReport()
        sizes = (self.site_graph.node_count, self.site_graph.edge_count)
        self._mirror_imported_subgraphs(new_edges)
        for key, query in enumerate(self.program.queries):
            disposition = self._classify(query) if key in stale else "skip"
            if disposition == "skip":
                report.queries_skipped += 1
            elif disposition == "rebuild":
                return self.rebuild()
            elif disposition == "recompute":
                self._recompute_query(query)
                report.queries_recomputed += 1
            else:
                self._seed_query(query, new_edges, new_members)
                report.queries_seeded += 1
        report.nodes_added = self.site_graph.node_count - sizes[0]
        report.edges_added = self.site_graph.edge_count - sizes[1]
        self._synced = self.data_graph.epoch
        return report

    def _mirror_imported_subgraphs(
        self, new_edges: List[Tuple[Oid, str, Target]]
    ) -> None:
        """Data nodes referenced by link/collect clauses were imported into
        the site graph *with their reachable subgraph*; when such a node
        gains an edge in the data graph, the site-graph copy must gain it
        too (and the new target's subgraph must be imported)."""
        for source, label, target in new_edges:
            if not self.site_graph.has_node(source):
                continue
            if isinstance(target, Oid) and not self.site_graph.has_node(target):
                for reached in self.data_graph.reachable(target):
                    self.site_graph.add_node(reached)
                for reached in self.data_graph.reachable(target):
                    for out_label, out_target in self.data_graph.out_edges(reached):
                        if isinstance(out_target, Oid) and not self.site_graph.has_node(out_target):
                            self.site_graph.add_node(out_target)
                        self.site_graph.add_edge(reached, out_label, out_target)
            self.site_graph.add_edge(source, label, target)

    @staticmethod
    def _classify(query: Query) -> str:
        """How to maintain a query the delta can have changed."""
        conditions = [c for block in query.walk() for c in block.where]
        if any(isinstance(c, NotCond) for c in conditions):
            return "rebuild"
        if any(isinstance(c, PathCond) for c in conditions):
            return "recompute"
        return "seed"

    # ------------------------------------------------------------ #
    # dispositions

    def _evaluate_all(self) -> Graph:
        from ..struql.eval import evaluate

        return evaluate(self.program, self.data_graph, engine=self._engine)

    def _recompute_query(self, query: Query) -> None:
        """Re-evaluate one query into the existing site graph; Skolem
        memoization + set semantics make this purely additive and
        idempotent."""
        engine = self._engine
        rows = engine.bindings(query.where, initial=[{}])
        _Constructor(self.site_graph, Metrics(), self.data_graph).run(
            query, rows, engine
        )

    def _seed_query(
        self,
        query: Query,
        new_edges: List[Tuple[Oid, str, Target]],
        new_members: List[Tuple[str, Oid]],
    ) -> None:
        """Delta-seeded evaluation of every block of ``query``, depth
        first like :meth:`_Constructor.run`.  A block's new rows are the
        union, over each condition of its where-clauses from the root
        down that the delta matches, of the other conditions evaluated
        from that condition's seeds."""
        engine = self._engine
        constructor = _Constructor(self.site_graph, Metrics(), self.data_graph)

        def seed_block(block: Query, where: List[Condition]) -> None:
            rows: List[Binding] = []
            for index, condition in enumerate(where):
                seeds = self._seeds_for(condition, new_edges, new_members)
                if seeds:
                    remaining = where[:index] + where[index + 1:]
                    rows.extend(engine.bindings(remaining, initial=seeds))
            constructor.construct(block, _project(rows, block.variables()))
            for child in block.blocks:
                seed_block(child, where + child.where)

        seed_block(query, list(query.where))

    @staticmethod
    def _seeds_for(
        condition: Condition,
        new_edges: List[Tuple[Oid, str, Target]],
        new_members: List[Tuple[str, Oid]],
    ) -> List[Binding]:
        seeds: List[Binding] = []
        if isinstance(condition, EdgeCond):
            for source, label, target in new_edges:
                if isinstance(condition.label, str) and label != condition.label:
                    continue
                seed: Binding = {condition.source.name: source}
                conflict = False
                if isinstance(condition.label, Var):
                    if condition.label.name in seed:
                        conflict = True  # same var as source: oid vs label
                    else:
                        seed[condition.label.name] = label
                if isinstance(condition.target, Var):
                    existing = seed.get(condition.target.name)
                    if existing is None:
                        seed[condition.target.name] = target
                    elif not _values_equal(existing, target):
                        conflict = True  # e.g. x -> "l" -> x on a non-loop
                elif isinstance(condition.target, Const):
                    from ..graph import atoms_equal

                    if not (
                        isinstance(target, Atom)
                        and atoms_equal(target, condition.target.atom)
                    ):
                        continue
                if not conflict:
                    seeds.append(seed)
        elif isinstance(condition, CollectionCond):
            for name, member in new_members:
                if name == condition.collection:
                    seeds.append({condition.var.name: member})
        return seeds


def _query_reads(query: Query) -> Footprint:
    """What ``query``'s where-clauses read, for the dependency index:
    the labels of its constant-label edges and the collections it scans.
    An arc variable or a regular path can read any edge, so it reads all
    of them; a negation reads what its inner conditions read."""
    reads = Footprint()

    def note(condition: Condition) -> None:
        if isinstance(condition, EdgeCond) and isinstance(condition.label, str):
            reads.label_scans.add(condition.label)
        elif isinstance(condition, (EdgeCond, PathCond)):
            reads.all_edges = True
        elif isinstance(condition, CollectionCond):
            reads.collection_scans.add(condition.collection)
        elif isinstance(condition, NotCond):
            for inner in condition.inner:
                note(inner)

    for block in query.walk():
        for condition in block.where:
            note(condition)
    return reads
