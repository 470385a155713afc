"""Incremental maintenance of materialized site graphs.

Section 7 of the paper: "we need to solve the problem of incremental
view updates for semistructured data, which is an open problem" --
warehoused sites were rebuilt from scratch on every data change.  This
module implements a practical insert-maintenance algorithm on top of the
machinery we already have, with honest fallbacks:

* **Skip** -- a data-graph insertion that cannot match any condition of a
  query (wrong label, wrong collection) cannot change that query's
  output; the query is skipped entirely.
* **Seed** -- when the insertion matches a condition of a monotone,
  path-free query, at whatever block depth, each block's new rows are
  computed from the delta as d(P join N) = dP join N + P join dN: for
  every condition of the where-clauses from the root down to the block
  that the delta matches, the other conditions are evaluated with that
  condition's variables pre-bound from the delta.  The rows are
  projected to the block's variables and only the block's own clauses
  are constructed for them, block by block in the order a full
  evaluation constructs them.  Skolem memoization and the graph's set
  semantics make re-construction idempotent: only genuinely new nodes
  and edges appear (the tests check they come in the order a recompute
  adds them).
* **Recompute** -- if the query contains a regular-path condition (a
  new edge anywhere can extend a path), the affected query -- and only
  it -- is re-evaluated.
* **Full rebuild** -- non-monotone cases: the query contains negation
  (an insertion can *invalidate* old rows, and a materialized site graph
  cannot un-construct), or the update is a deletion.  The maintainer
  rebuilds the site graph from scratch and says so.

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

    def merge(self, other: "MaintenanceReport") -> None:
        self.queries_skipped += other.queries_skipped
        self.queries_seeded += other.queries_seeded
        self.queries_recomputed += other.queries_recomputed
        self.full_rebuilds += other.full_rebuilds
        self.nodes_added += other.nodes_added
        self.edges_added += other.edges_added


class SiteMaintainer:
    """Keeps a materialized site graph consistent with a mutating data graph.

    Insertions made through the update methods are maintained from the
    method's own list of what it inserted.  Any other data change --
    a direct mutation of ``data_graph``, or an edit whose pass raised --
    is noticed by the next update from the data graph's epoch and
    folded in from its delta log (or triggers a rebuild when the log
    no longer reaches back, or the change removed something).
    """

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        site_graph: Optional[Graph] = None,
    ) -> None:
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
        if site_graph is None:
            site_graph = self._evaluate_all()
        self.site_graph = site_graph
        #: the data-graph epoch the site graph was last brought up to
        self._synced = data_graph.epoch
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
        before = self.data_graph.epoch
        node = self.data_graph.add_node(oid, hint=collection.lower())
        edges: List[Tuple[Oid, str, Target]] = []
        for label, value in attributes:
            stored = self.data_graph.add_edge(node, label, value)
            edges.append((node, label, stored))
        self.data_graph.add_to_collection(collection, node)
        self.last_report = self._maintain(before, edges, [(collection, node)])
        return node

    def add_edge(self, source: Oid, label: str, target: object) -> Target:
        """Insert one edge into the data graph and maintain the site."""
        before = self.data_graph.epoch
        stored = self.data_graph.add_edge(source, label, target)
        self.last_report = self._maintain(before, [(source, label, stored)], [])
        return stored

    def add_to_collection(self, collection: str, oid: Oid) -> None:
        """Add an existing object to a collection and maintain the site."""
        before = self.data_graph.epoch
        self.data_graph.add_to_collection(collection, oid)
        self.last_report = self._maintain(before, [], [(collection, oid)])

    def remove_edge(self, source: Oid, label: str, target: Target) -> None:
        """Deletions are non-monotone: full rebuild."""
        self.data_graph.remove_edge(source, label, target)
        self.rebuild()

    def remove_object(self, oid: Oid) -> None:
        """Object deletion: full rebuild."""
        self.data_graph.remove_node(oid)
        self.rebuild()

    def rebuild(self) -> MaintenanceReport:
        """Re-derive the site graph from the current data graph."""
        self.site_graph = self._evaluate_all()
        self._synced = self.data_graph.epoch
        self.last_report = MaintenanceReport(full_rebuilds=1)
        return self.last_report

    # ------------------------------------------------------------ #
    # the maintenance pass

    def _maintain(
        self,
        before: int,
        new_edges: List[Tuple[Oid, str, Target]],
        new_members: List[Tuple[str, Oid]],
    ) -> MaintenanceReport:
        """One pass over the insertions an entry point just made;
        ``before`` is the data-graph epoch from just before them."""
        if before != self._synced:
            # data changes no pass has seen (a direct mutation of the
            # data graph, or an edit whose pass raised): fold them in
            delta = self.data_graph.delta_since(self._synced)
            if delta is None or delta.has_removals:
                return self.rebuild()
            new_edges, new_members = delta.edges_added, delta.members_added
        report = MaintenanceReport()
        sizes = (self.site_graph.node_count, self.site_graph.edge_count)
        self._mirror_imported_subgraphs(new_edges)
        for query in self.program.queries:
            disposition = self._classify(query, new_edges, new_members)
            if disposition == "skip":
                report.queries_skipped += 1
            elif disposition == "rebuild":
                self.site_graph = self._evaluate_all()
                report.full_rebuilds += 1
                break
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

    def _classify(
        self,
        query: Query,
        new_edges: List[Tuple[Oid, str, Target]],
        new_members: List[Tuple[str, Oid]],
    ) -> str:
        matches = False
        has_path = False
        has_negation = False
        for block in query.walk():
            for condition in block.where:
                if isinstance(condition, NotCond):
                    has_negation = True
                if isinstance(condition, PathCond):
                    has_path = True
                if self._condition_matches(condition, new_edges, new_members):
                    matches = True
        if not matches:
            # an insertion can also matter to path conditions regardless
            # of labels (a new edge may extend any path)
            if has_path and new_edges:
                return "recompute"
            return "skip"
        if has_negation:
            return "rebuild"
        if has_path:
            return "recompute"
        return "seed"

    @staticmethod
    def _condition_matches(
        condition: Condition,
        new_edges: List[Tuple[Oid, str, Target]],
        new_members: List[Tuple[str, Oid]],
    ) -> bool:
        if isinstance(condition, EdgeCond):
            if isinstance(condition.label, Var):
                return bool(new_edges)
            return any(label == condition.label for _, label, _ in new_edges)
        if isinstance(condition, CollectionCond):
            return any(name == condition.collection for name, _ in new_members)
        if isinstance(condition, NotCond):
            return any(
                SiteMaintainer._condition_matches(inner, new_edges, new_members)
                for inner in condition.inner
            )
        if isinstance(condition, PathCond):
            return bool(new_edges)
        return False  # predicates / comparisons never match a delta alone

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
