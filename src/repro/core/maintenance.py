"""Incremental maintenance of materialized site graphs.

Section 7 of the paper: "we need to solve the problem of incremental
view updates for semistructured data, which is an open problem" --
warehoused sites were rebuilt from scratch on every data change.  This
module implements a practical insert-maintenance algorithm on top of the
machinery we already have, with honest fallbacks.

Every pass asks one :class:`~repro.struql.footprint.DependencyIndex`,
holding what each where-clause condition reads, which conditions the
data graph's changes since the last pass can have changed -- the same
index, and the same truncated-log rule, as every other "data changed,
what is stale?" answer in the repository.  A query is affected when one
of its conditions is:

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
  where-clauses from the root down to the block that the index found
  stale, the engine evaluates the condition alone over a graph holding
  only the delta's new edges and members -- its delta rows -- and the
  other conditions over the data graph from those rows.  The rows are
  projected to the block's variables and only the block's own clauses
  are constructed for them, block by block in the order a full
  evaluation constructs them.  Skolem memoization and the graph's set
  semantics make re-construction idempotent: only genuinely new nodes
  and edges appear.  The tests check that they come in the order a
  recompute adds them when the delta has one source node; a delta that
  spans several sources, in other than the plan's order, can add the
  same edges in another order.
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
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..graph import Graph, Oid, Target
from ..graph.delta import GraphDelta
from ..struql.ast import (
    CollectionCond,
    Condition,
    EdgeCond,
    NotCond,
    PathCond,
    Program,
    Query,
)
from ..struql.eval import (
    Binding,
    Metrics,
    QueryEngine,
    _Constructor,
    _project,
    evaluate,
    make_engine,
)
from ..struql.footprint import COARSE, DependencyIndex, Footprint, Stale
from ..struql.parser import parse
from ..struql.plancache import PlanCache


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
    holding one entry per (query, condition), what changed since the
    site graph was last brought up to date.  Changes made through the
    update methods and any other data change -- a direct mutation of
    ``data_graph``, or an edit whose pass raised -- are therefore
    maintained alike: from the data graph's delta log, or by a rebuild
    when the index answers ``COARSE`` (the log no longer reaches back)
    or the delta removed something.
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
        #: (query position, condition position in ``_conditions``) ->
        #: what that condition reads
        self._reads = DependencyIndex()
        for key, query in enumerate(program.queries):
            for position, condition in enumerate(_conditions(query)):
                self._reads.add((key, position), _reads_of(condition))
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
        report = MaintenanceReport()
        sizes = (self.site_graph.node_count, self.site_graph.edge_count)
        # a data node a link or collect clause imported brought its
        # reachable subgraph along: mirror the edges it gained, and
        # import a new target's subgraph
        importer = _Constructor(self.site_graph, Metrics(), self.data_graph)
        for source, label, target in stale.delta.edges_added:
            if self.site_graph.has_node(source):
                if isinstance(target, Oid) and not self.site_graph.has_node(target):
                    importer._import_subgraph(target)
                self.site_graph.add_edge(source, label, target)
        stale_queries = {key for key, _ in stale}
        delta_engine: Optional[QueryEngine] = None
        for key, query in enumerate(self.program.queries):
            disposition = self._classify(query) if key in stale_queries else "skip"
            if disposition == "skip":
                report.queries_skipped += 1
            elif disposition == "rebuild":
                return self.rebuild()
            elif disposition == "recompute":
                evaluate(
                    query, self.data_graph, into=self.site_graph, engine=self._engine
                )
                report.queries_recomputed += 1
            else:
                if delta_engine is None:
                    delta_engine = _delta_engine(stale.delta)
                self._seed_query(key, query, stale, delta_engine)
                report.queries_seeded += 1
        report.nodes_added = self.site_graph.node_count - sizes[0]
        report.edges_added = self.site_graph.edge_count - sizes[1]
        self._synced = self.data_graph.epoch
        return report

    @staticmethod
    def _classify(query: Query) -> str:
        """How to maintain a query the delta can have changed."""
        conditions = _conditions(query)
        if any(isinstance(c, NotCond) for c in conditions):
            return "rebuild"
        if any(isinstance(c, PathCond) for c in conditions):
            return "recompute"
        return "seed"

    def _evaluate_all(self) -> Graph:
        return evaluate(self.program, self.data_graph, engine=self._engine)

    def _seed_query(
        self, key: int, query: Query, stale: Stale, delta_engine: QueryEngine
    ) -> None:
        """Delta-seeded evaluation of every block of ``query``, depth
        first like :meth:`_Constructor.run`.  A block's new rows are the
        union, over each stale condition of its where-clauses from the
        root down, of the other conditions evaluated from that
        condition's delta rows."""
        engine = self._engine
        constructor = _Constructor(self.site_graph, Metrics(), self.data_graph)
        # condition position -> its delta rows, computed once: each
        # condition recurs in every block nested below its own
        delta_rows: Dict[int, List[Binding]] = {}
        positions = count()

        def seed_block(block: Query, where: List[Tuple[int, Condition]]) -> None:
            where = where + [(next(positions), c) for c in block.where]
            conditions = [condition for _, condition in where]
            rows: List[Binding] = []
            for index, (position, condition) in enumerate(where):
                if (key, position) not in stale:
                    continue
                seeds = delta_rows.get(position)
                if seeds is None:
                    seeds = delta_rows[position] = delta_engine.bindings([condition])
                if seeds:
                    remaining = conditions[:index] + conditions[index + 1:]
                    rows.extend(engine.bindings(remaining, initial=seeds))
            constructor.construct(block, _project(rows, block.variables()))
            for child in block.blocks:
                seed_block(child, where)

        seed_block(query, [])


def _conditions(query: Query) -> List[Condition]:
    """Every block's where-clause conditions, blocks depth first: the
    order a condition's position in the dependency index counts in."""
    return [condition for block in query.walk() for condition in block.where]


def _delta_engine(delta: GraphDelta) -> QueryEngine:
    """An engine over a graph holding only ``delta``'s new edges and
    members, with the data graph's oids: a condition's rows over it are
    its delta rows.  The graph is new on every pass, so its plans go to
    a private cache rather than the process-wide one."""
    view = Graph()
    for source, label, target in delta.edges_added:
        view.add_node(source)
        if isinstance(target, Oid):
            view.add_node(target)
        view.add_edge(source, label, target)
    for name, member in delta.members_added:
        view.add_node(member)
        view.add_to_collection(name, member)
    return QueryEngine(view, plan_cache=PlanCache())


def _reads_of(condition: Condition) -> Footprint:
    """What ``condition`` reads, for the dependency index: a
    constant-label edge reads its label, a collection its members.  An
    arc variable or a regular path can read any edge, so it reads all
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

    note(condition)
    return reads
