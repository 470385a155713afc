"""Dynamic ("click time") computation of site graphs.

"Site schemas specify, for each node in the site graph, the queries that
must be evaluated to compute the node's contents, i.e. its outgoing
edges" (paper section 2.5).  This module implements that decomposition:

* a site-graph node is a Skolem-term *instance* ``F(values...)``
  (:class:`NodeInstance`);
* its outgoing edges are obtained by taking every site-schema edge whose
  source function is ``F``, binding the edge's formal source arguments to
  the instance's values, and evaluating the edge's governing conjunction
  (the where-clauses of the block path) over the data graph -- the
  *incremental query* of that node;
* the rows go to the static constructor (``_Constructor.construct``) for
  the edge's link clause, which writes into one lazily materialized
  :class:`LazySiteGraph`.  Its :class:`~repro.graph.oid.SkolemRegistry`
  gives every click-time node the oid a static build gives it;
* :class:`BrowseSession` simulates a user clicking through the site,
  evaluating incremental queries on demand, with two optimizations the
  paper sketches: **caching** of incremental-query results ("our
  optimization techniques cache query results to reduce click time") and
  one-step **lookahead** ("precompute lookahead results for queries of
  reachable nodes").

Equivalence with static evaluation -- the expansion of every instance
matches the out-edges of the corresponding node in the fully materialized
site graph -- is asserted by the test suite and is what makes E6 a fair
comparison.

Cached results stay warm across data-graph edits: every cached row set
and instance list records its read :class:`~repro.struql.footprint.Footprint`
in one :class:`~repro.struql.footprint.DependencyIndex`, and
:meth:`DynamicSite.refresh` drops only the entries the index reports
affected by the delta -- or everything, when it answers ``COARSE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import SiteDefinitionError
from ..graph import Atom, Graph, Oid
from ..graph.delta import DeltaLog, GraphDelta
from ..graph.oid import skolem_term_name
from ..struql.ast import Program, Query
from ..struql.eval import Binding, Metrics, Value, _Constructor, make_engine
from ..struql.footprint import COARSE, DependencyIndex, Footprint, changed_nodes
from ..struql.parser import parse
from .schema import SchemaEdge, SiteSchema

#: Instance argument values are binding values: oids, atoms, labels.
InstanceArgs = Tuple[Value, ...]


@dataclass(frozen=True)
class NodeInstance:
    """A dynamic site-graph node: the ``(function, args)`` term of a
    :class:`~repro.graph.oid.SkolemRegistry`, as a value."""

    function: str
    args: InstanceArgs

    def __str__(self) -> str:
        return skolem_term_name(self.function, self.args)

    def oid(self) -> Oid:
        """The oid this instance has in a statically materialized site
        graph -- Skolem identity is deterministic, so the rendered term
        names agree by construction."""
        return Oid(str(self))


#: An expanded edge: label plus a NodeInstance / data node / atom target.
EdgeTarget = Union[NodeInstance, Oid, Atom]
ExpandedEdge = Tuple[str, EdgeTarget]


@dataclass
class ClickMetrics:
    """Counters for experiment E6 and the incremental-maintenance path."""

    expansions: int = 0
    queries_evaluated: int = 0
    cache_hits: int = 0
    lookahead_prefetches: int = 0
    #: lookahead prefetches skipped because the target was fully cached
    lookahead_skipped: int = 0
    #: cache entries dropped by footprint-vs-delta intersection
    fine_invalidations: int = 0
    #: cache entries that survived a delta refresh (footprint untouched)
    entries_retained: int = 0
    #: whole-cache flushes (explicit invalidate, or delta log truncated)
    coarse_invalidations: int = 0
    #: requests answered with a stale last-known-good page after a failure
    degraded_serves: int = 0
    #: requests answered with a structured error page (no stale copy)
    error_pages: int = 0
    #: renders cancelled because the request deadline expired (504s)
    deadline_exceeded: int = 0

    def merge(self, other: "ClickMetrics") -> None:
        """Fold another worker's counters into this one.

        The concurrency contract: counter instances are owned by one
        thread (one engine, one serve worker) and merged only when a
        stats reader aggregates them -- increments are never shared.
        """
        for spec in fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )


@dataclass
class RefreshResult:
    """What :meth:`DynamicSite.refresh` did with one delta."""

    #: the delta applied, or None when the log was truncated (coarse)
    delta: Optional[GraphDelta]
    #: True when everything was flushed instead of intersected
    coarse: bool
    #: owners of dropped expansion entries (for page-level invalidation)
    dropped_instances: List[NodeInstance] = field(default_factory=list)
    #: functions whose instance lists were dropped
    dropped_functions: List[str] = field(default_factory=list)
    #: cache entries that survived
    retained: int = 0
    #: cache entries dropped
    dropped: int = 0
    #: site-graph nodes de-materialized: the delta's changed data nodes
    #: and the owners of dropped entries
    changed: Set[Oid] = field(default_factory=set)


class DynamicSite:
    """Click-time evaluation of one site definition over one data graph."""

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        cache: bool = True,
    ) -> None:
        if isinstance(program, str):
            program = parse(program)
        if isinstance(program, Query):
            program = Program(queries=[program])
        self.program = program
        self.schema = SiteSchema.from_program(program)
        self.data_graph = data_graph
        self.cache_enabled = cache
        self.metrics = ClickMetrics()
        # one warm engine for every click: plans, the statistics
        # snapshot and the path-reachability memo carry across requests
        self._engine = make_engine(data_graph)
        #: the site graph clicks construct into, one node at a time
        self.graph = LazySiteGraph(self)
        #: key -> (seeded rows of one schema edge, owning instance)
        self._edge_cache: Dict[
            Tuple[int, InstanceArgs], Tuple[List[Binding], NodeInstance]
        ] = {}
        #: function -> instances
        self._instance_cache: Dict[str, List[NodeInstance]] = {}
        #: what each entry of both caches read, under the entry's key
        self._index = DependencyIndex()
        #: data-graph epoch the caches are consistent with
        self._synced_epoch = data_graph.epoch

    def invalidate(self) -> None:
        """Coarse invalidation: drop every cached click result.

        The engine itself needs nothing: its statistics and plans are
        keyed by the graph's mutation epoch and refresh on the next
        query.  The cached rows and instance lists go, and the site graph
        starts over empty.  Prefer :meth:`refresh`, which drops only the
        entries the mutation can have affected.
        """
        if self._edge_cache or self._instance_cache:
            self.metrics.coarse_invalidations += 1
        self._edge_cache.clear()
        self._instance_cache.clear()
        self._index = DependencyIndex()
        self._synced_epoch = self.data_graph.epoch
        self.graph = LazySiteGraph(self)

    def refresh(self) -> RefreshResult:
        """Selective invalidation after data-graph mutations.

        The dependency index maps the delta since the caches were last
        consistent to the entries whose read footprint it touches, and
        only those are dropped; the site-graph nodes the delta changed
        and the owners of dropped entries are de-materialized -- the
        warm cost of an edit scales with |delta|, not |site|.  Falls
        back to :meth:`invalidate` when the index answers ``COARSE``
        (the bounded delta log no longer reaches back; always sound) or
        when caching is off (no entry recorded what it read).
        """
        current = self.data_graph.epoch
        if current == self._synced_epoch:
            return RefreshResult(delta=None, coarse=False)
        stale = (
            self._index.affected(self.data_graph, self._synced_epoch)
            if self.cache_enabled
            else COARSE
        )
        if stale is COARSE:
            self.invalidate()
            return RefreshResult(delta=None, coarse=True)
        result = RefreshResult(delta=stale.delta, coarse=False, dropped=len(stale))
        for key in stale:
            self._index.discard(key)
            if isinstance(key, str):
                del self._instance_cache[key]
                result.dropped_functions.append(key)
            else:
                result.dropped_instances.append(self._edge_cache.pop(key)[1])
        result.changed = changed_nodes(stale.delta)
        result.changed.update(owner.oid() for owner in result.dropped_instances)
        for oid in result.changed:
            self.graph.demote(oid)
        result.retained = len(self._index)
        self.metrics.fine_invalidations += result.dropped
        self.metrics.entries_retained += result.retained
        self._synced_epoch = current
        return result

    def is_fully_cached(self, instance: NodeInstance) -> bool:
        """True when :meth:`expand` would be served entirely from cache."""
        if not self.cache_enabled:
            return False
        for schema_edge in self.schema.edges_from(instance.function):
            if len(schema_edge.source_args) != len(instance.args):
                continue
            if (id(schema_edge), instance.args) not in self._edge_cache:
                return False
        return True

    # ------------------------------------------------------------ #
    # entry points

    def instances_of(self, function: str) -> List[NodeInstance]:
        """All instances of a Skolem function the site query creates.

        Evaluates the creation conjunction(s) of the function and
        constructs each creating term over the rows -- this answers
        "what pages of this type exist?" without materializing the site.
        """
        cached = self._instance_cache.get(function)
        if cached is not None:
            return cached
        creations = self.schema.creations_of(function)
        if not creations:
            raise SiteDefinitionError(
                f"{function!r} is not a Skolem function of this site definition"
            )
        created = Graph()
        constructor = _Constructor(created, Metrics(), self.data_graph)
        footprint = Footprint()
        with self._engine.record_into(footprint):
            for creation in creations:
                self.metrics.queries_evaluated += 1
                rows = self._engine.bindings(list(creation.conditions))
                constructor.construct(Query(create=[creation.term]), rows)
        instances = [
            NodeInstance(function, args)
            for args, _ in created.skolems.instances_of(function)
        ]
        if self.cache_enabled:
            self._instance_cache[function] = instances
            self._index.add(function, footprint)
        return instances

    def roots(self) -> List[NodeInstance]:
        """Instances of every zero-argument Skolem function (site entry
        points like ``RootPage()``)."""
        return [
            instance
            for function in self.schema.root_functions()
            for instance in self.instances_of(function)
        ]

    def expand(self, instance: NodeInstance) -> List[ExpandedEdge]:
        """The outgoing edges of a dynamic node -- one click's work.

        The node is read from :attr:`graph`, constructed afresh from its
        schema edges' rows unless caching is on and it is materialized
        already (then every row set it was built from is still cached:
        :meth:`refresh` de-materializes the owner of each dropped one)."""
        self.metrics.expansions += 1
        graph = self.graph
        oid = graph.skolems.apply(instance.function, instance.args)
        if self.cache_enabled and oid in graph._materialized:
            for schema_edge in self.schema.edges_from(instance.function):
                self.edge_rows(schema_edge, instance)  # counts the cache hits
        else:
            graph.demote(oid)
        edges: List[ExpandedEdge] = []
        for label, target in graph.out_edges(oid):
            term = graph.skolems.term(target) if isinstance(target, Oid) else None
            edges.append((label, target if term is None else NodeInstance(*term)))
        return edges

    def edge_rows(self, schema_edge: SchemaEdge, instance: NodeInstance) -> List[Binding]:
        """The rows of ``schema_edge``'s conditions with its formal source
        arguments seeded from ``instance``; cached per (edge, instance)
        when caching is on.  A formal repeated in the source term must get
        one value twice (``==``, the rule Skolem identity uses), else
        there are no rows."""
        if len(schema_edge.source_args) != len(instance.args):
            return []
        key = (id(schema_edge), instance.args)
        if self.cache_enabled:
            cached = self._edge_cache.get(key)
            if cached is not None:
                self.metrics.cache_hits += 1
                return cached[0]
        seed: Binding = {}
        rows: List[Binding] = []
        footprint = Footprint()
        if all(
            seed.setdefault(name, value) == value
            for name, value in zip(schema_edge.source_args, instance.args)
        ):
            self.metrics.queries_evaluated += 1
            with self._engine.record_into(footprint):
                rows = self._engine.bindings(
                    list(schema_edge.conditions), initial=[seed]
                )
        if self.cache_enabled:
            self._edge_cache[key] = (rows, instance)
            self._index.add(key, footprint)
        return rows

    def _construct(self, graph: Graph, instance: NodeInstance) -> None:
        """Write ``instance``'s out-edges into ``graph``: each schema
        edge's rows through the static constructor's link clause."""
        constructor = _Constructor(graph, Metrics(), self.data_graph)
        for schema_edge in self.schema.edges_from(instance.function):
            rows = self.edge_rows(schema_edge, instance)
            constructor.construct(Query(link=[schema_edge.link]), rows)


class LazySiteGraph(Graph):
    """A site graph whose nodes materialize on first touch.

    Backed by a :class:`DynamicSite`: touching a node this graph's
    :class:`~repro.graph.oid.SkolemRegistry` created constructs its
    out-edges from its incremental queries; touching a *data-graph* node
    (a link target) copies its out-edges from the data graph, one level
    at a time.  Every read accessor the renderer and template selector
    use is overridden to ensure the node first.  :meth:`has_node` only
    adds a linked data node, without its out-edges, so the constructor
    finds a link target present (and never imports its reachable
    closure) while the copy waits for the first read of the node.

    The graph keeps no mutation history: nothing reads this graph's
    deltas (refreshes read the data graph's), so its delta log has an
    empty window and :meth:`delta_since` answers ``None`` -- the coarse
    answer, always sound -- for every epoch before the current one.
    """

    def __init__(self, dynamic: DynamicSite) -> None:
        super().__init__("lazy-site")
        self._delta_log = DeltaLog(maxlen=0)
        self.dynamic = dynamic
        self._materialized: Dict[Oid, None] = {}
        self.expansions = 0

    # ------------------------------------------------------------ #
    # lazy materialization

    def _ensure(self, oid: Oid) -> None:
        if oid in self._materialized:
            return
        self._materialized[oid] = None
        term = self.skolems.term(oid)
        if term is not None:
            self.expansions += 1
            self.add_node(oid)
            try:
                self.dynamic._construct(self, NodeInstance(*term))
            except BaseException:
                self.demote(oid)  # a failed click must not leave half a node
                raise
            return
        data = self.dynamic.data_graph
        if data.has_node(oid):
            self.add_node(oid)
            for label, target in data.out_edges(oid):
                if isinstance(target, Oid):
                    self.add_node(target)
                self.add_edge(oid, label, target)

    def demote(self, oid: Oid) -> None:
        """De-materialize one node: drop its copied out-edges so the next
        touch re-runs its incremental queries (or re-copies it from the
        data graph).  Incoming edges from other materialized nodes are
        kept -- the node itself still exists, only its expansion is
        stale."""
        if oid not in self._materialized:
            return
        del self._materialized[oid]
        if Graph.has_node(self, oid):
            for label, target in list(Graph.out_edges(self, oid)):
                self.remove_edge(oid, label, target)

    # ------------------------------------------------------------ #
    # read accessors used by the renderer / template selection

    def has_node(self, oid: Oid) -> bool:
        if oid not in self._materialized:
            if self.skolems.term(oid) is not None:
                self._ensure(oid)
            elif self.dynamic.data_graph.has_node(oid):
                # a link target: its out-edges wait for the first read
                self.add_node(oid)
        return super().has_node(oid)

    def targets(self, oid: Oid, label: str):
        self._ensure(oid)
        return super().targets(oid, label)

    def attribute(self, oid: Oid, label: str):
        self._ensure(oid)
        return super().attribute(oid, label)

    def out_edges(self, oid: Oid):
        self._ensure(oid)
        return super().out_edges(oid)

    def labels_of(self, oid: Oid):
        self._ensure(oid)
        return super().labels_of(oid)

    def collections_of(self, oid: Oid) -> List[str]:
        """Collection membership is derived from the site schema's collect
        clauses (for Skolem nodes) or the data graph (for data nodes)."""
        term = self.skolems.term(oid)
        if term is not None:
            return [
                name
                for name, functions in self.dynamic.schema.collections.items()
                if term[0] in functions
            ]
        data = self.dynamic.data_graph
        if data.has_node(oid):
            return data.collections_of(oid)
        return []

    def in_collection(self, name: str, oid: Oid) -> bool:
        return name in self.collections_of(oid)


class BrowseSession:
    """Simulates a user browsing a dynamic site.

    Each :meth:`visit` computes the page's outgoing edges by incremental
    query evaluation.  With ``lookahead`` on, the session prefetches the
    expansions of every NodeInstance target of the just-visited page, so
    the next click is usually a cache hit (the paper's "precompute
    lookahead results for queries of reachable nodes").  Targets whose
    expansions are already fully cached -- e.g. entries that survived a
    delta refresh because the edit did not touch their footprint -- are
    skipped rather than redundantly re-expanded.
    """

    def __init__(self, site: DynamicSite, lookahead: bool = False) -> None:
        self.site = site
        self.lookahead = lookahead
        self.history: List[NodeInstance] = []

    def visit(self, instance: NodeInstance) -> List[ExpandedEdge]:
        edges = self.site.expand(instance)
        self.history.append(instance)
        if self.lookahead:
            for _, target in edges:
                if isinstance(target, NodeInstance):
                    if self.site.is_fully_cached(target):
                        self.site.metrics.lookahead_skipped += 1
                        continue
                    self.site.metrics.lookahead_prefetches += 1
                    self.site.expand(target)
        return edges

    def walk(self, start: NodeInstance, chooser, clicks: int) -> List[NodeInstance]:
        """Follow ``clicks`` links from ``start``; ``chooser(edges)``
        picks the next NodeInstance (or None to stop).  Returns the
        trajectory."""
        current = start
        trajectory = [current]
        for _ in range(clicks):
            edges = self.visit(current)
            candidates = [t for _, t in edges if isinstance(t, NodeInstance)]
            next_instance = chooser(candidates) if candidates else None
            if next_instance is None:
                break
            current = next_instance
            trajectory.append(current)
        return trajectory
