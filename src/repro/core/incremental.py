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

Cached results stay warm across data-graph edits: every cached expansion
and instance list records its read :class:`~repro.struql.footprint.Footprint`
in one :class:`~repro.struql.footprint.DependencyIndex`, and
:meth:`DynamicSite.refresh` drops only the entries the index reports
affected by the delta -- or everything, when it answers ``COARSE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SiteDefinitionError
from ..graph import Atom, AtomType, Graph, Oid
from ..graph.delta import GraphDelta
from ..struql.ast import Const, Program, Query, SkolemTerm, Var
from ..struql.eval import Binding, QueryEngine, Value, make_engine
from ..struql.footprint import COARSE, DependencyIndex, Footprint
from ..struql.parser import parse
from .schema import NS, SchemaCreation, SchemaEdge, SiteSchema

#: Instance argument values are binding values: oids, atoms, labels.
InstanceArgs = Tuple[Value, ...]


@dataclass(frozen=True)
class NodeInstance:
    """A dynamic site-graph node: Skolem function + argument values."""

    function: str
    args: InstanceArgs

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.function}({rendered})"

    def oid(self) -> Oid:
        """The oid this instance has in a statically materialized site
        graph -- Skolem identity is deterministic, so the rendered term
        names agree by construction."""
        from ..graph.oid import skolem_term_name

        return Oid(skolem_term_name(self.function, self.args))


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


class DynamicSite:
    """Click-time evaluation of one site definition over one data graph."""

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        cache: bool = True,
        lookahead: bool = False,
    ) -> None:
        if isinstance(program, str):
            program = parse(program)
        if isinstance(program, Query):
            program = Program(queries=[program])
        self.program = program
        self.schema = SiteSchema.from_program(program)
        self.data_graph = data_graph
        self.cache_enabled = cache
        self.lookahead = lookahead
        self.metrics = ClickMetrics()
        # one warm engine for every click: plans, the statistics
        # snapshot and the path-reachability memo carry across requests
        self._engine = make_engine(data_graph)
        #: key -> (expanded edges, owning instance)
        self._edge_cache: Dict[
            Tuple[int, InstanceArgs], Tuple[List[ExpandedEdge], NodeInstance]
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
        query.  Only the materialized expansion caches must go.  Prefer
        :meth:`refresh`, which drops only the entries the mutation can
        have affected.
        """
        if self._edge_cache or self._instance_cache:
            self.metrics.coarse_invalidations += 1
        self._edge_cache.clear()
        self._instance_cache.clear()
        self._index = DependencyIndex()
        self._synced_epoch = self.data_graph.epoch

    def refresh(self) -> RefreshResult:
        """Selective invalidation after data-graph mutations.

        The dependency index maps the delta since the caches were last
        consistent to the entries whose read footprint it touches, and
        only those are dropped -- the warm cost of an edit scales with
        |delta|, not |site|.  Falls back to :meth:`invalidate` when the
        index answers ``COARSE`` (the bounded delta log no longer
        reaches back; always sound).
        """
        current = self.data_graph.epoch
        if current == self._synced_epoch:
            return RefreshResult(delta=None, coarse=False)
        stale = self._index.affected(self.data_graph, self._synced_epoch)
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
        projects onto the formal arguments -- this answers "what pages of
        this type exist?" without materializing the site.
        """
        cached = self._instance_cache.get(function)
        if cached is not None:
            return cached
        creations = self.schema.creations_of(function)
        if not creations:
            raise SiteDefinitionError(
                f"{function!r} is not a Skolem function of this site definition"
            )
        found: Dict[NodeInstance, None] = {}
        footprint = Footprint()
        with self._engine.record_into(footprint):
            for creation in creations:
                self.metrics.queries_evaluated += 1
                for row in self._engine.bindings(list(creation.conditions)):
                    args = _project_args(creation.args, row)
                    if args is not None:
                        found.setdefault(NodeInstance(function, args), None)
        instances = list(found)
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
        """The outgoing edges of a dynamic node -- one click's work."""
        self.metrics.expansions += 1
        edges: List[ExpandedEdge] = []
        seen: Dict[Tuple[str, EdgeTarget], None] = {}
        for schema_edge in self.schema.edges_from(instance.function):
            for edge in self._expand_edge(schema_edge, instance):
                if edge not in seen:
                    seen[edge] = None
                    edges.append(edge)
        return edges

    # ------------------------------------------------------------ #

    def _expand_edge(
        self, schema_edge: SchemaEdge, instance: NodeInstance
    ) -> List[ExpandedEdge]:
        if len(schema_edge.source_args) != len(instance.args):
            return []
        key = (id(schema_edge), instance.args)
        if self.cache_enabled:
            cached = self._edge_cache.get(key)
            if cached is not None:
                self.metrics.cache_hits += 1
                return cached[0]
        seed: Binding = {}
        consistent = True
        for name, value in zip(schema_edge.source_args, instance.args):
            if name in seed and not _values_same(seed[name], value):
                consistent = False
                break
            seed[name] = value
        edges: List[ExpandedEdge] = []
        footprint = Footprint()
        if consistent:
            self.metrics.queries_evaluated += 1
            with self._engine.record_into(footprint):
                for row in self._engine.bindings(
                    list(schema_edge.conditions), initial=[seed]
                ):
                    rendered = self._edge_from_row(schema_edge, row)
                    if rendered is not None:
                        edges.append(rendered)
        edges = _dedupe_edges(edges)
        if self.cache_enabled:
            self._edge_cache[key] = (edges, instance)
            self._index.add(key, footprint)
        return edges

    def _edge_from_row(
        self, schema_edge: SchemaEdge, row: Binding
    ) -> Optional[ExpandedEdge]:
        if schema_edge.label_is_variable:
            label_value = row.get(schema_edge.label)
            if isinstance(label_value, Atom):
                label = label_value.as_string()
            elif isinstance(label_value, str):
                label = label_value
            else:
                return None
        else:
            label = schema_edge.label
        link = schema_edge.link
        assert link is not None
        if isinstance(link.target, SkolemTerm):
            args = _term_args(link.target, row)
            if args is None:
                return None
            return (label, NodeInstance(link.target.function, args))
        if isinstance(link.target, Const):
            return (label, link.target.atom)
        value = row.get(link.target.name)
        if value is None:
            return None
        if isinstance(value, str):
            value = Atom(AtomType.STRING, value)
        return (label, value)


def _project_args(formals: Tuple[str, ...], row: Binding) -> Optional[InstanceArgs]:
    values: List[Value] = []
    for formal in formals:
        value = row.get(formal)
        if value is None:
            return None
        if isinstance(value, str):
            value = Atom(AtomType.STRING, value)
        values.append(value)
    return tuple(values)


def _term_args(term: SkolemTerm, row: Binding) -> Optional[InstanceArgs]:
    values: List[Value] = []
    for arg in term.args:
        if isinstance(arg, Const):
            values.append(arg.atom)
            continue
        value = row.get(arg.name)
        if value is None:
            return None
        if isinstance(value, str):
            value = Atom(AtomType.STRING, value)
        values.append(value)
    return tuple(values)


def _values_same(left: Value, right: Value) -> bool:
    if isinstance(left, Oid) or isinstance(right, Oid):
        return left == right
    left_atom = left if isinstance(left, Atom) else Atom(AtomType.STRING, str(left))
    right_atom = right if isinstance(right, Atom) else Atom(AtomType.STRING, str(right))
    return left_atom == right_atom


def _dedupe_edges(edges: List[ExpandedEdge]) -> List[ExpandedEdge]:
    seen: Dict[ExpandedEdge, None] = {}
    for edge in edges:
        seen.setdefault(edge, None)
    return list(seen)


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

    def __init__(self, site: DynamicSite) -> None:
        self.site = site
        self.history: List[NodeInstance] = []

    def visit(self, instance: NodeInstance) -> List[ExpandedEdge]:
        edges = self.site.expand(instance)
        self.history.append(instance)
        if self.site.lookahead:
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
