"""The mediator: a uniform, integrated view of all underlying data.

"STRUDEL's mediator supports data integration by providing a uniform view
of all underlying data, irrespective of where it is stored" (paper
section 2.1).  Two design decisions follow the paper:

* **Warehousing.**  "In STRUDEL's prototype, we implemented warehousing;
  the result of data integration is stored in STRUDEL's data repository."
  :meth:`Mediator.materialize` wraps every source, stages them side by
  side, runs the mappings, and stores the resulting *data graph*.
  :meth:`Mediator.refresh` recomputes the warehouse after sources change.

* **Global-as-view (GAV).**  "For each relation R in the mediated schema,
  a query over the source relations specifies how to obtain R's tuples."
  A mapping here is a STRUQL program over the *staging graph*, in which
  each source's collections appear prefixed with ``<source>.`` (so two
  sources may both have a ``Publications`` collection).  The mapping's
  ``create``/``link``/``collect`` clauses build the mediated collections.

For sources that need no restructuring, :meth:`import_collection` copies
a source collection (with everything reachable from its members) into the
warehouse verbatim -- cheaper than an identity mapping query and it
preserves oids.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..errors import MediatorError, StrudelError
from ..graph import Graph, Oid, boolean, collection_paused, integer, string
from ..repository import Repository
from ..resilience import (
    ChaosFault,
    CircuitBreaker,
    ResiliencePolicy,
    record_recovery_event,
)
from ..struql import Program, evaluate, parse
from ..wrappers import Wrapper

#: oid of the provenance object stamped into resilient warehouses
PROVENANCE_OID = "mediation:provenance"


@dataclass
class _ImportSpec:
    source: str
    collection: str
    target_collection: str


@dataclass
class MediationReport:
    """What a materialization did: per-source and per-mapping sizes,
    plus -- under a :class:`~repro.resilience.ResiliencePolicy` -- what
    degraded along the way."""

    source_sizes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    warehouse_size: Dict[str, int] = field(default_factory=dict)
    mappings_run: int = 0
    collections_imported: int = 0
    #: source name -> final error string after retries gave up
    failed_sources: Dict[str, str] = field(default_factory=dict)
    #: sources not even tried because their circuit breaker was open
    skipped_sources: List[str] = field(default_factory=list)
    #: source name -> QuarantineReport.as_dict() of per-record failures
    quarantine: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: source name -> failed attempts before success or giving up
    retries: Dict[str, int] = field(default_factory=dict)
    #: data-constraint enforcement accounting (checked/violated/refuted
    #: counters plus the warehouse-level quarantined records)
    constraints: Dict[str, object] = field(default_factory=dict)
    #: the warehouse was built from a subset of the registered sources,
    #: or with quarantined records
    partial: bool = False
    #: a previous warehouse generation was returned instead of a rebuild
    stale: bool = False


class Mediator:
    """Registers sources + GAV mappings; materializes the data graph."""

    def __init__(
        self,
        repository: Optional[Repository] = None,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        #: either repository backend works here: the in-memory/DDL-file
        #: :class:`Repository` or a :class:`~repro.repository.sql.SqlRepository`
        #: (which bulk-loads each warehouse generation in one transaction)
        self.repository = repository
        #: default resilience policy; ``None`` keeps mediation strict
        self.policy = policy
        self._sources: Dict[str, Wrapper] = {}
        self._mappings: List[Program] = []
        self._imports: List[_ImportSpec] = []
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.last_report: Optional[MediationReport] = None

    # ------------------------------------------------------------ #
    # configuration

    def add_source(self, name: str, wrapper: Wrapper) -> None:
        """Register a wrapped source under ``name``.

        In the staging graph its collections appear as ``name.<coll>``.
        """
        if name in self._sources:
            raise MediatorError(f"source {name!r} already registered")
        self._sources[name] = wrapper

    def remove_source(self, name: str) -> None:
        if name not in self._sources:
            raise MediatorError(f"unknown source {name!r}")
        del self._sources[name]
        self._imports = [spec for spec in self._imports if spec.source != name]

    def source_names(self) -> List[str]:
        return list(self._sources)

    def add_mapping(self, query: Union[str, Program]) -> None:
        """Add a GAV mapping: a STRUQL program over the staging graph."""
        if isinstance(query, str):
            query = parse(query)
        self._mappings.append(query)

    def import_collection(
        self, source: str, collection: str, as_name: str = ""
    ) -> None:
        """Copy a source collection into the warehouse verbatim."""
        if source not in self._sources:
            raise MediatorError(f"unknown source {source!r}")
        self._imports.append(
            _ImportSpec(source, collection, as_name or collection)
        )

    def import_source(self, source: str) -> None:
        """Copy *every* collection of a source into the warehouse verbatim.

        The collection list is discovered at materialization time, so
        it tracks whatever the wrapper produces on each run.
        """
        if source not in self._sources:
            raise MediatorError(f"unknown source {source!r}")
        self._imports.append(_ImportSpec(source, "*", ""))

    # ------------------------------------------------------------ #
    # circuit breakers

    def breaker(self, name: str, policy: Optional[ResiliencePolicy] = None) -> CircuitBreaker:
        """The circuit breaker guarding ``name`` (created on first use)."""
        existing = self._breakers.get(name)
        if existing is not None:
            return existing
        policy = policy or self.policy or ResiliencePolicy()
        created = CircuitBreaker(
            name,
            failure_threshold=policy.breaker_threshold,
            reset_timeout=policy.breaker_reset,
            clock=policy.breaker_clock(),
        )
        self._breakers[name] = created
        return created

    def breaker_states(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every source's circuit breaker."""
        return {name: breaker.snapshot() for name, breaker in self._breakers.items()}

    # ------------------------------------------------------------ #
    # materialization

    def staging_graph(self, policy: Optional[ResiliencePolicy] = None) -> Graph:
        """Wrap every source and merge side by side (collections prefixed).

        With a resilience ``policy`` (argument or constructor default),
        each source is wrapped under quarantine, retried with backoff,
        and guarded by its circuit breaker; sources that still fail are
        recorded in ``last_report`` and left out instead of raising.
        """
        policy = policy or self.policy
        staging = Graph("staging")
        report = MediationReport()
        for name, wrapper in self._sources.items():
            if policy is None:
                wrapped = wrapper.wrap()
            else:
                wrapped = self._wrap_source(name, wrapper, policy, report)
                if wrapped is None:
                    continue
            report.source_sizes[name] = wrapped.stats()
            staging.merge(wrapped, collection_prefix=f"{name}.")
        report.partial = bool(
            report.failed_sources
            or report.skipped_sources
            or any(q.get("quarantined") for q in report.quarantine.values())
        )
        self.last_report = report
        return staging

    def _wrap_source(
        self,
        name: str,
        wrapper: Wrapper,
        policy: ResiliencePolicy,
        report: MediationReport,
    ) -> Optional[Graph]:
        breaker = self.breaker(name, policy)
        if not breaker.allow():
            report.skipped_sources.append(name)
            return None
        retries = 0

        def on_retry(attempt: int, error: BaseException, delay: float) -> None:
            nonlocal retries
            retries += 1

        try:
            wrapped = policy.retry.call(
                lambda: wrapper.wrap(policy.wrap),
                retry_on=(ChaosFault, OSError),
                on_retry=on_retry,
            )
        except (StrudelError, ChaosFault, OSError) as error:
            breaker.record_failure()
            report.failed_sources[name] = f"{type(error).__name__}: {error}"
            if retries:
                report.retries[name] = retries
            return None
        breaker.record_success()
        if retries:
            report.retries[name] = retries
        if wrapper.last_quarantine.count:
            report.quarantine[name] = wrapper.last_quarantine.as_dict()
        assert isinstance(wrapped, Graph)
        return wrapped

    @collection_paused()
    def materialize(
        self, name: str = "data", policy: Optional[ResiliencePolicy] = None
    ) -> Graph:
        """Build the warehouse data graph and store it in the repository.

        Strict without a policy: any source failure propagates.  With one,
        the warehouse is built from the surviving sources and stamped with
        a provenance object (oid ``mediation:provenance``) recording
        ``partial`` status and which sources are present or missing.  When
        fewer than ``policy.min_sources`` survive, the repository's
        previous generation of ``name`` is returned instead (``stale``);
        with no fallback available, a :class:`MediatorError` is raised.

        The warehouse is built through ``repository.rebuild(name)``, the
        write contract of both backends: imports, mappings, constraint
        checks and the provenance stamp all write into the in-memory
        graph it yields, which the backend stores as the next generation
        of ``name`` only if the whole build succeeds.  The result is
        ``repository.fetch(name)`` -- for SQLite the stored
        :class:`~repro.repository.sql.SqlGraph`, so site queries push
        down to SQL -- or the built :class:`Graph` when there is no
        repository.
        """
        if not self._sources:
            raise MediatorError("no sources registered")
        policy = policy or self.policy
        staging = self.staging_graph(policy)
        report = self.last_report
        assert report is not None
        if policy is not None:
            unavailable = set(report.failed_sources) | set(report.skipped_sources)
            survivors = len(self._sources) - len(unavailable)
            if survivors < policy.min_sources:
                return self._stale_fallback(name, survivors, report, policy)
        else:
            unavailable = set()
        if self.repository is not None:
            target = self.repository.rebuild(name)
        else:
            target = nullcontext(Graph(name))
        with target as warehouse:
            for spec in self._imports:
                if spec.source in unavailable:
                    continue
                for actual in self._expand_import(staging, spec):
                    self._run_import(staging, warehouse, actual)
                    report.collections_imported += 1
            for mapping in self._mappings:
                evaluate(mapping, staging, into=warehouse)
                report.mappings_run += 1
            if policy is not None and getattr(policy.wrap, "constraints", None) is not None:
                # the per-wrapper gates already ran; this warehouse-level
                # pass catches what no single source can see (cross-source
                # exclusive collisions, constraints on mapped collections)
                self._apply_warehouse_constraints(warehouse, policy, report)
            if policy is not None:
                self._stamp_provenance(warehouse, report)
        report.warehouse_size = warehouse.stats()
        if self.repository is not None:
            return self.repository.fetch(name)
        return warehouse

    def ingest(
        self, name: str = "data", policy: Optional[ResiliencePolicy] = None
    ) -> Graph:
        """Resilient materialization: :meth:`materialize` under a policy.

        The default policy quarantines bad records with no error budget,
        retries flaky sources, and requires one surviving source.
        """
        return self.materialize(name, policy or self.policy or ResiliencePolicy())

    def refresh(self, name: str = "data") -> Graph:
        """Recompute the warehouse (sources are re-wrapped from scratch).

        The paper (section 7) notes that warehousing "is inadequate for
        sites whose data sources are large or change frequently";
        incremental view update for semistructured data was an open
        problem, so refresh is a full recomputation, as in the prototype.
        """
        return self.materialize(name)

    def _stale_fallback(
        self,
        name: str,
        survivors: int,
        report: MediationReport,
        policy: ResiliencePolicy,
    ) -> Graph:
        report.stale = True
        report.partial = True
        total = len(self._sources)
        if self.repository is not None and name in self.repository:
            record_recovery_event(
                "mediator",
                f"served previous warehouse {name!r}: only {survivors} of "
                f"{total} sources available",
            )
            previous = self.repository.fetch(name)
            report.warehouse_size = previous.stats()
            return previous
        raise MediatorError(
            f"only {survivors} of {total} sources available "
            f"(minimum {policy.min_sources}) "
            f"and no previous warehouse to fall back to"
        )

    def _apply_warehouse_constraints(
        self,
        warehouse: Graph,
        policy: ResiliencePolicy,
        report: MediationReport,
    ) -> None:
        from ..constraints.gate import apply_constraint_gate
        from ..resilience.quarantine import QuarantineReport

        gate_report = QuarantineReport(source="warehouse")
        apply_constraint_gate(warehouse, policy.wrap, gate_report, "warehouse")
        counters = policy.wrap.constraints.counters
        report.constraints = {
            "checked": counters.checked,
            "violated": counters.violated,
            "refuted": counters.refuted,
            "quarantined": [record.as_dict() for record in gate_report.records],
        }
        if gate_report.count:
            report.partial = True

    def _stamp_provenance(self, warehouse: Graph, report: MediationReport) -> None:
        oid = warehouse.add_node(Oid(PROVENANCE_OID))
        warehouse.add_edge(oid, "partial", boolean(report.partial))
        missing = set(report.failed_sources) | set(report.skipped_sources)
        for name in self._sources:
            label = "missingSource" if name in missing else "source"
            warehouse.add_edge(oid, label, string(name))
        quarantined = sum(
            int(q.get("quarantined", 0)) for q in report.quarantine.values()
        )
        if quarantined:
            warehouse.add_edge(oid, "quarantined", integer(quarantined))
        constraints = report.constraints
        if constraints:
            violated = int(constraints.get("violated", 0))
            if violated:
                warehouse.add_edge(
                    oid, "constraintViolations", integer(violated)
                )
            for record in constraints.get("quarantined", ()):
                warehouse.add_edge(
                    oid, "constraintQuarantined", string(record["locator"])
                )

    # ------------------------------------------------------------ #

    def _expand_import(self, staging: Graph, spec: _ImportSpec) -> List[_ImportSpec]:
        """Resolve an :meth:`import_source` wildcard against the staging
        graph; plain specs pass through unchanged."""
        if spec.collection != "*":
            return [spec]
        prefix = f"{spec.source}."
        return [
            _ImportSpec(spec.source, name[len(prefix):], name[len(prefix):])
            for name in staging.collection_names()
            if name.startswith(prefix)
        ]

    def _run_import(self, staging: Graph, warehouse: Graph, spec: _ImportSpec) -> None:
        staged_name = f"{spec.source}.{spec.collection}"
        members = staging.collection(staged_name)
        if not staging.has_collection(staged_name):
            raise MediatorError(
                f"source {spec.source!r} has no collection {spec.collection!r}"
            )
        warehouse.create_collection(spec.target_collection)
        copied: Dict[Oid, None] = {}
        for member in members:
            for reached in staging.reachable(member):
                copied.setdefault(reached, None)
        for oid in copied:
            warehouse.add_node(oid)
        for oid in copied:
            for label, target in staging.out_edges(oid):
                if isinstance(target, Oid) and target not in copied:
                    continue
                warehouse.add_edge(oid, label, target)
        for member in members:
            warehouse.add_to_collection(spec.target_collection, member)
