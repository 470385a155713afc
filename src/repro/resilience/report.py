"""The resilience ledger: what degraded, what was quarantined, what
recovered.

A :class:`ResilienceReport` aggregates the evidence the pipeline stages
produce -- wrapper quarantine reports, mediator breaker states and
failed sources, repository recovery events, page-server degradations --
into one JSON-able document.  ``repro ingest`` writes one next to its
output and ``repro stats --resilience`` prints one, so operators can see
*that* the site degraded and *why* without reading logs.

Repository recovery events are also recorded in a process-wide log,
since recoveries happen inside ``fetch`` calls far from any report
object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

_RECOVERY_EVENTS: List[Dict[str, str]] = []


def record_recovery_event(subject: str, detail: str) -> Dict[str, str]:
    """Log one recovery (e.g. a corrupt graph restored from backup)."""
    event = {"subject": subject, "detail": detail}
    _RECOVERY_EVENTS.append(event)
    return event


def recovery_events() -> List[Dict[str, str]]:
    return list(_RECOVERY_EVENTS)


def reset_recovery_events() -> None:
    _RECOVERY_EVENTS.clear()


# Slow-query reports live in the same kind of process-wide log: the
# watchdog and the serving tier record them from worker threads, far
# from whichever ResilienceReport eventually collects them.  Bounded so
# a pathological client cannot grow the ledger without limit.
_SLOW_QUERIES: List[Dict[str, object]] = []
_SLOW_QUERY_CAP = 256


def record_slow_query(
    path: str,
    elapsed: float,
    budget: float,
    *,
    site: str = "",
    operator_stats: object = None,
    kind: str = "deadline",
) -> Dict[str, object]:
    """Log one slow/cancelled query (watchdog flag or deadline expiry)."""
    report: Dict[str, object] = {
        "path": path,
        "elapsed": round(float(elapsed), 4),
        "budget": round(float(budget), 4),
        "site": site,
        "kind": kind,
    }
    if operator_stats:
        report["operator_stats"] = operator_stats
    if len(_SLOW_QUERIES) < _SLOW_QUERY_CAP:
        _SLOW_QUERIES.append(report)
    return report


def slow_queries() -> List[Dict[str, object]]:
    return list(_SLOW_QUERIES)


def reset_slow_queries() -> None:
    _SLOW_QUERIES.clear()


@dataclass
class ResilienceReport:
    """One pipeline run's degradations, quarantines, and recoveries."""

    #: source name -> QuarantineReport.as_dict()
    quarantine: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: source name -> CircuitBreaker.snapshot()
    breakers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: source name -> final error after retries
    failed_sources: Dict[str, str] = field(default_factory=dict)
    #: sources skipped without trying (circuit open)
    skipped_sources: List[str] = field(default_factory=list)
    #: source name -> retry attempts that failed before success/giving up
    retries: Dict[str, int] = field(default_factory=dict)
    #: repository recoveries (corrupt generation restored from backup)
    recovery_events: List[Dict[str, str]] = field(default_factory=list)
    #: slow/cancelled queries (deadline expiries, watchdog flags)
    slow_queries: List[Dict[str, object]] = field(default_factory=list)
    #: page-server degradations (stale page / error page served)
    degradations: List[Dict[str, str]] = field(default_factory=list)
    #: data-constraint enforcement accounting from the mediation
    #: (checked/violated/refuted plus warehouse-level quarantined records)
    constraints: Dict[str, object] = field(default_factory=dict)
    #: True when the warehouse was built from a strict subset of sources
    partial: bool = False
    #: True when a previous warehouse generation was served instead
    stale: bool = False

    # ------------------------------------------------------------ #
    # collectors

    def record_mediation(self, mediator: object) -> "ResilienceReport":
        """Fold a mediator's last materialization into this report."""
        report = getattr(mediator, "last_report", None)
        if report is not None:
            for name, quarantine in report.quarantine.items():
                self.quarantine[name] = dict(quarantine)
            self.failed_sources.update(report.failed_sources)
            self.skipped_sources.extend(report.skipped_sources)
            for name, count in report.retries.items():
                self.retries[name] = self.retries.get(name, 0) + count
            self.partial = self.partial or report.partial
            self.stale = self.stale or report.stale
            constraints = getattr(report, "constraints", None)
            if constraints:
                self.constraints = dict(constraints)
        breaker_states = getattr(mediator, "breaker_states", None)
        if callable(breaker_states):
            self.breakers.update(breaker_states())
        return self

    def record_server(self, server: object) -> "ResilienceReport":
        """Fold a page server's degradation log into this report."""
        self.degradations.extend(getattr(server, "degradations", []))
        return self

    def record_recoveries(self, events: Optional[List[Dict[str, str]]] = None) -> "ResilienceReport":
        """Fold recovery events (default: the process-wide log)."""
        self.recovery_events.extend(
            events if events is not None else recovery_events()
        )
        return self

    def record_slow_queries(
        self, reports: Optional[List[Dict[str, object]]] = None
    ) -> "ResilienceReport":
        """Fold slow-query reports (default: the process-wide ledger)."""
        self.slow_queries.extend(
            reports if reports is not None else slow_queries()
        )
        return self

    # ------------------------------------------------------------ #
    # totals and rendering

    @property
    def quarantined_records(self) -> int:
        return sum(int(q.get("quarantined", 0)) for q in self.quarantine.values())

    @property
    def open_breakers(self) -> List[str]:
        return sorted(
            name
            for name, snapshot in self.breakers.items()
            if snapshot.get("state") != "closed"
        )

    def summary_lines(self) -> List[str]:
        lines = [
            f"partial: {str(self.partial).lower()}",
            f"stale: {str(self.stale).lower()}",
            f"quarantined records: {self.quarantined_records}",
        ]
        for name, quarantine in sorted(self.quarantine.items()):
            lines.append(
                f"  {name}: admitted={quarantine.get('admitted', 0)} "
                f"quarantined={quarantine.get('quarantined', 0)}"
            )
        lines.append(f"failed sources: {len(self.failed_sources)}")
        for name, error in sorted(self.failed_sources.items()):
            lines.append(f"  {name}: {error}")
        if self.skipped_sources:
            lines.append(f"skipped (circuit open): {', '.join(self.skipped_sources)}")
        lines.append(
            "breakers: "
            + (
                ", ".join(
                    f"{name}={snapshot.get('state')}"
                    for name, snapshot in sorted(self.breakers.items())
                )
                or "none"
            )
        )
        lines.append(f"recovery events: {len(self.recovery_events)}")
        for event in self.recovery_events:
            lines.append(f"  {event.get('subject')}: {event.get('detail')}")
        lines.append(f"degraded serves: {len(self.degradations)}")
        lines.append(f"slow queries: {len(self.slow_queries)}")
        for report in self.slow_queries[:10]:
            lines.append(
                f"  {report.get('path')}: {report.get('kind')} "
                f"elapsed={report.get('elapsed')}s budget={report.get('budget')}s"
            )
        if self.constraints:
            lines.append(
                "constraints: "
                f"checked={self.constraints.get('checked', 0)} "
                f"violated={self.constraints.get('violated', 0)} "
                f"refuted={self.constraints.get('refuted', 0)} "
                f"quarantined={len(self.constraints.get('quarantined', []))}"
            )
        return lines

    def as_dict(self) -> Dict[str, object]:
        return {
            "partial": self.partial,
            "stale": self.stale,
            "quarantine": self.quarantine,
            "breakers": self.breakers,
            "failed_sources": self.failed_sources,
            "skipped_sources": list(self.skipped_sources),
            "retries": self.retries,
            "recovery_events": list(self.recovery_events),
            "slow_queries": list(self.slow_queries),
            "degradations": list(self.degradations),
            "constraints": dict(self.constraints),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        # Deferred import: repository.atomic pulls in the repository
        # package, which itself imports this module for recovery events.
        from ..repository.atomic import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n", "report.save")

    @classmethod
    def load(cls, path: str) -> "ResilienceReport":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        report = cls()
        report.partial = bool(raw.get("partial", False))
        report.stale = bool(raw.get("stale", False))
        report.quarantine = dict(raw.get("quarantine", {}))
        report.breakers = dict(raw.get("breakers", {}))
        report.failed_sources = dict(raw.get("failed_sources", {}))
        report.skipped_sources = list(raw.get("skipped_sources", []))
        report.retries = dict(raw.get("retries", {}))
        report.recovery_events = list(raw.get("recovery_events", []))
        report.slow_queries = list(raw.get("slow_queries", []))
        report.degradations = list(raw.get("degradations", []))
        report.constraints = dict(raw.get("constraints", {}))
        return report
