"""Per-record quarantine: load what parses, report what does not.

The paper's sites re-ingest messy external feeds continuously (BibTeX
files, personnel databases, scraped HTML); one malformed entry must not
abort a whole load.  A :class:`WrapPolicy` in ``tolerant`` mode makes
every wrapper catch per-record failures into a structured
:class:`QuarantineReport` -- source name, record locator, the exception,
and a raw snippet -- instead of raising, up to a configurable error
budget (``max_errors``); exceeding the budget aborts the load with
:class:`~repro.errors.QuarantineExceeded`, because a source that is
*mostly* garbage is more likely misconfigured than merely dirty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import QuarantineExceeded


@dataclass
class QuarantinedRecord:
    """One record a wrapper could not translate."""

    #: name of the source the record came from
    source: str
    #: where in the source: "entry p3 (line 12)", "row 7", "page a.html"
    locator: str
    #: the failure, stringified (exception class + message)
    error: str
    #: raw text of the offending record, truncated for the report
    snippet: str = ""

    def as_dict(self) -> Dict[str, str]:
        return {
            "source": self.source,
            "locator": self.locator,
            "error": self.error,
            "snippet": self.snippet,
        }


@dataclass
class QuarantineReport:
    """What one wrap admitted and quarantined (a strict wrap that
    returns has quarantined nothing)."""

    source: str = ""
    records: List[QuarantinedRecord] = field(default_factory=list)
    #: well-formed records actually translated into the graph
    admitted: int = 0

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> bool:
        return not self.records

    def add(
        self, locator: str, error: object, snippet: str = "", source: str = ""
    ) -> QuarantinedRecord:
        if isinstance(error, BaseException):
            rendered = f"{type(error).__name__}: {error}"
        else:
            rendered = str(error)
        record = QuarantinedRecord(
            source=source or self.source,
            locator=locator,
            error=rendered,
            snippet=snippet,
        )
        self.records.append(record)
        return record

    def merge(self, other: "QuarantineReport") -> None:
        self.records.extend(other.records)
        self.admitted += other.admitted

    def as_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "admitted": self.admitted,
            "quarantined": self.count,
            "records": [record.as_dict() for record in self.records],
        }


@dataclass(frozen=True)
class WrapPolicy:
    """How a wrapper should react to malformed records.

    The default (``quarantine=False``) is strict: the first bad record
    raises.  :meth:`tolerant` returns a policy under which a wrapper's
    ``_fault`` quarantines each bad record into its ``last_quarantine``
    report instead, subject to an error budget.
    """

    #: catch per-record failures instead of raising
    quarantine: bool = False
    #: error budget: more quarantined records than this aborts the load
    #: (``None`` = unlimited)
    max_errors: Optional[int] = None
    #: how much raw text a quarantined record keeps for the report
    snippet_length: int = 120
    #: optional :class:`~repro.constraints.ConstraintPolicy`: declared
    #: data constraints enforced on the wrapped graph, violators
    #: quarantined (tolerant) or raising (strict)
    constraints: Optional[object] = None

    @classmethod
    def strict(cls, constraints: Optional[object] = None) -> "WrapPolicy":
        return cls(constraints=constraints)

    @classmethod
    def tolerant(
        cls,
        max_errors: Optional[int] = None,
        constraints: Optional[object] = None,
    ) -> "WrapPolicy":
        return cls(quarantine=True, max_errors=max_errors, constraints=constraints)

    def clip(self, snippet: str) -> str:
        return snippet[: self.snippet_length]

    def enforce_budget(self, report: QuarantineReport, source: str = "") -> None:
        """Abort the load once ``report`` holds more quarantined records
        than ``max_errors`` allows; the one budget rule of wrappers and
        the constraint gate alike."""
        if self.max_errors is not None and report.count > self.max_errors:
            raise QuarantineExceeded(
                source or report.source, report.count, self.max_errors, report
            )
