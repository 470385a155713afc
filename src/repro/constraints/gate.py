"""The ingest-time constraint gate.

Violating records are *record faults*, and the pipeline already has
machinery for those: the PR-4 quarantine.  This module turns constraint
violations into quarantined records -- same report shape, same error
budget, same provenance trail -- so ``repro ingest`` handles a record
that parses but lies (a year of 19995, a duplicated DOI) exactly like
one that does not parse at all.

A :class:`ConstraintPolicy` travels on
:class:`~repro.resilience.WrapPolicy` into each wrapper and into the
mediator's warehouse assembly (the latter catches cross-source
``exclusive`` collisions no single wrapper can see).  Under a strict
wrap the first violation raises
:class:`~repro.errors.ConstraintViolation`; under a tolerant wrap each
violating subject is removed from the graph and logged into the
:class:`~repro.resilience.QuarantineReport`, subject to ``max_errors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import ConstraintViolation
from ..graph import Graph, Oid
from .checker import ConstraintChecker
from .model import CheckCounters, ConstraintSet, Violation

if TYPE_CHECKING:
    from ..resilience.quarantine import QuarantineReport, WrapPolicy


@dataclass(frozen=True)
class ConstraintPolicy:
    """Which data constraints an ingest enforces, and the counters
    their checks accumulate."""

    constraint_set: ConstraintSet
    counters: CheckCounters = field(default_factory=CheckCounters, compare=False)

    @property
    def count(self) -> int:
        return len(self.constraint_set)


def apply_constraint_gate(
    graph: Graph,
    wrap_policy: "WrapPolicy",
    report: "QuarantineReport",
    source_name: str = "",
) -> List[Violation]:
    """Enforce ``wrap_policy.constraints`` on a freshly-built graph.

    Strict wrap: the first violation raises :class:`ConstraintViolation`
    with the offending subject as witness.  Tolerant wrap: every
    violating subject is removed from ``graph`` and recorded in
    ``report`` (one quarantined record per subject, messages joined),
    then the usual error budget applies.  Returns the violations found.
    """
    policy: Optional[ConstraintPolicy] = wrap_policy.constraints
    if policy is None:
        return []
    checker = ConstraintChecker(graph, policy.constraint_set, policy.counters)
    violations = checker.check_all()
    if not violations:
        return violations
    if not wrap_policy.quarantine:
        first = violations[0]
        raise ConstraintViolation(first.constraint, witness=first.subject.name)

    # collect-then-remove: one subject may violate several constraints,
    # and removal must not run while verdicts are still being computed
    by_subject: Dict[Oid, List[Violation]] = {}
    for violation in violations:
        by_subject.setdefault(violation.subject, []).append(violation)
    for subject in sorted(by_subject, key=lambda oid: oid.name):
        faults = by_subject[subject]
        collection = faults[0].constraint.collection
        report.add(
            locator=f"{collection}:{subject.name}",
            error="constraint violation: "
            + "; ".join(fault.message for fault in faults),
            snippet=str(faults[0].constraint),
            source=source_name,
        )
        graph.remove_node(subject)
    wrap_policy.enforce_budget(report, source_name)
    return violations
