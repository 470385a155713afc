"""The declarative data-constraint vocabulary.

The paper's integrity constraints (section 2.5) guard the *site graph*;
nothing in the pipeline validated the *data graph* the wrappers and
mediator produce.  This module declares constraints over data-graph
collections and edge labels, in the spirit of EdgeDB's constraint
language (``exclusive``, ``max_len_value``, ``expression on (...)``
with a ``__subject__`` binding):

========================  ============================================
``required L``            every member has at least one ``L`` edge
``exclusive L``           no two members share an ``L`` value
``range L lo hi``         every ``L`` value is numeric in [lo, hi]
``regexp L "pat"``        every ``L`` value fully matches the pattern
``max_len L n``           every ``L`` value renders to <= n characters
``expression ( conds )``  the STRUQL conditions, seeded with the member
                          bound to ``__subject__``, produce a binding
========================  ============================================

One vocabulary is enforced in three places: statically by the analyzer
(``DC0xx`` diagnostics), at ingest by the wrapper/mediator quarantine
gate, and incrementally on warm graphs by the delta-driven
:class:`~repro.constraints.incremental.IncrementalChecker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..graph import Oid

#: The constraint kinds, in declaration-keyword form.
KINDS = ("required", "exclusive", "range", "regexp", "max_len", "expression")


@dataclass(frozen=True)
class DataConstraint:
    """One declared constraint over one collection.

    ``label`` is empty for ``expression`` constraints; ``conditions``
    holds the parsed STRUQL where-clause of an ``expression`` constraint
    (excluded from equality so identical declarations compare equal).
    ``line``/``column`` locate the declaring token in the source file.
    """

    kind: str
    collection: str
    label: str = ""
    low: Optional[float] = None
    high: Optional[float] = None
    pattern: str = ""
    limit: int = 0
    expression: str = ""
    conditions: Tuple[object, ...] = field(default=(), compare=False, repr=False)
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def key(self) -> Tuple[object, ...]:
        """Identity for duplicate detection (span-independent)."""
        return (
            self.collection, self.kind, self.label,
            self.low, self.high, self.pattern, self.limit, self.expression,
        )

    def __str__(self) -> str:
        if self.kind == "required":
            body = f"required {self.label}"
        elif self.kind == "exclusive":
            body = f"exclusive {self.label}"
        elif self.kind == "range":
            body = f"range {self.label} {_num(self.low)} {_num(self.high)}"
        elif self.kind == "regexp":
            body = f'regexp {self.label} "{self.pattern}"'
        elif self.kind == "max_len":
            body = f"max_len {self.label} {self.limit}"
        else:
            body = f"expression ({self.expression})"
        return f"on {self.collection}: {body}"


def _num(value: Optional[float]) -> str:
    if value is None:
        return "?"
    if float(value).is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True)
class ParseIssue:
    """One syntax problem in a constraint file, with a real source span."""

    message: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        where = f"line {self.line}, column {self.column}" if self.line else "?"
        return f"{self.message} ({where})"


@dataclass
class ConstraintSet:
    """A parsed constraint file: declarations plus any parse issues.

    Parsing is error-recovering -- a malformed rule becomes a
    :class:`ParseIssue` and the parser resynchronizes, so one typo does
    not hide every later declaration from the analyzer.
    """

    source: str = "<constraints>"
    constraints: List[DataConstraint] = field(default_factory=list)
    issues: List[ParseIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[DataConstraint]:
        return iter(self.constraints)

    def for_collection(self, name: str) -> List[DataConstraint]:
        return [c for c in self.constraints if c.collection == name]

    def collections(self) -> List[str]:
        out: Dict[str, None] = {}
        for constraint in self.constraints:
            out.setdefault(constraint.collection)
        return list(out)


@dataclass
class Violation:
    """One subject failing one constraint."""

    constraint: DataConstraint
    subject: Oid
    message: str
    value: str = ""

    def __str__(self) -> str:
        return f"{self.subject.name}: {self.message} [{self.constraint}]"

    def as_dict(self) -> Dict[str, str]:
        return {
            "constraint": str(self.constraint),
            "subject": self.subject.name,
            "message": self.message,
            "value": self.value,
        }


@dataclass
class CheckCounters:
    """Constraint-check accounting, reported by ``repro stats``.

    ``incremental_skipped`` counts (constraint, subject) verdicts an
    incremental re-check proved untouched and did not recompute --
    the number the BENCH_DC benchmark verifies is close to the total
    while ``incremental_rechecked`` stays proportional to delta size.
    """

    checked: int = 0
    violated: int = 0
    refuted: int = 0
    incremental_rechecked: int = 0
    incremental_skipped: int = 0
    full_checks: int = 0
    coarse_fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "checked": self.checked,
            "violated": self.violated,
            "refuted": self.refuted,
            "incremental_rechecked": self.incremental_rechecked,
            "incremental_skipped": self.incremental_skipped,
            "full_checks": self.full_checks,
            "coarse_fallbacks": self.coarse_fallbacks,
        }

    def summary(self) -> str:
        return (
            f"checked={self.checked} violated={self.violated} "
            f"refuted={self.refuted} "
            f"incremental-rechecked={self.incremental_rechecked} "
            f"incremental-skipped={self.incremental_skipped}"
        )

