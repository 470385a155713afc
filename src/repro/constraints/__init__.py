"""Declarative data constraints over collections and edge labels.

One vocabulary (``required`` / ``exclusive`` / ``range`` / ``regexp`` /
``max_len`` / ``expression``), enforced in three layers:

* **statically** by the analyzer's ``DC0xx`` rule family, which refutes
  constraints the mapping queries or current data can never violate;
* **at ingest** by a quarantine gate on the wrapper/mediator path, so
  violating records become quarantined records with provenance;
* **incrementally** on warm graphs by the delta-driven
  :class:`IncrementalChecker`, which re-checks only delta-touched
  subjects.
"""

from .checker import ConstraintChecker, value_problem
from .gate import ConstraintPolicy, apply_constraint_gate
from .incremental import IncrementalChecker
from .model import (
    KINDS,
    CheckCounters,
    ConstraintSet,
    DataConstraint,
    ParseIssue,
    Violation,
)
from .parser import SUBJECT_VAR, parse_constraints

__all__ = [
    "KINDS",
    "SUBJECT_VAR",
    "CheckCounters",
    "ConstraintChecker",
    "ConstraintPolicy",
    "ConstraintSet",
    "DataConstraint",
    "IncrementalChecker",
    "ParseIssue",
    "Violation",
    "apply_constraint_gate",
    "parse_constraints",
    "value_problem",
]
