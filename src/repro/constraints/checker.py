"""Checking data constraints against a materialized graph.

One :class:`ConstraintChecker` evaluates a
:class:`~repro.constraints.model.ConstraintSet` over one graph.  The
per-subject verdict functions are deliberately order-independent --
``exclusive`` blames every holder of a shared value except the
lexicographically-least member -- so a full check and an incremental
re-check (which visits subjects in different orders) agree exactly.

The checker also implements the *data refutation* fast path: for the
value-shaped kinds (``range``/``regexp``/``max_len``/``exclusive``)
the graph's incrementally-maintained per-label value index can prove,
without visiting any member, that no subject can currently violate the
constraint.  The analyzer surfaces such proofs as ``DC005`` and the
ingest gate skips the member scan.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..graph import Atom, Graph, Oid
from ..struql.eval import QueryEngine, make_engine
from ..struql.footprint import Footprint
from .model import (
    CheckCounters,
    ConstraintSet,
    DataConstraint,
    Violation,
)
from .parser import SUBJECT_VAR


_PATTERNS: Dict[str, "re.Pattern"] = {}


def _compiled(pattern: str) -> "re.Pattern":
    cached = _PATTERNS.get(pattern)
    if cached is None:
        cached = re.compile(pattern)
        _PATTERNS[pattern] = cached
    return cached


def value_problem(constraint: DataConstraint, atom: Atom) -> Optional[str]:
    """Why one atomic value violates a value-shaped constraint
    (None = the value is fine).  Shared by the full checker, the
    incremental checker, and the analyzer's value-index refutation."""
    if constraint.kind == "range":
        number = atom.as_number()
        if number is None:
            return f"{constraint.label} value {atom.as_string()!r} is not numeric"
        if number < constraint.low or number > constraint.high:
            return (
                f"{constraint.label} value {atom.as_string()} outside "
                f"[{constraint.low:g}, {constraint.high:g}]"
            )
        return None
    if constraint.kind == "regexp":
        if _compiled(constraint.pattern).fullmatch(atom.as_string()) is None:
            return (
                f"{constraint.label} value {atom.as_string()!r} does not "
                f"match /{constraint.pattern}/"
            )
        return None
    if constraint.kind == "max_len":
        rendered = atom.as_string()
        if len(rendered) > constraint.limit:
            return (
                f"{constraint.label} value of length {len(rendered)} "
                f"exceeds max_len {constraint.limit}"
            )
        return None
    return None


class ConstraintChecker:
    """Evaluates every constraint of a set against one graph."""

    def __init__(
        self,
        graph: Graph,
        constraint_set: ConstraintSet,
        counters: Optional[CheckCounters] = None,
    ) -> None:
        self.graph = graph
        self.set = constraint_set
        self.counters = counters if counters is not None else CheckCounters()
        self._engine: Optional[QueryEngine] = None

    # ------------------------------------------------------------ #
    # per-subject verdicts

    def engine(self) -> QueryEngine:
        if self._engine is None:
            self._engine = make_engine(self.graph)
        return self._engine

    def check_subject(
        self,
        constraint: DataConstraint,
        oid: Oid,
        footprint: Optional[Footprint] = None,
    ) -> Optional[Violation]:
        """The verdict for one member (None = satisfied).

        ``footprint`` optionally records what the verdict read (the
        incremental checker's dependence set): the subject's adjacency
        list under the label, for ``exclusive`` also every value probe
        and the membership of every other holder it found, and for
        ``expression`` whatever the evaluation read.
        """
        graph = self.graph
        kind = constraint.kind
        if footprint is not None and kind != "expression":
            footprint.edge_reads.add((oid, constraint.label))
        if kind == "required":
            if not graph.targets(oid, constraint.label):
                return Violation(
                    constraint, oid,
                    f"missing required edge {constraint.label!r}",
                )
            return None
        if kind == "exclusive":
            for atom in self._values(oid, constraint.label):
                holders = self._holders(constraint, atom, footprint)
                if len(holders) > 1 and oid.name != min(h.name for h in holders):
                    return Violation(
                        constraint, oid,
                        f"{constraint.label} value {atom.as_string()!r} "
                        f"is not exclusive "
                        f"(also held by {self._other(holders, oid)})",
                        value=atom.as_string(),
                    )
            return None
        if kind == "expression":
            engine = self.engine()
            with engine.record_into(footprint):
                rows = engine.bindings(
                    list(constraint.conditions), initial=[{SUBJECT_VAR: oid}]
                )
            if not rows:
                return Violation(
                    constraint, oid,
                    f"expression ({constraint.expression}) has no solution",
                )
            return None
        for atom in self._values(oid, constraint.label):
            problem = value_problem(constraint, atom)
            if problem is not None:
                return Violation(constraint, oid, problem, value=atom.as_string())
        return None

    def _values(self, oid: Oid, label: str) -> List[Atom]:
        return [
            target
            for target in self.graph.targets(oid, label)
            if isinstance(target, Atom)
        ]

    def _holders(
        self,
        constraint: DataConstraint,
        atom: Atom,
        footprint: Optional[Footprint] = None,
    ) -> List[Oid]:
        """Collection members holding ``atom`` under the constraint's
        label (via the reverse value index, so this is per-value work,
        not a collection scan)."""
        graph = self.graph
        label, collection = constraint.label, constraint.collection
        sources = [s for s, held in graph.sources_of_value(atom) if held == label]
        if footprint is not None:
            footprint.value_probes.add((atom, label))
            footprint.membership_reads.update((collection, s) for s in sources)
        return [s for s in sources if graph.in_collection(collection, s)]

    @staticmethod
    def _other(holders: List[Oid], oid: Oid) -> str:
        names = sorted(h.name for h in holders if h != oid)
        return names[0] if names else "?"

    # ------------------------------------------------------------ #
    # whole-set checking

    def refuted_on_data(self, constraint: DataConstraint) -> bool:
        """Can the graph's value index prove no member can violate?

        Sound: ``True`` only when *every* atomic value anywhere under
        the label passes (value-shaped kinds) or no value is shared
        (``exclusive``) -- a superset of what collection members hold.
        """
        graph = self.graph
        kind = constraint.kind
        if kind in ("range", "regexp", "max_len"):
            for atom, _count in graph.label_atoms(constraint.label):
                if value_problem(constraint, atom) is not None:
                    return False
            return True
        if kind == "exclusive":
            for _atom, count in graph.label_atoms(constraint.label):
                if count > 1:
                    return False
            return True
        return False

    def check_all(self) -> List[Violation]:
        """Every violation in the graph, in collection/member order.

        Constraints the value index proves unviolable
        (:meth:`refuted_on_data`) are skipped wholesale and counted as
        ``refuted`` instead of ``checked``.
        """
        counters = self.counters
        counters.full_checks += 1
        violations: List[Violation] = []
        for constraint in self.set:
            if self.refuted_on_data(constraint):
                counters.refuted += 1
                continue
            violations.extend(self.check_members(constraint))
        return violations

    def check_members(self, constraint: DataConstraint) -> List[Violation]:
        """Every member of the constraint's collection that violates it,
        in member order, counted as ``checked`` and ``violated``."""
        counters = self.counters
        violations: List[Violation] = []
        for oid in self.graph.collection(constraint.collection):
            counters.checked += 1
            violation = self.check_subject(constraint, oid)
            if violation is not None:
                counters.violated += 1
                violations.append(violation)
        return violations
