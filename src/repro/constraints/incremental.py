"""Delta-driven incremental constraint re-checking.

A warm graph that just absorbed a one-edge edit should not pay a
whole-collection re-validation.  The :class:`IncrementalChecker` records,
per ``(constraint, subject)`` verdict, a
:class:`~repro.struql.footprint.Footprint` of what the verdict read, and
keeps them all in one :class:`~repro.struql.footprint.DependencyIndex`,
so a :class:`~repro.graph.delta.GraphDelta` maps to the touched verdicts
in time proportional to the delta, not the graph:

* every verdict reads the subject's membership in the collection and
  its adjacency list under the one label;
* an ``exclusive`` verdict also reads, for each value the subject holds,
  the reverse value index under the label and the membership of every
  other holder it found -- so an edit to a shared value, or a holder
  joining or leaving the collection, re-verdicts exactly the co-holders;
* an ``expression`` verdict reads whatever its evaluation read, as
  recorded by the engine.

Subjects that newly joined a collection have no verdict to be staled;
``recheck`` adds them from the delta's membership additions.

``recheck`` is honest about log truncation: when the index answers
``COARSE`` the checker falls back to a full re-check (counted in
``coarse_fallbacks``), which is always sound.  The property tests in
``tests/test_data_constraints.py`` and ``tests/test_dependency_index.py``
drive random delta streams and assert incremental verdicts are
*identical* to a from-scratch full check; ``BENCH_DC.json`` shows the
per-edit cost staying proportional to delta size on a 400-article site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..graph import Graph, Oid
from ..struql.footprint import COARSE, DependencyIndex, Footprint
from .checker import ConstraintChecker
from .model import CheckCounters, ConstraintSet, Violation

#: A verdict key: (constraint index in the set, subject oid).
Key = Tuple[int, Oid]


class IncrementalChecker:
    """Keeps constraint verdicts for one graph current across edits.

    ``full_check()`` establishes the baseline; each ``recheck()``
    re-verdicts only the delta-touched subjects.  ``last_rechecked`` /
    ``last_skipped`` expose the most recent recheck's selectivity for
    counter verification (the acceptance demo asserts a 1-edge edit
    re-checks only the touched subjects).
    """

    def __init__(
        self,
        graph: Graph,
        constraint_set: ConstraintSet,
        counters: Optional[CheckCounters] = None,
    ) -> None:
        self.graph = graph
        self.set = constraint_set
        self.counters = counters if counters is not None else CheckCounters()
        self.checker = ConstraintChecker(graph, constraint_set, self.counters)
        self._verdicts: Dict[Key, bool] = {}
        self._violations: Dict[Key, Violation] = {}
        #: what each verdict read, under its key
        self._index = DependencyIndex()
        self._epoch: Optional[int] = None
        self.last_rechecked = 0
        self.last_skipped = 0

    # ------------------------------------------------------------ #

    def verdicts(self) -> Dict[Key, bool]:
        """Current ``(constraint index, subject) -> holds`` map."""
        return dict(self._verdicts)

    def violations(self) -> List[Violation]:
        """Current violations, ordered by constraint then subject name."""
        return [
            self._violations[key]
            for key in sorted(self._violations, key=lambda k: (k[0], k[1].name))
        ]

    @property
    def subject_count(self) -> int:
        return len(self._verdicts)

    # ------------------------------------------------------------ #
    # full check

    def full_check(self) -> Dict[Key, bool]:
        """(Re-)establish every verdict and dependence set from scratch."""
        self._index = DependencyIndex()
        self._verdicts.clear()
        self._violations.clear()
        self.counters.full_checks += 1
        graph = self.graph
        for cidx, constraint in enumerate(self.set):
            for oid in graph.collection(constraint.collection):
                self._check_one(cidx, constraint, oid)
        self._epoch = graph.epoch
        self.last_rechecked = len(self._verdicts)
        self.last_skipped = 0
        return self.verdicts()

    def _check_one(self, cidx: int, constraint, oid: Oid) -> None:
        key = (cidx, oid)
        self.counters.checked += 1
        footprint = Footprint()
        violation = self.checker.check_subject(constraint, oid, footprint)
        self._verdicts[key] = violation is None
        if violation is None:
            self._violations.pop(key, None)
        else:
            self.counters.violated += 1
            self._violations[key] = violation
        # membership itself is part of the dependence set: leaving the
        # collection must retire the verdict
        footprint.membership_reads.add((constraint.collection, oid))
        self._index.add(key, footprint)

    def _drop(self, key: Key) -> None:
        self._verdicts.pop(key, None)
        self._violations.pop(key, None)
        self._index.discard(key)

    # ------------------------------------------------------------ #
    # incremental recheck

    def recheck(self) -> Dict[Key, bool]:
        """Bring every verdict up to date with the graph.

        Touched subjects are recomputed; everything else is proven
        current by footprint/delta disjointness and skipped (counted in
        ``incremental_skipped``).  A truncated delta log forces a coarse
        full re-check -- sound, and counted in ``coarse_fallbacks``.
        """
        if self._epoch is None:
            return self.full_check()
        stale = self._index.affected(self.graph, self._epoch)
        if stale is COARSE:
            self.counters.coarse_fallbacks += 1
            return self.full_check()
        before = len(self._verdicts)
        touched: Set[Key] = set(stale)
        for name, oid in stale.delta.members_added:
            for cidx, constraint in enumerate(self.set):
                if constraint.collection == name:
                    touched.add((cidx, oid))

        graph = self.graph
        rechecked = 0
        for key in sorted(touched, key=lambda k: (k[0], k[1].name)):
            cidx, oid = key
            constraint = self.set.constraints[cidx]
            if not graph.has_node(oid) or not graph.in_collection(
                constraint.collection, oid
            ):
                self._drop(key)
                continue
            rechecked += 1
            self._check_one(cidx, constraint, oid)
        self.last_rechecked = rechecked
        self.last_skipped = max(0, before - len(touched))
        self.counters.incremental_rechecked += rechecked
        self.counters.incremental_skipped += self.last_skipped
        self._epoch = graph.epoch
        return self.verdicts()
