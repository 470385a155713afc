"""Compiled-plan and NFA caches for STRUQL evaluation.

The paper's performance story (section 2.1) is that full indexing makes
query evaluation cheap; what it leaves implicit is that the *planning*
work around evaluation -- ordering the where-clause conditions against
index statistics and Thompson-compiling regular path expressions -- is
pure overhead when the same query runs again over an unchanged graph,
which is exactly the click-time server's workload.

:class:`PlanCache` amortizes both:

* **ordered-condition plans**, keyed by the *identity* of the condition
  objects, the initially-bound variable set, and the statistics
  fingerprint ``(graph token, graph epoch)``.  The epoch in
  the key is the invalidation rule: any graph mutation bumps the epoch,
  so stale plans can never be served -- they simply age out of the LRU.
* **compiled path NFAs**, keyed by path-expression identity.  NFAs
  depend only on the expression, never on the graph, so they are shared
  across engines, graphs, and epochs.  The backward NFA is the forward
  NFA's structural reversal (:meth:`~repro.struql.paths.NFA.reversed`),
  not a second Thompson construction.
* **path reachability memos**, keyed by ``(NFA identity, graph
  token, graph epoch, endpoint)``.  The block evaluator's batched
  path search records, per distinct endpoint, the full answer of one
  product-automaton BFS; any later row -- in the same query or a later
  warm query over the unchanged graph -- reuses it.  The epoch in the
  key is the invalidation rule, exactly as for plans.

Cache values pin the AST objects they were keyed by, which keeps their
``id()`` values from being recycled while an entry is alive (the ABA
hazard of identity keys).  Nothing pins a graph, so graphs are keyed
by their process-unique ``token`` instead: CPython reuses a freed
graph's ``id()``.  Entries are evicted LRU once ``max_entries``
is exceeded.  A process-wide cache (:func:`global_plan_cache`) is the
default for every :class:`~repro.struql.eval.QueryEngine`; engines and
benchmarks that need isolation pass their own instance.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .ast import Condition, PathExpr
from .paths import NFA, compile_path

#: A plan-cache key: (condition identities, bound vars, statistics
#: fingerprint).
PlanKey = Tuple[Tuple[int, ...], FrozenSet[str], Tuple[int, int]]

#: A path-memo key: (NFA identity, graph token, graph epoch, endpoint).
PathMemoKey = Tuple[int, int, int, object]

#: A compiled-SQL key: (ordered condition identities, frame variable
#: names, statistics fingerprint).
SqlPlanKey = Tuple[Tuple[int, ...], Tuple[str, ...], Tuple[int, int]]


class PlanCache:
    """An LRU cache of ordered-condition plans, compiled path NFAs, and
    per-endpoint path reachability results."""

    def __init__(self, max_entries: int = 2048, max_path_entries: int = 16384) -> None:
        self.max_entries = max_entries
        self.max_path_entries = max_path_entries
        self.hits = 0
        self.misses = 0
        self.path_hits = 0
        self.path_misses = 0
        self.sql_hits = 0
        self.sql_misses = 0
        self._lock = Lock()
        # value pins the condition objects the key's ids refer to
        self._plans: "OrderedDict[PlanKey, Tuple[Tuple[Condition, ...], List[Condition]]]" = (
            OrderedDict()
        )
        # value pins the path expression the key's id refers to
        self._nfas: "OrderedDict[int, Tuple[PathExpr, NFA, NFA]]" = OrderedDict()
        # value pins the NFA the key's id refers to (ABA guard, as above)
        self._path_memo: "OrderedDict[PathMemoKey, Tuple[NFA, Tuple[object, ...]]]" = (
            OrderedDict()
        )
        # value pins the ordered conditions; the payload is the compiled
        # pushdown plan, or None when compilation declined the prefix
        self._sql: "OrderedDict[SqlPlanKey, Tuple[Tuple[Condition, ...], object]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------ #
    # ordered-condition plans

    @staticmethod
    def plan_key(
        conditions: Sequence[Condition],
        bound: FrozenSet[str],
        fingerprint: Tuple[int, int],
    ) -> PlanKey:
        return (tuple(map(id, conditions)), bound, fingerprint)

    def get_plan(self, key: PlanKey) -> Optional[List[Condition]]:
        """The cached plan for ``key``, or None.  Counts hits/misses."""
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put_plan(
        self, key: PlanKey, conditions: Sequence[Condition], ordered: List[Condition]
    ) -> None:
        with self._lock:
            self._plans[key] = (tuple(conditions), ordered)
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)

    # ------------------------------------------------------------ #
    # compiled SQL pushdown plans

    @staticmethod
    def sql_key(
        ordered: Sequence[Condition],
        frame_names: Sequence[str],
        fingerprint: Tuple[int, int],
    ) -> SqlPlanKey:
        return (tuple(map(id, ordered)), tuple(frame_names), fingerprint)

    def get_sql(self, key: SqlPlanKey) -> Optional[Tuple[object]]:
        """The cached compiled-SQL entry for ``key`` wrapped in a 1-tuple,
        or None on a miss.  The wrapped payload may itself be None (a
        cached "this prefix does not push down" verdict)."""
        with self._lock:
            entry = self._sql.get(key)
            if entry is None:
                self.sql_misses += 1
                return None
            self._sql.move_to_end(key)
            self.sql_hits += 1
            return (entry[1],)

    def put_sql(
        self, key: SqlPlanKey, ordered: Sequence[Condition], plan: object
    ) -> None:
        with self._lock:
            self._sql[key] = (tuple(ordered), plan)
            self._sql.move_to_end(key)
            while len(self._sql) > self.max_entries:
                self._sql.popitem(last=False)

    # ------------------------------------------------------------ #
    # compiled path NFAs

    def nfas(self, path: PathExpr) -> Tuple[NFA, NFA]:
        """The (forward, backward) NFAs of a path expression, compiled
        once per distinct expression object."""
        key = id(path)
        with self._lock:
            entry = self._nfas.get(key)
            if entry is not None and entry[0] is path:
                self._nfas.move_to_end(key)
                return entry[1], entry[2]
        forward = compile_path(path)
        backward = forward.reversed()
        with self._lock:
            self._nfas[key] = (path, forward, backward)
            self._nfas.move_to_end(key)
            while len(self._nfas) > self.max_entries:
                self._nfas.popitem(last=False)
        return forward, backward

    # ------------------------------------------------------------ #
    # path reachability memo

    def path_memo_get(
        self, nfa: NFA, fingerprint: Tuple[int, int], endpoint: object
    ) -> Optional[Tuple[object, ...]]:
        """The memoized reachability answer for one endpoint under one
        automaton and graph epoch, or ``None``.  Counts hits/misses."""
        key = (id(nfa), fingerprint[0], fingerprint[1], endpoint)
        with self._lock:
            entry = self._path_memo.get(key)
            if entry is None or entry[0] is not nfa:
                self.path_misses += 1
                return None
            self._path_memo.move_to_end(key)
            self.path_hits += 1
            return entry[1]

    def path_memo_put(
        self,
        nfa: NFA,
        fingerprint: Tuple[int, int],
        endpoint: object,
        reached: Tuple[object, ...],
    ) -> None:
        key = (id(nfa), fingerprint[0], fingerprint[1], endpoint)
        with self._lock:
            self._path_memo[key] = (nfa, reached)
            self._path_memo.move_to_end(key)
            while len(self._path_memo) > self.max_path_entries:
                self._path_memo.popitem(last=False)

    # ------------------------------------------------------------ #

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._nfas.clear()
            self._path_memo.clear()
            self._sql.clear()
            self.hits = 0
            self.misses = 0
            self.path_hits = 0
            self.path_misses = 0
            self.sql_hits = 0
            self.sql_misses = 0

    def stats(self) -> Dict[str, int]:
        """Counters for diagnostics (``repro stats`` prints these)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "plans": len(self._plans),
                "nfas": len(self._nfas),
                "path_hits": self.path_hits,
                "path_misses": self.path_misses,
                "path_entries": len(self._path_memo),
                "sql_hits": self.sql_hits,
                "sql_misses": self.sql_misses,
                "sql_plans": len(self._sql),
            }


_GLOBAL_PLAN_CACHE = PlanCache()


def global_plan_cache() -> PlanCache:
    """The process-wide plan cache every engine shares by default."""
    return _GLOBAL_PLAN_CACHE


def clear_plan_cache() -> None:
    """Drop every cached plan and NFA (tests and benchmarks)."""
    _GLOBAL_PLAN_CACHE.clear()
