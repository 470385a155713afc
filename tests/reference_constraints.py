"""Reference semantics for site constraints and single-source path search.

:class:`ReferenceChecker` is the constraint checker ``repro.core.check``
replaced: it binds each quantifier to every node of the graph, one node
at a time, and evaluates the formula recursively.  It is slow and
obviously right, which is what a test oracle should be:

* ``forall X phi`` / ``exists X phi`` range over ``graph.nodes()`` --
  nodes only, never atoms -- in node order;
* ``C(X)`` is membership in collection ``C`` when the graph has one,
  otherwise "X's name starts with ``C(``" (X was made by Skolem
  function ``C``); ``X`` must be quantified;
* ``X -> R -> Y`` looks both endpoints up among the quantified
  variables; an unquantified endpoint is existential for this atom
  alone, and an atom with no quantified endpoint is an error.

A failing ``forall`` records its binding (with every enclosing
quantified variable) in the witness.

The single-source path searches below are what the engine's batched
``targets_from_many`` / ``sources_to_many`` generalize; the reference
where-clause evaluator in ``reference_eval.py`` walks them too.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple, Union

from repro.core.constraints import (
    And,
    CheckResult,
    ClassAtom,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    PathAtom,
    parse_constraint,
)
from repro.errors import ConstraintError
from repro.graph import Graph, Oid, Target
from repro.struql.ast import Alternation, Concat, PathExpr, Star
from repro.struql.paths import NFA, compile_path


def reverse_expr(expr: PathExpr) -> PathExpr:
    """The reversal of a regular path expression (concatenations flipped)."""
    if isinstance(expr, Concat):
        return Concat(parts=tuple(reverse_expr(p) for p in reversed(expr.parts)))
    if isinstance(expr, Alternation):
        return Alternation(options=tuple(reverse_expr(o) for o in expr.options))
    if isinstance(expr, Star):
        return Star(inner=reverse_expr(expr.inner))
    return expr


def targets_from(graph: Graph, nfa: NFA, source: Oid) -> List[Target]:
    """All objects reachable from ``source`` along a matching path.

    Returns nodes and atoms; includes ``source`` itself when the empty
    path matches.  Deterministic order (BFS discovery order).
    """
    if not graph.has_node(source):
        return []
    results: Dict[Target, None] = {}
    start_states = nfa.initial
    visited: Set[Tuple[Target, FrozenSet[int]]] = {(source, start_states)}
    queue: deque = deque([(source, start_states)])
    if nfa.accepts_in(start_states):
        results[source] = None
    while queue:
        obj, states = queue.popleft()
        if not isinstance(obj, Oid):
            continue
        for label, target in graph.out_edges(obj):
            next_states = nfa.step(states, label)
            if not next_states:
                continue
            key = (target, next_states)
            if key in visited:
                continue
            visited.add(key)
            if nfa.accepts_in(next_states) and target not in results:
                results[target] = None
            queue.append((target, next_states))
    return list(results)


def sources_to(graph: Graph, reversed_nfa: NFA, target: Target) -> List[Oid]:
    """All source nodes with a matching path to ``target``.

    ``reversed_nfa`` must be the compilation of :func:`reverse_expr` of
    the original expression; the search walks the reverse adjacency index.
    """
    results: Dict[Oid, None] = {}
    start_states = reversed_nfa.initial
    visited: Set[Tuple[Target, FrozenSet[int]]] = {(target, start_states)}
    queue: deque = deque([(target, start_states)])
    if reversed_nfa.accepts_in(start_states) and isinstance(target, Oid):
        results[target] = None
    while queue:
        obj, states = queue.popleft()
        for source, label in graph.in_edges(obj):
            next_states = reversed_nfa.step(states, label)
            if not next_states:
                continue
            key = (source, next_states)
            if key in visited:
                continue
            visited.add(key)
            if reversed_nfa.accepts_in(next_states) and source not in results:
                results[source] = None
            queue.append((source, next_states))
    return list(results)


def path_exists(graph: Graph, nfa: NFA, source: Oid, target: Target) -> bool:
    """Early-exit check: is there a matching path from source to target?"""
    if not graph.has_node(source):
        return False
    start_states = nfa.initial
    if nfa.accepts_in(start_states) and source == target:
        return True
    visited: Set[Tuple[Target, FrozenSet[int]]] = {(source, start_states)}
    queue: deque = deque([(source, start_states)])
    while queue:
        obj, states = queue.popleft()
        if not isinstance(obj, Oid):
            continue
        for label, next_target in graph.out_edges(obj):
            next_states = nfa.step(states, label)
            if not next_states:
                continue
            if next_target == target and nfa.accepts_in(next_states):
                return True
            key = (next_target, next_states)
            if key in visited:
                continue
            visited.add(key)
            queue.append((next_target, next_states))
    return False


def reference_check(formula: Union[Formula, str], graph: Graph) -> CheckResult:
    """:func:`repro.core.check`'s contract, by the definition."""
    if isinstance(formula, str):
        formula = parse_constraint(formula)
    witness: Dict[str, Oid] = {}
    holds = ReferenceChecker(graph).eval(formula, {}, witness)
    return CheckResult(holds=holds, witness=None if holds else dict(witness))


class ReferenceChecker:
    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._nfa_cache: Dict[int, tuple] = {}

    def _members(self, name: str) -> List[Oid]:
        if self.graph.has_collection(name):
            return self.graph.collection(name)
        prefix = name + "("
        return [oid for oid in self.graph.nodes() if oid.name.startswith(prefix)]

    def eval(self, formula: Formula, env: Dict[str, Oid], witness: Dict[str, Oid]) -> bool:
        if isinstance(formula, ClassAtom):
            value = env.get(formula.var)
            if value is None:
                raise ConstraintError(f"unbound variable {formula.var} in {formula}")
            return value in self._members(formula.name)
        if isinstance(formula, PathAtom):
            return self._path_holds(formula, env)
        if isinstance(formula, Not):
            return not self.eval(formula.inner, env, witness)
        if isinstance(formula, And):
            return self.eval(formula.left, env, witness) and self.eval(
                formula.right, env, witness
            )
        if isinstance(formula, Or):
            return self.eval(formula.left, env, witness) or self.eval(
                formula.right, env, witness
            )
        if isinstance(formula, Implies):
            return (not self.eval(formula.left, env, witness)) or self.eval(
                formula.right, env, witness
            )
        if isinstance(formula, ForAll):
            for node in self.graph.nodes():
                extended = dict(env)
                extended[formula.var] = node
                if not self.eval(formula.body, extended, witness):
                    witness.update(extended)
                    return False
            return True
        if isinstance(formula, Exists):
            for node in self.graph.nodes():
                extended = dict(env)
                extended[formula.var] = node
                if self.eval(formula.body, extended, witness):
                    return True
            return False
        raise ConstraintError(f"unknown formula: {formula!r}")

    def _path_holds(self, atom: PathAtom, env: Dict[str, Oid]) -> bool:
        source = env.get(atom.source)
        target = env.get(atom.target)
        cached = self._nfa_cache.get(id(atom.path))
        if cached is None:
            cached = (compile_path(atom.path), compile_path(reverse_expr(atom.path)))
            self._nfa_cache[id(atom.path)] = cached
        forward, backward = cached
        if source is not None and target is not None:
            return path_exists(self.graph, forward, source, target)
        if source is not None:
            return bool(targets_from(self.graph, forward, source))
        if target is not None:
            return bool(sources_to(self.graph, backward, target))
        raise ConstraintError(f"path atom {atom} has no bound endpoint")
