"""Evaluation of regular path expressions over labeled graphs.

STRUQL's ``x -> R -> y`` asks for a path from ``x`` to ``y`` whose label
sequence matches the regular path expression ``R``.  Regular path
expressions generalize regular expressions: the alphabet is not fixed --
leaves are *predicates* over edge labels (string equality, ``true``, or a
registered named predicate), per section 2.2 of the paper.

Implementation: Thompson-construct an NFA whose transitions carry label
predicates, then search the product of graph x NFA breadth first with a
visited set, which handles cycles in both the data and the expression
(``Star``).  The empty path is matched when the start state is accepting
-- so ``*`` (any path) relates every node to itself, which the paper's
TextOnly example relies on ("all nodes q reachable from the root p,
*including p itself*").

One search serves every binding order of the block evaluator:
:func:`targets_from_many` walks forward from every distinct bound
source at once, and :func:`sources_to_many` walks the reversed
automaton (:meth:`NFA.reversed`: every transition and epsilon flipped,
start and accept swapped) over the reverse adjacency index from every
distinct bound target.  Product states are tagged by origin, so each
origin's results and their discovery order are those of a
single-source breadth-first search, while the ``(state set, label) ->
next states`` step computation is shared across all origins.  A
fully-bound check reads one side's answer.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import StruqlEvaluationError
from ..graph import Graph, Oid, Target
from ..resilience.deadline import current_deadline
from . import builtins
from .ast import Alternation, AnyLabel, Concat, LabelIs, LabelPredicate, PathExpr, Star

LabelTest = Callable[[str], bool]


class NFA:
    """A nondeterministic finite automaton over label predicates.

    States are integers.  ``transitions[state]`` lists ``(test, next)``
    pairs; ``epsilons[state]`` lists epsilon-successors.  One start state,
    one accept state (Thompson construction guarantees this shape).
    """

    def __init__(self) -> None:
        self.transitions: Dict[int, List[Tuple[LabelTest, int]]] = {}
        self.epsilons: Dict[int, List[int]] = {}
        self.start = 0
        self.accept = 0
        self._state_count = 0
        self._reversed: Optional["NFA"] = None

    def new_state(self) -> int:
        state = self._state_count
        self._state_count += 1
        self.transitions.setdefault(state, [])
        self.epsilons.setdefault(state, [])
        return state

    def add_transition(self, source: int, test: LabelTest, target: int) -> None:
        self.transitions[source].append((test, target))

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilons[source].append(target)

    def closure(self, states: FrozenSet[int]) -> FrozenSet[int]:
        """Epsilon-closure of a state set."""
        seen: Set[int] = set(states)
        queue = list(states)
        while queue:
            state = queue.pop()
            for nxt in self.epsilons.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(seen)

    def step(self, states: FrozenSet[int], label: str) -> FrozenSet[int]:
        """States reachable by consuming one edge labeled ``label``."""
        out: Set[int] = set()
        for state in states:
            for test, nxt in self.transitions.get(state, ()):
                if test(label):
                    out.add(nxt)
        return self.closure(frozenset(out))

    def accepts_in(self, states: FrozenSet[int]) -> bool:
        return self.accept in states

    @property
    def initial(self) -> FrozenSet[int]:
        return self.closure(frozenset({self.start}))

    def reversed(self) -> "NFA":
        """The structural reversal of this automaton, computed once.

        Every transition and epsilon is flipped and start/accept are
        swapped; the label predicates are shared with the forward NFA.
        The reversal accepts exactly the reversed label sequences, so
        running it over the reverse adjacency index finds the sources
        of a path without Thompson-constructing a reversed expression.
        """
        if self._reversed is not None:
            return self._reversed
        mirror = NFA()
        mirror._state_count = self._state_count
        for state in range(self._state_count):
            mirror.transitions.setdefault(state, [])
            mirror.epsilons.setdefault(state, [])
        for source, pairs in self.transitions.items():
            for test, target in pairs:
                mirror.add_transition(target, test, source)
        for source, targets in self.epsilons.items():
            for target in targets:
                mirror.add_epsilon(target, source)
        mirror.start = self.accept
        mirror.accept = self.start
        self._reversed = mirror
        return mirror


#: Memoized exact-label tests: one closure per distinct label string,
#: shared by every compiled NFA (they were rebuilt per compile before).
_ANY_LABEL_TEST: LabelTest = lambda label: True
_LABEL_IS_TESTS: Dict[str, LabelTest] = {}


def _label_is_test(wanted: str) -> LabelTest:
    test = _LABEL_IS_TESTS.get(wanted)
    if test is None:
        test = _LABEL_IS_TESTS[wanted] = lambda label: label == wanted
        if len(_LABEL_IS_TESTS) > 65536:  # unbounded-growth backstop
            _LABEL_IS_TESTS.clear()
            _LABEL_IS_TESTS[wanted] = test
    return test


def _leaf_test(expr: PathExpr) -> LabelTest:
    if isinstance(expr, LabelIs):
        return _label_is_test(expr.label)
    if isinstance(expr, AnyLabel):
        return _ANY_LABEL_TEST
    if isinstance(expr, LabelPredicate):
        name = expr.name

        def test(label: str) -> bool:
            fn = builtins.label_predicate(name)
            if fn is None:
                raise StruqlEvaluationError(
                    f"unknown label predicate {name!r} in path expression"
                )
            return fn(label)

        return test
    raise StruqlEvaluationError(f"not a leaf path expression: {expr!r}")


def compile_path(expr: PathExpr) -> NFA:
    """Thompson-construct an NFA for a regular path expression."""
    nfa = NFA()

    def build(node: PathExpr) -> Tuple[int, int]:
        if isinstance(node, Concat):
            first_start, previous_end = build(node.parts[0])
            for part in node.parts[1:]:
                part_start, part_end = build(part)
                nfa.add_epsilon(previous_end, part_start)
                previous_end = part_end
            return first_start, previous_end
        if isinstance(node, Alternation):
            start, end = nfa.new_state(), nfa.new_state()
            for option in node.options:
                option_start, option_end = build(option)
                nfa.add_epsilon(start, option_start)
                nfa.add_epsilon(option_end, end)
            return start, end
        if isinstance(node, Star):
            start, end = nfa.new_state(), nfa.new_state()
            inner_start, inner_end = build(node.inner)
            nfa.add_epsilon(start, inner_start)
            nfa.add_epsilon(inner_end, inner_start)
            nfa.add_epsilon(start, end)
            nfa.add_epsilon(inner_end, end)
            return start, end
        start, end = nfa.new_state(), nfa.new_state()
        nfa.add_transition(start, _leaf_test(node), end)
        return start, end

    nfa.start, nfa.accept = build(expr)
    return nfa


def targets_from_many(
    graph: Graph, nfa: NFA, sources: Sequence[Oid]
) -> Tuple[Dict[Oid, Tuple[Target, ...]], int]:
    """Every object reachable from each source along a matching path:
    one BFS over the product automaton seeded with every distinct
    source at once.  Results hold nodes and atoms, and a source itself
    when the empty path matches.

    Product states are tagged with their origin, so per-origin results
    (and their discovery order) are exactly what a single-source
    search yields -- but the ``(state set, label) -> next states``
    computation, the dominant per-edge cost, is memoized once for the
    whole batch instead of once per source.  Returns the per-source
    results and the number of edges the search examined.
    """
    results: Dict[Oid, Dict[Target, None]] = {}
    start_states = nfa.initial
    accept = nfa.accept
    starts_accepting = accept in start_states
    step_memo: Dict[Tuple[FrozenSet[int], str], FrozenSet[int]] = {}
    visited: Set[Tuple[Oid, Target, FrozenSet[int]]] = set()
    queue: deque = deque()
    for source in sources:
        if source in results:
            continue
        found: Dict[Target, None] = {}
        results[source] = found
        if not graph.has_node(source):
            continue
        visited.add((source, source, start_states))
        queue.append((source, source, start_states))
        if starts_accepting:
            found[source] = None
    step = nfa.step
    deadline = current_deadline()
    examined = 0
    while queue:
        if deadline is not None:
            deadline.tick("paths.targets_from_many")
        origin, obj, states = queue.popleft()
        if not isinstance(obj, Oid):
            continue
        for label, target in graph.out_edges(obj):
            examined += 1
            step_key = (states, label)
            next_states = step_memo.get(step_key)
            if next_states is None:
                next_states = step(states, label)
                step_memo[step_key] = next_states
            if not next_states:
                continue
            key = (origin, target, next_states)
            if key in visited:
                continue
            visited.add(key)
            found = results[origin]
            if accept in next_states and target not in found:
                found[target] = None
            queue.append((origin, target, next_states))
    return {source: tuple(found) for source, found in results.items()}, examined


def sources_to_many(
    graph: Graph, reversed_nfa: NFA, targets: Iterable[Target]
) -> Tuple[Dict[Target, Tuple[Oid, ...]], int]:
    """Every source node with a matching path to each target:
    ``reversed_nfa`` (:meth:`NFA.reversed`) runs over the reverse
    adjacency index in one BFS seeded with every distinct target at once, origin-tagged like :func:`targets_from_many`
    and, like it, returning the number of edges examined too."""
    results: Dict[Target, Dict[Oid, None]] = {}
    start_states = reversed_nfa.initial
    accept = reversed_nfa.accept
    starts_accepting = accept in start_states
    step_memo: Dict[Tuple[FrozenSet[int], str], FrozenSet[int]] = {}
    visited: Set[Tuple[Target, Target, FrozenSet[int]]] = set()
    queue: deque = deque()
    for target in targets:
        if target in results:
            continue
        found: Dict[Oid, None] = {}
        results[target] = found
        visited.add((target, target, start_states))
        queue.append((target, target, start_states))
        if starts_accepting and isinstance(target, Oid):
            found[target] = None
    step = reversed_nfa.step
    deadline = current_deadline()
    examined = 0
    while queue:
        if deadline is not None:
            deadline.tick("paths.sources_to_many")
        origin, obj, states = queue.popleft()
        for source, label in graph.in_edges(obj):
            examined += 1
            step_key = (states, label)
            next_states = step_memo.get(step_key)
            if next_states is None:
                next_states = step(states, label)
                step_memo[step_key] = next_states
            if not next_states:
                continue
            key = (origin, source, next_states)
            if key in visited:
                continue
            visited.add(key)
            found = results[origin]
            if accept in next_states and source not in found:
                found[source] = None
            queue.append((origin, source, next_states))
    return {target: tuple(found) for target, found in results.items()}, examined
