"""Integrity constraints on Strudel-generated sites.

"We often want to enforce constraints that refer to the site graph, e.g.
'All paper presentation pages are reachable from a category page' ...
Integrity constraints are logical sentences built from expressions of the
form C(X) and X -> R -> Y using logical connectives and quantifiers"
(paper section 2.5).  The example constraint is written here as::

    forall X (PaperPresentation(X) => exists Y (CategoryPage(Y) and Y -> * -> X))

Two checkers are provided:

* :func:`check` -- exact model checking on a *materialized* site graph:
  quantifiers range over the graph's nodes, ``C(X)`` means membership
  in collection C or, when no such collection exists, "X was created by
  Skolem function C", and ``X -> R -> Y`` is a STRUQL path condition.
  The formula compiles to one STRUQL where-clause whose rows are its
  counterexamples, and the query engine evaluates it like any other
  (block operators, the batched path search).  Returns a
  :class:`CheckResult` whose witness comes from the first counterexample.

* :func:`verify_static` -- conservative verification on the *site
  schema*, before any site is generated.  The paper's complete
  entailment algorithm is in a companion paper [14]; here we implement a
  sound approximation: ``VERIFIED`` answers are guaranteed correct
  (theorems about every site any data graph can produce), anything the
  analysis cannot prove is ``UNKNOWN``.  Experiment E7 measures the
  agreement and speed against the model checker.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..errors import ConstraintError, ConstraintViolation
from ..graph import Graph, Oid
from ..repository.indexes import graph_statistics
from ..struql.ast import CollectionCond, Condition, NotCond, PathCond, PathExpr, Var
from ..struql.eval import QueryEngine
from ..struql.lexer import Token, tokenize
from ..struql.paths import _ANY_LABEL_TEST, compile_path
from ..struql.plancache import PlanCache
from .schema import NS, SchemaEdge, SiteSchema

# ---------------------------------------------------------------------- #
# formula AST


class Formula:
    """Base class of constraint formulas."""


@dataclass(frozen=True)
class ClassAtom(Formula):
    """``C(X)`` -- X belongs to class C (collection or Skolem function)."""

    name: str
    var: str

    def __str__(self) -> str:
        return f"{self.name}({self.var})"


@dataclass(frozen=True)
class PathAtom(Formula):
    """``X -> R -> Y`` -- a path matching R from X to Y."""

    source: str
    path: PathExpr
    target: str

    def __str__(self) -> str:
        return f"{self.source} -> {self.path} -> {self.target}"


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula

    def __str__(self) -> str:
        return f"not ({self.inner})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} => {self.right})"


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula

    def __str__(self) -> str:
        return f"forall {self.var} ({self.body})"


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def __str__(self) -> str:
        return f"exists {self.var} ({self.body})"


# ---------------------------------------------------------------------- #
# parser (reuses the STRUQL lexer)


def parse_constraint(text: str) -> Formula:
    """Parse a constraint formula.

    Grammar::

        formula  ::= quantified | implied
        quantified ::= ("forall" | "exists") IDENT "(" formula ")"
        implied  ::= disjunct [ ("=>" | "implies") formula ]
        disjunct ::= conjunct ("or" conjunct)*
        conjunct ::= unit ("and" unit)*
        unit     ::= "not" unit | "(" formula ")" | quantified | atom
        atom     ::= IDENT "(" IDENT ")" | IDENT "->" path "->" IDENT
    """
    parser = _ConstraintParser(text)
    formula = parser.parse_formula()
    parser.expect_end()
    return formula


class _ConstraintParser:
    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._index = 0

    def _peek(self, ahead: int = 0) -> Optional[Token]:
        index = self._index + ahead
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ConstraintError(
                "unexpected end of constraint", *self._last_position()
            )
        self._index += 1
        return token

    def _last_position(self) -> tuple:
        last = self._tokens[-1] if self._tokens else None
        return (last.line, last.column) if last else (0, 0)

    def _match_ident(self, word: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "ident" and token.text == word:
            self._index += 1
            return True
        return False

    def _match_implies(self) -> bool:
        if self._match_ident("implies"):
            return True
        first, second = self._peek(), self._peek(1)
        if (
            first is not None
            and second is not None
            and first.kind == "op"
            and first.text == "="
            and second.kind == "op"
            and second.text == ">"
        ):
            self._index += 2
            return True
        return False

    def _expect(self, kind: str, text: str = "") -> Token:
        token = self._next()
        if token.kind != kind or (text and token.text != text):
            raise ConstraintError(
                f"expected {text or kind!r}, got {token.text!r}",
                line=token.line,
                column=token.column,
            )
        return token

    def expect_end(self) -> None:
        token = self._peek()
        if token is not None:
            raise ConstraintError(
                f"trailing input: {token.text!r}",
                line=token.line,
                column=token.column,
            )

    # ------------------------------------------------------------ #

    def parse_formula(self) -> Formula:
        left = self._parse_disjunct()
        if self._match_implies():
            return Implies(left, self.parse_formula())
        return left

    def _parse_disjunct(self) -> Formula:
        left = self._parse_conjunct()
        while self._match_ident("or"):
            left = Or(left, self._parse_conjunct())
        return left

    def _parse_conjunct(self) -> Formula:
        left = self._parse_unit()
        while self._match_ident("and"):
            left = And(left, self._parse_unit())
        return left

    def _parse_unit(self) -> Formula:
        token = self._peek()
        if token is None:
            raise ConstraintError(
                "unexpected end of constraint", *self._last_position()
            )
        if token.kind == "ident" and token.text in ("forall", "exists"):
            self._next()
            var = self._expect("ident").text
            self._expect("punct", "(")
            body = self.parse_formula()
            self._expect("punct", ")")
            return ForAll(var, body) if token.text == "forall" else Exists(var, body)
        if token.kind == "ident" and token.text == "not":
            self._next()
            return Not(self._parse_unit())
        if token.kind == "punct" and token.text == "(":
            self._next()
            inner = self.parse_formula()
            self._expect("punct", ")")
            return inner
        return self._parse_atom()

    def _parse_atom(self) -> Formula:
        name = self._expect("ident").text
        token = self._peek()
        if token is not None and token.kind == "punct" and token.text == "(":
            self._next()
            var = self._expect("ident").text
            self._expect("punct", ")")
            return ClassAtom(name, var)
        self._expect("arrow")
        path = self._parse_path()
        self._expect("arrow")
        target = self._expect("ident").text
        return PathAtom(name, path, target)

    def _parse_path(self) -> PathExpr:
        # Reuse STRUQL's path grammar through a tiny re-parse of the
        # tokens between the arrows.
        from ..struql.parser import _Parser  # local import to avoid cycle

        depth = 0
        collected: List[Token] = []
        while True:
            token = self._peek()
            if token is None:
                raise ConstraintError(
                    "unterminated path in constraint", *self._last_position()
                )
            if token.kind == "arrow" and depth == 0:
                break
            if token.kind == "punct" and token.text == "(":
                depth += 1
            if token.kind == "punct" and token.text == ")":
                if depth == 0:
                    break
                depth -= 1
            collected.append(self._next())
        text = " ".join(
            f'"{t.text}"' if t.kind == "string" else t.text for t in collected
        )
        sub = _Parser(text)
        path = sub._parse_path_expression()
        if sub._peek() is not None:
            first = collected[0] if collected else None
            raise ConstraintError(
                f"bad path expression: {text!r}",
                line=first.line if first else 0,
                column=first.column if first else 0,
            )
        return path


# ---------------------------------------------------------------------- #
# exact model checking: counterexample queries on the STRUQL engine


@dataclass
class CheckResult:
    """Outcome of model checking a constraint on a site graph."""

    holds: bool
    witness: Optional[Dict[str, Oid]] = None  # counterexample for failures

    def __bool__(self) -> bool:
        return self.holds


def check(formula: Union[Formula, str], graph: Graph) -> CheckResult:
    """Exact check of a constraint against a materialized site graph.

    The formula compiles to one where-clause whose rows are its
    counterexamples (:class:`_Counterexamples`); the query engine runs
    it over a :class:`_ClassView` of the graph.  The witness is the first
    row's binding of the formula's ``∀`` variables
    (:meth:`_Counterexamples.witness`).  A conjunction is checked one
    side at a time, so a failing side's ``∀`` variables bind.
    """
    if isinstance(formula, str):
        formula = parse_constraint(formula)
    if isinstance(formula, And):
        left = check(formula.left, graph)
        return check(formula.right, graph) if left.holds else left
    query = _Counterexamples(formula)
    view = _ClassView(graph, query.classes)
    engine = QueryEngine(view, stats=view.stats, plan_cache=PlanCache())
    rows = engine.bindings(query.conditions)
    return CheckResult(holds=not rows, witness=query.witness(rows[0]) if rows else None)


def enforce(
    constraints: Sequence[Union[Formula, str]], graph: Graph
) -> None:
    """Raise :class:`ConstraintViolation` on the first failing constraint."""
    for constraint in constraints:
        result = check(constraint, graph)
        if not result.holds:
            raise ConstraintViolation(constraint, result.witness)


#: the view's collection of every node, the range of a quantifier (no
#: class atom can name it: it is not an identifier)
_NODES = "(nodes)"
#: the formulas that hold as a conjunction of conditions; ∨, ⇒ and ∀
#: fail as one
_CONJUNCTIONS = (ClassAtom, PathAtom, And, Exists)


class _Counterexamples:
    """A formula compiled into the where-clause of its counterexamples.

    ``∀X φ`` fails on the rows of ``(nodes)(X), ¬φ``; ``∧`` is a
    conjunction of conditions and ``¬`` flips the wanted truth value;
    ``∨`` and ``⇒`` fail as conjunctions and hold through a
    :class:`NotCond` of that.  Every quantified name is renamed apart,
    and an unquantified path endpoint becomes a fresh variable local to
    its atom, so the engine's negation-as-failure scoping gives the
    formula's.
    """

    def __init__(self, formula: Formula) -> None:
        self._fresh = itertools.count()
        #: (renamed variable, name) of every ∀, outermost first
        self._foralls: List[Tuple[str, str]] = []
        #: the renamed variables some atom reads
        self._read: Set[str] = set()
        #: the class names the formula's class atoms use
        self.classes: Set[str] = set()
        self.conditions = self._compile(formula, {}, False)

    def witness(self, row: Dict[str, object]) -> Dict[str, Oid]:
        """The ``∀`` variables a counterexample row binds, by name.  Of
        two with one name, the outer one an atom reads wins, and one no
        atom reads only stands in for none: the inner ``X`` of
        ``∀X ∀X φ``, the outer ``X`` of ``∀X (A(X) ⇒ ∀X φ)``."""
        witness: Dict[str, Oid] = {}
        read_first = sorted(self._foralls, key=lambda forall: forall[0] not in self._read)
        for var, name in read_first:
            if var in row:
                witness.setdefault(name, row[var])
        return witness

    def _compile(
        self, formula: Formula, scope: Dict[str, Var], holds: bool
    ) -> List[Condition]:
        """Conditions whose rows extend a binding of ``scope`` exactly
        when ``formula`` has truth value ``holds`` under it."""
        if isinstance(formula, Not):
            return self._compile(formula.inner, scope, not holds)
        if isinstance(formula, _CONJUNCTIONS) is not holds:
            return [NotCond(tuple(self._compile(formula, scope, not holds)))]
        if isinstance(formula, (ForAll, Exists)):
            var = Var(f"{formula.var}#{next(self._fresh)}")
            if isinstance(formula, ForAll):
                self._foralls.append((var.name, formula.var))
            body = self._compile(formula.body, {**scope, formula.var: var}, holds)
            return [CollectionCond(_NODES, var), *body]
        if isinstance(formula, (And, Or, Implies)):
            # ∧ holds, ∨ fails, ⇒ fails: both sides, the left of ⇒ holding
            left_holds = holds != isinstance(formula, Implies)
            left = self._compile(formula.left, scope, left_holds)
            return left + self._compile(formula.right, scope, holds)
        atom = isinstance(formula, ClassAtom)
        ends = [formula.var] if atom else [formula.source, formula.target]
        if not any(end in scope for end in ends):
            raise ConstraintError(f"{formula} has no quantified variable")
        self._read.update(scope[end].name for end in ends if end in scope)
        if atom:
            self.classes.add(formula.name)
            return [CollectionCond(formula.name, scope[formula.var])]
        source, target = (scope.get(end) or Var(f"{end}#{next(self._fresh)}") for end in ends)
        return [PathCond(source, formula.path, target)]


class _ClassView:
    """A read-only view of a site graph in which each class a
    counterexample query names is a collection.

    A class is the graph's collection of that name when one exists;
    otherwise it is the nodes whose name starts with ``C(`` -- the
    instances of Skolem function ``C`` -- in node order.  Names, not the
    Skolem registry, decide, so a site graph reloaded from DDL keeps its
    verdicts.  :data:`_NODES` holds every node.  Each class is built once
    per check; ``stats`` is the graph's statistics snapshot with these
    sizes as its collection sizes.  Everything else reads through.
    """

    def __init__(self, graph: Graph, classes: Iterable[str]) -> None:
        self._graph = graph
        nodes = list(graph.nodes())
        self._members: Dict[str, List[Oid]] = {
            name: nodes if name == _NODES
            else graph.collection(name) if graph.has_collection(name)
            else [oid for oid in nodes if oid.name.startswith(name + "(")]
            for name in (*classes, _NODES)
        }
        self._sets = {name: set(members) for name, members in self._members.items()}
        self.stats = replace(
            graph_statistics(graph),
            collection_cardinality={n: len(m) for n, m in self._members.items()},
        )

    def collection(self, name: str) -> List[Oid]:
        return self._members[name]

    def in_collection(self, name: str, oid: Oid) -> bool:
        return oid in self._sets[name]

    def __getattr__(self, name: str):
        return getattr(self._graph, name)


# ---------------------------------------------------------------------- #
# conservative static verification on the site schema


class Verdict(enum.Enum):
    """Outcome of static verification.  VERIFIED is sound: the constraint
    holds on every site the query can generate.  UNKNOWN means the
    conservative analysis could not prove it (the site may still satisfy
    it -- run :func:`check` on the materialized graph)."""

    VERIFIED = "verified"
    UNKNOWN = "unknown"


def verify_static(formula: Union[Formula, str], schema: SiteSchema) -> Verdict:
    """Conservatively verify a constraint against a site schema.

    Handled pattern (the paper's leading example)::

        forall X (A(X) => exists Y (B(Y) and Y -R-> X))
        forall X (A(X) => exists Y (B(Y) and X -R-> Y))

    The proof obligation: for every creation site of every A-function
    there must be a schema path from some B-function to it (respectively
    from it to some B-function) whose labels can match R, whose guard
    conjunctions are implied by A's creation conjunction (we require the
    guard block-set to be a subset -- sound, not complete), and whose
    Skolem arguments chain compatibly so that the path connects *this*
    A-instance rather than some other.  Everything else returns UNKNOWN.
    """
    if isinstance(formula, str):
        formula = parse_constraint(formula)
    pattern = _match_reachability_pattern(formula)
    if pattern is None:
        return Verdict.UNKNOWN
    class_a, class_b, path, from_b = pattern
    a_functions = schema.functions_of_class(class_a)
    b_functions = schema.functions_of_class(class_b)
    if not a_functions or not b_functions:
        return Verdict.UNKNOWN
    for a_function in a_functions:
        creations = schema.creations_of(a_function)
        if not creations:
            return Verdict.UNKNOWN
        for creation in creations:
            if not _provable_for_creation(
                schema, creation, b_functions, path, from_b
            ):
                return Verdict.UNKNOWN
    return Verdict.VERIFIED


def _match_reachability_pattern(formula: Formula):
    """Destructure forall X (A(X) => exists Y (B(Y) and path)) or the
    variant without the existential when the path endpoint is the
    universal variable itself."""
    if not isinstance(formula, ForAll):
        return None
    body = formula.body
    if not isinstance(body, Implies) or not isinstance(body.left, ClassAtom):
        return None
    if body.left.var != formula.var:
        return None
    class_a = body.left.name
    right = body.right
    if not isinstance(right, Exists):
        return None
    exists_var = right.var
    inner = right.body
    if not isinstance(inner, And):
        return None
    class_atom, path_atom = inner.left, inner.right
    if isinstance(path_atom, ClassAtom) and isinstance(class_atom, PathAtom):
        class_atom, path_atom = path_atom, class_atom
    if not isinstance(class_atom, ClassAtom) or not isinstance(path_atom, PathAtom):
        return None
    if class_atom.var != exists_var:
        return None
    class_b = class_atom.name
    if path_atom.source == exists_var and path_atom.target == formula.var:
        return class_a, class_b, path_atom.path, True
    if path_atom.source == formula.var and path_atom.target == exists_var:
        return class_a, class_b, path_atom.path, False
    return None


def _provable_for_creation(
    schema: SiteSchema,
    creation,
    b_functions: List[str],
    path: PathExpr,
    from_b: bool,
) -> bool:
    """Search the schema graph for a guard-compatible, argument-chained
    path between the creation's function and some B-function matching
    the regular path expression."""
    nfa = compile_path(path)
    # Walk the schema product with the NFA.  State: (function, nfa states,
    # current argument tuple).  Arguments must chain: each traversed edge's
    # endpoint args must equal the args we arrived with.
    target_function = creation.function
    guard = frozenset(creation.query_names)
    start_functions = b_functions if from_b else [creation.function]
    goal_functions = {creation.function} if from_b else set(b_functions)

    initial = nfa.initial
    frontier: List[Tuple[str, frozenset, Tuple[str, ...]]] = []
    seen = set()
    for function in start_functions:
        if from_b:
            for b_creation in schema.creations_of(function):
                state = (function, initial, b_creation.args)
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
        else:
            state = (function, initial, creation.args)
            if state not in seen:
                seen.add(state)
                frontier.append(state)

    def accepts(function: str, states: frozenset, args: Tuple[str, ...]) -> bool:
        if function not in goal_functions or not nfa.accepts_in(states):
            return False
        if from_b and function == target_function:
            return args == creation.args
        return True

    for function, states, args in frontier:
        if accepts(function, states, args):
            return True
    while frontier:
        function, states, args = frontier.pop()
        for edge in schema.edges_from(function):
            if edge.target == NS:
                continue
            if not frozenset(edge.query_names) <= guard:
                continue  # the edge may not exist for every A-instance
            if edge.source_args != args:
                continue  # would connect a different instance
            label = "any" if edge.label_is_variable else edge.label
            if edge.label_is_variable:
                # an arc variable can be any label; step the NFA with a
                # wildcard by trying AnyLabel semantics: succeed on any
                # transition whose test accepts *some* label; we
                # conservatively require the test to accept everything,
                # i.e. only AnyLabel-derived transitions.
                next_states = _step_wildcard(nfa, states)
            else:
                next_states = nfa.step(states, label)
            if not next_states:
                continue
            state = (edge.target, next_states, edge.target_args)
            if state in seen:
                continue
            seen.add(state)
            if accepts(edge.target, next_states, edge.target_args):
                return True
            frontier.append(state)
    return False


def _step_wildcard(nfa, states: frozenset) -> frozenset:
    """Step the NFA over an edge whose label is data-dependent.

    Sound direction: the step may only use transitions that accept *every*
    label, i.e. those compiled from ``true`` (AnyLabel).  A transition
    testing a specific label or a label predicate might not match the
    run-time label, so it cannot be relied upon.
    """
    out = set()
    for state in states:
        for test, nxt in nfa.transitions.get(state, ()):
            if test is _ANY_LABEL_TEST:
                out.add(nxt)
    return nfa.closure(frozenset(out))
