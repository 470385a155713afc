"""Unit tests for integrity constraints (repro.core.constraints)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_constraints
from repro.core import (
    And,
    ClassAtom,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    PathAtom,
    SiteBuilder,
    SiteDefinition,
    SiteSchema,
    Verdict,
    check,
    enforce,
    parse_constraint,
    verify_static,
)
from repro.errors import ConstraintError, ConstraintViolation
from repro.graph import Graph, Oid, string
from repro.repository import ddl
from repro.struql import (
    Alternation,
    AnyLabel,
    Concat,
    LabelIs,
    Metrics,
    Star,
    clear_plan_cache,
    evaluate,
    parse,
    register_label_predicate,
)
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates

from .reference_constraints import ReferenceChecker, reference_check


class TestParser:
    def test_forall_implies_exists(self):
        formula = parse_constraint(
            'forall X (A(X) => exists Y (B(Y) and Y -> "p" -> X))'
        )
        assert isinstance(formula, ForAll)
        assert isinstance(formula.body, Implies)
        assert isinstance(formula.body.right, Exists)

    def test_implies_keyword(self):
        formula = parse_constraint("forall X (A(X) implies B(X))")
        assert isinstance(formula.body, Implies)

    def test_star_path(self):
        formula = parse_constraint("forall X (A(X) => exists Y (B(Y) and Y -> * -> X))")
        atom = formula.body.right.body.right
        assert isinstance(atom, PathAtom)

    def test_and_or_not(self):
        formula = parse_constraint("forall X (not A(X) or (B(X) and C(X)))")
        assert isinstance(formula.body, Or)
        assert isinstance(formula.body.left, Not)
        assert isinstance(formula.body.right, And)

    def test_complex_path(self):
        formula = parse_constraint('forall X (A(X) => X -> "a"."b"* -> X)')
        assert isinstance(formula.body.right, PathAtom)

    def test_trailing_garbage(self):
        with pytest.raises(ConstraintError):
            parse_constraint("forall X (A(X)) banana")

    def test_unterminated(self):
        with pytest.raises(ConstraintError):
            parse_constraint("forall X (A(X)")

    def test_str_round_trip(self):
        text = 'forall X (A(X) => exists Y (B(Y) and Y -> "p" -> X))'
        formula = parse_constraint(text)
        assert parse_constraint(str(formula)) is not None


@pytest.fixture
def tiny_site():
    graph = Graph()
    root = graph.add_node(Oid("Root()"))
    good = graph.add_node(Oid("Page(1)"))
    orphan = graph.add_node(Oid("Page(2)"))
    graph.add_edge(root, "child", good)
    graph.add_to_collection("Roots", root)
    graph.add_to_collection("Pages", good)
    graph.add_to_collection("Pages", orphan)
    return graph


class TestModelChecking:
    def test_satisfied(self, tiny_site):
        result = check(
            'forall X (Roots(X) => X -> "child" -> X) '
            .replace('X -> "child" -> X', 'exists Y (Pages(Y) and X -> "child" -> Y)'),
            tiny_site,
        )
        assert result.holds

    def test_violated_with_witness(self, tiny_site):
        result = check(
            "forall X (Pages(X) => exists Y (Roots(Y) and Y -> * -> X))",
            tiny_site,
        )
        assert not result.holds
        assert result.witness["X"] == Oid("Page(2)")

    def test_skolem_function_as_class(self, tiny_site):
        # no "Page" collection: falls back to Skolem-term prefix matching
        result = check(
            "forall X (Page(X) => exists Y (Root(Y) and Y -> * -> X))", tiny_site
        )
        assert not result.holds

    def test_negation(self, tiny_site):
        assert check("forall X (not Nothing(X))", tiny_site).holds

    def test_exists(self, tiny_site):
        assert check("exists X (Roots(X))", tiny_site).holds
        assert not check("exists X (Nothing(X))", tiny_site).holds

    def test_path_atom_source_only(self, tiny_site):
        assert check('forall X (Roots(X) => X -> "child" -> Y)', tiny_site).holds

    def test_unbound_class_var_raises(self, tiny_site):
        with pytest.raises(ConstraintError):
            check("forall X (A(Y))", tiny_site)

    def test_enforce_passes(self, tiny_site):
        enforce(["exists X (Roots(X))"], tiny_site)

    def test_enforce_raises_with_witness(self, tiny_site):
        with pytest.raises(ConstraintViolation):
            enforce(
                ["forall X (Pages(X) => exists Y (Roots(Y) and Y -> * -> X))"],
                tiny_site,
            )


@pytest.fixture
def homepage():
    data = bibliography_graph(15, seed=4)
    program = parse(HOMEPAGE_QUERY)
    return SiteSchema.from_program(program), evaluate(program, data)


class TestStaticVerification:
    def test_provable_constraint_verified(self, homepage):
        schema, site = homepage
        constraint = (
            'forall X (AbstractPage(X) => '
            'exists Y (AbstractsPage(Y) and Y -> "Abstract" -> X))'
        )
        assert verify_static(constraint, schema) is Verdict.VERIFIED
        assert check(constraint, site).holds  # soundness witnessed

    def test_same_block_guard_verified(self, homepage):
        schema, site = homepage
        constraint = (
            'forall X (YearPage(X) => '
            'exists Y (RootPage(Y) and Y -> "YearPage" -> X))'
        )
        assert verify_static(constraint, schema) is Verdict.VERIFIED
        assert check(constraint, site).holds

    def test_actually_false_constraint_not_verified(self, homepage):
        schema, site = homepage
        # not every publication has a category, so this can fail
        constraint = (
            "forall X (PaperPresentation(X) => "
            "exists Y (CategoryPage(Y) and Y -> * -> X))"
        )
        assert verify_static(constraint, schema) is Verdict.UNKNOWN

    def test_star_path_verified_through_chain(self, homepage):
        schema, site = homepage
        # RootPage -*-> AbstractPage via AbstractsPage, all guarded by Q2 max
        constraint = (
            "forall X (AbstractPage(X) => exists Y (RootPage(Y) and Y -> * -> X))"
        )
        assert verify_static(constraint, schema) is Verdict.VERIFIED
        assert check(constraint, site).holds

    def test_unsupported_shape_is_unknown(self, homepage):
        schema, _ = homepage
        assert verify_static("exists X (RootPage(X))", schema) is Verdict.UNKNOWN

    def test_unknown_class_is_unknown(self, homepage):
        schema, _ = homepage
        constraint = "forall X (Widget(X) => exists Y (RootPage(Y) and Y -> * -> X))"
        assert verify_static(constraint, schema) is Verdict.UNKNOWN

    def test_forward_direction_verified(self, homepage):
        """The X -R-> Y variant: every presentation links to its abstract
        page (same-block edge, so the guard inclusion holds)."""
        schema, site = homepage
        constraint = (
            "forall X (PaperPresentation(X) => "
            'exists Y (AbstractPage(Y) and X -> "abstractPage" -> Y))'
        )
        assert verify_static(constraint, schema) is Verdict.VERIFIED
        assert check(constraint, site).holds

    def test_schema_connectedness_helper(self, homepage):
        schema, _ = homepage
        assert schema.is_connected("RootPage")
        assert not schema.is_connected("YearPage")  # root not reachable back

    def test_soundness_sweep(self, homepage):
        """Anything the static verifier proves must hold on the instance."""
        schema, site = homepage
        candidates = [
            'forall X (YearPage(X) => exists Y (RootPage(Y) and Y -> "YearPage" -> X))',
            'forall X (CategoryPage(X) => exists Y (RootPage(Y) and Y -> "CategoryPage" -> X))',
            'forall X (AbstractPage(X) => exists Y (AbstractsPage(Y) and Y -> "Abstract" -> X))',
            "forall X (AbstractPage(X) => exists Y (RootPage(Y) and Y -> * -> X))",
            "forall X (PaperPresentation(X) => exists Y (CategoryPage(Y) and Y -> * -> X))",
            'forall X (YearPage(X) => exists Y (CategoryPage(Y) and Y -> "Paper" -> X))',
        ]
        for constraint in candidates:
            if verify_static(constraint, schema) is Verdict.VERIFIED:
                assert check(constraint, site).holds, constraint


class TestArcVariableSoundness:
    """An arc-variable schema edge can carry any label, so only a ``true``
    step may cross it: a label predicate rejects some labels."""

    QUERY = (
        "where Pubs(x), x -> l -> v "
        "create A(x), B() link B() -> l -> A(x)"
    )
    NOT_YEAR = "forall X (A(X) => exists Y (B(Y) and Y -> notYear -> X))"
    ANY = "forall X (A(X) => exists Y (B(Y) and Y -> true -> X))"

    @pytest.fixture
    def not_year(self):
        unregister = register_label_predicate("notYear", lambda l: l != "year")
        yield
        unregister()

    def _year_only_site(self):
        data = Graph()
        pub = data.add_node(Oid("pub"))
        data.add_to_collection("Pubs", pub)
        data.add_edge(pub, "year", string("1998"))
        program = parse(self.QUERY)
        return SiteSchema.from_program(program), evaluate(program, data)

    def test_label_predicate_over_arc_variable_is_unknown(self, not_year):
        schema, site = self._year_only_site()
        assert not check(self.NOT_YEAR, site).holds
        assert verify_static(self.NOT_YEAR, schema) is Verdict.UNKNOWN

    def test_analyzer_leaves_label_predicate_to_model_checking(self, not_year):
        schema, _ = self._year_only_site()
        (diag,) = check_constraints([self.NOT_YEAR], schema)
        assert diag.code == "CON003"  # CON002 would claim it verified

    def test_true_over_arc_variable_still_verified(self):
        schema, site = self._year_only_site()
        assert verify_static(self.ANY, schema) is Verdict.VERIFIED
        assert check(self.ANY, site).holds


# ---------------------------------------------------------------------- #
# the engine's counterexample queries against the reference checker

E7_CONSTRAINTS = [
    'forall X (YearPage(X) => exists Y (RootPage(Y) and Y -> "YearPage" -> X))',
    'forall X (CategoryPage(X) => exists Y (RootPage(Y) and Y -> "CategoryPage" -> X))',
    'forall X (AbstractPage(X) => exists Y (AbstractsPage(Y) and Y -> "Abstract" -> X))',
    "forall X (AbstractPage(X) => exists Y (RootPage(Y) and Y -> * -> X))",
    "forall X (PaperPresentation(X) => exists Y (RootPage(Y) and Y -> * -> X))",
    "forall X (PaperPresentation(X) => exists Y (CategoryPage(Y) and Y -> * -> X))",
    'forall X (PaperPresentation(X) => exists Y (YearPage(Y) and Y -> "Paper" -> X))',
]


@pytest.fixture
def a_b_site():
    """A(n1): n1 -a-> n2, n1 -b-> n3, n1 -c-> "atom"."""
    graph = Graph()
    n1, n2, n3 = (graph.add_node(Oid(f"n{i}")) for i in (1, 2, 3))
    graph.add_edge(n1, "a", n2)
    graph.add_edge(n1, "b", n3)
    graph.add_edge(n1, "c", string("atom"))
    graph.add_to_collection("A", n1)
    return graph


class TestAgainstReference:
    def test_ddl_reload_keeps_verdicts_and_witnesses(self):
        """Classes are decided by node names, not by the Skolem registry
        a DDL-loaded site graph lacks."""
        site = evaluate(
            parse(HOMEPAGE_QUERY), bibliography_graph(30, seed=42, category_rate=0.5)
        )
        reloaded = ddl.loads(ddl.dumps(site))
        assert not list(reloaded.skolems.terms())
        outcomes = []
        for constraint in E7_CONSTRAINTS:
            built, loaded = check(constraint, site), check(constraint, reloaded)
            expected = reference_check(constraint, site)
            assert built == loaded == expected, constraint
            outcomes.append(built.holds)
        assert outcomes.count(False) == 1

    @pytest.mark.parametrize("checker", [check, reference_check])
    def test_class_atom_on_unquantified_variable_raises(self, checker, a_b_site):
        with pytest.raises(ConstraintError):
            checker("forall X (A(X) => B(Y))", a_b_site)

    @pytest.mark.parametrize("checker", [check, reference_check])
    def test_path_atom_without_quantified_endpoint_raises(self, checker, a_b_site):
        with pytest.raises(ConstraintError):
            checker('forall X (A(X) => Y -> "a" -> Z)', a_b_site)

    def test_unquantified_path_variable_is_local_to_its_atom(self, a_b_site):
        # one shared Y would need an a-edge and a b-edge to the same node
        constraint = 'forall X (A(X) => X -> "a" -> Y and X -> "b" -> Y)'
        assert check(constraint, a_b_site).holds
        assert reference_check(constraint, a_b_site).holds

    def test_quantifiers_range_over_nodes_not_atoms(self, a_b_site):
        free = 'forall X (A(X) => X -> "c" -> Y)'
        quantified = 'forall X (A(X) => exists Y (X -> "c" -> Y))'
        for constraint, holds in ((free, True), (quantified, False)):
            assert check(constraint, a_b_site).holds is holds
            assert reference_check(constraint, a_b_site).holds is holds
        assert check(quantified, a_b_site).witness == {"X": Oid("n1")}

    def test_witness_binds_the_forall_prefix(self, a_b_site):
        """The body fails under the prefix's inner binding of a shadowed
        name (the reference keeps the outer one, under which it holds);
        a nested quantifier is not part of the prefix."""
        result = check('forall X (forall X (X -> "c" -> Y))', a_b_site)
        assert not result.holds
        assert result.witness == {"X": Oid("n2")}
        nested = 'forall X (A(X) => forall X (X -> "c" -> Y))'
        assert check(nested, a_b_site) == reference_check(nested, a_b_site)
        assert check(nested, a_b_site).witness == {"X": Oid("n1")}

    @pytest.mark.parametrize(
        "constraint, witness",
        [
            ('forall X (A(X) => forall Y (X -> "b" -> Y))', {"X": "n1", "Y": "n1"}),
            ('forall X (A(X) => forall Y (Y -> "a" -> X or A(Y)))', {"X": "n1", "Y": "n2"}),
            ('(forall X (X -> "c" -> Y)) and exists Z (A(Z))', {"X": "n2"}),
            ('exists Z (A(Z)) and forall X (A(X) or X -> "a" -> Y)', {"X": "n2"}),
            ('(forall X (X -> "c" -> Y)) or forall Y (A(Y))', {"X": "n2", "Y": "n2"}),
        ],
    )
    def test_witness_binds_nested_and_conjoined_foralls(self, a_b_site, constraint, witness):
        """A failing nested ∀ keeps its binding, and a formula without a
        leading ∀ still reports the ∀ variables of its failing part."""
        result = check(constraint, a_b_site)
        assert result == reference_check(constraint, a_b_site)
        assert result.witness == {name: Oid(oid) for name, oid in witness.items()}

    def test_build_metrics_untouched(self):
        data = bibliography_graph(10, seed=5)
        definition = SiteDefinition(
            "home", HOMEPAGE_QUERY, homepage_templates(), constraints=E7_CONSTRAINTS
        )
        counts = []
        for check_constraints in (False, True):
            builder = SiteBuilder(data)
            builder.define(definition)
            clear_plan_cache()
            metrics = Metrics()
            builder.build("home", check_constraints=check_constraints, metrics=metrics)
            counts.append(metrics)
        assert counts[0] == counts[1]


SITE_QUERY = parse(
    "where Items(x) "
    "create Root(), P(x) "
    'link Root() -> "p" -> P(x), P(x) -> "up" -> Root(), P(x) -> "data" -> x '
    "collect Ps(P(x)) "
    '{ where x -> "a" -> y, Items(y) create R(y) '
    '  link P(x) -> "a" -> P(y), P(x) -> "r" -> R(y) collect Q(P(x)) } '
    '{ where x -> "v" -> v link P(x) -> "v" -> v }'
)
#: a collection, Skolem functions (R is only a function; Q is both, and
#: the collection wins), and names that match nothing in a site graph
CLASSES = ["Ps", "P", "Q", "R", "Root", "Items", "Nope"]
QUANTIFIED = ["X", "Y", "Z"]
LABELS = ["p", "up", "data", "a", "r", "v"]


@st.composite
def site_graphs(draw):
    """``SITE_QUERY`` over a data graph of up to four items whose "a"
    edges may form cycles and whose "v" edges end in atoms."""
    data = Graph()
    items = [data.add_node() for _ in range(draw(st.integers(1, 4)))]
    for item in items:
        data.add_to_collection("Items", item)
        for target in draw(st.lists(st.sampled_from(items), max_size=2)):
            data.add_edge(item, "a", target)
        if draw(st.booleans()):
            data.add_edge(item, "v", string(draw(st.sampled_from("xy"))))
    return evaluate(SITE_QUERY, data)


@st.composite
def paths(draw, depth=2):
    branch = draw(st.integers(0, 3 if depth else 0))
    if branch == 0:
        return draw(st.sampled_from([*map(LabelIs, LABELS), AnyLabel()]))
    if branch == 1:
        return Concat(tuple(draw(st.lists(paths(depth - 1), min_size=2, max_size=2))))
    if branch == 2:
        return Alternation(tuple(draw(st.lists(paths(depth - 1), min_size=2, max_size=2))))
    return Star(draw(paths(depth - 1)))


@st.composite
def formulas(draw, scope=(), depth=4, quantifiers=3):
    """Closed formulas: quantifiers nested at most three deep (names may
    be re-quantified), every connective, and atoms whose class variable
    and at least one path endpoint are quantified; the other endpoint
    may be free ("W") or quantified."""
    kinds = ["class", "path"] if scope else []
    if depth and quantifiers:
        kinds += ["forall", "exists"]
    if depth > (0 if scope else 1):
        kinds += ["not", "and", "or", "implies"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("forall", "exists"):
        var = draw(st.sampled_from(QUANTIFIED))
        body = draw(formulas((*scope, var), depth - 1, quantifiers - 1))
        return (ForAll if kind == "forall" else Exists)(var, body)
    if kind == "not":
        return Not(draw(formulas(scope, depth - 1, quantifiers)))
    if kind in ("and", "or", "implies"):
        left = draw(formulas(scope, depth - 1, quantifiers))
        right = draw(formulas(scope, depth - 1, quantifiers))
        return {"and": And, "or": Or, "implies": Implies}[kind](left, right)
    bound = draw(st.sampled_from(scope))
    if kind == "class":
        return ClassAtom(draw(st.sampled_from(CLASSES)), bound)
    other = draw(st.sampled_from([*QUANTIFIED, "W"]))
    ends = (bound, other) if draw(st.booleans()) else (other, bound)
    return PathAtom(ends[0], draw(paths()), ends[1])


@given(site_graphs(), formulas())
@settings(max_examples=150, deadline=None)
def test_check_matches_reference(site, formula):
    result = check(formula, site)
    assert result.holds == reference_check(formula, site).holds
    prefix, body = [], formula
    while isinstance(body, ForAll):
        prefix.append(body.var)
        body = body.body
    if result.holds or not prefix:
        return
    assert set(prefix) <= set(result.witness)
    binding = {var: result.witness[var] for var in prefix}
    assert not ReferenceChecker(site).eval(body, binding, {})
