"""Unit tests for integrity constraints (repro.core.constraints)."""

import pytest

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
    SiteSchema,
    Verdict,
    check,
    enforce,
    parse_constraint,
    verify_static,
)
from repro.errors import ConstraintError, ConstraintViolation
from repro.graph import Graph, Oid, string
from repro.struql import evaluate, parse, register_label_predicate
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph


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
