"""Unit tests for oids and Skolem functions (repro.graph.oid)."""

from repro.graph import Oid, OidAllocator, SkolemRegistry, integer, skolem_term_name, string


class TestAllocator:
    def test_fresh_are_unique(self):
        allocator = OidAllocator()
        assert allocator.fresh() != allocator.fresh()

    def test_hint_embedded(self):
        assert OidAllocator().fresh("pub").name.startswith("&pub.")

    def test_reserve_past(self):
        allocator = OidAllocator()
        allocator.reserve_past(100)
        assert int(allocator.fresh().name[1:]) > 100

    def test_reserve_past_never_moves_backwards(self):
        allocator = OidAllocator(start=50)
        allocator.reserve_past(10)
        assert int(allocator.fresh().name[1:]) >= 50


class TestSkolemRegistry:
    def test_deterministic(self):
        registry = SkolemRegistry()
        first = registry.apply("YearPage", (integer(1998),))
        second = registry.apply("YearPage", (integer(1998),))
        assert first is second

    def test_different_args_different_oids(self):
        registry = SkolemRegistry()
        assert registry.apply("F", (integer(1),)) != registry.apply("F", (integer(2),))

    def test_different_functions_different_oids(self):
        registry = SkolemRegistry()
        args = (string("x"),)
        assert registry.apply("F", args) != registry.apply("G", args)

    def test_lookup(self):
        registry = SkolemRegistry()
        oid = registry.apply("F", ())
        assert registry.lookup("F", ()) is oid
        assert registry.lookup("G", ()) is None

    def test_terms_iteration(self):
        registry = SkolemRegistry()
        registry.apply("F", ())
        registry.apply("G", (integer(1),))
        terms = list(registry.terms())
        assert len(terms) == 2
        assert {t[0] for t in terms} == {"F", "G"}

    def test_functions(self):
        registry = SkolemRegistry()
        registry.apply("F", ())
        registry.apply("F", (integer(1),))
        registry.apply("G", ())
        assert registry.functions() == frozenset({"F", "G"})

    def test_instances_of(self):
        registry = SkolemRegistry()
        registry.apply("F", (integer(1),))
        registry.apply("F", (integer(2),))
        registry.apply("G", ())
        assert len(list(registry.instances_of("F"))) == 2

    def test_membership_is_created_oids(self):
        registry = SkolemRegistry()
        oid = registry.apply("F", (integer(1),))
        registry.lookup("G", ())  # a lookup creates nothing
        assert oid in registry
        assert Oid("G()") not in registry
        assert Oid("F(1)") in registry

    def test_len(self):
        registry = SkolemRegistry()
        registry.apply("F", ())
        registry.apply("F", ())  # memoized, no growth
        assert len(registry) == 1


class TestTermNames:
    def test_zero_arg(self):
        assert skolem_term_name("RootPage", ()) == "RootPage()"

    def test_atom_args(self):
        assert skolem_term_name("YearPage", (integer(1998),)) == "YearPage(1998)"
        assert skolem_term_name("C", (string("web"),)) == "C('web')"

    def test_oid_arg(self):
        assert skolem_term_name("New", (Oid("&3"),)) == "New(&3)"

    def test_registry_oid_named_after_term(self):
        registry = SkolemRegistry()
        oid = registry.apply("YearPage", (integer(1998),))
        assert oid.name == "YearPage(1998)"
