"""Unit tests for oids and Skolem functions (repro.graph.oid).

An oid is a one-element tuple subclass, so hashing and ``==`` run in C.
The value-semantics tests pin what callers rely on: identity is the
name, wherever the oid was made; an oid never equals a plain string or
an atom; it is immutable; it survives pickling and copying; and its
``str``/``repr`` are the name and ``Oid(name)``.
"""

import copy
import json
import pathlib
import pickle
import re

import pytest

from repro.graph import (
    Graph,
    Oid,
    OidAllocator,
    SkolemRegistry,
    integer,
    skolem_term_name,
    string,
)
from repro.repository import SqlRepository, ddl


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

    def test_term_is_the_reverse_of_apply(self):
        registry = SkolemRegistry()
        number = registry.apply("YearPage", (integer(1998),))
        text = registry.apply("YearPage", (string("1998"),))
        assert registry.term(number) == ("YearPage", (integer(1998),))
        assert registry.term(text) == ("YearPage", (string("1998"),))
        assert registry.term(Oid("YearPage(1999)")) is None

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


def _same(left, right):
    return left == right and hash(left) == hash(right) and not (left != right)


class TestIdentityByName:
    def test_allocator_oids_equal_oids_of_the_same_name(self):
        fresh = OidAllocator().fresh()
        assert _same(fresh, Oid("&1"))
        hinted = OidAllocator(7).fresh("pub")
        assert _same(hinted, Oid("&pub.7"))

    def test_skolem_oids_equal_oids_of_the_same_name(self):
        registry = SkolemRegistry()
        year = registry.apply("YearPage", (integer(1998),))
        assert _same(year, Oid("YearPage(1998)"))
        root = registry.apply("RootPage", ())
        assert _same(root, Oid("RootPage()"))
        assert registry.apply("YearPage", (integer(1998),)) is year

    def test_ddl_loaded_oids_equal_the_originals(self):
        graph = Graph("g")
        pub = graph.add_node(Oid("pub1"))
        anon = graph.add_node(hint="x")
        graph.add_edge(pub, "ref", anon)
        graph.add_to_collection("Pubs", pub)
        loaded = ddl.loads(ddl.dumps(graph))
        assert list(loaded.nodes()) == [pub, anon]
        assert all(_same(a, b) for a, b in zip(loaded.nodes(), graph.nodes()))
        assert loaded.targets(Oid("pub1"), "ref") == [anon]

    def test_sql_decoded_oids_equal_the_originals(self):
        graph = Graph("g")
        pub = graph.add_node(Oid("pub1"))
        other = graph.add_node(Oid("pub2"))
        graph.add_edge(pub, "cites", other)
        graph.add_edge(pub, "title", string("T"))
        graph.add_to_collection("Pubs", pub)
        repository = SqlRepository()  # in-memory SQLite
        repository.store("g", graph)
        stored = repository.fetch("g")
        decoded = list(stored.nodes())
        assert decoded == [pub, other]
        assert all(type(oid) is Oid for oid in decoded)
        assert _same(decoded[0], pub)
        assert stored.targets(pub, "cites") == [Oid("pub2")]
        assert {oid: None for oid in decoded}.keys() == {pub: 1, other: 2}.keys()

    def test_keyword_construction(self):
        assert Oid(name="x") == Oid("x")

    def test_mixed_origin_oids_share_dict_and_set_slots(self):
        registry = SkolemRegistry()
        made = [Oid("RootPage()"), registry.apply("RootPage", ())]
        assert len(set(made)) == 1
        assert {made[0]: "a"}[made[1]] == "a"


class TestNotAString:
    @pytest.mark.parametrize("other", ["x", string("x"), b"x"])
    def test_never_equals_a_string_or_an_atom(self, other):
        oid = Oid("x")
        assert oid != other
        assert not (oid == other)

    def test_never_equals_an_atom_of_the_name(self):
        assert Oid("1998") != integer(1998)
        assert Oid("1998") != string("1998")
        assert len({Oid("x"), string("x"), "x"}) == 3


class TestImmutability:
    def test_setting_name_raises(self):
        oid = Oid("x")
        with pytest.raises(AttributeError):
            oid.name = "y"  # type: ignore[misc]
        assert oid.name == "x"

    def test_no_instance_dict(self):
        oid = Oid("x")
        with pytest.raises(AttributeError):
            oid.extra = 1  # type: ignore[attr-defined]
        assert not hasattr(oid, "__dict__")


class TestRoundTrips:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        oid = Oid("YearPage(1998)")
        loaded = pickle.loads(pickle.dumps(oid, protocol=protocol))
        assert type(loaded) is Oid
        assert _same(loaded, oid)
        assert loaded.name == "YearPage(1998)"

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy(self, copier):
        oid = Oid("&pub.3")
        copied = copier(oid)
        assert type(copied) is Oid
        assert _same(copied, oid)

    def test_pickled_graph_keeps_its_indexes_usable(self):
        graph = Graph("g")
        pub = graph.add_node(Oid("pub1"))
        graph.add_edge(pub, "title", string("T"))
        loaded = pickle.loads(pickle.dumps(graph))
        assert loaded.targets(Oid("pub1"), "title") == [string("T")]


class TestRendering:
    def test_str_and_repr(self):
        oid = Oid("YearPage(1998)")
        assert str(oid) == "YearPage(1998)"
        assert repr(oid) == "Oid(YearPage(1998))"
        assert f"{oid}" == "YearPage(1998)"
        assert f"{oid!r}" == "Oid(YearPage(1998))"

    def test_json_needs_the_name(self):
        # json encodes any tuple subclass as a list without consulting
        # ``default``: a payload must carry ``oid.name``, never the oid
        assert json.dumps(Oid("x"), default=str) == '["x"]'
        assert json.dumps(Oid("x").name) == '"x"'


def test_no_tuple_isinstance_checks_in_src():
    """``isinstance(value, tuple)`` would also accept every oid."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    pattern = re.compile(r"isinstance\([^)]*tuple")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
