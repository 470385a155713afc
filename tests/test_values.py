"""Unit tests for the atomic-value layer (repro.graph.values).

An atom is a two-item tuple subclass ``(type, value)``, so hashing and
``==`` run in C.  The value-semantics tests at the end pin what callers
rely on: an atom equals only an atom of the same type and payload,
wherever it was made; it is immutable; it survives pickling and
copying; it cannot be written as JSON; and the coercion probes built
from it are unchanged.
"""

import copy
import json
import pathlib
import pickle
import re

import pytest

from repro.graph import (
    Atom,
    AtomType,
    atoms_equal,
    boolean,
    compare_atoms,
    from_python,
    html_file,
    image_file,
    integer,
    parse_typed_value,
    postscript_file,
    real,
    string,
    text_file,
    type_predicate,
    type_predicate_names,
    url,
)
from repro.graph import Graph, Oid
from repro.graph.values import coercion_probes
from repro.repository import SqlRepository, ddl
from repro.struql import evaluate
from repro.wrappers import BibtexWrapper, DdlWrapper


class TestConstructors:
    def test_string(self):
        atom = string("hello")
        assert atom.type is AtomType.STRING
        assert atom.value == "hello"

    def test_integer_coerces_to_int(self):
        assert integer(True).value == 1

    def test_real(self):
        assert real(2).value == 2.0
        assert isinstance(real(2).value, float)

    def test_boolean(self):
        assert boolean(1).value is True

    def test_url(self):
        assert url("http://x").type is AtomType.URL

    def test_file_flavours(self):
        assert text_file("a.txt").type is AtomType.TEXT_FILE
        assert image_file("a.gif").type is AtomType.IMAGE_FILE
        assert postscript_file("a.ps").type is AtomType.POSTSCRIPT_FILE
        assert html_file("a.html").type is AtomType.HTML_FILE

    def test_is_file(self):
        assert image_file("a.gif").is_file
        assert not string("a").is_file
        assert not integer(1).is_file

    def test_bad_payload_rejected(self):
        with pytest.raises(TypeError):
            Atom(AtomType.STRING, [1, 2])  # type: ignore[arg-type]


class TestFromPython:
    def test_atom_passthrough(self):
        atom = string("x")
        assert from_python(atom) is atom

    def test_bool_before_int(self):
        assert from_python(True).type is AtomType.BOOLEAN

    def test_int(self):
        assert from_python(7).type is AtomType.INTEGER

    def test_float(self):
        assert from_python(7.5).type is AtomType.FLOAT

    def test_str(self):
        assert from_python("x").type is AtomType.STRING

    def test_unsupported(self):
        with pytest.raises(TypeError):
            from_python(object())


class TestRendering:
    def test_as_string_boolean(self):
        assert boolean(True).as_string() == "true"
        assert boolean(False).as_string() == "false"

    def test_as_string_number(self):
        assert integer(1998).as_string() == "1998"

    def test_as_number_from_string(self):
        assert string("3.5").as_number() == 3.5

    def test_as_number_non_numeric(self):
        assert string("hello").as_number() is None

    def test_str_dunder(self):
        assert str(string("x")) == "x"


class TestCoercingEquality:
    def test_same_type(self):
        assert atoms_equal(string("a"), string("a"))
        assert not atoms_equal(string("a"), string("b"))

    def test_integer_vs_string(self):
        assert atoms_equal(integer(1998), string("1998"))
        assert atoms_equal(string("1998"), integer(1998))

    def test_integer_vs_float(self):
        assert atoms_equal(integer(2), real(2.0))

    def test_string_vs_url_same_text(self):
        assert atoms_equal(string("http://x"), url("http://x"))

    def test_not_equal_across_values(self):
        assert not atoms_equal(integer(1998), string("1997"))

    def test_boolean_coerces_via_rendering(self):
        assert atoms_equal(boolean(True), string("true"))


class TestCompare:
    def test_numeric_ordering(self):
        assert compare_atoms(integer(2), integer(10)) < 0

    def test_numeric_ordering_across_types(self):
        assert compare_atoms(string("2"), integer(10)) < 0

    def test_lexicographic_when_not_numeric(self):
        # "2" < "10" numerically but "10" < "2" lexicographically;
        # a non-numeric operand forces lexicographic mode
        assert compare_atoms(string("10x"), string("2x")) < 0

    def test_equal(self):
        assert compare_atoms(string("a"), string("a")) == 0


class TestTypePredicates:
    def test_registry_names(self):
        names = type_predicate_names()
        assert "isImageFile" in names
        assert "isPostScript" in names

    def test_image_predicate(self):
        predicate = type_predicate("isImageFile")
        assert predicate(image_file("a.gif"))
        assert not predicate(string("a.gif"))

    def test_is_number(self):
        predicate = type_predicate("isNumber")
        assert predicate(string("42"))
        assert not predicate(string("forty-two"))

    def test_unknown_predicate(self):
        assert type_predicate("isWidget") is None


class TestParseTypedValue:
    def test_integer(self):
        assert parse_typed_value("integer", "1998") == integer(1998)

    def test_float(self):
        assert parse_typed_value("float", "1.5") == real(1.5)

    def test_boolean(self):
        assert parse_typed_value("boolean", "true") == boolean(True)

    def test_boolean_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_typed_value("boolean", "yes")

    def test_file_types_keep_payload(self):
        assert parse_typed_value("image", "a.gif") == image_file("a.gif")
        assert parse_typed_value("text", "body") == text_file("body")

    def test_unknown_type_name(self):
        with pytest.raises(ValueError):
            parse_typed_value("widget", "x")

    def test_bad_integer_payload(self):
        with pytest.raises(ValueError):
            parse_typed_value("integer", "not-a-number")


class TestHashability:
    def test_atoms_are_hashable_and_usable_in_sets(self):
        atoms = {string("a"), string("a"), integer(1)}
        assert len(atoms) == 2

    def test_distinct_types_distinct_hash_keys(self):
        assert len({string("1998"), integer(1998)}) == 2


def _same(left, right):
    return left == right and hash(left) == hash(right) and not (left != right)


class TestNotATuple:
    @pytest.mark.parametrize(
        "other",
        [
            (1,),
            ("integer", 1),
            (AtomType.INTEGER,),
            (AtomType.INTEGER, 1, None),
            (AtomType.BOOLEAN, True),
            Oid("1"),
            Oid("x"),
            "1",
            "x",
            1,
            boolean(True),
            real(1.0),
            string("1"),
            url("1"),
        ],
    )
    def test_never_equals_anything_but_its_own_type_and_payload(self, other):
        atom = integer(1)
        assert atom != other
        assert not (atom == other)

    def test_equal_payloads_of_other_types_are_distinct(self):
        # 1 == True == 1.0 in Python; as atoms they are three values
        assert len({integer(1), boolean(True), real(1.0)}) == 3
        assert len({string("x"), url("x"), text_file("x"), Oid("x"), "x"}) == 5
        assert {integer(1): "int"}.get(boolean(True)) is None

    def test_only_a_hand_built_twin_tuple_compares_equal(self):
        # tuple semantics: the plain tuple of the same two items is equal
        # (and hashes alike), which is why nothing in src/ builds one --
        # see test_no_plain_atom_shaped_tuples_in_src
        twin = (AtomType.STRING, "x")
        assert not isinstance(twin, Atom)
        assert _same(string("x"), twin)

    def test_oid_and_atom_never_collide_in_one_index(self):
        graph = Graph("g")
        node = graph.add_node(Oid("1998"))
        graph.add_edge(node, "self", node)
        graph.add_edge(node, "year", integer(1998))
        graph.add_edge(node, "year", string("1998"))
        assert list(graph.sources_of_value(integer(1998))) == [(node, "year")]
        assert graph.distinct_atom_count == 2


class TestEqualAtomsHashAlike:
    def test_every_origin(self):
        text = "@article{p1, title={Strudel}, year={1998}, url={http://x}}"
        wrapped = BibtexWrapper(text).wrap()
        pub = Oid("p1")
        loaded = ddl.loads(ddl.dumps(wrapped))
        ddl_wrapped = DdlWrapper(ddl.dumps(wrapped)).wrap()
        repository = SqlRepository()  # in-memory SQLite
        repository.store("g", wrapped)
        stored = repository.fetch("g")
        expected = {
            "title": from_python("Strudel"),
            "year": from_python(1998),
            "url": url("http://x"),
        }
        for label, atom in expected.items():
            for graph in (wrapped, loaded, ddl_wrapped, stored):
                (found,) = graph.targets(pub, label)
                assert type(found) is Atom
                assert _same(found, atom), (label, graph)
        assert {from_python(1998): "year"}[stored.attribute(pub, "year")] == "year"

    def test_parse_typed_value_matches_the_constructors(self):
        assert _same(parse_typed_value("integer", "7"), integer(7))
        assert _same(parse_typed_value("image", "a.gif"), image_file("a.gif"))

    def test_keyword_construction(self):
        assert _same(Atom(type=AtomType.STRING, value="x"), string("x"))


class TestAtomImmutability:
    @pytest.mark.parametrize("field", ["type", "value"])
    def test_fields_cannot_be_set(self, field):
        atom = string("x")
        with pytest.raises(AttributeError):
            setattr(atom, field, "y")
        assert atom == string("x")

    def test_no_instance_dict(self):
        atom = string("x")
        with pytest.raises(AttributeError):
            atom.extra = 1  # type: ignore[attr-defined]
        assert not hasattr(atom, "__dict__")


ROUND_TRIP_ATOMS = [
    string("x"), integer(1998), real(2.5), boolean(False), url("http://x"),
    text_file("a.txt"), image_file("a.gif"), postscript_file("a.ps"), html_file("a.html"),
]


class TestAtomRoundTrips:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        for atom in ROUND_TRIP_ATOMS:
            loaded = pickle.loads(pickle.dumps(atom, protocol=protocol))
            assert type(loaded) is Atom
            assert loaded.type is atom.type
            assert _same(loaded, atom)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy(self, copier):
        for atom in ROUND_TRIP_ATOMS:
            copied = copier(atom)
            assert type(copied) is Atom
            assert _same(copied, atom)

    def test_json_refuses_an_atom(self):
        # json writes any tuple subclass as a list, but slot 0 is an
        # AtomType member, which it cannot encode: a payload must carry
        # the atom's value, never the atom
        with pytest.raises(TypeError):
            json.dumps(string("x"))
        with pytest.raises(TypeError):
            json.dumps({"rows": [(Oid("p"), integer(1))]})

    def test_str_and_repr_unchanged(self):
        assert str(integer(1998)) == "1998"
        assert repr(string("x")) == "Atom(string:'x')"
        assert repr(boolean(True)) == "Atom(boolean:True)"
        assert boolean(True).as_string() == "true"
        assert string(" 7 ").as_number() == 7.0


#: ``coercion_probes`` answers, as a reprs list per atom, recorded from
#: the dataclass ``Atom`` the tuple subclass replaced; a same-typed
#: respelling (``" 7 "`` -> ``"7"``) is no probe, since ``atoms_equal``
#: compares two strings verbatim
COERCION_PROBES = [
    (integer(1998), [
        "Atom(integer:1998)", "Atom(float:1998.0)", "Atom(string:'1998')",
        "Atom(url:'1998')",
    ]),
    (string("1998"), [
        "Atom(string:'1998')", "Atom(integer:1998)", "Atom(float:1998.0)",
        "Atom(url:'1998')",
    ]),
    (real(2.5), [
        "Atom(float:2.5)", "Atom(string:'2.5')", "Atom(url:'2.5')",
    ]),
    (real(3.0), [
        "Atom(float:3.0)", "Atom(integer:3)", "Atom(string:'3.0')", "Atom(url:'3.0')",
        "Atom(string:'3')",
    ]),
    (boolean(True), [
        "Atom(boolean:True)", "Atom(integer:1)", "Atom(float:1.0)", "Atom(string:'true')",
        "Atom(url:'true')", "Atom(string:'1')",
    ]),
    (boolean(False), [
        "Atom(boolean:False)", "Atom(integer:0)", "Atom(float:0.0)",
        "Atom(string:'false')", "Atom(url:'false')", "Atom(string:'0')",
    ]),
    (string("x"), [
        "Atom(string:'x')", "Atom(url:'x')", "Atom(text:'x')",
    ]),
    (url("http://a"), [
        "Atom(url:'http://a')", "Atom(string:'http://a')", "Atom(text:'http://a')",
    ]),
    (text_file("a.txt"), [
        "Atom(text:'a.txt')", "Atom(string:'a.txt')", "Atom(url:'a.txt')",
    ]),
    (string(" 7 "), [
        "Atom(string:' 7 ')", "Atom(integer:7)", "Atom(float:7.0)", "Atom(url:' 7 ')",
    ]),
    (integer(0), [
        "Atom(integer:0)", "Atom(float:0.0)", "Atom(string:'0')", "Atom(url:'0')",
    ]),
    (string("1e3"), [
        "Atom(string:'1e3')", "Atom(integer:1000)", "Atom(float:1000.0)",
        "Atom(url:'1e3')",
    ]),
    (image_file("1.0"), [
        "Atom(image:'1.0')", "Atom(integer:1)", "Atom(float:1.0)", "Atom(string:'1.0')",
        "Atom(url:'1.0')", "Atom(string:'1')",
    ]),
]


@pytest.mark.parametrize("atom,expected", COERCION_PROBES, ids=[repr(a) for a, _ in COERCION_PROBES])
def test_coercion_probes_unchanged(atom, expected):
    probes = coercion_probes(atom)
    assert [repr(probe) for probe in probes] == expected
    assert all(type(probe) is Atom for probe in probes)
    assert all(atoms_equal(probe, atom) for probe in probes)
    # memoized per distinct atom, whichever object asks
    assert coercion_probes(Atom(atom.type, atom.value)) is probes


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: INTEGER 1998 has no STRING \"1998.0\" probe, so "
    "an index probe misses an edge that a scan matches",
)
def test_constant_target_matches_the_same_edges_by_probe_and_by_scan():
    """``"1998.0"`` equals ``1998``. With one item the plan scans its
    ``v`` edges and finds it; among fifty items it probes the value index
    with the constant's spellings instead, and no probe is ``"1998.0"``."""
    created = []
    for items in (1, 50):
        data = Graph()
        for index in range(items):
            item = data.add_node(Oid(f"i{index}"))
            data.add_edge(item, "name", string(f"item{index}"))
            data.add_to_collection("Items", item)
        data.add_edge(Oid("i0"), "v", string("1998.0"))
        site = evaluate('where Items(x), x -> "v" -> 1998 create P(x)', data)
        created.append(site.node_count)
    assert created == [1, 1]


def test_no_tuple_isinstance_checks_in_src():
    """``isinstance(value, tuple)`` (or a ``Sequence``/``Iterable`` check)
    would also accept every atom and every oid."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    pattern = re.compile(r"isinstance\([^)]*\b(tuple|Sequence|Iterable|Collection)\b")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_no_plain_atom_shaped_tuples_in_src():
    """A plain ``(AtomType member, payload)`` tuple would equal the atom
    of that type and payload; ``src/`` builds none.  Tuples of several
    type members (``for t in (AtomType.STRING, AtomType.URL)``) are fine:
    a payload is never an ``AtomType``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    patterns = [
        re.compile(r"(?<![\w.])\(\s*AtomType\.\w+\s*,(?!\s*AtomType\.)"),
        re.compile(r"(?<![\w.])\(\s*[\w.]+\.type\s*,"),
    ]
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(pattern.search(line) for pattern in patterns)
    ]
    assert offenders == []
