"""Atomic values of the semistructured data model.

The paper's model (section 2.1) has two kinds of objects: *nodes*,
identified by oids, and *atomic values* -- integers, strings, and a family
of file-flavoured types that commonly appear in web pages (URLs and
PostScript, text, image, and HTML files).  Atomic types are handled
uniformly and values are *coerced dynamically* when compared at run time.

This module defines:

* :class:`AtomType` -- the enumeration of supported atomic types;
* :class:`Atom` -- an immutable, hashable (type, value) pair;
* dynamic-coercion comparison helpers (:func:`atoms_equal`,
  :func:`compare_atoms`) used by the STRUQL evaluator;
* type predicates (``is_image_file`` etc.) registered for use inside
  STRUQL regular path expressions and where-clauses.
"""

from __future__ import annotations

import enum
import operator
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union


class AtomType(enum.Enum):
    """Atomic types supported by the data model.

    The file-flavoured members mirror the paper's list of "atomic types
    that commonly appear in Web pages".  A file atom's value is its path
    (or inline content for small payloads); the distinction matters only
    to predicates and to the HTML generator, which renders each flavour
    differently.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    URL = "url"
    TEXT_FILE = "text"
    IMAGE_FILE = "image"
    POSTSCRIPT_FILE = "postscript"
    HTML_FILE = "html"

    # ``Enum.__hash__`` hashes the member name in Python; every atom hash
    # hashes its type, so use the C-level identity hash (members are
    # singletons, and ``==`` between members is already identity)
    __hash__ = object.__hash__

    @property
    def is_file(self) -> bool:
        """True for the file-flavoured types (text/image/postscript/html)."""
        return self in _FILE_TYPES


_FILE_TYPES = frozenset(
    {
        AtomType.TEXT_FILE,
        AtomType.IMAGE_FILE,
        AtomType.POSTSCRIPT_FILE,
        AtomType.HTML_FILE,
    }
)

#: Python payload types an Atom may carry.
AtomValue = Union[str, int, float, bool]


class Atom(tuple):
    """An immutable atomic value: a payload tagged with an :class:`AtomType`.

    Atoms are hashable so they can appear as edge targets, in indexes and
    in binding tuples.  Two atoms are equal only if both type and payload
    are equal; use :func:`atoms_equal` for the coercing comparison STRUQL
    performs.

    An atom is a two-item tuple subclass ``(type, value)``, so hashing
    and ``==`` run in C: every edge a wrapper or a query writes hashes
    its atom into three indexes, about half a million times per cold
    build of a 2,000-entry site.  ``__slots__ = ()`` leaves no instance
    dict, and ``type`` and ``value`` are read-only properties.  Equality
    is the tuple's: an atom never equals an :class:`~repro.graph.oid.Oid`
    (a one-item tuple), a ``str``, or an atom of another type with an
    equal payload (``integer(1)``, ``boolean(True)`` and ``real(1.0)``
    are three distinct atoms).  Only a hand-built plain tuple of the same
    two items would compare equal, so no code builds one.  Slot 0 is the
    :class:`AtomType` member, so ``json.dumps`` of an atom raises.
    Pickling and copying rebuild the atom from its two items
    (:meth:`__getnewargs__`).
    """

    __slots__ = ()

    def __new__(cls, type: AtomType, value: AtomValue) -> "Atom":
        if not isinstance(value, (str, int, float, bool)):
            raise TypeError(
                f"atom payload must be str/int/float/bool, got {value.__class__.__name__}"
            )
        return tuple.__new__(cls, (type, value))

    type = property(operator.itemgetter(0), doc="The atom's :class:`AtomType`.")
    value = property(operator.itemgetter(1), doc="The atom's Python payload.")

    def __getnewargs__(self) -> Tuple[AtomType, AtomValue]:
        return (self[0], self[1])

    # the methods below read the items by index or unpacking, which costs
    # half a property read; rendering a 2,000-entry site calls
    # ``as_string`` about 10^5 times

    def __str__(self) -> str:
        return str(self[1])

    def __repr__(self) -> str:
        return f"Atom({self[0].value}:{self[1]!r})"

    @property
    def is_file(self) -> bool:
        return self[0].is_file

    def as_string(self) -> str:
        """The payload rendered as a string (used for display and sorting)."""
        atom_type, value = self
        if atom_type is AtomType.BOOLEAN:
            return "true" if value else "false"
        return str(value)

    def as_number(self) -> Optional[float]:
        """The payload as a float, or None if it does not look numeric."""
        value = self[1]
        if isinstance(value, (int, float)):  # bool included
            return float(value)
        try:
            return float(value.strip())
        except ValueError:
            return None


def string(value: str) -> Atom:
    """Convenience constructor for a STRING atom."""
    return Atom(AtomType.STRING, value)


def integer(value: int) -> Atom:
    """Convenience constructor for an INTEGER atom."""
    return Atom(AtomType.INTEGER, int(value))


def real(value: float) -> Atom:
    """Convenience constructor for a FLOAT atom."""
    return Atom(AtomType.FLOAT, float(value))


def boolean(value: bool) -> Atom:
    """Convenience constructor for a BOOLEAN atom."""
    return Atom(AtomType.BOOLEAN, bool(value))


def url(value: str) -> Atom:
    """Convenience constructor for a URL atom."""
    return Atom(AtomType.URL, value)


def text_file(path: str) -> Atom:
    """Convenience constructor for a TEXT_FILE atom."""
    return Atom(AtomType.TEXT_FILE, path)


def image_file(path: str) -> Atom:
    """Convenience constructor for an IMAGE_FILE atom."""
    return Atom(AtomType.IMAGE_FILE, path)


def postscript_file(path: str) -> Atom:
    """Convenience constructor for a POSTSCRIPT_FILE atom."""
    return Atom(AtomType.POSTSCRIPT_FILE, path)


def html_file(path: str) -> Atom:
    """Convenience constructor for an HTML_FILE atom."""
    return Atom(AtomType.HTML_FILE, path)


def from_python(value: object) -> Atom:
    """Wrap a plain Python value in an Atom, inferring its type.

    Strings become STRING atoms; callers wanting URL or file flavours must
    use the explicit constructors.  Raises TypeError for unsupported
    payloads.
    """
    if isinstance(value, Atom):
        return value
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return integer(value)
    if isinstance(value, float):
        return real(value)
    if isinstance(value, str):
        return string(value)
    raise TypeError(f"cannot make an atom from {type(value).__name__}")


def atoms_equal(left: Atom, right: Atom) -> bool:
    """Equality with the paper's dynamic coercion.

    Atoms of the same type compare payloads directly.  Across types, both
    sides are coerced: numerically if both look numeric, otherwise by
    string rendering.  ``Atom(INTEGER, 1998) == Atom(STRING, "1998")`` is
    therefore true, matching "values are coerced dynamically when they are
    compared at run time".
    """
    if left[0] is right[0]:
        return left[1] == right[1]
    left_num, right_num = left.as_number(), right.as_number()
    if left_num is not None and right_num is not None:
        return left_num == right_num
    return left.as_string() == right.as_string()


@lru_cache(maxsize=4096)
def coercion_probes(atom: Atom) -> Tuple[Atom, ...]:
    """All exact spellings a coercing equality against ``atom`` can match.

    Exact-match value indexes (the in-memory reverse adjacency, the
    SQLite ``atoms`` table) store atoms verbatim, but STRUQL equality
    coerces: a probe for ``"1998"`` must also try the INTEGER and FLOAT
    spellings, and vice versa.  The probe order is significant -- index
    lookups report matches probe-by-probe -- so both engines share this
    one definition.  Every probe is :func:`atoms_equal` to ``atom``, so
    an index probe finds no edge that a scan comparing targets rejects
    (``"7"`` is no probe of ``" 7 "``: two strings compare verbatim).
    Memoized per distinct atom: the same constant is probed for every
    frontier row, and the spelling set never changes.
    """
    probes: List[Atom] = [atom]
    number = atom.as_number()
    if number is not None:
        as_int = Atom(AtomType.INTEGER, int(number)) if number == int(number) else None
        candidates = [as_int, Atom(AtomType.FLOAT, float(number))]
        text = atom.as_string()
        for atom_type in (AtomType.STRING, AtomType.URL):
            candidates.append(Atom(atom_type, text))
        if number == int(number):
            candidates.append(Atom(AtomType.STRING, str(int(number))))
        for candidate in candidates:
            if (
                candidate is not None
                and candidate not in probes
                and atoms_equal(candidate, atom)
            ):
                probes.append(candidate)
    else:
        text = atom.as_string()
        for atom_type in (AtomType.STRING, AtomType.URL, AtomType.TEXT_FILE):
            candidate = Atom(atom_type, text)
            if candidate not in probes:
                probes.append(candidate)
    return tuple(probes)


def compare_atoms(left: Atom, right: Atom) -> int:
    """Three-way coercing comparison: negative / zero / positive.

    Numeric when both sides look numeric, lexicographic otherwise.  Used
    by STRUQL's ``<`` / ``<=`` / ``>`` / ``>=`` operators and by the
    template ORDER directive.
    """
    left_num, right_num = left.as_number(), right.as_number()
    if left_num is not None and right_num is not None:
        return (left_num > right_num) - (left_num < right_num)
    left_str, right_str = left.as_string(), right.as_string()
    return (left_str > right_str) - (left_str < right_str)


#: Registry of named atom predicates usable in STRUQL, e.g. isImageFile(q).
PredicateFn = Callable[[Atom], bool]

_TYPE_PREDICATES: Dict[str, PredicateFn] = {
    "isString": lambda a: a.type is AtomType.STRING,
    "isInteger": lambda a: a.type is AtomType.INTEGER,
    "isFloat": lambda a: a.type is AtomType.FLOAT,
    "isBoolean": lambda a: a.type is AtomType.BOOLEAN,
    "isUrl": lambda a: a.type is AtomType.URL,
    "isTextFile": lambda a: a.type is AtomType.TEXT_FILE,
    "isImageFile": lambda a: a.type is AtomType.IMAGE_FILE,
    "isPostScript": lambda a: a.type is AtomType.POSTSCRIPT_FILE,
    "isHtmlFile": lambda a: a.type is AtomType.HTML_FILE,
    "isFile": lambda a: a.is_file,
    "isNumber": lambda a: a.as_number() is not None,
}


def type_predicate(name: str) -> Optional[PredicateFn]:
    """Look up a built-in atom-type predicate by its STRUQL name."""
    return _TYPE_PREDICATES.get(name)


def type_predicate_names() -> frozenset:
    """Names of all built-in atom-type predicates."""
    return frozenset(_TYPE_PREDICATES)


#: Mapping from DDL / wrapper type directives ("text", "image", ...) to types.
TYPE_DIRECTIVES: Dict[str, AtomType] = {t.value: t for t in AtomType}


def parse_typed_value(type_name: str, raw: str) -> Atom:
    """Build an atom from a DDL type directive name and a raw string.

    ``parse_typed_value("integer", "1998")`` -> INTEGER atom 1998.
    Unknown type names raise ValueError; bad payloads raise ValueError.
    """
    try:
        atom_type = TYPE_DIRECTIVES[type_name]
    except KeyError:
        raise ValueError(f"unknown atomic type directive: {type_name!r}") from None
    if atom_type is AtomType.INTEGER:
        return integer(int(raw))
    if atom_type is AtomType.FLOAT:
        return real(float(raw))
    if atom_type is AtomType.BOOLEAN:
        lowered = raw.strip().lower()
        if lowered not in ("true", "false"):
            raise ValueError(f"bad boolean payload: {raw!r}")
        return boolean(lowered == "true")
    return Atom(atom_type, raw)
