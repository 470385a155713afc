"""Object identity: oids and Skolem functions.

Nodes of the semistructured graph are identified by unique object
identifiers (oids).  STRUQL creates new nodes with *Skolem functions*: by
definition a Skolem function applied to the same inputs produces the same
oid (paper section 2.2), which is what makes declarative site construction
compositional -- two link clauses mentioning ``YearPage(y)`` for the same
year talk about the same page.

:class:`Oid` is a lightweight immutable handle.  :class:`OidAllocator`
hands out fresh anonymous oids.  :class:`SkolemRegistry` memoizes
``(function name, argument tuple) -> Oid`` per result graph.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterator, Optional, Tuple

from .values import Atom


class Oid(tuple):
    """An object identifier.

    ``name`` is a human-readable identity string.  Anonymous oids are named
    ``&<n>``; Skolem-created oids are named after their term, e.g.
    ``YearPage(1998)``, which makes site graphs self-describing in dumps
    and gives stable page file names to the HTML generator.

    An oid is a one-element tuple subclass holding its name, so hashing
    and ``==`` run in C: every index probe, binding-row dedup and hash
    join hashes oids, about a million times per cold build of a
    2,000-entry site.  ``__slots__ = ()`` leaves no instance dict, and
    ``name`` is a read-only property.  Equality is the tuple's:
    an oid equals the oid of the same name and never a ``str`` or an
    :class:`~repro.graph.values.Atom`.  Pickling and copying rebuild the
    oid from its name (:meth:`__getnewargs__`).
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Oid":
        return tuple.__new__(cls, (name,))

    name = property(operator.itemgetter(0), doc="The oid's identity string.")

    def __getnewargs__(self) -> Tuple[str]:
        return (self[0],)

    def __str__(self) -> str:
        return self[0]

    def __repr__(self) -> str:
        return f"Oid({self[0]})"


class OidAllocator:
    """Allocates fresh anonymous oids: ``&1``, ``&2``, ...

    A graph owns one allocator so that loading a dump can resume the
    counter past the highest anonymous oid seen.
    """

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)

    def fresh(self, hint: str = "") -> Oid:
        """Return a new, never-before-issued oid.

        ``hint`` is embedded for readability (``&pub.3``) but does not
        affect uniqueness.
        """
        number = next(self._counter)
        if hint:
            return Oid(f"&{hint}.{number}")
        return Oid(f"&{number}")

    def reserve_past(self, number: int) -> None:
        """Ensure future oids are numbered strictly above ``number``."""
        current = next(self._counter)
        if current <= number:
            self._counter = itertools.count(number + 1)
        else:
            self._counter = itertools.count(current)


#: A Skolem argument is an existing node oid or an atomic value.
SkolemArg = Tuple[object, ...]


def _render_arg(arg: object) -> str:
    if isinstance(arg, Oid):
        return arg.name
    if isinstance(arg, Atom):
        return repr(arg.value) if isinstance(arg.value, str) else str(arg.value)
    return repr(arg)


def skolem_term_name(function: str, args: Tuple[object, ...]) -> str:
    """Render a Skolem term, e.g. ``YearPage(1998)`` or ``RootPage()``."""
    rendered = ", ".join(_render_arg(a) for a in args)
    return f"{function}({rendered})"


class SkolemRegistry:
    """Memoized Skolem-function application.

    The registry guarantees the defining property of Skolem functions:
    the same ``(function, args)`` pair always yields the same oid, within
    one registry.  A result graph owns its registry, so composed queries
    that add to the same graph agree on node identity, while independent
    site graphs stay disjoint.
    """

    def __init__(self) -> None:
        self._terms: Dict[Tuple[str, Tuple[object, ...]], Oid] = {}
        #: the reverse map: oid -> the first ``(function, args)`` naming it
        self._by_oid: Dict[Oid, Tuple[str, Tuple[object, ...]]] = {}

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, oid: object) -> bool:
        """True when ``oid`` was created by applying a Skolem function."""
        return oid in self._by_oid

    def apply(self, function: str, args: Tuple[object, ...]) -> Oid:
        """Apply Skolem function ``function`` to ``args``; memoized.

        Arguments must be hashable (oids and atoms are).  The returned
        oid's name is the rendered term, so dumps stay readable.
        """
        key = (function, args)
        existing = self._terms.get(key)
        if existing is not None:
            return existing
        oid = Oid(skolem_term_name(function, args))
        self._terms[key] = oid
        self._by_oid.setdefault(oid, key)
        return oid

    def lookup(self, function: str, args: Tuple[object, ...]) -> Optional[Oid]:
        """Return the oid for a term if it was ever created, else None."""
        return self._terms.get((function, args))

    def term(self, oid: object) -> Optional[Tuple[str, Tuple[object, ...]]]:
        """The ``(function, args)`` term that created ``oid``, or None for
        an oid no Skolem application in this registry produced."""
        return self._by_oid.get(oid)

    def terms(self) -> Iterator[Tuple[str, Tuple[object, ...], Oid]]:
        """Iterate ``(function, args, oid)`` for every created term."""
        for (function, args), oid in self._terms.items():
            yield function, args, oid

    def functions(self) -> frozenset:
        """The set of Skolem function names that have been applied."""
        return frozenset(function for function, _ in self._terms)

    def instances_of(self, function: str) -> Iterator[Tuple[Tuple[object, ...], Oid]]:
        """Iterate ``(args, oid)`` pairs for one Skolem function."""
        for (name, args), oid in self._terms.items():
            if name == function:
                yield args, oid
