"""SQLite edge-triple storage backend behind the Repository interface.

The in-memory :class:`~repro.graph.Graph` holds the whole data graph in
RAM -- the scalability ceiling the paper's section 7 names.  This module
stores the same model in SQLite: an edge-triple schema (``nodes``,
``edges``, ``atoms``) with the label / collection / value indexes the
paper insists on realized as real SQL indexes, WAL journaling, and a
bulk-load path.  :class:`SqlGraph` exposes the ``Graph`` read API over
one stored generation -- including iteration *order*, which STRUQL
binding relations observe -- and :class:`SqlRepository` exposes the
familiar ``Repository`` surface (store/fetch/delete/statistics).

A stored generation is read-only.  The ``Graph`` write methods of a
:class:`SqlGraph` raise :class:`~repro.errors.RepositoryError`; to
change a graph, edit ``fetch(name).copy()`` and ``store`` it as the
next generation.  SQLite data changes only in
:meth:`SqlRepository.store` (one bulk load), ``delete`` and snapshot
recovery.

Ordering is replicated structurally rather than by sorting in Python:
:meth:`SqlGraph._bulk_import` numbers every row in the source graph's
own iteration order, so

* ``ORDER BY id`` on ``nodes`` / ``atoms`` replays ``nodes()`` /
  ``atoms()``;
* ``egroups`` rows are the *label groups* of each source, in
  ``labels_of`` order;
* ``labels`` / ``label_values`` / ``collections`` / ``members`` rows
  follow ``labels()``, ``label_atoms`` and the collection orders;
* ``edges.id`` follows :func:`_edge_order`, which keeps every label
  extent and every target's in-edges in the source's order.

Each ``store`` starts a new epoch, and a generation never changes after
its load, so :meth:`SqlGraph.delta_since` answers from the epoch alone.

``atom_probes`` materializes :func:`~repro.graph.values.coercion_probes`
for every stored atom so the compiled-SQL evaluator can resolve coercing
equality probes with a join instead of a per-row Python callback.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..errors import (
    DeadlineExceeded,
    GraphError,
    RepositoryError,
    UnknownObjectError,
)
from ..resilience.chaos import maybe_fail
from ..resilience.deadline import current_deadline
from ..resilience.report import record_recovery_event
from ..graph import Atom, AtomType, Graph, Oid, SkolemRegistry, coercion_probes
from ..graph.delta import GraphDelta
from ..graph.graph import cache_tokens
from .indexes import RepositoryCatalog
from .store import Repository, delete_generations, generation_path, write_generation

Target = Union[Oid, Atom]

#: Default database filename inside a repository directory.
REPOSITORY_FILENAME = "repository.sqlite"


#: Cap on the name->id lookup caches before they are dropped wholesale.
_CACHE_CAP = 65536

#: Ids per ``IN (...)`` list, well under SQLite's host-parameter limit.
_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS graphs(
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT NOT NULL UNIQUE,
    epoch INTEGER NOT NULL DEFAULT 0,
    node_count INTEGER NOT NULL DEFAULT 0,
    edge_count INTEGER NOT NULL DEFAULT 0,
    atoms_live INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS nodes(
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    name TEXT NOT NULL,
    UNIQUE(graph, name)
);
CREATE TABLE IF NOT EXISTS atoms(
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    typ TEXT NOT NULL,
    val TEXT NOT NULL,
    str TEXT NOT NULL,
    num NUMERIC,
    UNIQUE(graph, typ, val)
);
CREATE INDEX IF NOT EXISTS idx_atoms_num ON atoms(graph, num);
CREATE INDEX IF NOT EXISTS idx_atoms_str ON atoms(graph, str);
CREATE TABLE IF NOT EXISTS edges(
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    src INTEGER NOT NULL,
    label TEXT NOT NULL,
    tgt_node INTEGER,
    tgt_atom INTEGER
);
CREATE INDEX IF NOT EXISTS idx_edges_src ON edges(graph, src, label);
CREATE INDEX IF NOT EXISTS idx_edges_label ON edges(graph, label);
CREATE INDEX IF NOT EXISTS idx_edges_tnode ON edges(graph, tgt_node);
CREATE INDEX IF NOT EXISTS idx_edges_tatom ON edges(graph, tgt_atom);
CREATE TABLE IF NOT EXISTS egroups(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    src INTEGER NOT NULL,
    label TEXT NOT NULL,
    UNIQUE(graph, src, label)
);
CREATE TABLE IF NOT EXISTS labels(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    label TEXT NOT NULL,
    count INTEGER NOT NULL DEFAULT 0,
    distinct_values INTEGER NOT NULL DEFAULT 0,
    UNIQUE(graph, label)
);
CREATE TABLE IF NOT EXISTS label_values(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    label TEXT NOT NULL,
    atom INTEGER NOT NULL,
    count INTEGER NOT NULL DEFAULT 0,
    UNIQUE(graph, label, atom)
);
CREATE TABLE IF NOT EXISTS collections(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    name TEXT NOT NULL,
    count INTEGER NOT NULL DEFAULT 0,
    UNIQUE(graph, name)
);
CREATE TABLE IF NOT EXISTS members(
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    graph INTEGER NOT NULL,
    collection TEXT NOT NULL,
    node INTEGER NOT NULL,
    UNIQUE(graph, collection, node)
);
CREATE INDEX IF NOT EXISTS idx_members_node ON members(graph, node);
CREATE TABLE IF NOT EXISTS atom_probes(
    graph INTEGER NOT NULL,
    atom INTEGER NOT NULL,
    probe INTEGER NOT NULL,
    rank INTEGER NOT NULL,
    PRIMARY KEY(graph, atom, rank)
);
CREATE INDEX IF NOT EXISTS idx_probes_probe ON atom_probes(graph, probe);
"""

#: Tables carrying per-graph rows, in truncation order.
_GRAPH_TABLES = (
    "nodes", "atoms", "edges", "egroups", "labels",
    "label_values", "collections", "members", "atom_probes",
)


# ------------------------------------------------------------------ #
# value encoding


def atom_val(atom: Atom) -> str:
    """Canonical payload text for the ``atoms.val`` column (injective
    per type, so UNIQUE(graph, typ, val) is exactly Atom equality)."""
    if atom.type is AtomType.INTEGER:
        return str(int(atom.value))
    if atom.type is AtomType.FLOAT:
        return repr(float(atom.value))
    if atom.type is AtomType.BOOLEAN:
        return "true" if atom.value else "false"
    return str(atom.value)


def decode_atom(typ: str, val: str) -> Atom:
    atom_type = AtomType(typ)
    if atom_type is AtomType.INTEGER:
        return Atom(atom_type, int(val))
    if atom_type is AtomType.FLOAT:
        return Atom(atom_type, float(val))
    if atom_type is AtomType.BOOLEAN:
        return Atom(atom_type, val == "true")
    return Atom(atom_type, val)


def atom_num(atom: Atom) -> Optional[float]:
    """``as_number()`` guarded for huge-int payloads SQLite can't hold."""
    try:
        return atom.as_number()
    except OverflowError:
        return None


# ------------------------------------------------------------------ #
# connection wrapper


#: VDBE opcodes between progress-handler invocations.  Small enough to
#: notice an expired deadline within a few milliseconds of join work,
#: large enough that the callback cost is noise.
_PROGRESS_OPCODES = 4000


class SqlStore:
    """One SQLite connection (WAL, explicit transactions) plus a lock.

    All statements run under an RLock so the serving tier's worker
    threads can read one store concurrently; :meth:`batch` groups the
    statements of a ``store`` or ``delete`` into a single transaction.

    Long statements are cancellable two ways: :meth:`query_named` (the
    pushdown path -- the only place a single statement can run long,
    e.g. a pushed prefix joining two large collections) arms a progress
    handler against the ambient request deadline, and
    :meth:`interrupt` lets a watchdog abort whatever statement the
    connection is running from another thread.  Both surface as
    :class:`~repro.errors.DeadlineExceeded`, never a raw sqlite error.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA temp_store=MEMORY")
        #: statements aborted via interrupt()/progress handler
        self.interrupts = 0
        with self._lock:
            self._conn.executescript(_SCHEMA)

    def _map_interrupt(self, error: sqlite3.Error, site: str) -> None:
        """Re-raise an interrupted statement as DeadlineExceeded."""
        if "interrupt" not in str(error).lower():
            raise error
        self.interrupts += 1
        deadline = current_deadline()
        if deadline is not None:
            raise DeadlineExceeded(
                deadline.budget, deadline.elapsed(), site
            ) from error
        # interrupted from outside any deadline scope (watchdog on a
        # stuck statement): still a structured cancellation
        raise DeadlineExceeded(0.0, 0.0, site) from error

    def execute(self, sql: str, params: Iterable[object] = ()) -> sqlite3.Cursor:
        with self._lock:
            try:
                return self._conn.execute(sql, tuple(params))
            except sqlite3.OperationalError as error:
                self._map_interrupt(error, "sql.execute")

    def executemany(self, sql: str, rows: Iterable[Tuple]) -> None:
        with self._lock:
            self._conn.executemany(sql, rows)

    def query(self, sql: str, params: Iterable[object] = ()) -> List[Tuple]:
        with self._lock:
            try:
                return self._conn.execute(sql, tuple(params)).fetchall()
            except sqlite3.OperationalError as error:
                self._map_interrupt(error, "sql.query")

    def query_named(self, sql: str, params: Dict[str, object]) -> List[Tuple]:
        with self._lock:
            deadline = current_deadline()
            if deadline is None:
                try:
                    return self._conn.execute(sql, params).fetchall()
                except sqlite3.OperationalError as error:
                    self._map_interrupt(error, "sql.pushdown")
            # progress handler returning nonzero aborts the statement
            # with OperationalError("interrupted"); the callback must
            # not raise through the C layer, so it only reads the clock
            self._conn.set_progress_handler(
                lambda: 1 if deadline.expired() else 0, _PROGRESS_OPCODES
            )
            try:
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.OperationalError as error:
                self._map_interrupt(error, "sql.pushdown")
            finally:
                self._conn.set_progress_handler(None, 0)

    def interrupt(self) -> None:
        """Abort the statement currently running on this connection.

        Deliberately does NOT take the store lock: the caller (the
        watchdog) is trying to break a statement that is *holding* it.
        ``sqlite3.Connection.interrupt`` is documented safe to call
        from another thread.
        """
        self._conn.interrupt()

    def scalar(self, sql: str, params: Iterable[object] = ()) -> Optional[object]:
        rows = self.query(sql, params)
        return rows[0][0] if rows else None

    def integrity_check(self, quick: bool = True) -> List[str]:
        """Corruption findings (``[]`` means the database is sound)."""
        pragma = "quick_check" if quick else "integrity_check"
        try:
            rows = self.query(f"PRAGMA {pragma}")
        except sqlite3.DatabaseError as error:
            return [str(error)]
        findings = [str(row[0]) for row in rows]
        return [] if findings == ["ok"] else findings

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Run the block's statements as one transaction."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
                # fault sites for the chaos harness: a crash before
                # COMMIT must leave the previous generation intact (so
                # the transaction is rolled back, not leaked); a crash
                # after (the "fsync window") leaves the new generation
                # fully committed
                maybe_fail("sql.commit")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            maybe_fail("sql.fsync")

    def file_size(self) -> int:
        """Bytes on disk (main database + WAL), 0 for :memory:."""
        if self.path == ":memory:":
            return 0
        total = 0
        for suffix in ("", "-wal"):
            candidate = self.path + suffix
            if os.path.exists(candidate):
                total += os.path.getsize(candidate)
        return total

    def table_counts(self) -> Dict[str, int]:
        """Per-table row counts (the `repro stats` index report)."""
        counts = {}
        for table in ("graphs",) + _GRAPH_TABLES:
            counts[table] = int(self.scalar(f"SELECT COUNT(*) FROM {table}") or 0)
        return counts

    def close(self) -> None:
        with self._lock:
            self._conn.close()


# ------------------------------------------------------------------ #
# the graph adapter


def _read_only(name: str):
    """A ``Graph`` write method that a stored generation refuses."""

    def refuse(self, *args: object, **kwargs: object) -> None:
        raise RepositoryError(
            f"{name}: graph {self.name!r} is a stored generation and is"
            " read-only; edit its copy() and store that as the next generation"
        )

    refuse.__name__ = refuse.__qualname__ = name
    return refuse


class SqlGraph:
    """The :class:`~repro.graph.Graph` read API over one stored generation.

    Semantics -- including iteration order and error types -- mirror the
    in-memory graph method by method; the hypothesis suite in
    ``tests/test_sql_backend`` stores generated graphs and compares every
    order and binding relation row-for-row.  The nine ``Graph`` write
    methods raise :class:`~repro.errors.RepositoryError` and change
    nothing: :meth:`SqlRepository.store` replaces a generation whole,
    reusing this object and starting a new epoch.

    Reads are thread-safe through the store lock.  The Skolem registry
    is session-local, like a graph loaded from DDL; ``store`` fills it
    from the stored graph's terms.
    """

    backend = "sqlite"

    def __init__(self, store: SqlStore, graph_id: int, name: str) -> None:
        self._store = store
        self._graph_id = graph_id
        self.name = name
        self.token = next(cache_tokens)
        #: epoch-stamped IndexStatistics snapshot, owned by repository.indexes
        self._stats_cache: Optional[object] = None
        self.skolems = SkolemRegistry()
        # id->object caches never go stale within a generation; every
        # cache is cleared when ``store`` loads the next one
        self._oid_of_id: Dict[int, Oid] = {}
        self._atom_of_id: Dict[int, Atom] = {}
        self._id_of_name: Dict[str, int] = {}
        self._id_of_atom: Dict[Tuple[str, str], int] = {}
        #: out-edge lists :meth:`reachable` read, served by :meth:`out_edges`
        self._out_edges_read: Dict[Oid, List[Tuple[str, Target, Optional[int]]]] = {}

    # -------------------------------------------------------------- #
    # store plumbing

    def _q(self, sql: str, params: Iterable[object] = ()) -> List[Tuple]:
        return self._store.query(sql, params)

    def _s(self, sql: str, params: Iterable[object] = ()) -> Optional[object]:
        return self._store.scalar(sql, params)

    def _state(self, column: str) -> int:
        value = self._s(
            f"SELECT {column} FROM graphs WHERE id=?", (self._graph_id,)
        )
        return int(value or 0)

    def _reset_caches(self) -> None:
        self._stats_cache = None
        self._oid_of_id.clear()
        self._atom_of_id.clear()
        self._id_of_name.clear()
        self._id_of_atom.clear()
        self._out_edges_read.clear()

    def _oid(self, node_id: int, name: str) -> Oid:
        cached = self._oid_of_id.get(node_id)
        if cached is None:
            cached = Oid(name)
            if len(self._oid_of_id) > _CACHE_CAP:
                self._oid_of_id.clear()
            self._oid_of_id[node_id] = cached
            if len(self._id_of_name) > _CACHE_CAP:
                self._id_of_name.clear()
            self._id_of_name[name] = node_id
        return cached

    def _atom(self, atom_id: int, typ: str, val: str) -> Atom:
        cached = self._atom_of_id.get(atom_id)
        if cached is None:
            cached = decode_atom(typ, val)
            if len(self._atom_of_id) > _CACHE_CAP:
                self._atom_of_id.clear()
            self._atom_of_id[atom_id] = cached
        return cached

    def _target(
        self,
        tgt_node: Optional[int],
        tgt_atom: Optional[int],
        node_name: Optional[str],
        atom_typ: Optional[str],
        atom_val: Optional[str],
    ) -> Target:
        if tgt_node is not None:
            return self._oid(tgt_node, node_name or "")
        assert tgt_atom is not None
        return self._atom(tgt_atom, atom_typ or "", atom_val or "")

    def _node_id(self, oid: object) -> Optional[int]:
        if not isinstance(oid, Oid):
            return None
        cached = self._id_of_name.get(oid.name)
        if cached is not None:
            return cached
        found = self._s(
            "SELECT id FROM nodes WHERE graph=? AND name=?",
            (self._graph_id, oid.name),
        )
        if found is not None:
            if len(self._id_of_name) > _CACHE_CAP:
                self._id_of_name.clear()
            self._id_of_name[oid.name] = int(found)
            self._oid_of_id.setdefault(int(found), oid)
            return int(found)
        return None

    def _atom_id(self, atom: Atom) -> Optional[int]:
        key = (atom.type.value, atom_val(atom))
        cached = self._id_of_atom.get(key)
        if cached is not None:
            return cached
        found = self._s(
            "SELECT id FROM atoms WHERE graph=? AND typ=? AND val=?",
            (self._graph_id,) + key,
        )
        if found is not None:
            if len(self._id_of_atom) > _CACHE_CAP:
                self._id_of_atom.clear()
            self._id_of_atom[key] = int(found)
            self._atom_of_id.setdefault(int(found), atom)
            return int(found)
        return None

    def resolve_nodes(self, ids: Iterable[int]) -> Dict[int, Oid]:
        """Batch-decode node row ids to oids (the SQL compiler's result
        decoder calls this once per fetched column, not once per row)."""
        out: Dict[int, Oid] = {}
        missing: List[int] = []
        for node_id in ids:
            cached = self._oid_of_id.get(node_id)
            if cached is None:
                missing.append(node_id)
            else:
                out[node_id] = cached
        for start in range(0, len(missing), _IN_CHUNK):
            chunk = missing[start:start + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            for node_id, name in self._q(
                f"SELECT id, name FROM nodes WHERE id IN ({marks})", chunk
            ):
                out[node_id] = self._oid(node_id, name)
        return out

    def resolve_atoms(self, ids: Iterable[int]) -> Dict[int, Atom]:
        """Batch-decode atom row ids, mirroring :meth:`resolve_nodes`."""
        out: Dict[int, Atom] = {}
        missing: List[int] = []
        for atom_id in ids:
            cached = self._atom_of_id.get(atom_id)
            if cached is None:
                missing.append(atom_id)
            else:
                out[atom_id] = cached
        for start in range(0, len(missing), _IN_CHUNK):
            chunk = missing[start:start + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            for atom_id, typ, val in self._q(
                f"SELECT id, typ, val FROM atoms WHERE id IN ({marks})", chunk
            ):
                out[atom_id] = self._atom(atom_id, typ, val)
        return out

    # -------------------------------------------------------------- #
    # epochs and deltas

    @property
    def epoch(self) -> int:
        return self._state("epoch")

    def delta_since(self, epoch: int) -> Optional[GraphDelta]:
        """An empty delta at the current epoch, ``None`` before it: a
        generation swap (``store``) is the only change a stored graph
        has, and its consumers must invalidate coarsely."""
        current = self.epoch
        if epoch < current:
            return None
        return GraphDelta(epoch, current)

    # -------------------------------------------------------------- #
    # writes: a stored generation is read-only

    add_node = _read_only("add_node")
    skolem = _read_only("skolem")
    add_edge = _read_only("add_edge")
    remove_edge = _read_only("remove_edge")
    remove_node = _read_only("remove_node")
    create_collection = _read_only("create_collection")
    add_to_collection = _read_only("add_to_collection")
    remove_from_collection = _read_only("remove_from_collection")
    merge = _read_only("merge")

    # -------------------------------------------------------------- #
    # nodes

    def has_node(self, oid: Oid) -> bool:
        return self._node_id(oid) is not None

    def nodes(self) -> Iterator[Oid]:
        for node_id, name in self._q(
            "SELECT id, name FROM nodes WHERE graph=? ORDER BY id",
            (self._graph_id,),
        ):
            yield self._oid(node_id, name)

    @property
    def node_count(self) -> int:
        return self._state("node_count")

    # -------------------------------------------------------------- #
    # edges

    def _find_edge(
        self, source: Oid, label: str, target: object
    ) -> Optional[Tuple[int, Optional[int]]]:
        src_id = self._node_id(source)
        if src_id is None:
            return None
        if isinstance(target, Oid):
            tgt_id = self._node_id(target)
            if tgt_id is None:
                return None
            found = self._s(
                "SELECT id FROM edges WHERE graph=? AND src=? AND label=?"
                " AND tgt_node=?",
                (self._graph_id, src_id, label, tgt_id),
            )
            return (int(found), None) if found is not None else None
        if isinstance(target, Atom):
            atom_id = self._atom_id(target)
            if atom_id is None:
                return None
            found = self._s(
                "SELECT id FROM edges WHERE graph=? AND src=? AND label=?"
                " AND tgt_atom=?",
                (self._graph_id, src_id, label, atom_id),
            )
            return (int(found), atom_id) if found is not None else None
        return None

    def has_edge(self, source: Oid, label: str, target: Target) -> bool:
        return self._find_edge(source, label, target) is not None

    def edges(self) -> Iterator[Tuple[Oid, str, Target]]:
        rows = self._q(
            "SELECT sn.name, e.label, e.tgt_node, e.tgt_atom, tn.name,"
            " ta.typ, ta.val, e.src"
            " FROM edges e"
            " JOIN egroups g ON g.graph=e.graph AND g.src=e.src AND g.label=e.label"
            " JOIN nodes sn ON sn.id=e.src"
            " LEFT JOIN nodes tn ON tn.id=e.tgt_node"
            " LEFT JOIN atoms ta ON ta.id=e.tgt_atom"
            " WHERE e.graph=? ORDER BY e.src, g.seq, e.id",
            (self._graph_id,),
        )
        for sname, label, t_node, t_atom, t_name, a_typ, a_val, src_id in rows:
            yield (
                self._oid(src_id, sname),
                sys.intern(label),
                self._target(t_node, t_atom, t_name, a_typ, a_val),
            )

    @property
    def edge_count(self) -> int:
        return self._state("edge_count")

    # -------------------------------------------------------------- #
    # navigation

    def out_edges(self, oid: Oid) -> Iterator[Tuple[str, Target]]:
        cached = self._out_edges_read.get(oid)
        if cached is not None:
            for label, target, _ in cached:
                yield label, target
            return
        node_id = self._node_id(oid)
        if node_id is None:
            raise UnknownObjectError(oid)
        rows = self._q(
            "SELECT e.label, e.tgt_node, e.tgt_atom, tn.name, ta.typ, ta.val"
            " FROM edges e"
            " JOIN egroups g ON g.graph=e.graph AND g.src=e.src AND g.label=e.label"
            " LEFT JOIN nodes tn ON tn.id=e.tgt_node"
            " LEFT JOIN atoms ta ON ta.id=e.tgt_atom"
            " WHERE e.graph=? AND e.src=? ORDER BY g.seq, e.id",
            (self._graph_id, node_id),
        )
        for label, t_node, t_atom, t_name, a_typ, a_val in rows:
            yield sys.intern(label), self._target(
                t_node, t_atom, t_name, a_typ, a_val
            )

    def labels_of(self, oid: Oid) -> List[str]:
        node_id = self._node_id(oid)
        if node_id is None:
            raise UnknownObjectError(oid)
        return [
            sys.intern(label)
            for (label,) in self._q(
                "SELECT label FROM egroups WHERE graph=? AND src=? ORDER BY seq",
                (self._graph_id, node_id),
            )
        ]

    def targets(self, oid: Oid, label: str) -> List[Target]:
        node_id = self._node_id(oid)
        if node_id is None:
            raise UnknownObjectError(oid)
        rows = self._q(
            "SELECT e.tgt_node, e.tgt_atom, tn.name, ta.typ, ta.val"
            " FROM edges e"
            " LEFT JOIN nodes tn ON tn.id=e.tgt_node"
            " LEFT JOIN atoms ta ON ta.id=e.tgt_atom"
            " WHERE e.graph=? AND e.src=? AND e.label=? ORDER BY e.id",
            (self._graph_id, node_id, label),
        )
        return [self._target(*row) for row in rows]

    def attribute(self, oid: Oid, label: str) -> Optional[Target]:
        node_id = self._node_id(oid)
        if node_id is None:
            return None
        rows = self._q(
            "SELECT e.tgt_node, e.tgt_atom, tn.name, ta.typ, ta.val"
            " FROM edges e"
            " LEFT JOIN nodes tn ON tn.id=e.tgt_node"
            " LEFT JOIN atoms ta ON ta.id=e.tgt_atom"
            " WHERE e.graph=? AND e.src=? AND e.label=? ORDER BY e.id LIMIT 1",
            (self._graph_id, node_id, label),
        )
        return self._target(*rows[0]) if rows else None

    def in_edges(self, target: Target) -> Iterator[Tuple[Oid, str]]:
        if isinstance(target, Oid):
            ref_id = self._node_id(target)
            column = "tgt_node"
        elif isinstance(target, Atom):
            ref_id = self._atom_id(target)
            column = "tgt_atom"
        else:
            return iter(())
        if ref_id is None:
            return iter(())
        rows = self._q(
            "SELECT n.name, e.label, e.src FROM edges e JOIN nodes n ON n.id=e.src"
            f" WHERE e.graph=? AND e.{column}=? ORDER BY e.id",
            (self._graph_id, ref_id),
        )
        return iter(
            [
                (self._oid(src_id, name), sys.intern(label))
                for name, label, src_id in rows
            ]
        )

    def edges_with_label(self, label: str) -> Iterator[Tuple[Oid, Target]]:
        rows = self._q(
            "SELECT sn.name, e.src, e.tgt_node, e.tgt_atom, tn.name,"
            " ta.typ, ta.val"
            " FROM edges e JOIN nodes sn ON sn.id=e.src"
            " LEFT JOIN nodes tn ON tn.id=e.tgt_node"
            " LEFT JOIN atoms ta ON ta.id=e.tgt_atom"
            " WHERE e.graph=? AND e.label=? ORDER BY e.id",
            (self._graph_id, label),
        )
        for sname, src_id, t_node, t_atom, t_name, a_typ, a_val in rows:
            yield self._oid(src_id, sname), self._target(
                t_node, t_atom, t_name, a_typ, a_val
            )

    def labels(self) -> List[str]:
        return [
            sys.intern(label)
            for (label,) in self._q(
                "SELECT label FROM labels WHERE graph=? ORDER BY seq",
                (self._graph_id,),
            )
        ]

    def label_cardinality(self, label: str) -> int:
        return int(
            self._s(
                "SELECT count FROM labels WHERE graph=? AND label=?",
                (self._graph_id, label),
            )
            or 0
        )

    def label_value_cardinality(self, label: str) -> int:
        return int(
            self._s(
                "SELECT distinct_values FROM labels WHERE graph=? AND label=?",
                (self._graph_id, label),
            )
            or 0
        )

    def label_atoms(self, label: str) -> Iterator[Tuple[Atom, int]]:
        rows = self._q(
            "SELECT lv.atom, a.typ, a.val, lv.count"
            " FROM label_values lv JOIN atoms a ON a.id=lv.atom"
            " WHERE lv.graph=? AND lv.label=? ORDER BY lv.seq",
            (self._graph_id, label),
        )
        for atom_id, typ, val, count in rows:
            yield self._atom(atom_id, typ, val), int(count)

    @property
    def distinct_atom_count(self) -> int:
        return self._state("atoms_live")

    def atoms(self) -> Iterator[Atom]:
        for atom_id, typ, val in self._q(
            "SELECT id, typ, val FROM atoms WHERE graph=? ORDER BY id",
            (self._graph_id,),
        ):
            yield self._atom(atom_id, typ, val)

    def sources_of_value(self, atom: Atom) -> Iterator[Tuple[Oid, str]]:
        atom_id = self._atom_id(atom) if isinstance(atom, Atom) else None
        if atom_id is None:
            return iter(())
        rows = self._q(
            "SELECT n.name, e.label, e.src FROM edges e JOIN nodes n ON n.id=e.src"
            " WHERE e.graph=? AND e.tgt_atom=? ORDER BY e.id",
            (self._graph_id, atom_id),
        )
        return iter(
            [
                (self._oid(src_id, name), sys.intern(label))
                for name, label, src_id in rows
            ]
        )

    def reachable(
        self,
        start: Oid,
        via: Optional[Set[str]] = None,
        include_atoms: bool = False,
    ) -> List[Target]:
        """Objects reachable from ``start`` (inclusive), breadth first, in
        :meth:`Graph.reachable`'s order.

        Each BFS level is read with one statement per chunk of its
        nodes, not one per node.  A FIFO queue visits the level's nodes
        in the order the previous level found them, so visiting the
        level's out-edge lists in that order finds the same nodes in
        the same order.  The lists it read stay in the generation's
        out-edge cache, so :meth:`out_edges` serves them without a
        query (an import copies a closure's edges right after).
        """
        start_id = self._node_id(start)
        if start_id is None:
            raise UnknownObjectError(start)
        seen: Dict[Target, None] = {start: None}
        level: List[Tuple[int, Oid]] = [(start_id, start)]
        while level:
            lists = self._read_out_edges(level)
            following: List[Tuple[int, Oid]] = []
            for _, current in level:
                for label, target, target_id in lists[current]:
                    if via is not None and label not in via:
                        continue
                    if target in seen:
                        continue
                    seen[target] = None
                    if target_id is not None:
                        following.append((target_id, target))
            level = following
        if include_atoms:
            return list(seen)
        return [t for t in seen if isinstance(t, Oid)]

    def _read_out_edges(
        self, nodes: List[Tuple[int, Oid]]
    ) -> Dict[Oid, List[Tuple[str, Target, Optional[int]]]]:
        """The out-edge lists of ``(node id, oid)`` pairs, each in
        :meth:`out_edges` order with the target's node id (None for an
        atom), read ``_IN_CHUNK`` sources per statement.  Every list
        lands in the out-edge cache."""
        cache = self._out_edges_read
        lists: Dict[Oid, List[Tuple[str, Target, Optional[int]]]] = {}
        missing: Dict[int, Oid] = {}
        for node_id, oid in nodes:
            cached = cache.get(oid)
            if cached is None:
                missing[node_id] = oid
                lists[oid] = []
            else:
                lists[oid] = cached
        ids = list(missing)
        for begin in range(0, len(ids), _IN_CHUNK):
            chunk = ids[begin:begin + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            for src, label, t_node, t_atom, t_name, a_typ, a_val in self._q(
                "SELECT e.src, e.label, e.tgt_node, e.tgt_atom, tn.name, ta.typ, ta.val"
                " FROM edges e"
                " JOIN egroups g ON g.graph=e.graph AND g.src=e.src AND g.label=e.label"
                " LEFT JOIN nodes tn ON tn.id=e.tgt_node"
                " LEFT JOIN atoms ta ON ta.id=e.tgt_atom"
                f" WHERE e.graph=? AND e.src IN ({marks}) ORDER BY g.seq, e.id",
                [self._graph_id, *chunk],
            ):
                lists[missing[src]].append((
                    sys.intern(label),
                    self._target(t_node, t_atom, t_name, a_typ, a_val),
                    t_node,
                ))
        if len(cache) + len(missing) > _CACHE_CAP:
            cache.clear()
        for oid in missing.values():
            cache[oid] = lists[oid]
        return lists

    # -------------------------------------------------------------- #
    # collections

    def collection(self, name: str) -> List[Oid]:
        return [
            self._oid(node_id, node_name)
            for node_name, node_id in self._q(
                "SELECT n.name, n.id FROM members m JOIN nodes n ON n.id=m.node"
                " WHERE m.graph=? AND m.collection=? ORDER BY m.id",
                (self._graph_id, name),
            )
        ]

    def has_collection(self, name: str) -> bool:
        return (
            self._s(
                "SELECT 1 FROM collections WHERE graph=? AND name=?",
                (self._graph_id, name),
            )
            is not None
        )

    def in_collection(self, name: str, oid: Oid) -> bool:
        node_id = self._node_id(oid)
        if node_id is None:
            return False
        return (
            self._s(
                "SELECT 1 FROM members WHERE graph=? AND collection=? AND node=?",
                (self._graph_id, name, node_id),
            )
            is not None
        )

    def collection_names(self) -> List[str]:
        return [
            name
            for (name,) in self._q(
                "SELECT name FROM collections WHERE graph=? ORDER BY seq",
                (self._graph_id,),
            )
        ]

    def collections_of(self, oid: Oid) -> List[str]:
        node_id = self._node_id(oid)
        if node_id is None:
            return []
        return [
            name
            for (name,) in self._q(
                "SELECT c.name FROM collections c JOIN members m"
                " ON m.graph=c.graph AND m.collection=c.name AND m.node=?"
                " WHERE c.graph=? ORDER BY c.seq",
                (node_id, self._graph_id),
            )
        ]

    def collection_cardinality(self, name: str) -> int:
        return int(
            self._s(
                "SELECT count FROM collections WHERE graph=? AND name=?",
                (self._graph_id, name),
            )
            or 0
        )

    # -------------------------------------------------------------- #
    # whole-graph operations

    def copy(self, name: str = "") -> Graph:
        """Materialize an in-memory :class:`Graph` copy (same replay the
        in-memory ``Graph.copy`` performs, so orders agree)."""
        clone = Graph(name or self.name)
        for oid in self.nodes():
            clone.add_node(oid)
        for source, label, target in self.edges():
            clone.add_edge(source, label, target)
        for coll in self.collection_names():
            clone.create_collection(coll)
            for member in self.collection(coll):
                clone.add_to_collection(coll, member)
        for function, args, _ in self.skolems.terms():
            clone.skolems.apply(function, args)
        clone.allocator.reserve_past(self._max_anonymous())
        return clone

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "labels": int(
                self._s(
                    "SELECT COUNT(*) FROM labels WHERE graph=?",
                    (self._graph_id,),
                )
                or 0
            ),
            "collections": int(
                self._s(
                    "SELECT COUNT(*) FROM collections WHERE graph=?",
                    (self._graph_id,),
                )
                or 0
            ),
            "atoms": self.distinct_atom_count,
        }

    def _max_anonymous(self) -> int:
        highest = 0
        for (name,) in self._q(
            "SELECT name FROM nodes WHERE graph=? AND name LIKE '&%'",
            (self._graph_id,),
        ):
            tail = name[1:].rsplit(".", 1)[-1]
            if tail.isdigit():
                highest = max(highest, int(tail))
        return highest

    # -------------------------------------------------------------- #
    # bulk load

    def _bulk_import(self, graph) -> None:
        """Load a whole graph in one pass with explicit sequential ids.

        Every order the graph API exposes is taken from ``graph`` itself,
        so the loaded graph iterates exactly like its source: node ids
        follow ``nodes()``, edge groups ``labels_of``, label rows
        ``labels()``, atom ids ``atoms()``, label-value rows
        ``label_atoms`` and edge ids :func:`_edge_order`.  Runs inside
        the caller's transaction on a truncated graph.
        """
        gid = self._graph_id
        store = self._store

        def next_id(table: str) -> int:
            return int(store.scalar(f"SELECT COALESCE(MAX(id),0)+1 FROM {table}"))

        node_ids = {oid: i for i, oid in enumerate(graph.nodes(), next_id("nodes"))}
        atom_ids = {atom: i for i, atom in enumerate(graph.atoms(), next_id("atoms"))}
        edge_rows = [
            (
                edge_id, gid, node_ids[source], label,
                node_ids[target] if isinstance(target, Oid) else None,
                None if isinstance(target, Oid) else atom_ids[target],
            )
            for edge_id, (source, label, target) in enumerate(
                _edge_order(graph), next_id("edges")
            )
        ]
        store.executemany(
            "INSERT INTO nodes(id,graph,name) VALUES(?,?,?)",
            [(node_id, gid, oid.name) for oid, node_id in node_ids.items()],
        )
        store.executemany(
            "INSERT INTO atoms(id,graph,typ,val,str,num) VALUES(?,?,?,?,?,?)",
            [
                (
                    atom_id, gid, atom.type.value, atom_val(atom),
                    atom.as_string(), atom_num(atom),
                )
                for atom, atom_id in atom_ids.items()
            ],
        )
        store.executemany(
            "INSERT INTO edges(id,graph,src,label,tgt_node,tgt_atom)"
            " VALUES(?,?,?,?,?,?)",
            edge_rows,
        )
        store.executemany(
            "INSERT INTO egroups(graph,src,label) VALUES(?,?,?)",
            [
                (gid, node_id, label)
                for oid, node_id in node_ids.items()
                for label in graph.labels_of(oid)
            ],
        )
        labels = graph.labels()
        store.executemany(
            "INSERT INTO labels(graph,label,count,distinct_values) VALUES(?,?,?,?)",
            [
                (
                    gid, label, graph.label_cardinality(label),
                    graph.label_value_cardinality(label),
                )
                for label in labels
            ],
        )
        store.executemany(
            "INSERT INTO label_values(graph,label,atom,count) VALUES(?,?,?,?)",
            [
                (gid, label, atom_ids[atom], count)
                for label in labels
                for atom, count in graph.label_atoms(label)
            ],
        )
        collections = {c: graph.collection(c) for c in graph.collection_names()}
        store.executemany(
            "INSERT INTO collections(graph,name,count) VALUES(?,?,?)",
            [(gid, name, len(members)) for name, members in collections.items()],
        )
        store.executemany(
            "INSERT INTO members(graph,collection,node) VALUES(?,?,?)",
            [
                (gid, name, node_ids[member])
                for name, members in collections.items()
                for member in members
            ],
        )
        store.executemany(
            "INSERT OR IGNORE INTO atom_probes(graph,atom,probe,rank)"
            " VALUES(?,?,?,?)",
            [
                (gid, atom_id, atom_ids[probe], rank)
                for atom, atom_id in atom_ids.items()
                for rank, probe in enumerate(coercion_probes(atom))
                if probe in atom_ids
            ],
        )
        store.execute(
            "UPDATE graphs SET node_count=?, edge_count=?, atoms_live=?"
            " WHERE id=?",
            (len(node_ids), len(edge_rows), len(atom_ids), gid),
        )

    def __repr__(self) -> str:
        label = self.name or "graph"
        return (
            f"<SqlGraph {label}: {self.node_count} nodes,"
            f" {self.edge_count} edges>"
        )


def _edge_order(graph) -> List[Tuple[Oid, str, Target]]:
    """Every edge of ``graph`` once, ordered so that each label extent
    (``edges_with_label``) and each target's ``in_edges`` keep the
    graph's own order -- the two orders ``edges.id`` must replay.

    Both kinds of chain follow the time each live edge was added, so
    they never disagree and a topological merge of them exists (a
    ``targets`` list is a sub-chain of its label extent).
    """
    edges: List[Tuple[Oid, str, Target]] = []
    after_in_label: List[int] = []  # next edge of the same extent, or -1
    waiting: List[int] = []  # predecessors not yet placed
    for label in graph.labels():
        extent = [(s, label, t) for s, t in graph.edges_with_label(label)]
        after_in_label.extend(range(len(edges) + 1, len(edges) + len(extent)))
        after_in_label.append(-1)
        waiting.append(0)
        waiting.extend([1] * (len(extent) - 1))
        edges.extend(extent)
    position = dict(zip(edges, range(len(edges))))
    after_at_target = [-1] * len(edges)
    for target in itertools.chain(graph.nodes(), graph.atoms()):
        chain = [position[(s, label, target)] for s, label in graph.in_edges(target)]
        for previous, index in zip(chain, chain[1:]):
            after_at_target[previous] = index
            waiting[index] += 1
    ready = [index for index in reversed(range(len(edges))) if not waiting[index]]
    order: List[Tuple[Oid, str, Target]] = []
    while ready:
        index = ready.pop()
        order.append(edges[index])
        for following in (after_in_label[index], after_at_target[index]):
            if following != -1:
                waiting[following] -= 1
                if not waiting[following]:
                    ready.append(following)
    if len(order) != len(edges):
        raise GraphError("label extents and in-edge orders of the graph disagree")
    return order


# ------------------------------------------------------------------ #
# the repository


class SqlRepository(RepositoryCatalog):
    """The ``Repository`` surface over one SQLite database file.

    Multiple named graphs share the file (a ``graph`` discriminator
    column on every table).  :meth:`store` is the one write path: it
    bulk-loads a graph in one transaction, order-exact to the source.
    ``rebuild`` (shared with the DDL backend) yields an empty in-memory
    graph and stores it on a clean exit; the mediator materializes its
    warehouse that way.  ``fetch()`` hands out a live, read-only
    :class:`SqlGraph` without materializing anything; to edit a graph,
    ``store`` an edited ``fetch(name).copy()``.  ``directory=None``
    keeps the whole store in ``:memory:``, which the tests use.

    A directory-backed repository snapshots every graph it stores as
    a DDL-store generation next to the database
    (:func:`~repro.repository.store.write_generation`), and runs
    ``PRAGMA quick_check`` on open.  A corrupt database (torn write, bit
    flip) is moved aside and every graph is reloaded from its newest
    intact snapshot generation
    (:func:`~repro.repository.store.read_generation`), surfaced as
    recovery events.  Every stored generation is snapshotted and
    nothing changes it afterwards, so recovery loses no edit: each graph
    comes back as its last snapshot holds it.
    """

    backend = "sqlite"

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        #: times a corrupt database was detected and rebuilt on open
        self.integrity_recoveries = 0
        self._graphs: Dict[str, SqlGraph] = {}
        if directory is None:
            self.store_backend = SqlStore()
            return
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, REPOSITORY_FILENAME)
        self.store_backend, recovered = self._open_checked(path)
        if recovered:
            self._restore_snapshots()

    # -------------------------------------------------------------- #
    # integrity check + recovery on open

    def _open_checked(self, path: str) -> Tuple[SqlStore, bool]:
        """Open the database file, verifying integrity first.

        A database that fails ``PRAGMA quick_check`` (or is so corrupt
        the schema bootstrap itself errors) is moved aside to
        ``<file>.corrupt`` and replaced with a fresh store; the caller
        then reloads the DDL snapshots.  Returns (store, recovered?).
        """
        if not os.path.exists(path):
            return SqlStore(path), False
        store: Optional[SqlStore] = None
        try:
            store = SqlStore(path)
            findings = store.integrity_check()
        except sqlite3.DatabaseError as error:
            findings = [str(error)]
        if not findings:
            assert store is not None
            return store, False
        if store is not None:
            try:
                store.close()
            except sqlite3.Error:
                pass
        corrupt = path + ".corrupt"
        if os.path.exists(corrupt):
            os.remove(corrupt)
        os.replace(path, corrupt)
        for suffix in ("-wal", "-shm"):
            sidecar = path + suffix
            if os.path.exists(sidecar):
                os.remove(sidecar)
        self.integrity_recoveries += 1
        record_recovery_event(
            "sql-repository",
            f"integrity check failed ({findings[0]}); database moved to "
            f"{os.path.basename(corrupt)}, rebuilding from DDL snapshots",
        )
        return SqlStore(path), True

    def _restore_snapshots(self) -> None:
        """Reload every graph from its newest intact snapshot generation;
        a graph with none left is recorded as lost."""
        snapshots = Repository(self.directory)
        for name in snapshots.graph_names():
            try:
                graph = snapshots.fetch(name)
            except RepositoryError as error:
                record_recovery_event(
                    "sql-repository", f"graph {name!r} not restored: {error}"
                )
                continue
            self.store(name, graph)
            record_recovery_event(
                "sql-repository", f"graph {name!r} restored from its snapshot"
            )

    # -------------------------------------------------------------- #
    # basic CRUD

    def store(self, name: str, graph) -> None:
        """Store ``graph`` as the next generation of ``name``.

        The one SQLite write path.  One transaction truncates the graph's
        rows and bulk-loads ``graph`` (:meth:`SqlGraph._bulk_import`,
        every iteration order exactly the source's); on an exception it
        rolls back and the previous generation stays current.  The
        registered :class:`SqlGraph` is reused, so ``fetch(name)``
        returns the same object across generations.  A directory-backed
        repository then writes ``graph`` as the next snapshot generation.
        """
        if not name:
            raise RepositoryError("graph name must be non-empty")
        store = self.store_backend
        target = self._graphs.get(name)
        if graph is target:
            raise RepositoryError(
                f"graph {name!r} is already stored; store an edited copy()"
            )
        try:
            with store.batch():
                graph_id = self._ensure_graph_row(name)
                if target is None:
                    target = SqlGraph(store, graph_id, name)
                self._truncate(graph_id)
                target._reset_caches()
                target._bulk_import(graph)
        except BaseException:
            # the transaction rolled back; drop any cache entries the
            # aborted load populated so the survivor reads fresh rows
            if target is not None:
                target._reset_caches()
            raise
        target.skolems = SkolemRegistry()
        for function, args, _ in graph.skolems.terms():
            target.skolems.apply(function, args)
        self._graphs[name] = target
        if self.directory is not None:
            maybe_fail("sql.snapshot")
            write_generation(generation_path(self.directory, name), name, graph)


    def fetch(self, name: str) -> SqlGraph:
        cached = self._graphs.get(name)
        if cached is not None:
            return cached
        graph_id = self._graph_id(name)
        if graph_id is None:
            raise RepositoryError(f"no graph named {name!r} in the repository")
        graph = SqlGraph(self.store_backend, graph_id, name)
        self._graphs[name] = graph
        return graph

    def __contains__(self, name: str) -> bool:
        return name in self._graphs or self._graph_id(name) is not None

    def delete(self, name: str) -> None:
        known = name in self
        self._graphs.pop(name, None)
        graph_id = self._graph_id(name)
        if graph_id is not None:
            with self.store_backend.batch():
                self._truncate(graph_id)
                self.store_backend.execute(
                    "DELETE FROM graphs WHERE id=?", (graph_id,)
                )
        if self.directory is not None:
            delete_generations(generation_path(self.directory, name))
        if not known:
            raise RepositoryError(f"no graph named {name!r} in the repository")

    def graph_names(self) -> List[str]:
        names = set(self._graphs)
        names.update(
            name
            for (name,) in self.store_backend.query("SELECT name FROM graphs")
        )
        return sorted(names)

    # -------------------------------------------------------------- #
    # backend reporting / DDL bridge

    def file_size(self) -> int:
        """Database size in bytes (0 for an in-memory store)."""
        return self.store_backend.file_size()

    def index_row_counts(self) -> Dict[str, int]:
        """Row counts of every table, for the `repro stats` report."""
        return self.store_backend.table_counts()

    def export_ddl(self, name: str, path: str) -> None:
        """Write one graph out as the next DDL-store generation at
        ``path`` (:func:`~repro.repository.store.write_generation`)."""
        write_generation(path, name, self.fetch(name).copy())

    # -------------------------------------------------------------- #

    def _graph_id(self, name: str) -> Optional[int]:
        found = self.store_backend.scalar(
            "SELECT id FROM graphs WHERE name=?", (name,)
        )
        return int(found) if found is not None else None

    def _ensure_graph_row(self, name: str) -> int:
        graph_id = self._graph_id(name)
        if graph_id is None:
            cursor = self.store_backend.execute(
                "INSERT INTO graphs(name) VALUES(?)", (name,)
            )
            graph_id = int(cursor.lastrowid)
        return graph_id

    def _truncate(self, graph_id: int) -> None:
        """Clear a graph's rows and start a new epoch, so cached derived
        state (plans, statistics, pages) observes the generation swap:
        ``delta_since`` answers ``None`` (coarse invalidation) for
        anything older."""
        for table in _GRAPH_TABLES:
            self.store_backend.execute(
                f"DELETE FROM {table} WHERE graph=?", (graph_id,)
            )
        self.store_backend.execute(
            "UPDATE graphs SET node_count=0, edge_count=0, atoms_live=0,"
            " epoch=epoch+1 WHERE id=?",
            (graph_id,),
        )


def open_repository(directory: Optional[str] = None, backend: str = "ddl"):
    """Factory over the two storage backends.

    ``backend="ddl"`` returns the checksummed-file
    :class:`~repro.repository.store.Repository`; ``backend="sqlite"``
    returns :class:`SqlRepository`.
    """
    if backend == "sqlite":
        return SqlRepository(directory)
    if backend == "ddl":
        return Repository(directory)
    raise RepositoryError(f"unknown repository backend: {backend!r}")
