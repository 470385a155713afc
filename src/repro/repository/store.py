"""The Strudel data repository, and the generation files both backends use.

"A Web site's data graph and site graph are stored in STRUDEL's data
repository" (paper section 2.1).  The repository is a directory of DDL
files -- one per named graph -- plus an in-memory cache and a small
catalog of per-graph statistics.  It can also be used fully in memory
(``directory=None``), which the tests and benchmarks do.

The repository deliberately has *no schema catalog to enforce*: graphs are
semistructured, and the queryable schema is whatever the graph's own
indexes hold (``graph.labels()``, ``graph.collection_names()``).

Both backends write graphs through one contract:
:meth:`~repro.repository.indexes.RepositoryCatalog.rebuild` yields an
empty graph and hands it to the backend's ``store`` as the next
generation only if the block exits cleanly.

This module also owns the one on-disk generation format, shared with the
SQLite backend's snapshots: :func:`write_generation` writes a checksummed
dump tmp+fsync+rename and keeps the previous intact generation as
``<name>.ddl.1``; :func:`read_generation` loads the newest generation
whose checksum holds and, when it has to fall back to ``.ddl.1``, logs
the recovery in :func:`repro.resilience.recovery_events`.  A fault at
any write point leaves either the old or the new generation fully
intact.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..errors import RepositoryCorruptionError, RepositoryError
from ..graph import Graph
from ..resilience.report import record_recovery_event
from . import ddl
from .atomic import atomic_write_text
from .indexes import RepositoryCatalog

_GRAPH_SUFFIX = ".ddl"
_BACKUP_SUFFIX = ".1"


class Repository(RepositoryCatalog):
    """A store of named semistructured graphs.

    Parameters
    ----------
    directory:
        Backing directory for persistence, created on demand.  ``None``
        keeps everything in memory only.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self._graphs: Dict[str, Graph] = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # -------------------------------------------------------------- #
    # basic CRUD

    def store(self, name: str, graph: Graph) -> None:
        """Register ``graph`` under ``name`` (and write it to disk).

        Overwrites silently: storing is how graphs are refreshed after
        mediation recomputes the warehouse.  The on-disk write is one
        :func:`write_generation`, so a crash at any point preserves a
        fully intact generation.
        """
        if not name:
            raise RepositoryError("graph name must be non-empty")
        graph.name = name
        self._graphs[name] = graph
        if self.directory is not None:
            write_generation(self._path(name), name, graph)

    def fetch(self, name: str) -> Graph:
        """Return the named graph, loading it from disk if not cached.

        The load is :func:`read_generation`: a primary file that fails
        its integrity check falls back to the previous generation.
        """
        cached = self._graphs.get(name)
        if cached is not None:
            return cached
        if name in self:
            graph = read_generation(self._path(name), name)
            self._graphs[name] = graph
            return graph
        raise RepositoryError(f"no graph named {name!r} in the repository")

    def __contains__(self, name: str) -> bool:
        if name in self._graphs:
            return True
        if self.directory is None:
            return False
        path = self._path(name)
        return os.path.exists(path) or os.path.exists(path + _BACKUP_SUFFIX)

    def delete(self, name: str) -> None:
        """Forget a graph (cache, disk, and backup).  Unknown names raise."""
        known = name in self
        self._graphs.pop(name, None)
        if self.directory is not None:
            delete_generations(self._path(name))
        if not known:
            raise RepositoryError(f"no graph named {name!r} in the repository")

    def graph_names(self) -> List[str]:
        """All graph names, cached and on disk, sorted."""
        names = set(self._graphs)
        if self.directory is not None:
            for entry in os.listdir(self.directory):
                if entry.endswith(_GRAPH_SUFFIX):
                    names.add(entry[: -len(_GRAPH_SUFFIX)])
        return sorted(names)

    def _path(self, name: str) -> str:
        if self.directory is None:
            raise RepositoryError("repository is in-memory only")
        return generation_path(self.directory, name)


# ------------------------------------------------------------------ #
# generation files (the write primitive itself lives in .atomic)


def generation_path(directory: str, name: str) -> str:
    """The primary generation file of graph ``name`` in ``directory``."""
    return os.path.join(directory, name.replace(os.sep, "_") + _GRAPH_SUFFIX)


def write_generation(path: str, name: str, graph) -> None:
    """Write ``graph`` as the next generation at ``path``.

    The current primary, when intact, is first copied to ``path.1``; a
    primary that fails its checksum is not, so ``path.1`` keeps the last
    good generation.  Fault sites: ``store.backup.<name>.*`` and
    ``store.write.<name>.*``.
    """
    payload = ddl.with_checksum(ddl.dumps(graph))
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            current = handle.read()
        if _intact(current):
            atomic_write_text(path + _BACKUP_SUFFIX, current, f"store.backup.{name}")
    atomic_write_text(path, payload, f"store.write.{name}")


def read_generation(path: str, name: str) -> Graph:
    """Load the newest intact generation at ``path``.

    A primary that fails its integrity check (bad checksum, truncated
    parse) falls back to ``path.1``, recording a recovery event; only
    when no generation is readable does the corruption surface.
    """
    primary_error: Optional[RepositoryError] = None
    if os.path.exists(path):
        try:
            return _load_file(path, name)
        except RepositoryError as error:
            primary_error = error
    backup = path + _BACKUP_SUFFIX
    if os.path.exists(backup):
        graph = _load_file(backup, name)
        record_recovery_event(
            "repository",
            f"graph {name!r}: recovered previous generation from backup"
            + (f" ({primary_error})" if primary_error is not None else ""),
        )
        return graph
    assert primary_error is not None, f"no generation of {name!r} at {path}"
    raise primary_error


def delete_generations(path: str) -> None:
    """Remove every generation file of one graph."""
    for candidate in (path, path + _BACKUP_SUFFIX):
        if os.path.exists(candidate):
            os.remove(candidate)


def _intact(text: str) -> bool:
    declared, body = ddl.split_checksum(text)
    return declared is None or ddl.checksum(body) == declared


def _load_file(path: str, name: str) -> Graph:
    """Load one DDL file, verifying its checksum header when present."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not _intact(text):
        raise RepositoryCorruptionError(
            f"checksum mismatch in {path}: file is corrupt or truncated"
        )
    return ddl.loads(ddl.split_checksum(text)[1], name)
