"""Data repository for semistructured graphs: DDL exchange, persistence,
full indexing of schema and data.

Two interchangeable backends implement the repository interface: the
original in-memory/JSON-file :class:`Repository` and the SQLite
edge-triple :class:`~repro.repository.sql.SqlRepository`
(:func:`open_repository` selects one by name).
"""

from . import ddl
from .atomic import atomic_write_text
from .indexes import IndexStatistics, graph_statistics
from .sql import SqlGraph, SqlRepository, SqlStore, open_repository
from .store import Repository
from .summary import LabelSummary, label_summary

__all__ = [
    "IndexStatistics",
    "LabelSummary",
    "Repository",
    "SqlGraph",
    "SqlRepository",
    "SqlStore",
    "atomic_write_text",
    "ddl",
    "graph_statistics",
    "label_summary",
    "open_repository",
]
