"""Relational wrapper: tables (CSV) -> data graph.

The AT&T site's data sources included "small relational databases that
contain personnel and organizational data" (paper section 5.1).  This
wrapper turns one table into one collection: each row becomes an object,
each column an attribute.  Empty cells produce *no* edge -- this is where
relational NULLs turn into semistructured missing attributes.

Column typing is inferred per cell (integer, float, boolean, else
string) unless ``column_types`` pins a column to a DDL type name.
Foreign keys can be declared so that wrapped tables reference each
other's rows as graph edges instead of duplicated values.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import StrudelError, WrapperError
from ..graph import Atom, AtomType, Graph, Oid, parse_typed_value
from .base import Wrapper


class Table:
    """An in-memory relational table: a header plus rows of strings.

    Rows are kept as given; wrapping checks each row's width.
    """

    def __init__(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[str]]
    ) -> None:
        self.name = name
        self.columns = list(columns)
        self.rows = [list(row) for row in rows]

    @classmethod
    def from_csv(cls, name: str, text: str) -> "Table":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise WrapperError(f"empty CSV for table {name!r}") from None
        return cls(name, header, list(reader))

    @classmethod
    def from_csv_file(cls, path: str, name: str = "") -> "Table":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
        if not name:
            name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return cls.from_csv(name, text)


class ForeignKey:
    """Declares that ``column`` of this table references ``target_table``
    rows by their ``target_key`` column; wrapped as an edge named
    ``edge_label`` (default: the column name)."""

    def __init__(
        self, column: str, target_table: str, target_key: str, edge_label: str = ""
    ) -> None:
        self.column = column
        self.target_table = target_table
        self.target_key = target_key
        self.edge_label = edge_label or column


class RelationalWrapper(Wrapper):
    """Wraps a set of tables into one graph.

    ``key_columns`` maps table name -> column used to mint readable oids
    (``person:jsmith``); tables without one get anonymous oids.
    ``column_types`` maps ``table.column`` -> DDL type name
    (``"people.photo": "image"``).
    """

    source_kind = "relational"

    def __init__(
        self,
        tables: Sequence[Table],
        key_columns: Optional[Dict[str, str]] = None,
        column_types: Optional[Dict[str, str]] = None,
        foreign_keys: Optional[Dict[str, List[ForeignKey]]] = None,
        source_name: str = "",
    ) -> None:
        super().__init__(source_name)
        self.tables = list(tables)
        self.key_columns = dict(key_columns or {})
        self.column_types = dict(column_types or {})
        self.foreign_keys = {k: list(v) for k, v in (foreign_keys or {}).items()}

    # ------------------------------------------------------------ #

    #: one admitted row: (oid, raw row, 1-based row number)
    _Placed = Tuple[Oid, List[str], int]

    def _wrap_into(self, graph: Graph) -> None:
        """A ragged row, an uncoercible cell or a dangling foreign key is
        a fault at ``TABLE row N``; the row is dropped, not the table."""
        placed: Dict[str, List["RelationalWrapper._Placed"]] = {}
        by_key: Dict[str, Dict[str, Oid]] = {}
        for table in self.tables:
            placed[table.name], by_key[table.name] = self._wrap_table(graph, table)
        self._wire_foreign_keys(graph, placed, by_key)
        self.last_quarantine.admitted += sum(len(rows) for rows in placed.values())

    def _wrap_table(
        self, graph: Graph, table: Table
    ) -> Tuple[List["RelationalWrapper._Placed"], Dict[str, Oid]]:
        graph.create_collection(table.name)
        key_column = self.key_columns.get(table.name, "")
        key_index = table.columns.index(key_column) if key_column in table.columns else -1
        fk_columns = {fk.column for fk in self.foreign_keys.get(table.name, ())}
        placed: List[RelationalWrapper._Placed] = []
        by_key: Dict[str, Oid] = {}
        for number, row in enumerate(table.rows, start=1):
            # every cell is typed before the first write, so a row that
            # will not load leaves nothing behind
            try:
                if len(row) != len(table.columns):
                    raise WrapperError(
                        f"row width {len(row)} != header width "
                        f"{len(table.columns)} in table {table.name!r}"
                    )
                cells = [
                    (column, self._cell_atom(table.name, column, cell.strip()))
                    for column, cell in zip(table.columns, row)
                    # NULL -> missing attribute; FKs wired later
                    if cell.strip() and column not in fk_columns
                ]
            except (WrapperError, ValueError) as error:
                self._fault(f"{table.name} row {number}", error, ",".join(map(str, row)))
                continue
            key = row[key_index].strip() if key_index >= 0 else ""
            if key:
                oid = graph.add_node(Oid(f"{table.name}:{key}"))
                by_key[key] = oid
            else:
                oid = graph.add_node(hint=table.name)
            for column, atom in cells:
                graph.add_edge(oid, column, atom)
            graph.add_to_collection(table.name, oid)
            placed.append((oid, row, number))
        return placed, by_key

    def _cell_atom(self, table: str, column: str, cell: str) -> Atom:
        pinned = self.column_types.get(f"{table}.{column}")
        if pinned:
            return parse_typed_value(pinned, cell)
        return infer_atom(cell)

    def _wire_foreign_keys(
        self,
        graph: Graph,
        placed: Dict[str, List["RelationalWrapper._Placed"]],
        by_key: Dict[str, Dict[str, Oid]],
    ) -> None:
        for table in self.tables:
            declared = self.foreign_keys.get(table.name)
            if not declared:
                continue
            column_index = {c: i for i, c in enumerate(table.columns)}
            for fk in declared:
                if fk.column not in column_index:
                    # misconfiguration, not dirty data: raise even tolerantly
                    raise WrapperError(
                        f"foreign key column {fk.column!r} missing from "
                        f"table {table.name!r}",
                        source_name=self.source_name,
                    )
            admitted = placed.get(table.name, [])
            survivors: List[RelationalWrapper._Placed] = []
            for oid, row, number in admitted:
                try:
                    for fk in declared:
                        cell = row[column_index[fk.column]].strip()
                        if not cell:
                            continue
                        target = by_key.get(fk.target_table, {}).get(cell)
                        if target is None:
                            raise WrapperError(
                                f"dangling foreign key {table.name}.{fk.column} = "
                                f"{cell!r} (no {fk.target_table} row)"
                            )
                        graph.add_edge(oid, fk.edge_label, target)
                except StrudelError as error:
                    graph.remove_node(oid)
                    self._fault(
                        f"{table.name} row {number}", error, ",".join(map(str, row))
                    )
                    continue
                survivors.append((oid, row, number))
            placed[table.name] = survivors


def infer_atom(cell: str) -> Atom:
    """Best-effort typing of one cell: integer, float, boolean, string."""
    lowered = cell.lower()
    if lowered in ("true", "false"):
        return Atom(AtomType.BOOLEAN, lowered == "true")
    try:
        return Atom(AtomType.INTEGER, int(cell))
    except ValueError:
        pass
    try:
        return Atom(AtomType.FLOAT, float(cell))
    except ValueError:
        pass
    if lowered.startswith(("http://", "https://", "ftp://")):
        return Atom(AtomType.URL, cell)
    return Atom(AtomType.STRING, cell)
