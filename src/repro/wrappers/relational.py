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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import WrapperError
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

    #: one row that will load: (1-based row number, raw row, key, typed cells)
    _Typed = Tuple[int, List[str], str, List[Tuple[str, Atom]]]

    def _wrap_into(self, graph: Graph) -> None:
        """A ragged row, an uncoercible cell or a dangling foreign key is
        a fault at ``TABLE row N``; the row is dropped, not the table.

        Every row is typed and its foreign keys checked before the first
        write, so a dropped row leaves nothing behind -- not even in the
        node that an admitted row with the same key shares.  A foreign
        key must name a row that is admitted itself, so the check repeats
        until no row drops (a row can lose its target to an earlier
        round)."""
        typed = {table.name: self._typed_rows(table) for table in self.tables}
        remaining = -1
        while remaining != sum(map(len, typed.values())):
            remaining = sum(map(len, typed.values()))
            keys = {
                name: {key for _, _, key, _ in rows if key}
                for name, rows in typed.items()
            }
            for table in self.tables:
                typed[table.name] = self._check_foreign_keys(
                    table, typed[table.name], keys
                )
        placed = {
            table.name: self._write_rows(graph, table, typed[table.name])
            for table in self.tables
        }
        for table in self.tables:
            self._wire_foreign_keys(graph, table, placed[table.name])
        self.last_quarantine.admitted += sum(len(rows) for rows in typed.values())

    def _typed_rows(self, table: Table) -> List["RelationalWrapper._Typed"]:
        key_column = self.key_columns.get(table.name, "")
        key_index = table.columns.index(key_column) if key_column in table.columns else -1
        fk_columns = {fk.column for fk in self.foreign_keys.get(table.name, ())}
        typed: List[RelationalWrapper._Typed] = []
        for number, row in enumerate(table.rows, start=1):
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
            typed.append((number, row, key, cells))
        return typed

    def _cell_atom(self, table: str, column: str, cell: str) -> Atom:
        pinned = self.column_types.get(f"{table}.{column}")
        if pinned:
            return parse_typed_value(pinned, cell)
        return infer_atom(cell)

    def _check_foreign_keys(
        self,
        table: Table,
        rows: List["RelationalWrapper._Typed"],
        keys: Dict[str, Set[str]],
    ) -> List["RelationalWrapper._Typed"]:
        """``rows`` without those whose foreign keys name none of ``keys``."""
        declared = self.foreign_keys.get(table.name)
        if not declared:
            return rows
        for fk in declared:
            if fk.column not in table.columns:
                # misconfiguration, not dirty data: raise even tolerantly
                raise WrapperError(
                    f"foreign key column {fk.column!r} missing from "
                    f"table {table.name!r}",
                    source_name=self.source_name,
                )
        column_index = {c: i for i, c in enumerate(table.columns)}
        survivors: List[RelationalWrapper._Typed] = []
        for typed in rows:
            number, row = typed[0], typed[1]
            for fk in declared:
                cell = row[column_index[fk.column]].strip()
                if cell and cell not in keys.get(fk.target_table, ()):
                    self._fault(
                        f"{table.name} row {number}",
                        WrapperError(
                            f"dangling foreign key {table.name}.{fk.column} = "
                            f"{cell!r} (no {fk.target_table} row)"
                        ),
                        ",".join(map(str, row)),
                    )
                    break
            else:
                survivors.append(typed)
        return survivors

    def _write_rows(
        self, graph: Graph, table: Table, rows: List["RelationalWrapper._Typed"]
    ) -> List[Tuple[Oid, List[str]]]:
        graph.create_collection(table.name)
        placed: List[Tuple[Oid, List[str]]] = []
        for _, row, key, cells in rows:
            if key:
                oid = graph.add_node(Oid(f"{table.name}:{key}"))
            else:
                oid = graph.add_node(hint=table.name)
            for column, atom in cells:
                graph.add_edge(oid, column, atom)
            graph.add_to_collection(table.name, oid)
            placed.append((oid, row))
        return placed

    def _wire_foreign_keys(
        self, graph: Graph, table: Table, placed: List[Tuple[Oid, List[str]]]
    ) -> None:
        """One edge per non-empty foreign key cell of each written row
        (checked by :meth:`_check_foreign_keys`)."""
        declared = self.foreign_keys.get(table.name, ())
        column_index = {c: i for i, c in enumerate(table.columns)}
        for oid, row in placed:
            for fk in declared:
                cell = row[column_index[fk.column]].strip()
                if cell:
                    graph.add_edge(
                        oid, fk.edge_label, Oid(f"{fk.target_table}:{cell}")
                    )


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
