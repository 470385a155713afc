"""Semistructured data model: labeled directed graphs, atoms, oids.

Public surface of the substrate every other Strudel component builds on.
"""

from .collector import collection_paused
from .delta import DeltaLog, GraphDelta
from .dot import to_dot
from .graph import Edge, Graph, Target
from .oid import Oid, OidAllocator, SkolemRegistry, skolem_term_name
from .values import (
    Atom,
    AtomType,
    atoms_equal,
    boolean,
    coercion_probes,
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

__all__ = [
    "Atom",
    "AtomType",
    "DeltaLog",
    "Edge",
    "Graph",
    "GraphDelta",
    "Oid",
    "OidAllocator",
    "SkolemRegistry",
    "Target",
    "atoms_equal",
    "boolean",
    "coercion_probes",
    "collection_paused",
    "compare_atoms",
    "from_python",
    "html_file",
    "image_file",
    "integer",
    "parse_typed_value",
    "postscript_file",
    "real",
    "skolem_term_name",
    "string",
    "text_file",
    "to_dot",
    "type_predicate",
    "type_predicate_names",
    "url",
]
