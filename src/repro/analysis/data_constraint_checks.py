"""Data constraints as an analysis pass: refute, flag, or defer.

The ``DC0xx`` family classifies each declared data constraint before
any ingest runs:

* ``DC001`` (error) -- the declaration does not parse (real lexer
  spans: the constraint front-end reuses the STRUQL tokenizer);
* ``DC007`` (warning) -- duplicate declaration;
* ``DC002``/``DC003`` (warning) -- the collection or label exists in
  neither the site schema nor the data graph, so the constraint can
  never apply / never fire;
* ``DC005`` (info) -- *soundly refuted*: either the mapping queries'
  structure proves every member must carry the required edge (the
  guard-subset argument of ``verify_static``, applied to creations),
  or the data graph's per-label value index proves no current value
  can violate;
* ``DC004`` (error) -- members of the supplied data graph violate it;
* ``DC006`` (info) -- not statically decidable; enforced at ingest.

Schema refutation is the static-analysis payoff: ``required L`` on a
collection whose every creation carries an unconditional ``L`` edge
(same guard set, same Skolem arguments) can never be violated by *any*
dataset, so the ingest gate and the incremental checker skip it
entirely.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..constraints.checker import ConstraintChecker
from ..constraints.model import CheckCounters, ConstraintSet, DataConstraint
from ..core.schema import SiteSchema
from ..graph import Graph
from .diagnostics import Diagnostic, Span, make

#: kinds whose label must carry at least one value for the constraint
#: to be able to fire at all
_VALUE_KINDS = ("exclusive", "range", "regexp", "max_len")


def required_guaranteed(
    schema: SiteSchema, collection: str, label: str
) -> bool:
    """Can the mapping queries' structure prove ``required label``?

    True when the collection resolves to Skolem functions, and every
    creation of every such function is accompanied by a non-variable
    ``label`` edge out of the same creation (guard subset of the
    creation's guards, identical Skolem arguments) -- the same proof
    obligation :func:`repro.core.constraints.verify_static` uses for
    reachability constraints, applied to one edge.
    """
    functions = schema.functions_of_class(collection)
    if not functions:
        return False
    for function in functions:
        creations = schema.creations_of(function)
        if not creations:
            return False
        edges = [
            edge
            for edge in schema.edges_from(function)
            if not edge.label_is_variable and edge.label == label
        ]
        for creation in creations:
            guards = frozenset(creation.query_names)
            if not any(
                frozenset(edge.query_names) <= guards
                and edge.source_args == creation.args
                for edge in edges
            ):
                return False
    return True


def check_data_constraints(
    constraint_set: ConstraintSet,
    schema: Optional[SiteSchema] = None,
    data_graph: Optional[Graph] = None,
    counters: Optional[CheckCounters] = None,
) -> List[Diagnostic]:
    """Classify every declared data constraint into a ``DC0xx`` finding."""
    diagnostics: List[Diagnostic] = []
    source = constraint_set.source
    counters = counters if counters is not None else CheckCounters()

    for issue in constraint_set.issues:
        diagnostics.append(
            make(
                "DC001",
                f"data constraint does not parse: {issue.message}",
                subject=issue.message,
                span=Span(file=source, line=issue.line, column=issue.column),
                source="data-constraint",
            )
        )

    schema_labels: Set[str] = set()
    schema_collections: Set[str] = set()
    if schema is not None:
        schema_labels = {
            edge.label for edge in schema.edges if not edge.label_is_variable
        }
        schema_collections = set(schema.collections)
        schema_collections.update(schema.functions)

    checker = (
        ConstraintChecker(data_graph, constraint_set, counters)
        if data_graph is not None
        else None
    )
    seen: Set[Tuple[object, ...]] = set()
    for constraint in constraint_set:
        span = Span(file=source, line=constraint.line, column=constraint.column)
        text = str(constraint)
        if constraint.key() in seen:
            diagnostics.append(
                make(
                    "DC007",
                    f"duplicate data constraint: {text}",
                    subject=text,
                    span=span,
                    source="data-constraint",
                )
            )
            continue
        seen.add(constraint.key())

        known_anywhere = schema is not None or data_graph is not None
        in_schema = constraint.collection in schema_collections
        in_data = data_graph is not None and data_graph.has_collection(
            constraint.collection
        )
        if known_anywhere and not in_schema and not in_data:
            diagnostics.append(
                make(
                    "DC002",
                    f"data constraint {text} names collection "
                    f"{constraint.collection!r}, which exists in neither "
                    "the site schema nor the data graph: it can never "
                    "apply to any subject",
                    subject=text,
                    span=span,
                    source="data-constraint",
                )
            )
            continue
        if (
            constraint.kind in _VALUE_KINDS
            and known_anywhere
            and constraint.label not in schema_labels
            and (data_graph is None or not _data_has_label(data_graph, constraint.label))
        ):
            diagnostics.append(
                make(
                    "DC003",
                    f"data constraint {text} names edge label "
                    f"{constraint.label!r}, which no schema edge or data "
                    "edge carries: the constraint can never fire",
                    subject=text,
                    span=span,
                    source="data-constraint",
                )
            )
            continue

        if (
            constraint.kind == "required"
            and schema is not None
            and required_guaranteed(schema, constraint.collection, constraint.label)
        ):
            counters.refuted += 1
            diagnostics.append(
                make(
                    "DC005",
                    f"data constraint {text} can never be violated: every "
                    f"creation of {constraint.collection!r} carries an "
                    f"unconditional {constraint.label!r} edge in the "
                    "mapping queries",
                    subject=text,
                    span=span,
                    source="data-constraint",
                )
            )
            continue

        if checker is not None and in_data:
            if checker.refuted_on_data(constraint):
                counters.refuted += 1
                diagnostics.append(
                    make(
                        "DC005",
                        f"data constraint {text} cannot be violated by the "
                        "current data graph: the per-label value index "
                        "proves every value admissible",
                        subject=text,
                        span=span,
                        source="data-constraint",
                    )
                )
                continue
            violations = checker.check_members(constraint)
            if violations:
                first = violations[0]
                diagnostics.append(
                    make(
                        "DC004",
                        f"data constraint {text} is violated by "
                        f"{len(violations)} member(s) of "
                        f"{constraint.collection!r}; first: "
                        f"{first.subject.name}: {first.message}",
                        subject=text,
                        span=span,
                        source="data-constraint",
                    )
                )
                continue
        diagnostics.append(
            make(
                "DC006",
                f"data constraint {text} is not statically decidable; it "
                "will be enforced at ingest time",
                subject=text,
                span=span,
                source="data-constraint",
            )
        )
    return diagnostics


def _data_has_label(graph: Graph, label: str) -> bool:
    return graph.label_cardinality(label) > 0
