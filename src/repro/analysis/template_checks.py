"""Template checks against the site schema, before any site is built.

The paper checks integrity constraints against the site schema that "a
simple analysis of the query can infer" (section 2.5); this pass does
the same for templates.  Every template assigned to a page type (a
Skolem function, via the collections it is collected into, or
object-specific assignment) has its attribute expressions walked step
by step through the schema: a step labeled L from function F resolves
if some schema edge F -L-> _ exists; a function with an arc-variable
edge (its labels are data-dependent) makes a missing step unknowable
rather than wrong.

* ``TPL001`` -- a step matches no schema edge and no arc-variable edge
  could supply it: a typo, the page renders empty there;
* ``TPL002`` -- a step could not be checked because the labels at that
  point depend on the data;
* ``TPL003`` -- a template attached (via collection or object-specific
  assignment) to a page type the site schema does not define: the
  assignment can never be used.

SFOR variables are tracked so ``@a.title`` is checked against where
``a`` can point; SIF conditions go through the same walk.  A finding is
reported once per template, expression and detail, at its first line.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set

from ..core.schema import NS, SiteSchema
from ..template.ast import AttrExpr, Conditional, Format, Loop, Node
from ..template.generator import TemplateSet
from .diagnostics import Diagnostic, Span, make

#: endpoint marker for data-graph / atomic values (nothing to follow).
_DATA = "<data>"


def check_templates(
    templates: TemplateSet,
    schema: SiteSchema,
    files: Optional[Dict[str, str]] = None,
) -> List[Diagnostic]:
    """``TPL001``-``TPL003`` for ``templates`` against ``schema``; ``files``
    maps template names to the paths their spans name."""

    def file_of(template_name: str) -> str:
        return (files or {}).get(template_name, f"<template:{template_name}>")

    diagnostics: List[Diagnostic] = []
    # template name -> Skolem functions it renders
    assigned: Dict[str, List[str]] = {}

    # assignment-level check: templates attached to nothing the schema has
    for collection, template_name in templates._collection_templates.items():
        for function in schema.functions_of_class(collection):
            assigned.setdefault(template_name, []).append(function)
        if collection in schema.collections or collection in schema.functions:
            continue
        diagnostics.append(
            make(
                "TPL003",
                f"template {template_name} is assigned to {collection!r}, "
                "which is neither an output collection nor a Skolem "
                "function of the site query",
                subject=collection,
                span=Span(file=file_of(template_name)),
                source="template",
            )
        )
    for oid_name, template_name in templates._object_templates.items():
        function = oid_name.split("(", 1)[0]
        if function in schema.functions:
            assigned.setdefault(template_name, []).append(function)
            continue
        diagnostics.append(
            make(
                "TPL003",
                f"template {template_name} is assigned to object "
                f"{oid_name!r}, whose function {function} the site query "
                "never creates",
                subject=oid_name,
                span=Span(file=file_of(template_name)),
                source="template",
            )
        )

    # expression-level checks: every assigned template through the schema
    walk = _SchemaWalk(schema, file_of, diagnostics)
    for template_name, functions in assigned.items():
        template = templates.get(template_name)
        if template is None:
            continue
        for function in functions:
            walk.nodes(template.nodes, template.name, frozenset({function}), {})
    return diagnostics


class _SchemaWalk:
    """Walks template attribute expressions through one site schema,
    appending ``TPL001``/``TPL002`` findings to ``out``."""

    def __init__(
        self,
        schema: SiteSchema,
        file_of: Callable[[str], str],
        out: List[Diagnostic],
    ) -> None:
        self.schema = schema
        self._file_of = file_of
        self._out = out
        # functions with data-dependent (arc variable) labels
        self._open_functions: Set[str] = {
            function
            for function in schema.functions
            if any(edge.label_is_variable for edge in schema.edges_from(function))
        }

    def nodes(
        self,
        nodes: Sequence[Node],
        template: str,
        context: FrozenSet[str],
        loop_vars: Dict[str, FrozenSet[str]],
    ) -> None:
        for node in nodes:
            if isinstance(node, Format):
                self._expr(node.expr, template, context, loop_vars, node.line)
            elif isinstance(node, Conditional):
                self._expr(node.expr, template, context, loop_vars, node.line)
                self.nodes(node.then_nodes, template, context, loop_vars)
                self.nodes(node.else_nodes, template, context, loop_vars)
            elif isinstance(node, Loop):
                endpoints = self._expr(
                    node.expr, template, context, loop_vars, node.line
                )
                extended = dict(loop_vars)
                extended[node.var] = endpoints
                self.nodes(node.body, template, context, extended)

    def _expr(
        self,
        expr: AttrExpr,
        template: str,
        context: FrozenSet[str],
        loop_vars: Dict[str, FrozenSet[str]],
        line: int,
    ) -> FrozenSet[str]:
        """Walk an attribute expression through the schema; returns the
        reachable endpoint functions (for loop-variable tracking)."""
        current = loop_vars.get(expr.var, frozenset()) if expr.var else context
        for position, label in enumerate(expr.path):
            if not current or _DATA in current:
                return frozenset()  # walked off into data: unknowable
            next_functions: Set[str] = set()
            for function in current:
                for edge in self.schema.edges_from(function):
                    if not edge.label_is_variable and edge.label == label:
                        next_functions.add(_DATA if edge.target == NS else edge.target)
            if next_functions:
                current = frozenset(next_functions)
                continue
            if any(f in self._open_functions for f in current):
                # the label may still exist: it can be copied by an
                # arc-variable link clause, which only the data decides
                code, detail = "TPL002", (
                    f"{label!r} not produced by any constant link "
                    f"clause on {sorted(current)}, but arc-variable "
                    "clauses may copy it from the data"
                )
            else:
                code, detail = "TPL001", (
                    f"no link clause produces {label!r} on "
                    f"{sorted(current)} (step {position + 1})"
                )
            expression = str(expr)
            diagnostic = make(
                code,
                f"template {template}: <{expression}> -- {detail}",
                subject=f"{template}:{expression}",
                span=Span(file=self._file_of(template), line=line),
                source="template",
            )
            if diagnostic not in self._out:
                self._out.append(diagnostic)
            return frozenset()
        return current
