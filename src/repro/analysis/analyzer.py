"""The unified site analyzer: every static pass behind one call.

The paper's promise -- "a simple analysis of the query can infer the
site schema" and integrity properties can be verified *before any site
is built* (section 2.5) -- as one call.  :class:`Analyzer` runs every
static pass against one site specification with **no site
materialization**:

1. parse the STRUQL query (``SQ000`` on failure) and type-check it
   against the data graph's label summary (``SQ001``-``SQ007``,
   ``SCH002``/``SCH003`` for provably-dead clauses);
2. infer the site schema and check reachability (``SCH001``,
   ``SCH004``);
3. check the templates against the schema (``TPL001``-``TPL004``);
4. statically verify / refute the integrity constraints
   (``CON001``-``CON005``).

Everything lands in one :class:`~repro.analysis.DiagnosticReport` with
shared severities, stable codes, source spans, and one suppression
mechanism; the post-build :func:`~repro.analysis.audit` reports in the
same model.  The CLI front end is ``repro analyze``; the API front end
for registered sites is :meth:`repro.core.site.SiteBuilder.analyze`,
which also powers the pre-build gate (``build(..., gate=True)``).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import StruqlError, TemplateSyntaxError
from ..graph import Graph
from ..repository.summary import LabelSummary, label_summary
from ..struql.ast import Program
from ..struql.parser import _Parser
from ..template.generator import TemplateSet
from .diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Span,
    Suppressions,
    make,
)
from .query_checks import check_program
from .schema_checks import check_schema
from .template_checks import check_templates
from .constraint_checks import check_constraints
from .data_constraint_checks import check_data_constraints


class Analyzer:
    """One-stop static analysis of a site specification.

    Parameters mirror :class:`~repro.core.site.SiteDefinition`:
    ``query`` (text or parsed :class:`Program`), ``templates``,
    ``constraints`` and ``roots``; plus the optional ``data_graph``
    whose label summary enables the data-dependent query checks
    (without it, vocabulary checks are skipped and the analysis is
    purely structural).  ``query_file`` / ``constraint_file`` /
    ``template_files`` name the sources in diagnostic spans.
    """

    def __init__(
        self,
        query: Union[Program, str],
        templates: Optional[TemplateSet] = None,
        constraints: Sequence[object] = (),
        roots: Sequence[object] = (),
        data_graph: Optional[Graph] = None,
        query_file: str = "<query>",
        constraint_file: str = "<constraints>",
        template_files: Optional[Dict[str, str]] = None,
        constraint_lines: Optional[Sequence[int]] = None,
        data_constraints: Optional[object] = None,
    ) -> None:
        self.query = query
        self.templates = templates
        self.constraints = list(constraints)
        self.constraint_lines = list(constraint_lines or [])
        #: optional :class:`~repro.constraints.ConstraintSet` of declared
        #: data constraints, classified by the DC0xx pass.
        self.data_constraints = data_constraints
        self.roots = [str(root) for root in roots]
        self.data_graph = data_graph
        self.query_file = query_file
        self.constraint_file = constraint_file
        self.template_files = template_files or {}
        #: diagnostics found while assembling inputs (template syntax
        #: errors from :func:`load_templates`, for example) that should
        #: ride along with the analysis proper.
        self.pending: List[Diagnostic] = []

    @classmethod
    def for_definition(
        cls,
        definition: object,
        data_graph: Optional[Graph] = None,
    ) -> "Analyzer":
        """Build an analyzer from a :class:`SiteDefinition`."""
        return cls(
            query=definition.query,
            templates=definition.templates,
            constraints=list(definition.constraints),
            roots=list(getattr(definition, "roots", [])),
            data_graph=data_graph,
            query_file=f"<{definition.name}.struql>",
            constraint_file=f"<{definition.name}.constraints>",
        )

    # ------------------------------------------------------------ #

    def run(self, suppress: Iterable[str] = ()) -> DiagnosticReport:
        """Run every pass; returns the combined diagnostic report."""
        report = DiagnosticReport()
        report.extend(self.pending)

        program = self._parse_query(report)
        if program is None:
            # data constraints are checkable against the data graph even
            # when the site query does not parse
            if self.data_constraints is not None:
                report.extend(
                    check_data_constraints(
                        self.data_constraints,
                        schema=None,
                        data_graph=self.data_graph,
                    )
                )
            report.apply_suppressions(Suppressions(suppress))
            return report

        summary = self._summary()
        query_diagnostics, dead_blocks = check_program(
            program, summary, query_file=self.query_file
        )
        report.extend(query_diagnostics)

        from ..core.schema import SiteSchema

        schema = SiteSchema.from_program(program)
        report.extend(
            check_schema(
                schema,
                roots=self.roots,
                dead_blocks=dead_blocks,
                query_file=self.query_file,
            )
        )
        if self.templates is not None:
            report.extend(
                check_templates(self.templates, schema, self.template_files)
            )
        if self.constraints:
            report.extend(
                check_constraints(
                    self.constraints,
                    schema,
                    constraint_file=self.constraint_file,
                    lines=self.constraint_lines or None,
                )
            )
        if self.data_constraints is not None:
            report.extend(
                check_data_constraints(
                    self.data_constraints,
                    schema=schema,
                    data_graph=self.data_graph,
                )
            )
        report.apply_suppressions(Suppressions(suppress))
        return report

    # ------------------------------------------------------------ #

    def _parse_query(self, report: DiagnosticReport) -> Optional[Program]:
        """Parse without validating, so scope errors become diagnostics
        rather than a single exception."""
        if isinstance(self.query, Program):
            return self.query
        try:
            program = _Parser(self.query).parse_program()
            program.source_text = self.query
            return program
        except StruqlError as error:
            report.add(
                make(
                    "SQ000",
                    f"query does not parse: {error}",
                    subject="<query>",
                    span=Span(
                        file=self.query_file,
                        line=getattr(error, "line", 0),
                        column=getattr(error, "column", 0),
                    ),
                    source="query",
                )
            )
            return None

    def _summary(self) -> Optional[LabelSummary]:
        if self.data_graph is None:
            return None
        return label_summary(self.data_graph)


def analyze(
    query: Union[Program, str],
    templates: Optional[TemplateSet] = None,
    constraints: Sequence[object] = (),
    data_graph: Optional[Graph] = None,
    roots: Sequence[object] = (),
    suppress: Iterable[str] = (),
) -> DiagnosticReport:
    """One-shot convenience wrapper around :class:`Analyzer`."""
    analyzer = Analyzer(
        query=query,
        templates=templates,
        constraints=constraints,
        roots=roots,
        data_graph=data_graph,
    )
    return analyzer.run(suppress=suppress)


def load_templates(
    directory: str,
) -> Tuple[TemplateSet, Dict[str, str], List[Diagnostic]]:
    """Load a directory of ``*.tmpl`` files with the CLI's naming
    conventions, collecting syntax errors as TPL004 diagnostics instead
    of stopping at the first bad file.

    Returns ``(templates, name -> path map, diagnostics)``.  Conventions
    (shared with ``repro build``/``lint``): ``Name.tmpl`` attaches to
    collection ``Name``, ``Name__.tmpl`` is object-specific for
    ``Name()``, ``default.tmpl`` is the fallback.
    """
    templates = TemplateSet()
    files: Dict[str, str] = {}
    diagnostics: List[Diagnostic] = []
    names: List[str] = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".tmpl"):
            continue
        name = entry[: -len(".tmpl")]
        path = os.path.join(directory, entry)
        files[name] = path
        try:
            templates.add_file(path, name)
        except TemplateSyntaxError as error:
            diagnostics.append(
                make(
                    "TPL004",
                    f"template {name} does not parse: {error}",
                    subject=name,
                    span=Span(file=path, line=getattr(error, "line", 0)),
                    source="template",
                )
            )
            continue
        names.append(name)
    for name in names:
        if name == "default":
            templates.set_default(name)
        elif name.endswith("__"):
            templates.for_object(name[:-2] + "()", name)
        else:
            templates.for_collection(name, name)
    return templates, files, diagnostics
