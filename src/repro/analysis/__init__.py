"""Static site analysis: one pass, one diagnostic model, no build.

The paper's section 2.5 claim -- site structure and integrity properties
can be checked *before any site is built* -- as a subsystem::

    from repro.analysis import Analyzer

    report = Analyzer(query=SITE_QUERY, templates=templates,
                      constraints=constraints, data_graph=data).run()
    for diagnostic in report.sorted():
        print(diagnostic)
    assert report.ok  # no error-severity findings

Renderers produce terminal text, JSON, and SARIF 2.1.0; the CLI command
is ``repro analyze``; :meth:`repro.core.site.SiteBuilder.analyze` and
the ``gate=True`` build flag integrate it into the build pipeline.
After a build, :func:`audit` checks the built site and reports in the
same diagnostic model (``AUD001``-``AUD004``).
"""

from .analyzer import Analyzer, analyze, load_templates
from .audit_checks import audit
from .constraint_checks import check_constraints, refute_static
from .data_constraint_checks import check_data_constraints, required_guaranteed
from .diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Rule,
    Severity,
    Span,
    Suppressions,
)
from .query_checks import check_program
from .renderers import RENDERERS, render_json, render_sarif, render_text
from .schema_checks import check_schema
from .template_checks import check_templates

__all__ = [
    "Analyzer",
    "Diagnostic",
    "DiagnosticReport",
    "RENDERERS",
    "RULES",
    "Rule",
    "Severity",
    "Span",
    "Suppressions",
    "analyze",
    "audit",
    "check_constraints",
    "check_data_constraints",
    "check_program",
    "check_schema",
    "check_templates",
    "required_guaranteed",
    "load_templates",
    "refute_static",
    "render_json",
    "render_sarif",
    "render_text",
]
