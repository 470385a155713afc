"""The post-build site audit: one call answering "is this built site healthy?".

The paper frames integrity constraints ("connectedness, reachability of
nodes", section 2.5) as the formal tool; :class:`~repro.analysis.Analyzer`
checks them before a build, and the audit asks the same questions of
one built site, in the same diagnostic model:

* ``AUD001`` -- an internal href whose target page was never generated;
* ``AUD002`` -- a site-graph node with a template that no link path from
  a generated page reaches (content that silently fell off the site,
  usually a missing ``link`` clause);
* ``AUD003`` -- a generated page whose rendered body has no visible text
  (usually an attribute-name typo in a template);
* ``AUD004`` -- a declared integrity constraint the site graph violates.

Given the analyzer's report for the same definition, one root cause is
reported once: ``AUD002`` is dropped for a page type ``SCH001`` already
flagged unreachable, ``AUD003`` when ``TPL001`` found the template typo
behind it (reported with a source span instead of a filename), and
``AUD004`` for a constraint ``CON004`` refuted.  The same
:class:`~repro.analysis.Suppressions` specs the analyzer accepts apply
here, so one suppression silences a finding before and after the build.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

from ..core.constraints import check
from .diagnostics import DiagnosticReport, Span, Suppressions, make

_TAG = re.compile(r"<[^>]+>")


def audit(
    built: object,
    static: Optional[DiagnosticReport] = None,
    suppress: Iterable[str] = (),
) -> DiagnosticReport:
    """Audit one :class:`~repro.core.site.BuiltSite`; ``static`` is the
    analyzer's report for its definition, used for deduplication."""
    statically_unreachable = {
        d.subject for d in (static.by_code("SCH001") if static else ())
    }
    static_typo = bool(static and static.by_code("TPL001"))
    statically_refuted = {
        d.subject for d in (static.by_code("CON004") if static else ())
    }

    out = DiagnosticReport()
    for page, target in built.generated.dangling_links():
        out.add(
            make(
                "AUD001",
                f"page {page} links to {target}, which was never generated",
                subject=f"{page}->{target}",
                span=Span(file=page),
                source="audit",
            )
        )
    for oid_name in _unreachable_pages(built):
        if oid_name.split("(", 1)[0] in statically_unreachable:
            continue  # SCH001 already reported the page *type*
        out.add(
            make(
                "AUD002",
                f"site-graph node {oid_name} has a template but no "
                "generated page links to it",
                subject=oid_name,
                source="audit",
            )
        )
    # with a TPL001 typo the typo is the root cause, reported once
    pages = {} if static_typo else built.generated.pages
    for filename, content in pages.items():
        if not _TAG.sub("", content).strip():
            out.add(
                make(
                    "AUD003",
                    f"generated page {filename} has no visible text",
                    subject=filename,
                    span=Span(file=filename),
                    source="audit",
                )
            )
    results = built.constraint_results or {
        str(constraint): check(constraint, built.site_graph)
        for constraint in built.definition.constraints
    }
    for constraint, result in results.items():
        if bool(result) or constraint in statically_refuted:
            continue  # CON004 already reported a refutation
        witness = getattr(result, "witness", None)
        detail = f" (counterexample: {witness})" if witness else ""
        out.add(
            make(
                "AUD004",
                f"constraint {constraint} is violated on the generated "
                f"site{detail}",
                subject=constraint,
                source="audit",
            )
        )
    out.apply_suppressions(Suppressions(suppress))
    return out


def _unreachable_pages(built: object) -> Iterator[str]:
    """Site-graph nodes that resolve a template but are neither rendered
    as pages nor reachable from any rendered page -- content the site
    defines but never displays (embedded components hang off generated
    pages, so they do not trigger this)."""
    site_graph = built.site_graph
    generated_for = set(built.generated.filenames)
    reachable: set = set()
    for page_oid in generated_for:
        if site_graph.has_node(page_oid):
            reachable.update(site_graph.reachable(page_oid))
    templates = built.definition.templates
    for oid in site_graph.nodes():
        if oid in generated_for or oid in reachable:
            continue
        if templates.resolve(site_graph, oid) is not None:
            yield oid.name
