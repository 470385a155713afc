"""The shared diagnostic model of the site analyzer.

Every analysis pass -- query type checking, schema reachability, template
checks, constraint verification, and the post-build audit -- emits
:class:`Diagnostic` records with a *stable code* (``SQ001``, ``TPL002``,
``SCH003``...), a severity, a human message, and a source :class:`Span`
taken from the lexers' line/column tokens.  Stable codes make findings
greppable, suppressible, and renderable to SARIF for CI annotation.

Code families:

=======  ==============================================================
``SQ``   STRUQL query checks (syntax, labels, arity, variables, joins)
``SCH``  site-schema checks (reachability, dead links, dead collects)
``TPL``  template checks against the site schema
``CON``  integrity-constraint checks (static verification outcomes)
``AUD``  post-build audit findings on one built site
=======  ==============================================================

The registry in :data:`RULES` is the single source of truth for the code
table rendered in docs and in SARIF ``rules`` metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` for this severity."""
        return {"error": "error", "warning": "warning", "info": "note"}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Span:
    """A source location: file (or pseudo-file like ``<query>``) plus the
    1-based line/column of the first offending token (0 = unknown)."""

    file: str = ""
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        if not self.file and not self.line:
            return ""
        where = self.file or "<input>"
        if self.line:
            where += f":{self.line}"
            if self.column:
                where += f":{self.column}"
        return where

    def __bool__(self) -> bool:
        return bool(self.file or self.line)


@dataclass(frozen=True)
class Rule:
    """Metadata for one diagnostic code (for docs and SARIF rules).

    ``help`` is the longer remediation text rendered as the SARIF
    ``fullDescription``; rules without one fall back to ``summary``.
    """

    code: str
    name: str
    summary: str
    default_severity: Severity
    help: str = ""


def _rule(
    code: str, name: str, summary: str, severity: Severity, help: str = ""
) -> Tuple[str, Rule]:
    return code, Rule(
        code=code, name=name, summary=summary, default_severity=severity, help=help
    )


#: The full rule registry: code -> :class:`Rule`.
RULES: Dict[str, Rule] = dict(
    [
        # --- STRUQL query checks ----------------------------------- #
        _rule("SQ000", "syntax-error",
              "The STRUQL query does not parse.", Severity.ERROR),
        _rule("SQ001", "unknown-edge-label",
              "An edge condition uses a label absent from the data graph.",
              Severity.ERROR),
        _rule("SQ002", "skolem-arity-mismatch",
              "A Skolem function is applied with inconsistent arity.",
              Severity.ERROR),
        _rule("SQ003", "unused-variable",
              "A where-clause variable is bound but never used.",
              Severity.WARNING),
        _rule("SQ004", "unbound-variable",
              "A construction clause uses a variable no where-clause binds.",
              Severity.ERROR),
        _rule("SQ005", "unsatisfiable-conjunction",
              "A block's conditions can never hold simultaneously.",
              Severity.ERROR),
        _rule("SQ006", "cartesian-product",
              "A block's conditions split into unjoined groups.",
              Severity.WARNING),
        _rule("SQ007", "unknown-collection",
              "A membership condition names a collection absent from the "
              "data graph.", Severity.ERROR),
        # --- site-schema checks ------------------------------------ #
        _rule("SCH001", "unreachable-page-type",
              "A Skolem function (page type) is not reachable from any "
              "root in the site schema.", Severity.ERROR),
        _rule("SCH002", "dead-link-clause",
              "A link clause sits in a block that can never produce "
              "bindings.", Severity.ERROR),
        _rule("SCH003", "collect-never-fires",
              "A collect clause sits in a block that can never produce "
              "bindings.", Severity.ERROR),
        _rule("SCH004", "no-root-page-type",
              "No zero-argument Skolem function or explicit root exists; "
              "the site has no entry page.", Severity.ERROR),
        # --- template checks --------------------------------------- #
        _rule("TPL001", "unknown-attribute",
              "A template attribute expression matches no site-schema "
              "edge: the page will render empty there.", Severity.ERROR),
        _rule("TPL002", "unknowable-attribute",
              "A template attribute step depends on data-driven (arc "
              "variable) labels and cannot be checked statically.",
              Severity.INFO),
        _rule("TPL003", "unknown-page-type",
              "A template is attached to a page type or collection the "
              "site schema does not define.", Severity.WARNING),
        _rule("TPL004", "template-syntax-error",
              "A template file does not parse.", Severity.ERROR),
        # --- constraint checks ------------------------------------- #
        _rule("CON001", "malformed-constraint",
              "An integrity constraint does not parse.", Severity.ERROR,
              help="Fix the formula at the reported line/column; "
                   "constraints are declared one per line."),
        _rule("CON002", "constraint-verified",
              "The constraint holds on every site this query can "
              "generate.", Severity.INFO,
              help="Proven from the site query's structure alone -- no "
                   "generation-time model check is needed."),
        _rule("CON003", "constraint-unverifiable",
              "Static analysis cannot decide the constraint; it will be "
              "model-checked after each build.", Severity.WARNING,
              help="The post-build audit (repro.analysis.audit) reports "
                   "AUD004 if the materialized site graph violates it."),
        _rule("CON004", "constraint-refuted",
              "No site this query generates can satisfy the constraint "
              "(no schema path matches the required pattern).",
              Severity.ERROR,
              help="Either the constraint or the site query is wrong: "
                   "the schema admits no path matching the pattern."),
        _rule("CON005", "constraint-vacuous",
              "The constraint names a class no collection or Skolem "
              "function defines; it holds only vacuously.",
              Severity.WARNING,
              help="Check the class name against the site query's Skolem "
                   "functions and collect clauses."),
        # --- data-constraint checks -------------------------------- #
        _rule("DC001", "malformed-data-constraint",
              "A data-constraint declaration does not parse.",
              Severity.ERROR,
              help="Fix the declaration at the reported line/column; the "
                   "parser resynchronizes at the next keyword, so later "
                   "rules in the file were still checked."),
        _rule("DC002", "unknown-constraint-collection",
              "A data constraint names a collection neither the site "
              "schema nor the data graph defines.", Severity.WARNING,
              help="The constraint can never apply to any subject. Check "
                   "the collection name against the wrapper output and "
                   "the mediator's mapping queries."),
        _rule("DC003", "unknown-constraint-label",
              "A data constraint names an edge label absent from both "
              "the site schema and the data graph.", Severity.WARNING,
              help="A value constraint on a label no edge carries can "
                   "never fire; a required constraint on it would flag "
                   "every member instead."),
        _rule("DC004", "data-constraint-violated",
              "Members of the data graph violate a declared data "
              "constraint.", Severity.ERROR,
              help="Run 'repro ingest --constraints' to quarantine the "
                   "violating records with provenance, or fix the source "
                   "data."),
        _rule("DC005", "data-constraint-refuted",
              "The constraint can never be violated: proven by the "
              "mapping queries' structure or by the value index.",
              Severity.INFO,
              help="A schema proof holds for every future dataset; a "
                   "value-index proof holds for the current data graph "
                   "and lets checkers skip the member scan."),
        _rule("DC006", "data-constraint-dynamic",
              "Static analysis cannot decide the constraint; it will be "
              "enforced at ingest time.", Severity.INFO,
              help="The ingest gate and the incremental checker evaluate "
                   "it per subject; this is the normal case for "
                   "expression constraints."),
        _rule("DC007", "duplicate-data-constraint",
              "The same data constraint is declared more than once.",
              Severity.WARNING,
              help="Identical declarations are checked once; remove the "
                   "duplicate to keep counters meaningful."),
        # --- post-build audit -------------------------------------- #
        _rule("AUD001", "dangling-link",
              "A generated page links to a page that was never generated.",
              Severity.ERROR),
        _rule("AUD002", "unreachable-generated-page",
              "A site-graph node with a template is not reachable from "
              "any generated page.", Severity.WARNING),
        _rule("AUD003", "empty-page",
              "A generated page rendered with no visible text.",
              Severity.WARNING),
        _rule("AUD004", "constraint-violated",
              "An integrity constraint failed on the materialized site "
              "graph.", Severity.ERROR),
    ]
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    ``subject`` names what the finding is about (a Skolem function, a
    template, a collection, a constraint) -- it is the key the suppression
    mechanism matches on, and what deduplication compares.  The span is
    excluded from equality so the same finding reported from two passes
    deduplicates.
    """

    code: str
    severity: Severity
    message: str
    subject: str = ""
    span: Span = field(compare=False, default=Span())
    #: which pass produced it ("query", "schema", "template", ...).
    source: str = field(compare=False, default="")

    def __str__(self) -> str:
        where = str(self.span)
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.severity}[{self.code}] {self.message}"

    @property
    def rule(self) -> Optional[Rule]:
        return RULES.get(self.code)


class Suppressions:
    """Finding suppression shared by every pass and the post-build audit.

    Specs are ``CODE`` (suppress every finding with that code) or
    ``CODE:subject`` (suppress findings about one subject).  The same
    spec strings work on the CLI (``--suppress``), in the
    :class:`~repro.analysis.analyzer.Analyzer` API, and in
    :func:`~repro.analysis.audit` -- one mechanism, so a finding silenced statically stays
    silenced at generation time.
    """

    def __init__(self, specs: Iterable[str] = ()) -> None:
        self._codes: set = set()
        self._subjects: set = set()
        for spec in specs:
            spec = spec.strip()
            if not spec:
                continue
            if ":" in spec:
                code, subject = spec.split(":", 1)
                self._subjects.add((code.strip(), subject.strip()))
            else:
                self._codes.add(spec)

    def __bool__(self) -> bool:
        return bool(self._codes or self._subjects)

    def matches(self, diagnostic: Diagnostic) -> bool:
        if diagnostic.code in self._codes:
            return True
        return (diagnostic.code, diagnostic.subject) in self._subjects


@dataclass
class DiagnosticReport:
    """All findings of one analyzer run, deduplicated and sortable."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: suppressed findings, kept for accounting (rendered only on demand).
    suppressed: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.add(diagnostic)

    def apply_suppressions(self, suppressions: Suppressions) -> None:
        if not suppressions:
            return
        kept: List[Diagnostic] = []
        for diagnostic in self.diagnostics:
            if suppressions.matches(diagnostic):
                self.suppressed.append(diagnostic)
            else:
                kept.append(diagnostic)
        self.diagnostics = kept

    # ------------------------------------------------------------ #

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings exist (the CI gate)."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        """The CLI/CI exit-code contract: 0 clean, 1 errors found."""
        return 0 if self.ok else 1

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def sorted(self) -> List[Diagnostic]:
        """Findings ordered by file, line, severity, code."""
        return sorted(
            self.diagnostics,
            key=lambda d: (
                d.span.file,
                d.span.line,
                d.span.column,
                d.severity.rank,
                d.code,
            ),
        )

    def summary(self) -> str:
        parts = [
            f"{len(self.errors)} error(s)",
            f"{len(self.warnings)} warning(s)",
            f"{len(self.infos)} note(s)",
        ]
        if self.suppressed:
            parts.append(f"{len(self.suppressed)} suppressed")
        return ", ".join(parts)


def make(
    code: str,
    message: str,
    subject: str = "",
    span: Optional[Span] = None,
    source: str = "",
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the rule registry."""
    rule = RULES.get(code)
    if severity is None:
        severity = rule.default_severity if rule else Severity.WARNING
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        subject=subject,
        span=span or Span(),
        source=source,
    )
