"""Exception hierarchy for the Strudel reproduction.

Every error raised by this library derives from :class:`StrudelError`, so
callers can catch one type at an API boundary.  Subsystems raise the more
specific subclasses below; each carries a plain-language message and, where
useful, source positions (parsers) or offending object identifiers.
"""

from __future__ import annotations


class StrudelError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(StrudelError):
    """Violation of the semistructured data model.

    Raised for unknown oids, attempts to mutate immutable (pre-existing)
    nodes during query construction, or malformed edges.
    """


class UnknownObjectError(GraphError):
    """An oid was referenced that does not exist in the graph."""

    def __init__(self, oid: object) -> None:
        super().__init__(f"unknown object: {oid!r}")
        self.oid = oid


class ImmutableNodeError(GraphError):
    """A construction step tried to add an edge out of a pre-existing node.

    STRUQL requires that edges are added only from *new* (Skolem-created)
    nodes; nodes of the queried graph are immutable (paper section 2.2).
    """


class RepositoryError(StrudelError):
    """Problems in the data repository: missing graphs, bad storage files."""


class RepositoryCorruptionError(RepositoryError):
    """A stored graph file failed its integrity check (bad checksum,
    truncated write).  The repository tries the previous good generation
    before surfacing this to callers."""


class DDLSyntaxError(RepositoryError):
    """Malformed Strudel data-definition-language input."""

    def __init__(self, message: str, line: int = 0) -> None:
        location = f" (line {line})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line


class WrapperError(StrudelError):
    """A source wrapper could not translate its input into a graph.

    Carries the source name, a record locator ("entry p3 (line 12)",
    "row 7", "page a.html") and the underlying cause when known, so a
    failed ingest names the offending record instead of a bare parse
    message.
    """

    def __init__(
        self,
        message: str,
        source_name: str = "",
        locator: str = "",
        cause: object = None,
    ) -> None:
        self.base_message = message
        self.source_name = source_name
        self.locator = locator
        self.cause = cause
        context = [part for part in (source_name, locator) if part]
        super().__init__(": ".join(context + [message]))


class QuarantineExceeded(WrapperError):
    """A tolerant wrap blew its error budget.

    More records failed than :class:`~repro.resilience.WrapPolicy`
    allowed -- the source is more likely misconfigured than dirty, so
    the load aborts.  Carries the quarantine report so far.
    """

    def __init__(self, source_name: str, count: int, budget: int, report: object = None) -> None:
        super().__init__(
            f"quarantined {count} records, more than the error budget of {budget}",
            source_name=source_name,
        )
        self.count = count
        self.budget = budget
        self.report = report


class MediatorError(StrudelError):
    """Misconfigured mediation: unknown sources, bad GAV mappings."""


class StruqlError(StrudelError):
    """Base class for STRUQL errors."""


class StruqlSyntaxError(StruqlError):
    """Lexical or grammatical error in a STRUQL query string."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class StruqlSemanticError(StruqlError):
    """The query parsed but is not well formed.

    Examples: a link source that is neither created nor a data-graph node,
    an unbound variable used in a construction clause, or a Skolem function
    applied with inconsistent arity.  Carries the offending clause's source
    position when the parser knows it.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class StruqlEvaluationError(StruqlError):
    """A runtime failure while evaluating a query (e.g. type mismatch that
    cannot be resolved by coercion)."""


class TemplateError(StrudelError):
    """Base class for HTML-template language errors."""


class TemplateSyntaxError(TemplateError):
    """Malformed template text (bad SFMT/SIF/SFOR syntax, unclosed tags)."""

    def __init__(self, message: str, line: int = 0) -> None:
        location = f" (line {line})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line


class TemplateEvaluationError(TemplateError):
    """A template referenced something the site graph cannot supply."""


class TemplateResolutionError(TemplateError):
    """No template could be selected for an object that must be rendered."""


class ConstraintError(StrudelError):
    """Malformed integrity-constraint formula.

    Carries the source position of the offending token when the parser
    knows it, so analyzer diagnostics for constraint files get real
    line/column spans like every other front-end.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ConstraintViolation(StrudelError):
    """An integrity constraint failed during enforcement.

    Carries the constraint and the first counterexample binding found.
    """

    def __init__(self, constraint: object, witness: object = None) -> None:
        detail = f"; counterexample: {witness!r}" if witness is not None else ""
        super().__init__(f"integrity constraint violated: {constraint}{detail}")
        self.constraint = constraint
        self.witness = witness


class DeadlineExceeded(StrudelError):
    """A request-scoped evaluation deadline expired mid-flight.

    Raised cooperatively by the query engine, the regular-path search,
    template expansion, and the SQL pushdown layer when the ambient
    :class:`~repro.resilience.deadline.Deadline` runs out.  Carries the
    budget, the elapsed time at detection, and the site (operator or
    layer) that noticed, so slow-query reports can say *where* a
    pathological query was spending its time.
    """

    def __init__(self, budget: float, elapsed: float, site: str = "") -> None:
        where = f" in {site}" if site else ""
        super().__init__(
            f"deadline of {budget:.3f}s exceeded after {elapsed:.3f}s{where}"
        )
        self.budget = budget
        self.elapsed = elapsed
        self.site = site


class SiteDefinitionError(StrudelError):
    """The site builder was given an inconsistent specification."""


class SiteAnalysisError(StrudelError):
    """The pre-build static analysis gate found error-severity findings.

    Carries the full :class:`~repro.analysis.DiagnosticReport` so callers
    can render or filter it.
    """

    def __init__(self, report: object) -> None:
        errors = getattr(report, "errors", [])
        codes = sorted({getattr(d, "code", "?") for d in errors})
        super().__init__(
            f"static analysis found {len(errors)} error(s) "
            f"({', '.join(codes)}); site was not built"
        )
        self.report = report
