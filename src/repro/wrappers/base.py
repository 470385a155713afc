"""Common wrapper interface.

"A set of source-specific wrappers translates the external representation
into the graph model" (paper section 2.1).  Every wrapper consumes one
external source (text, file, or rows) and produces a
:class:`~repro.graph.Graph`; the mediator then integrates several wrapper
outputs into the data graph.

The paper's wrappers were "simple AWK programs"; ours are small Python
classes sharing this interface so the mediator can treat them uniformly.

Wrapping has two modes.  The default is strict: the first malformed
record raises a :class:`~repro.errors.WrapperError` carrying the source
name and a record locator.  Passing ``wrap(policy=WrapPolicy.tolerant())``
instead quarantines per-record failures into ``last_quarantine`` -- a
:class:`~repro.resilience.QuarantineReport` -- and ingests everything
well-formed, up to the policy's error budget.  Real feeds are messy
(the paper's AT&T and CNN sites re-ingested live data continuously);
one bad entry must not take down the site.
"""

from __future__ import annotations

from typing import Optional

from ..errors import QuarantineExceeded, StrudelError, WrapperError
from ..graph import Graph, collection_paused
from ..resilience.chaos import maybe_fail
from ..resilience.quarantine import QuarantineReport, WrapPolicy


class Wrapper:
    """Base class: a named translator from one source into a graph."""

    #: short identifier of the source kind ("bibtex", "relational", ...)
    source_kind = "abstract"

    def __init__(self, source_name: str = "") -> None:
        self.source_name = source_name or self.source_kind
        #: per-record failures of the most recent tolerant wrap
        self.last_quarantine = QuarantineReport(source=self.source_name)

    @collection_paused()
    def wrap(self, policy: Optional[WrapPolicy] = None) -> Graph:
        """Translate the source into a fresh graph.

        Strict by default; with a quarantining ``policy``, malformed
        records are reported in ``last_quarantine`` instead of raising
        (until the policy's error budget is exhausted).  Subclasses
        implement :meth:`_wrap_into` (strict) and, for per-record
        granularity, :meth:`_wrap_tolerant`.
        """
        maybe_fail(f"wrapper.{self.source_kind}.wrap")
        graph = Graph(self.source_name)
        self.last_quarantine = QuarantineReport(source=self.source_name)
        if policy is None or not policy.quarantine:
            try:
                self._wrap_into(graph)
            except WrapperError as error:
                if error.source_name:
                    raise
                raise error.with_source(self.source_name) from error
        else:
            self._wrap_tolerant(graph, policy, self.last_quarantine)
        if policy is not None and policy.constraints is not None:
            # a record that parses but violates a declared data
            # constraint is a record fault like any other: quarantined
            # (tolerant) or raising (strict)
            from ..constraints.gate import apply_constraint_gate

            apply_constraint_gate(
                graph, policy, self.last_quarantine, self.source_name
            )
        return graph

    def _wrap_into(self, graph: Graph) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _wrap_tolerant(
        self, graph: Graph, policy: WrapPolicy, report: QuarantineReport
    ) -> None:
        """Fallback tolerance: all-or-nothing at source granularity.

        Wrappers with per-record structure override this; for the rest a
        failing source quarantines as a single record and contributes an
        empty graph.
        """
        scratch = Graph(self.source_name)
        try:
            self._wrap_into(scratch)
        except (StrudelError, ValueError) as error:
            locator = getattr(error, "locator", "") or "source"
            self._quarantine(policy, report, locator, error)
            return
        graph.merge(scratch)
        report.admitted += 1

    def _quarantine(
        self,
        policy: WrapPolicy,
        report: QuarantineReport,
        locator: str,
        error: object,
        snippet: str = "",
    ) -> None:
        """Record one failed record; abort when the budget is blown."""
        report.add(locator, error, snippet=policy.clip(snippet), source=self.source_name)
        if policy.max_errors is not None and report.count > policy.max_errors:
            raise QuarantineExceeded(
                self.source_name, report.count, policy.max_errors, report
            )
