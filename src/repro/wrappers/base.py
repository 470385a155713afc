"""Common wrapper interface.

"A set of source-specific wrappers translates the external representation
into the graph model" (paper section 2.1).  Every wrapper consumes one
external source (text, file, or rows) and produces a
:class:`~repro.graph.Graph`; the mediator then integrates several wrapper
outputs into the data graph.

The paper's wrappers were "simple AWK programs"; ours are small Python
classes sharing this interface so the mediator can treat them uniformly.

Each wrapper has one record loop, :meth:`Wrapper._wrap_into`, which hands
every malformed record to :meth:`Wrapper._fault`.  That is the one place
where the two modes differ.  The default is strict: the fault raises a
:class:`~repro.errors.WrapperError` carrying the source name and the
record's locator.  Under ``wrap(policy=WrapPolicy.tolerant())`` the
fault is quarantined into ``last_quarantine`` -- a
:class:`~repro.resilience.QuarantineReport` -- and the loop goes on,
up to the policy's error budget.  Real feeds are messy (the paper's AT&T
and CNN sites re-ingested live data continuously); one bad entry must
not take down the site.  Sources with no record structure (XML, DDL)
report a parse error as one fault located at ``line N`` (or
``source``).
"""

from __future__ import annotations

from typing import Optional

from ..errors import WrapperError
from ..graph import Graph, collection_paused
from ..resilience.chaos import maybe_fail
from ..resilience.quarantine import QuarantineReport, WrapPolicy

_STRICT = WrapPolicy()


class Wrapper:
    """Base class: a named translator from one source into a graph.

    Subclasses implement :meth:`_wrap_into`, which calls :meth:`_fault`
    for each record that will not translate and counts each admitted
    record in ``last_quarantine.admitted``.
    """

    #: short identifier of the source kind ("bibtex", "relational", ...)
    source_kind = "abstract"

    def __init__(self, source_name: str = "") -> None:
        self.source_name = source_name or self.source_kind
        #: admitted and quarantined records of the most recent wrap
        self.last_quarantine = QuarantineReport(source=self.source_name)
        self._policy = _STRICT

    @collection_paused()
    def wrap(self, policy: Optional[WrapPolicy] = None) -> Graph:
        """Translate the source into a fresh graph.

        Strict by default; with a quarantining ``policy``, malformed
        records are reported in ``last_quarantine`` instead of raising
        (until the policy's error budget is exhausted).
        """
        maybe_fail(f"wrapper.{self.source_kind}.wrap")
        graph = Graph(self.source_name)
        self._policy = policy or _STRICT
        self.last_quarantine = QuarantineReport(source=self.source_name)
        self._wrap_into(graph)
        if self._policy.constraints is not None:
            # a record that parses but violates a declared data
            # constraint is a record fault like any other: quarantined
            # (tolerant) or raising (strict)
            from ..constraints.gate import apply_constraint_gate

            apply_constraint_gate(
                graph, self._policy, self.last_quarantine, self.source_name
            )
        return graph

    def _wrap_into(self, graph: Graph) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _fault(self, locator: str, error: BaseException, snippet: str = "") -> None:
        """One record at ``locator`` will not translate.

        Strict: raise a :class:`WrapperError` naming the source and the
        record.  Tolerant: quarantine it and return, unless that blows
        the error budget.
        """
        policy = self._policy
        if not policy.quarantine:
            message = getattr(error, "base_message", "") or str(error)
            raise WrapperError(
                message, source_name=self.source_name, locator=locator, cause=error
            ) from error
        report = self.last_quarantine
        report.add(locator, error, snippet=policy.clip(snippet), source=self.source_name)
        policy.enforce_budget(report, self.source_name)
