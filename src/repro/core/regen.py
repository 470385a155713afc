"""Selective regeneration: re-render only the pages an edit affected.

The static pipeline's answer to the incremental-maintenance problem:
:class:`RegeneratingSite` owns the whole chain

    data graph --maintainer--> site graph --generator--> HTML pages

and keeps it warm across data-graph mutations.  Each mutation flows
through the :class:`~repro.core.maintenance.SiteMaintainer` (which
patches the materialized site graph).  Every page is rendered through a
:class:`~repro.struql.footprint.RecordingView` of the site graph, and
the site-graph nodes it read are kept in a
:class:`~repro.struql.footprint.DependencyIndex`; after a mutation the
index maps the *site graph's own delta* to the pages whose reads it
changed, and only those are re-rendered -- every other page keeps its
bytes.  The persistent generator keeps the filename table, so retained
pages keep their names and the whole output stays byte-identical to a
from-scratch build (property-tested).

Honest fallbacks, matching the maintainer's: deletions and negation make
the maintainer replace the site graph wholesale, and the index answers
``COARSE`` when the bounded delta log was truncated -- both regenerate
everything (counted as ``coarse``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from ..graph import Graph, Oid, Target
from ..struql.ast import Program, Query
from ..struql.footprint import COARSE, DependencyIndex, RecordingView
from ..template import GeneratedSite, HtmlGenerator, TemplateSet
from .maintenance import MaintenanceReport, SiteMaintainer


@dataclass
class RegenReport:
    """What one mutation cost the static pipeline."""

    #: the maintainer's disposition for the site-graph update
    maintenance: MaintenanceReport = field(default_factory=MaintenanceReport)
    #: True when everything was re-rendered (rebuild or truncated log)
    coarse: bool = False
    #: pages re-rendered because their read set met the delta
    pages_rerendered: int = 0
    #: brand-new pages discovered and rendered
    pages_added: int = 0
    #: pages whose bytes were provably unaffected and kept
    pages_retained: int = 0
    #: individual site-graph mutations the delta carried
    delta_size: int = 0


class RegeneratingSite:
    """A statically generated site kept warm under data-graph edits.

    ``regen.pages`` is always byte-identical to building the site from
    scratch over the current data graph; the point is that after a small
    edit only the affected pages are re-rendered to get there.
    """

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        templates: TemplateSet,
        roots: Sequence[Union[Oid, str]],
        site_name: str = "site",
    ) -> None:
        self.maintainer = SiteMaintainer(program, data_graph)
        self.templates = templates
        self.roots = list(roots)
        self.site_name = site_name
        self.last_report = RegenReport()
        self._full_build()

    # ------------------------------------------------------------ #
    # output

    @property
    def site(self) -> GeneratedSite:
        return self._site

    @property
    def pages(self) -> Dict[str, str]:
        return self._site.pages

    # ------------------------------------------------------------ #
    # mutation entry points (mirror SiteMaintainer's)

    def add_object(
        self,
        collection: str,
        attributes: Sequence[Tuple[str, object]],
        oid: Optional[Oid] = None,
    ) -> Oid:
        node = self.maintainer.add_object(collection, attributes, oid)
        self.last_report = self._regenerate()
        return node

    def add_edge(self, source: Oid, label: str, target: object) -> Target:
        stored = self.maintainer.add_edge(source, label, target)
        self.last_report = self._regenerate()
        return stored

    def add_to_collection(self, collection: str, oid: Oid) -> None:
        self.maintainer.add_to_collection(collection, oid)
        self.last_report = self._regenerate()

    def remove_edge(self, source: Oid, label: str, target: Target) -> None:
        self.maintainer.remove_edge(source, label, target)
        self.last_report = self._regenerate()

    def remove_object(self, oid: Oid) -> None:
        self.maintainer.remove_object(oid)
        self.last_report = self._regenerate()

    # ------------------------------------------------------------ #

    def rebuild(self) -> RegenReport:
        """Re-derive the site graph from the current data graph and
        re-render every page.

        The explicit recovery path: after a failure mid-edit (a pass
        that raised after mutating the data graph, or a fault between
        maintenance and re-render) the site graph and the warm page set
        may both be behind the data; a rebuild restores the
        byte-identical-to-scratch invariant.  Counted as coarse.
        """
        self.maintainer.rebuild()
        self.last_report = self._full_build()
        return self.last_report

    def _full_build(self) -> RegenReport:
        site_graph = self.maintainer.site_graph
        self._view = RecordingView(site_graph)
        self._generator = HtmlGenerator(self._view, self.templates)  # type: ignore[arg-type]
        #: page oid -> the site-graph nodes its last render read
        self._deps = DependencyIndex()
        #: page oid -> position in first-render order
        self._rank: Dict[Oid, int] = {}
        self._site = GeneratedSite(self.site_name)
        self._site_graph = site_graph
        self._site_epoch = site_graph.epoch
        self._seed_roots()
        self._drain()
        self._site.filenames = dict(self._generator._filenames)
        return RegenReport(
            maintenance=self.maintainer.last_report,
            coarse=True,
            pages_rerendered=len(self._site.pages),
        )

    def _regenerate(self) -> RegenReport:
        site_graph = self.maintainer.site_graph
        if site_graph is not self._site_graph:
            # the maintainer rebuilt the site graph wholesale (deletion
            # or negation): page identity is gone, regenerate everything
            return self._full_build()
        stale = self._deps.affected(site_graph, self._site_epoch)
        if stale is COARSE:
            return self._full_build()
        report = RegenReport(maintenance=self.maintainer.last_report)
        report.delta_size = stale.delta.size()
        self._site_epoch = site_graph.epoch
        # roots naming collections can have gained members: any root oid
        # without a filename yet becomes a new page seed
        self._seed_roots()
        for oid in sorted(stale, key=self._rank.__getitem__):
            self._render(oid)
        report.pages_rerendered = len(stale)
        report.pages_retained = len(self._deps) - len(stale)
        # re-rendering (and new root members) can have discovered brand
        # new pages: drain the generator queue exactly like a full build
        report.pages_added = self._drain()
        self._site.filenames = dict(self._generator._filenames)
        return report

    def _seed_roots(self) -> None:
        for root in self.roots:
            for oid in self._generator._resolve_root(root):
                self._generator._assign_filename(oid)

    def _drain(self) -> int:
        """Render every queued page not rendered yet, in queue order --
        the serial generator's order; returns how many."""
        queue = self._generator._queue
        rendered = 0
        while queue:
            oid = queue.popleft()
            if oid not in self._deps:
                self._render(oid)
                rendered += 1
        return rendered

    def _render(self, oid: Oid) -> None:
        with self._view.recording() as reads:
            html = self._generator._render_page(oid)
        self._deps.add(oid, reads)
        self._rank.setdefault(oid, len(self._rank))
        self._site.pages[self._generator._filenames[oid]] = html
