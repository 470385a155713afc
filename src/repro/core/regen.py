"""Selective regeneration: re-render only the pages an edit affected.

The static pipeline's answer to the incremental-maintenance problem:
:class:`RegeneratingSite` owns the whole chain

    data graph --maintainer--> site graph --generator--> HTML pages

and keeps it warm across data-graph mutations.  Each mutation flows
through the :class:`~repro.core.maintenance.SiteMaintainer` (which
patches the materialized site graph), then the regenerator reads the
*site graph's own delta log* to learn which site-graph nodes changed and
re-renders only the pages whose recorded read set intersects them --
every other page keeps its bytes.  The persistent generator keeps the
filename table, so retained pages keep their names and the whole output
stays byte-identical to a from-scratch build (property-tested).

Honest fallbacks, matching the maintainer's: deletions and negation make
the maintainer replace the site graph wholesale, and the bounded delta
log can truncate -- both regenerate everything (counted as ``coarse``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..graph import Graph, Oid, Target
from ..struql.ast import Program, Query
from ..template import GeneratedSite, HtmlGenerator, TemplateSet
from .maintenance import MaintenanceReport, SiteMaintainer


class _ReadTracker:
    """Delegation wrapper over a site graph that records which nodes a
    render reads.  Only the accessors the renderer, the template
    selector, and root resolution use are intercepted; everything else
    forwards untouched."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        #: when set, every node read is recorded here
        self.log: Optional[Set[Oid]] = None

    def _note(self, oid: Oid) -> None:
        if self.log is not None:
            self.log.add(oid)

    def targets(self, oid: Oid, label: str):
        self._note(oid)
        return self._graph.targets(oid, label)

    def attribute(self, oid: Oid, label: str):
        self._note(oid)
        return self._graph.attribute(oid, label)

    def out_edges(self, oid: Oid):
        self._note(oid)
        return self._graph.out_edges(oid)

    def labels_of(self, oid: Oid):
        self._note(oid)
        return self._graph.labels_of(oid)

    def has_node(self, oid: Oid) -> bool:
        self._note(oid)
        return self._graph.has_node(oid)

    def collections_of(self, oid: Oid) -> List[str]:
        self._note(oid)
        return self._graph.collections_of(oid)

    def in_collection(self, name: str, oid: Oid) -> bool:
        self._note(oid)
        return self._graph.in_collection(name, oid)

    def __getattr__(self, name: str):
        return getattr(self._graph, name)


class _TrackingGenerator(HtmlGenerator):
    """An :class:`HtmlGenerator` that records, for every page it
    renders, the set of site-graph nodes the render read."""

    def __init__(self, graph: Graph, templates: TemplateSet) -> None:
        tracker = _ReadTracker(graph)
        super().__init__(tracker, templates)  # type: ignore[arg-type]
        self.tracker = tracker
        #: page oid -> site-graph nodes its last render read
        self.page_deps: Dict[Oid, Set[Oid]] = {}

    def _render_page(self, oid: Oid) -> str:
        reads: Set[Oid] = set()
        previous = self.tracker.log
        self.tracker.log = reads
        try:
            html = super()._render_page(oid)
        finally:
            self.tracker.log = previous
        self.page_deps[oid] = reads
        return html


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
        """Re-render every page from the current site graph.

        The explicit recovery path: after an external failure mid-edit
        (e.g. a fault injected between maintenance and re-render) the
        warm page set may be behind the site graph; a rebuild restores
        the byte-identical-to-scratch invariant.  Counted as coarse.
        """
        self._full_build()
        report = RegenReport(maintenance=self.maintainer.last_report, coarse=True)
        report.pages_rerendered = len(self._site.pages)
        self.last_report = report
        return report

    def _full_build(self) -> None:
        site_graph = self.maintainer.site_graph
        self._generator = _TrackingGenerator(site_graph, self.templates)
        self._site = self._generator.generate(self.roots, self.site_name)
        self._site_graph_ref = site_graph
        self._site_epoch = site_graph.epoch

    def _regenerate(self) -> RegenReport:
        report = RegenReport(maintenance=self.maintainer.last_report)
        site_graph = self.maintainer.site_graph
        if site_graph is not self._site_graph_ref:
            # the maintainer rebuilt the site graph wholesale (deletion
            # or negation): page identity is gone, regenerate everything
            self._full_build()
            report.coarse = True
            report.pages_rerendered = len(self._site.pages)
            return report
        delta = site_graph.delta_since(self._site_epoch)
        if delta is None:
            self._full_build()
            report.coarse = True
            report.pages_rerendered = len(self._site.pages)
            return report
        report.delta_size = delta.size()
        self._site_epoch = site_graph.epoch
        if delta.empty:
            report.pages_retained = len(self._site.pages)
            return report
        affected: Set[Oid] = delta.touched_oids()
        affected.update(delta.nodes_added)
        generator = self._generator
        # roots naming collections can have gained members: any root oid
        # without a filename yet becomes a new page seed
        for root in self.roots:
            for oid in generator._resolve_root(root):
                generator._assign_filename(oid)
        stale = [
            oid
            for oid, deps in generator.page_deps.items()
            if deps & affected
        ]
        for oid in stale:
            self._site.pages[generator._filenames[oid]] = generator._render_page(oid)
        report.pages_rerendered = len(stale)
        report.pages_retained = len(generator.page_deps) - len(stale)
        # re-rendering (and new root members) can have discovered brand
        # new pages: drain the generator queue exactly like a full build
        while generator._queue:
            oid = generator._queue.popleft()
            if oid in generator.page_deps:
                continue
            self._site.pages[generator._filenames[oid]] = generator._render_page(oid)
            report.pages_added += 1
        self._site.filenames = dict(generator._filenames)
        return report
