"""Selective regeneration: re-render only the fragments an edit affected.

The static pipeline's answer to the incremental-maintenance problem:
:class:`RegeneratingSite` owns the whole chain

    data graph --maintainer--> site graph --generator--> HTML pages

and keeps it warm across data-graph mutations.  Each mutation flows
through the :class:`~repro.core.maintenance.SiteMaintainer` (which
patches the materialized site graph).  Rendering is fragment-granular:
every page, and every component inlined into a page by ``EMBED``
(paper section 2.4), is rendered through a
:class:`~repro.struql.footprint.RecordingView` of the site graph.  An
embedded rendering is a function of ``(oid, embed_stack)`` and its
reads, so its bytes are cached under that key
(:data:`~repro.template.FragmentKey`, the key
``HtmlGenerator.generate``'s pass cache uses too).  A render reads the
site-graph nodes it reads itself and the key of every fragment it
embeds, cached or rendered afresh in its own recording; one
:class:`~repro.struql.footprint.DependencyIndex` keeps both.  A page
whose template reaches no ``EMBED``
(:attr:`~repro.template.Template.embeds` false) reuses its cached
top-level fragment ``(oid, ())``; a page render does not fill the
fragment cache, so ``RegenReport.fragments_rendered`` counts fragment
renders alone.  After a mutation the index maps the *site graph's own
delta* to the renders that read a changed node, and a render that read
a stale fragment's key is stale too, transitively.  The stale fragments
are dropped and the stale pages re-rendered, each rendering only its
stale fragments afresh; every other page keeps its bytes, and the
persistent generator keeps the filename table.  So ``regen.pages``
equals a fresh render of the maintained site graph (property-tested),
but not always a fresh build over the data graph: see
``test_category_edit_matches_a_fresh_build`` and
``test_page_name_suffixes_match_a_fresh_build``.

Honest fallbacks, matching the maintainer's: deletions, negation and a
truncated data-graph log make the maintainer replace the site graph
wholesale, and the index answers
``COARSE`` when the bounded delta log was truncated -- both regenerate
everything from an empty fragment cache (counted as ``coarse``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..graph import Graph, Oid, Target
from ..struql.ast import Program, Query
from ..struql.footprint import COARSE, DependencyIndex, RecordingView
from ..template import (
    FragmentKey,
    GeneratedSite,
    HtmlGenerator,
    Renderer,
    Template,
    TemplateSet,
)
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
    #: ``EMBED`` fragments rendered afresh (every other one was reused)
    fragments_rendered: int = 0


class _FragmentRenderer(Renderer):
    """A renderer whose every ``EMBED`` rendering goes through its
    site's fragment cache, and whose pages that reach no ``EMBED`` reuse
    their cached top-level fragment."""

    def __init__(self, site: "RegeneratingSite", registry: HtmlGenerator) -> None:
        super().__init__(site._view, registry)  # type: ignore[arg-type]
        self._site = site

    def render_embedded(self, oid: Oid, embed_stack: Tuple[Oid, ...]) -> str:
        return self._site._fragment(oid, embed_stack, super().render_embedded)

    def render_page(self, template: Template, oid: Oid) -> str:
        if not template.embeds:
            cached = self._site._cached((oid, ()))
            if cached is not None:
                return cached
        return super().render_page(template, oid)


class RegeneratingSite:
    """A statically generated site kept warm under data-graph edits.

    ``regen.pages`` is byte-identical to rendering the maintained site
    graph from scratch (the module docstring names where a fresh build
    differs); the point is that after a small edit only the affected
    pages are re-rendered to get there, and inside them only the
    affected ``EMBED`` fragments.
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
        self._generator._renderer = _FragmentRenderer(self, self._generator)
        #: page oid or fragment key -> the site-graph nodes and fragment
        #: keys its last render read
        self._deps = DependencyIndex()
        #: fragment key -> html
        self._fragments: Dict[FragmentKey, str] = {}
        #: fragments rendered afresh since the pass began
        self._fragments_rendered = 0
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
            fragments_rendered=self._fragments_rendered,
        )

    def _regenerate(self) -> RegenReport:
        site_graph = self.maintainer.site_graph
        if site_graph is not self._site_graph:
            # the maintainer rebuilt the site graph wholesale (deletion,
            # negation or a truncated data log): page identity is gone,
            # regenerate everything
            return self._full_build()
        stale = self._deps.affected(site_graph, self._site_epoch)
        if stale is COARSE:
            return self._full_build()
        report = RegenReport(maintenance=self.maintainer.last_report)
        report.delta_size = stale.delta.size()
        self._site_epoch = site_graph.epoch
        self._fragments_rendered = 0
        # a render that read a stale fragment's key is stale too; page
        # keys are oids, which also name site-graph nodes, so only
        # fragment keys are followed.  Dropping the fragments first
        # makes each stale page re-render exactly its stale fragments
        found = stale
        while found:
            found = self._deps.readers(k for k in found if not isinstance(k, Oid)) - stale
            stale |= found
        pages: List[Oid] = []
        for key in stale:
            if isinstance(key, Oid):
                pages.append(key)
            else:
                del self._fragments[key]
                self._deps.discard(key)
        # roots naming collections can have gained members: any root oid
        # without a filename yet becomes a new page seed
        self._seed_roots()
        for oid in sorted(pages, key=self._rank.__getitem__):
            self._render(oid)
        report.pages_rerendered = len(pages)
        report.pages_retained = len(self._rank) - len(pages)
        # re-rendering (and new root members) can have discovered brand
        # new pages: drain the generator queue exactly like a full build
        report.pages_added = self._drain()
        report.fragments_rendered = self._fragments_rendered
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

    def _fragment(
        self,
        oid: Oid,
        embed_stack: Tuple[Oid, ...],
        render: Callable[[Oid, Tuple[Oid, ...]], str],
    ) -> str:
        """The ``EMBED`` rendering of ``oid`` under ``embed_stack``, its
        key read by the open recording: the cached bytes, or a fresh
        ``render`` recorded and cached under the key.  A render that
        raises caches nothing."""
        key = (oid, embed_stack)
        html = self._cached(key)
        if html is None:
            self._view._note(key)
            with self._view.recording() as reads:
                html = render(oid, embed_stack)
            self._fragments[key] = html
            self._deps.add(key, reads)
            self._fragments_rendered += 1
        return html

    def _cached(self, key: FragmentKey) -> Optional[str]:
        """The cached fragment under ``key``, its key read by the open
        recording, or None."""
        html = self._fragments.get(key)
        if html is not None:
            self._view._note(key)
        return html
