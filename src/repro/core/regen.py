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
delta* to the renders that read a changed node (*direct*), and a render
that read a stale fragment's key is stale too, transitively.  The stale
fragments are dropped and the stale pages re-rendered, each rendering
only its stale fragments afresh; every other page keeps its bytes, and
the persistent generator keeps the filename table.

A *transitive* render -- stale only through the fragments it embeds --
read no changed node, so its template walk would repeat itself, and
the renderer copies embedded bytes verbatim.  So it is not walked again
but re-joined from its *skeleton*: the literal text between its
embedded fragments and their keys, joined with each fragment's current
bytes (a stale one is rendered, or itself re-joined, when the join
reaches it).  Its recorded reads stand.  Skeletons are captured lazily:
the first time a render is re-rendered as transitive, it is walked with
each embedded fragment replaced by a slot character, a lone surrogate no
published page can hold; if the walk's own text holds one, no skeleton
is kept.  A render that goes direct drops its skeleton, so builds and
inserts, which stale their list pages directly, never capture one.
``RegenReport.rejoined`` counts the re-joins.  So ``regen.pages``
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
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union,
)

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

#: stands for an embedded fragment while a skeleton is captured: a lone
#: surrogate, which no published page can hold (pages are encoded as
#: strict UTF-8)
_SLOT = "\udfff"


@dataclass
class RegenReport:
    """What one mutation cost the static pipeline.

    A re-join (a transitively stale page or fragment rebuilt from its
    skeleton, not walked) counts as a render in ``pages_rerendered`` and
    ``fragments_rendered`` and is also counted in ``rejoined``; a
    skeleton's capture is a walk and is not."""

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
    #: pages and fragments, counted above too, rebuilt from a kept
    #: skeleton instead of walking their template
    rejoined: int = 0


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
        #: page oid or fragment key -> the literals and the embedded
        #: fragment keys between them that its last render joined
        self._skeletons: Dict[Hashable, Tuple[List[str], List[FragmentKey]]] = {}
        #: the transitively stale renders this pass has not reached yet
        self._transitive: Set[Hashable] = set()
        #: the slot list of the skeleton being captured, if any
        self._slots: Optional[List[FragmentKey]] = None
        #: fragments rendered afresh, and renders re-joined, since the
        #: pass began
        self._fragments_rendered = 0
        self._rejoined = 0
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
        self._fragments_rendered = self._rejoined = 0
        # a render that read a stale fragment's key is stale too
        # (transitive); page keys are oids, which also name site-graph
        # nodes, so only fragment keys are followed.  Dropping the
        # fragments first makes each stale page re-render exactly its
        # stale fragments
        transitive: Set[Hashable] = set()
        found: Set[Hashable] = stale
        while found:
            found = self._deps.readers(k for k in found if not isinstance(k, Oid))
            found -= stale
            found -= transitive
            transitive |= found
        # (a render that raised in an earlier pass can have left a
        # transitive fragment recorded but not cached)
        pages: List[Oid] = []
        for key in stale:
            self._skeletons.pop(key, None)
            if isinstance(key, Oid):
                pages.append(key)
            else:
                self._fragments.pop(key, None)
                self._deps.discard(key)
        for key in transitive:
            if isinstance(key, Oid):
                pages.append(key)
            else:
                self._fragments.pop(key, None)
        self._transitive = transitive
        # roots naming collections can have gained members: any root oid
        # without a filename yet becomes a new page seed
        self._seed_roots()
        for oid in sorted(pages, key=self._rank.__getitem__):
            self._render(oid)
        # a transitive fragment no render embeds any more is forgotten
        for key in self._transitive:
            self._deps.discard(key)
            self._skeletons.pop(key, None)
        self._transitive = set()
        report.pages_rerendered = len(pages)
        report.pages_retained = len(self._rank) - len(pages)
        # re-rendering (and new root members) can have discovered brand
        # new pages: drain the generator queue exactly like a full build
        report.pages_added = self._drain()
        report.fragments_rendered = self._fragments_rendered
        report.rejoined = self._rejoined
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
        html = self._produce(oid, lambda: self._generator._render_page(oid))
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
        raises caches nothing.  While a skeleton is captured, the key
        fills the next slot instead."""
        key = (oid, embed_stack)
        if self._slots is not None:
            self._view._note(key)
            self._slots.append(key)
            return _SLOT
        html = self._cached(key)
        if html is None:
            self._view._note(key)
            html = self._produce(key, lambda: render(oid, embed_stack))
            self._fragments[key] = html
            self._fragments_rendered += 1
        return html

    def _produce(self, key: Hashable, render: Callable[[], str]) -> str:
        """Render the page or fragment under ``key`` and record what it
        read.  A transitively stale one read no changed node, so its
        template walk would repeat itself: it is re-joined from its
        skeleton, keeping its recorded reads, or, without a skeleton
        yet, captured into one."""
        if key in self._transitive:
            self._transitive.discard(key)
            skeleton = self._skeletons.get(key)
            if skeleton is not None:
                self._rejoined += 1
                with self._view.recording():
                    return self._join(*skeleton)
            html = self._capture(key, render)
            if html is not None:
                return html
        with self._view.recording() as reads:
            html = render()
        self._deps.add(key, reads)
        return html

    def _capture(self, key: Hashable, render: Callable[[], str]) -> Optional[str]:
        """Render ``key`` with a slot for every fragment it embeds, keep
        the skeleton, and join it; None (and no skeleton) when the
        rendered text itself holds the slot character."""
        self._slots = slots = []
        try:
            with self._view.recording() as reads:
                raw = render()
                self._slots = None
                literals = raw.split(_SLOT)
                if len(literals) != len(slots) + 1:
                    return None
                html = self._join(literals, slots)
        finally:
            self._slots = None
        if slots:
            self._skeletons[key] = (literals, slots)
        self._deps.add(key, reads)
        return html

    def _join(self, literals: List[str], slots: List[FragmentKey]) -> str:
        """``literals`` with the current bytes of each slot's fragment
        between them; a stale one is rendered (or re-joined) here."""
        fragments = self._fragments
        embed = self._generator._renderer.render_embedded
        pieces = [literals[0]]
        for key, literal in zip(slots, literals[1:]):
            html = fragments.get(key)
            pieces.append(embed(*key) if html is None else html)
            pieces.append(literal)
        return "".join(pieces)

    def _cached(self, key: FragmentKey) -> Optional[str]:
        """The cached fragment under ``key``, its key read by the open
        recording, or None."""
        html = self._fragments.get(key)
        if html is not None:
            self._view._note(key)
        return html
