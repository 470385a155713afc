"""A click-time page server: dynamic evaluation end to end.

Section 7 of the paper: "Currently, STRUDEL does not support dynamically
generated sites.  In practice, dynamic generation is supported by often
large sets of loosely related CGI programs.  Supporting dynamic
evaluation would eliminate writing such programs by hand."

This module closes that gap for the reproduction.  :class:`PageServer`
answers ``GET``-style requests by

1. resolving the request path to a Skolem-term :class:`NodeInstance`;
2. computing the node's outgoing edges with the *incremental query* of
   its site-schema edges (:class:`~repro.core.incremental.DynamicSite`,
   with caching and optional lookahead);
3. rendering the node's HTML template against a
   :class:`LazySiteGraph` -- a site graph materialized on demand, one
   node expansion at a time, so a request touches only the data it
   displays.

Rendered pages are cached with the lazy site-graph nodes each render
read (recorded through a :class:`~repro.struql.footprint.RecordingView`
and kept in a :class:`~repro.struql.footprint.DependencyIndex`).  After
an edit, :meth:`PageServer.refresh` drops only the pages that read a
node the delta changed or whose expansion the dynamic site dropped.

No sockets are involved: ``server.get("/")`` returns HTML text.  The
test suite asserts that every page the server produces is byte-identical
to the statically generated page for the same object, which is the
correctness contract for dynamic evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import html as html_escape

from ..errors import (
    DeadlineExceeded,
    SiteDefinitionError,
    StrudelError,
    TemplateResolutionError,
)
from ..graph import Atom, Graph, Oid
from ..resilience.chaos import ChaosFault
from ..struql.ast import Program, Query
from ..struql.footprint import DependencyIndex, RecordingView, changed_nodes
from ..template import Renderer, Template, TemplateSet
from ..template.eval import PageRegistry
from .incremental import DynamicSite, NodeInstance, RefreshResult


class LazySiteGraph(Graph):
    """A site graph whose nodes materialize on first touch.

    Backed by a :class:`DynamicSite`: touching a Skolem node runs its
    incremental queries and installs the resulting edges; touching a
    *data-graph* node (referenced by a link clause) copies its out-edges
    from the data graph, one level at a time.  Every read accessor the
    renderer and template selector use is overridden to ensure the node
    first.
    """

    def __init__(self, dynamic: DynamicSite) -> None:
        super().__init__("lazy-site")
        self.dynamic = dynamic
        self._instances: Dict[Oid, NodeInstance] = {}
        self._materialized: Dict[Oid, None] = {}
        self.expansions = 0

    # ------------------------------------------------------------ #
    # instance bookkeeping

    def register_instance(self, instance: NodeInstance) -> Oid:
        oid = instance.oid()
        self._instances[oid] = instance
        return oid

    def instance_for(self, oid: Oid) -> Optional[NodeInstance]:
        return self._instances.get(oid)

    # ------------------------------------------------------------ #
    # lazy materialization

    def _ensure(self, oid: Oid) -> None:
        if oid in self._materialized:
            return
        self._materialized[oid] = None
        instance = self._instances.get(oid)
        if instance is not None:
            self.expansions += 1
            self.add_node(oid)
            for label, target in self.dynamic.expand(instance):
                if isinstance(target, NodeInstance):
                    target_oid = self.register_instance(target)
                    self.add_node(target_oid)
                    self.add_edge(oid, label, target_oid)
                elif isinstance(target, Oid):
                    self.add_node(target)
                    self.add_edge(oid, label, target)
                else:
                    self.add_edge(oid, label, target)
            return
        data = self.dynamic.data_graph
        if data.has_node(oid):
            self.add_node(oid)
            for label, target in data.out_edges(oid):
                if isinstance(target, Oid):
                    self.add_node(target)
                self.add_edge(oid, label, target)

    def demote(self, oid: Oid) -> None:
        """De-materialize one node: drop its copied out-edges so the next
        touch re-runs its incremental queries (or re-copies it from the
        data graph).  Incoming edges from other materialized nodes are
        kept -- the node itself still exists, only its expansion is
        stale."""
        if oid not in self._materialized:
            return
        del self._materialized[oid]
        if Graph.has_node(self, oid):
            for label, target in list(Graph.out_edges(self, oid)):
                self.remove_edge(oid, label, target)

    # ------------------------------------------------------------ #
    # read accessors used by the renderer / template selection

    def has_node(self, oid: Oid) -> bool:
        self._ensure(oid)
        return super().has_node(oid)

    def targets(self, oid: Oid, label: str):
        self._ensure(oid)
        return super().targets(oid, label)

    def attribute(self, oid: Oid, label: str):
        self._ensure(oid)
        return super().attribute(oid, label)

    def out_edges(self, oid: Oid):
        self._ensure(oid)
        return super().out_edges(oid)

    def labels_of(self, oid: Oid):
        self._ensure(oid)
        return super().labels_of(oid)

    def collections_of(self, oid: Oid) -> List[str]:
        """Collection membership is derived from the site schema's collect
        clauses (for Skolem nodes) or the data graph (for data nodes)."""
        instance = self._instances.get(oid)
        if instance is not None:
            return [
                name
                for name, functions in self.dynamic.schema.collections.items()
                if instance.function in functions
            ]
        data = self.dynamic.data_graph
        if data.has_node(oid):
            return data.collections_of(oid)
        return []


@dataclass(frozen=True)
class PageResponse:
    """One served page with real HTTP semantics.

    ``status`` is the HTTP status an HTTP front-end should send --
    ``404`` for paths the site does not define, ``200`` for a healthy
    render, ``200`` with ``kind="stale"`` for last-known-good bytes
    after a render fault, and ``500`` with ``kind="error-page"`` for a
    fault with no stale copy (a structured error page, never a
    traceback).
    """

    status: int
    body: str
    #: "ok" | "stale" | "error-page" | "not-found"
    kind: str = "ok"


class PageServer(PageRegistry):
    """Serves one site definition dynamically, path by path.

    Paths look like the static generator's filenames, rooted at ``/``:
    the first zero-argument Skolem instance is ``/``; every other page is
    ``/<sanitized-term>.html``.
    """

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        templates: TemplateSet,
        cache: bool = True,
        lookahead: bool = False,
    ) -> None:
        self.dynamic = DynamicSite(program, data_graph, cache=cache, lookahead=lookahead)
        self.templates = templates
        self._paths: Dict[str, Oid] = {}
        self._hrefs: Dict[Oid, str] = {}
        self._new_site_graph()
        #: path -> last successfully rendered HTML; survives invalidation,
        #: so a failing re-render can fall back to it
        self._last_good: Dict[str, str] = {}
        #: one entry per degraded response (stale page or error page)
        self.degradations: List[Dict[str, str]] = []
        self.requests = 0
        self.page_cache_hits = 0
        self.pages_invalidated = 0
        self.pages_retained = 0
        roots = self.dynamic.roots()
        if not roots:
            raise SiteDefinitionError(
                "site definition has no zero-argument Skolem function to "
                "serve as the root page"
            )
        for index, root in enumerate(roots):
            oid = self.graph.register_instance(root)
            path = "/" if index == 0 else self._path_for(oid)
            self._paths[path] = oid
            self._hrefs[oid] = path

    # ------------------------------------------------------------ #
    # PageRegistry interface

    def href_for(self, oid: Oid) -> Optional[str]:
        if self.templates.resolve(self._view, oid) is None:
            return None
        href = self._hrefs.get(oid)
        if href is None:
            href = self._path_for(oid)
            self._hrefs[oid] = href
            self._paths[href] = oid
        return href

    def template_for(self, oid: Oid) -> Optional[Template]:
        return self.templates.resolve(self._view, oid)

    # ------------------------------------------------------------ #

    def get(self, path: str, strict: bool = False) -> str:
        """Render the page at ``path``; raises KeyError for unknown paths.

        This is one "click": only the incremental queries of the
        requested node (and of objects its template embeds or links)
        run.

        A render or evaluation failure never leaks a traceback to the
        requester: the server answers with the page's last-known-good
        bytes when it has them, else a structured error page, recording
        the degradation in ``degradations`` and the click metrics.  Pass
        ``strict=True`` to re-raise instead (tests and debugging).

        :meth:`get_response` is the HTTP-shaped variant: it never
        raises, mapping every outcome to a real status code.
        """
        response = self.get_response(path, strict=strict)
        if response.kind == "not-found":
            raise KeyError(f"no page at {path!r}")
        return response.body

    def get_response(self, path: str, strict: bool = False) -> PageResponse:
        """Serve ``path`` with HTTP status semantics instead of
        in-process sentinels: 404 for paths the site does not define,
        200 for healthy or stale (last-known-good) bytes, 500 for a
        render fault with nothing stale to fall back on."""
        oid = self._paths.get(path)
        if oid is None:
            return PageResponse(404, _not_found_page(path), "not-found")
        self.requests += 1
        cached = self._page_cache.get(path)
        if cached is not None:
            self.page_cache_hits += 1
            return PageResponse(200, cached)
        try:
            with self._view.recording() as reads:
                template = self.templates.resolve(self._view, oid)
                if template is None:
                    raise TemplateResolutionError(f"no template for page object {oid}")
                html = self._renderer.render(template, oid)
        except DeadlineExceeded:
            # cancellation is not degradation: no stale fallback, no
            # error page -- the serving tier maps this to a 504
            self.dynamic.metrics.deadline_exceeded += 1
            raise
        except (StrudelError, ChaosFault) as error:
            if strict:
                raise
            return self._degrade(path, error)
        self._page_cache[path] = html
        self._page_deps.add(path, reads)
        self._last_good[path] = html
        return PageResponse(200, html)

    def _degrade(self, path: str, error: BaseException) -> PageResponse:
        """Answer a failed render: stale last-known-good bytes when
        available (200, degraded), else a structured error page (500).
        Never a traceback."""
        stale = self._last_good.get(path)
        record = {
            "path": path,
            "error": f"{type(error).__name__}: {error}",
            "kind": "stale" if stale is not None else "error-page",
        }
        self.degradations.append(record)
        if stale is not None:
            self.dynamic.metrics.degraded_serves += 1
            return PageResponse(200, stale, "stale")
        self.dynamic.metrics.error_pages += 1
        return PageResponse(500, _error_page(path, error), "error-page")

    def known_paths(self) -> List[str]:
        """Paths discovered so far (grows as pages are served)."""
        return sorted(self._paths)

    def refresh(self) -> RefreshResult:
        """Selective invalidation after data-graph mutations.

        Refreshes the :class:`DynamicSite`, then (a) de-materializes
        only the lazy site-graph nodes the delta changed or whose
        expansions the dynamic site dropped and (b) drops only the
        cached pages whose recorded reads include one of those nodes.
        Unaffected pages keep serving their cached bytes -- the warm
        cost of an edit scales with |delta|, not |site|.  Falls back to
        a coarse reset when the dynamic site's refresh was coarse.
        """
        result = self.dynamic.refresh()
        if result.coarse:
            self._coarse_reset()
            return result
        if result.delta is None:
            return result
        changed = changed_nodes(result.delta)
        changed.update(owner.oid() for owner in result.dropped_instances)
        for oid in changed:
            self.graph.demote(oid)
        stale = self._page_deps.readers(changed)
        for path in stale:
            del self._page_cache[path]
            self._page_deps.discard(path)
        self.pages_invalidated += len(stale)
        self.pages_retained += len(self._page_cache)
        return result

    def invalidate(self) -> None:
        """Drop every cached expansion after the data graph changed.

        The server keeps answering on the same paths; the next request
        for each page re-runs its incremental queries against the
        current data.  :meth:`refresh` is the selective variant -- it
        drops only what a delta can have affected.

        The warm :class:`DynamicSite` -- its query engine, cached plans,
        and statistics snapshot -- survives; only its materialized
        expansion caches and the lazily built site graph are dropped.
        """
        self.dynamic.invalidate()
        self._coarse_reset()

    def _new_site_graph(self) -> None:
        """Start over with an empty lazy site graph and page cache."""
        self.graph = LazySiteGraph(self.dynamic)
        self._view = RecordingView(self.graph)
        self._renderer = Renderer(self._view, registry=self)
        #: path -> rendered HTML
        self._page_cache: Dict[str, str] = {}
        #: path -> the lazy site-graph nodes its render read
        self._page_deps = DependencyIndex()

    def _coarse_reset(self) -> None:
        self._new_site_graph()
        # re-register every known page instance so old paths keep
        # working: one oid -> instance map per Skolem function, built
        # on first need
        by_function: Dict[str, Dict[Oid, NodeInstance]] = {}
        for oid in self._paths.values():
            for function in self.dynamic.schema.functions:
                if oid.name.startswith(function + "("):
                    instances = by_function.get(function)
                    if instances is None:
                        instances = by_function[function] = {
                            candidate.oid(): candidate
                            for candidate in self.dynamic.instances_of(function)
                        }
                    if oid in instances:
                        self.graph.register_instance(instances[oid])
                    break

    def links_of(self, path: str) -> List[str]:
        """The local hrefs on a served page -- the next clickable paths."""
        html = self.get(path)
        return [
            href
            for href in re.findall(r'href="([^"]+)"', html)
            if href.startswith("/")
        ]

    @staticmethod
    def _path_for(oid: Oid) -> str:
        stem = re.sub(r"[^A-Za-z0-9_\-]+", "_", oid.name).strip("_") or "page"
        return f"/{stem}.html"


def _not_found_page(path: str) -> str:
    """A minimal, structured 404 page (the HTTP-shaped sibling of the
    library API's KeyError)."""
    safe_path = html_escape.escape(path)
    return (
        "<html><head><title>Not found</title></head>\n"
        "<body>\n"
        "<h1>404 Not Found</h1>\n"
        f"<p>No page is served at <code>{safe_path}</code>.</p>\n"
        "</body></html>\n"
    )


def _error_page(path: str, error: BaseException) -> str:
    """A minimal, structured "temporarily unavailable" page.

    One line of sanitized diagnostic -- the error type and message,
    HTML-escaped -- and never a traceback.
    """
    detail = html_escape.escape(f"{type(error).__name__}: {error}")
    safe_path = html_escape.escape(path)
    return (
        "<html><head><title>Page temporarily unavailable</title></head>\n"
        "<body>\n"
        "<h1>Page temporarily unavailable</h1>\n"
        f"<p>The page at <code>{safe_path}</code> could not be generated.</p>\n"
        f"<p><small>{detail}</small></p>\n"
        "</body></html>\n"
    )


def _deadline_page(path: str, error: BaseException) -> str:
    """The structured 504 body for a request whose deadline expired.

    Same contract as :func:`_error_page` -- one sanitized line, never a
    traceback -- but phrased as a timeout so clients know retrying a
    cheaper request may succeed while this exact one will not.
    """
    detail = html_escape.escape(str(error))
    safe_path = html_escape.escape(path)
    return (
        "<html><head><title>Request timed out</title></head>\n"
        "<body>\n"
        "<h1>504 Gateway Timeout</h1>\n"
        f"<p>Generating the page at <code>{safe_path}</code> exceeded "
        "its time budget and was cancelled.</p>\n"
        f"<p><small>{detail}</small></p>\n"
        "</body></html>\n"
    )
