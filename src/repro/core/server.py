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
   with caching), built by the static constructor;
3. rendering the node's HTML template against the dynamic site's
   :class:`~repro.core.incremental.LazySiteGraph` -- a site graph
   materialized on demand, one node expansion at a time, so a request
   touches only the data it displays.

Rendered pages are cached with the lazy site-graph nodes each render
read (recorded through a :class:`~repro.struql.footprint.RecordingView`
and kept in a :class:`~repro.struql.footprint.DependencyIndex`).  After
an edit, :meth:`PageServer.refresh` drops only the pages that read a
node the delta changed or whose expansion the dynamic site dropped.

No sockets are involved: ``server.get("/")`` returns HTML text.  The
test suite asserts that every page the server produces is byte-identical
to the statically generated page for the same object, which is the
correctness contract for dynamic evaluation (links aside when two page
names sanitize alike and are reached in another order than the static
generator's; see :class:`PageServer`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import html as html_escape

from ..errors import (
    DeadlineExceeded,
    SiteDefinitionError,
    StrudelError,
    TemplateResolutionError,
)
from ..graph import Graph, Oid
from ..resilience.chaos import ChaosFault
from ..struql.ast import Program, Query
from ..struql.footprint import DependencyIndex, RecordingView
from ..template import Renderer, Template, TemplateSet
from ..template.eval import PageRegistry
from ..template.generator import page_filename
from .incremental import DynamicSite, LazySiteGraph, NodeInstance, RefreshResult


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

    Paths are unique and named by the static generator's rule, rooted
    at ``/``: the first zero-argument Skolem instance is ``/``; every
    other page is ``/`` plus
    :func:`~repro.template.generator.page_filename` of its term.  A page
    whose term sanitizes like an earlier one's gets a ``_1``, ``_2``, ...
    suffix, numbered in the order this server first links the pages.
    That order follows the requests, so when a client reaches such a
    pair in another order than the static generator's traversal, the
    two pages' suffixes are the other way round from the static site's.
    """

    def __init__(
        self,
        program: Union[Program, Query, str],
        data_graph: Graph,
        templates: TemplateSet,
        cache: bool = True,
    ) -> None:
        self.dynamic = DynamicSite(program, data_graph, cache=cache)
        self.templates = templates
        self._paths: Dict[str, Oid] = {}
        self._hrefs: Dict[Oid, str] = {}
        #: pages named per sanitized stem, for the static site's suffixes
        self._used_names: Dict[str, int] = {}
        #: known pages whose instance was gone at the last coarse reset:
        #: their terms, so a later reset can register them again
        self._vanished: Dict[Oid, Tuple[str, Tuple[object, ...]]] = {}
        self._bind_site_graph()
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
            oid = self.graph.skolems.apply(root.function, root.args)
            path = "/" if index == 0 else self._path_for(oid)
            self._paths[path] = oid
            self._hrefs[oid] = path

    @property
    def graph(self) -> LazySiteGraph:
        """The dynamic site's lazily materialized site graph."""
        return self.dynamic.graph

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

        Refreshes the :class:`DynamicSite`, which de-materializes only
        the site-graph nodes the delta changed or whose expansions it
        dropped, then drops only the cached pages whose recorded reads
        include one of those nodes.  Unaffected pages keep serving their
        cached bytes -- the warm cost of an edit scales with |delta|,
        not |site|.  Falls back to a coarse reset when the dynamic
        site's refresh was coarse.
        """
        graph = self.graph
        result = self.dynamic.refresh()
        if result.coarse:
            self._coarse_reset(graph)
            return result
        if result.delta is None:
            return result
        stale = self._page_deps.readers(result.changed)
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
        graph = self.graph
        self.dynamic.invalidate()
        self._coarse_reset(graph)

    def _bind_site_graph(self) -> None:
        """Render from the dynamic site's current graph, with an empty
        page cache."""
        self._view = RecordingView(self.graph)
        self._renderer = Renderer(self._view, registry=self)
        #: path -> rendered HTML
        self._page_cache: Dict[str, str] = {}
        #: path -> the lazy site-graph nodes its render read
        self._page_deps = DependencyIndex()

    def _coarse_reset(self, previous: LazySiteGraph) -> None:
        """Serve from the dynamic site's fresh graph.  Every known page
        whose term (from ``previous``'s registry, or set aside at an
        earlier reset) is still an instance is registered again, so old
        paths keep working; one instance set per Skolem function, built
        on first need."""
        self._bind_site_graph()
        live: Dict[str, Set[NodeInstance]] = {}
        for oid in self._paths.values():
            term = previous.skolems.term(oid) or self._vanished.pop(oid, None)
            if term is None:
                continue
            function, args = term
            instances = live.get(function)
            if instances is None:
                instances = live[function] = set(self.dynamic.instances_of(function))
            if NodeInstance(function, args) in instances:
                self.graph.skolems.apply(function, args)
            else:
                self._vanished[oid] = term

    def links_of(self, path: str) -> List[str]:
        """The local hrefs on a served page -- the next clickable paths."""
        html = self.get(path)
        return [
            href
            for href in re.findall(r'href="([^"]+)"', html)
            if href.startswith("/")
        ]

    def _path_for(self, oid: Oid) -> str:
        return "/" + page_filename(oid.name, self._used_names)


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
