"""The HTML generator: site graph + templates -> browsable web site.

"The HTML generator takes as input a site graph and a set of HTML
templates.  For every internal object, the generator selects a
HTML-template file for the object: either (1) an object-specific file,
(2) the value of the object's HTML-template attribute, or (3) the
template file associated with the collection to which the object
belongs" (paper section 2.4).  :class:`TemplateSet` implements exactly
that selection rule; :class:`HtmlGenerator` drives page generation.

"The choice to realize internal objects as pages or as page components is
delayed until HTML generation": an object referenced through ``SFMT``
without ``EMBED`` and having a resolvable template is realized as a page
(and transitively rendered); with ``EMBED`` it is inlined; with no
template it degrades to plain text.
"""

from __future__ import annotations

import os
import re
import weakref
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import TemplateResolutionError
from ..graph import Atom, Graph, Oid
from .ast import Template
from .eval import PageRegistry, Renderer
from .parser import parse_template

#: The attribute whose value names an object's template (selection rule 2).
TEMPLATE_ATTRIBUTE = "HTML-template"


class TemplateSet:
    """A named set of parsed templates with the 3-level selection rule."""

    def __init__(self) -> None:
        self._templates: Dict[str, Template] = {}
        self._object_templates: Dict[str, str] = {}
        self._collection_templates: Dict[str, str] = {}
        self._default: str = ""

    # ------------------------------------------------------------ #
    # registration

    def add(self, name: str, text: str) -> Template:
        """Parse and register a template under ``name``."""
        template = parse_template(text, name)
        self._templates[name] = template
        return template

    def add_file(self, path: str, name: str = "") -> Template:
        """Load a template from a ``.tmpl`` file; default name is the stem."""
        if not name:
            name = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as handle:
            return self.add(name, handle.read())

    def for_object(self, oid_name: str, template_name: str) -> None:
        """Selection rule 1: an object-specific template."""
        self._require(template_name)
        self._object_templates[oid_name] = template_name

    def for_collection(self, collection: str, template_name: str) -> None:
        """Selection rule 3: the template of a collection.

        "Associating an HTML template with a collection of objects allows
        the user to produce the same look and feel for related pages."
        """
        self._require(template_name)
        self._collection_templates[collection] = template_name

    def set_default(self, template_name: str) -> None:
        """Optional last-resort template (an extension beyond the paper's
        three rules, used by generic tooling)."""
        self._require(template_name)
        self._default = template_name

    def _require(self, name: str) -> None:
        if name not in self._templates:
            raise TemplateResolutionError(f"unknown template {name!r}")

    # ------------------------------------------------------------ #
    # introspection

    def get(self, name: str) -> Optional[Template]:
        return self._templates.get(name)

    def names(self) -> List[str]:
        return sorted(self._templates)

    def template_count(self) -> int:
        return len(self._templates)

    def total_source_lines(self) -> int:
        """Sum of non-blank template lines (the paper's template-size
        measure)."""
        return sum(t.source_lines for t in self._templates.values())

    # ------------------------------------------------------------ #
    # selection

    def resolve(self, graph: Graph, oid: Oid) -> Optional[Template]:
        """Apply the paper's selection rule; None when nothing applies."""
        specific = self._object_templates.get(oid.name)
        if specific:
            return self._templates[specific]
        attribute = graph.attribute(oid, TEMPLATE_ATTRIBUTE)
        if isinstance(attribute, Atom):
            named = self._templates.get(attribute.as_string())
            if named is not None:
                return named
        for collection in graph.collections_of(oid):
            assigned = self._collection_templates.get(collection)
            if assigned:
                return self._templates[assigned]
        if self._default:
            return self._templates[self._default]
        return None


class GeneratedSite:
    """The browsable result: a set of cross-linked HTML pages."""

    def __init__(self, name: str = "site") -> None:
        self.name = name
        self.pages: Dict[str, str] = {}
        self.filenames: Dict[Oid, str] = {}

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def page_for(self, oid: Oid) -> Optional[str]:
        """The HTML of an object's page, if it was realized as one."""
        filename = self.filenames.get(oid)
        return self.pages.get(filename) if filename else None

    def write(self, directory: str) -> List[str]:
        """Write every page under ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        written: List[str] = []
        for filename, content in self.pages.items():
            path = os.path.join(directory, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            written.append(path)
        return written

    def internal_hrefs(self) -> List[Tuple[str, str]]:
        """All (page, href) pairs for hrefs pointing at local .html files."""
        found: List[Tuple[str, str]] = []
        for filename, content in self.pages.items():
            for href in re.findall(r'href="([^"]+)"', content):
                if href.endswith(".html") and "://" not in href:
                    found.append((filename, href))
        return found

    def dangling_links(self) -> List[Tuple[str, str]]:
        """Internal hrefs whose target page does not exist."""
        return [
            (page, href)
            for page, href in self.internal_hrefs()
            if href not in self.pages
        ]


class HtmlGenerator(PageRegistry):
    """Generates a :class:`GeneratedSite` from a site graph and templates.

    ``roots`` seeds the page worklist (oids, Skolem-term names, or
    collection names); every object reachable through non-EMBED template
    references with a resolvable template becomes a page.  The first root
    is emitted as ``index.html``.
    """

    def __init__(self, graph: Graph, templates: TemplateSet) -> None:
        self.graph = graph
        self.templates = templates
        # the renderer calls back through a weak proxy, so no cycle keeps
        # a dropped generator -- and with it the site graph -- alive
        # until the cyclic collector happens to run
        self._renderer = Renderer(graph, registry=weakref.proxy(self))
        self._filenames: Dict[Oid, str] = {}
        self._used_names: Dict[str, int] = {}
        self._queue: deque = deque()
        #: the oids queued since the last :meth:`generate` began: a
        #: call re-queues pages an earlier call named
        self._queued: Dict[Oid, None] = {}
        self._index_assigned = False
        #: oid -> its template while a :meth:`generate` call runs: each
        #: object is resolved once per call, not once per page and link
        self._resolved: Optional[Dict[Oid, Optional[Template]]] = None

    # ------------------------------------------------------------ #
    # PageRegistry interface (called back by the renderer)

    def href_for(self, oid: Oid) -> Optional[str]:
        if self.template_for(oid) is None:
            return None
        return self._assign_filename(oid)

    def template_for(self, oid: Oid) -> Optional[Template]:
        resolved = self._resolved
        if resolved is None:
            return self.templates.resolve(self.graph, oid)
        if oid in resolved:
            return resolved[oid]
        template = resolved[oid] = self.templates.resolve(self.graph, oid)
        return template

    # ------------------------------------------------------------ #

    def generate(
        self, roots: Iterable[Union[Oid, str]], site_name: str = "site"
    ) -> GeneratedSite:
        """Render all pages reachable from ``roots``, in discovery order.

        A later call on the same generator renders every page its own
        roots reach again, under the file names earlier calls gave."""
        site = GeneratedSite(site_name)
        self._queue.clear()  # what a call that raised left queued
        self._queued = {}
        for root in roots:
            for oid in self._resolve_root(root):
                self._assign_filename(oid)
        # one pass renders each EMBED fragment once
        self._resolved = {}
        try:
            with self._renderer.fragment_pass():
                while self._queue:
                    oid = self._queue.popleft()
                    site.pages[self._filenames[oid]] = self._render_page(oid)
        finally:
            self._resolved = None
        site.filenames = dict(self._filenames)
        return site

    def _render_page(self, oid: Oid) -> str:
        """Render one page serially (the selective regenerator calls
        this inside a read-recording block, one page at a time)."""
        template = self._require_template(oid)
        return self._renderer.render_page(template, oid)

    def _require_template(self, oid: Oid) -> Template:
        template = self.template_for(oid)
        if template is None:
            raise TemplateResolutionError(
                f"no template for page object {oid} "
                "(no object-specific file, HTML-template attribute, or "
                "collection template applies)"
            )
        return template

    def _resolve_root(self, root: Union[Oid, str]) -> List[Oid]:
        if isinstance(root, Oid):
            return [root]
        if self.graph.has_collection(root):
            return self.graph.collection(root)
        oid = Oid(root)
        if self.graph.has_node(oid):
            return [oid]
        skolem_root = Oid(f"{root}()")
        if self.graph.has_node(skolem_root):
            return [skolem_root]
        raise TemplateResolutionError(
            f"root {root!r} names neither a collection nor an object"
        )

    def _assign_filename(self, oid: Oid) -> str:
        """``oid``'s page file name, given on first sight; the page is
        queued the first time it is seen since :meth:`generate` began."""
        filename = self._filenames.get(oid)
        if filename is None:
            if not self._index_assigned:
                filename = "index.html"
                self._index_assigned = True
            else:
                filename = page_filename(oid.name, self._used_names)
            self._filenames[oid] = filename
        if oid not in self._queued:
            self._queued[oid] = None
            self._queue.append(oid)
        return filename


def page_filename(name: str, used: Dict[str, int]) -> str:
    """The file name of the page for the object named ``name``: the name
    with every run of characters outside ``[A-Za-z0-9_-]`` turned into
    ``_`` and outer ``_`` stripped; a later page whose name sanitizes
    alike gets ``_1``, ``_2``, ... (``used`` counts the pages named per
    stem so far, and this call adds one)."""
    stem = re.sub(r"[^A-Za-z0-9_\-]+", "_", name).strip("_") or "page"
    count = used.get(stem, 0)
    used[stem] = count + 1
    if count:
        stem = f"{stem}_{count}"
    return stem + ".html"


def generate_site(
    graph: Graph,
    templates: TemplateSet,
    roots: Iterable[Union[Oid, str]],
    site_name: str = "site",
) -> GeneratedSite:
    """One-shot convenience wrapper around :class:`HtmlGenerator`."""
    return HtmlGenerator(graph, templates).generate(roots, site_name)
