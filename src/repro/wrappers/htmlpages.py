"""HTML wrapper: existing web pages -> data graph.

The CNN demonstration site was built by mapping CNN's HTML pages into a
data graph of ~300 articles ("because we did not have access to CNN's
databases of articles, we mapped their HTML pages into a data graph",
paper section 5.1), and the AT&T site wrapped "existing HTML files".

One wrapped page becomes one object with attributes:

========== =====================================================
``path``    the page's path/URL (STRING)
``title``   contents of ``<title>``
``heading`` each ``<h1>``/``<h2>`` text (multi-valued)
``text``    concatenated paragraph text (TEXT_FILE atom)
``image``   each ``<img src>`` (IMAGE_FILE atoms)
``linksTo`` edge to another *wrapped* page object when an ``<a
            href>`` resolves to one; otherwise an ``href`` URL atom
``anchor``  the anchor text of each external href, paired by order
``meta-X``  each ``<meta name=X content=...>``
========== =====================================================

Pages are registered first and cross-wired second, so link direction and
file order do not matter.
"""

from __future__ import annotations

import posixpath
from html.parser import HTMLParser
from typing import Dict, List, Optional, Tuple

from ..errors import StrudelError
from ..graph import Graph, Oid, image_file, string, text_file, url
from .base import Wrapper


class _PageScan(HTMLParser):
    """Collects title, headings, paragraph text, images, links, metas."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.title = ""
        self.headings: List[str] = []
        self.paragraphs: List[str] = []
        self.images: List[str] = []
        self.links: List[Tuple[str, str]] = []  # (href, anchor text)
        self.metas: List[Tuple[str, str]] = []
        self._stack: List[str] = []
        self._buffer: List[str] = []
        self._anchor_href: Optional[str] = None
        self._anchor_text: List[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        attributes = dict(attrs)
        if tag in ("title", "h1", "h2", "p"):
            self._stack.append(tag)
            self._buffer = []
        elif tag == "img":
            source = attributes.get("src")
            if source:
                self.images.append(source)
        elif tag == "a":
            href = attributes.get("href")
            if href:
                self._anchor_href = href
                self._anchor_text = []
        elif tag == "meta":
            name = attributes.get("name")
            content = attributes.get("content")
            if name and content:
                self.metas.append((name, content))

    def handle_endtag(self, tag: str) -> None:
        if self._stack and self._stack[-1] == tag:
            self._stack.pop()
            text = " ".join("".join(self._buffer).split())
            if tag == "title":
                self.title = text
            elif tag in ("h1", "h2") and text:
                self.headings.append(text)
            elif tag == "p" and text:
                self.paragraphs.append(text)
            self._buffer = []
        if tag == "a" and self._anchor_href is not None:
            anchor = " ".join("".join(self._anchor_text).split())
            self.links.append((self._anchor_href, anchor))
            self._anchor_href = None
            self._anchor_text = []

    def handle_data(self, data: str) -> None:
        if self._stack:
            self._buffer.append(data)
        if self._anchor_href is not None:
            self._anchor_text.append(data)


class HtmlSiteWrapper(Wrapper):
    """Wraps a set of HTML pages, cross-linking internal references.

    ``pages`` maps path -> HTML text.  Relative hrefs are resolved
    against the linking page's directory; hrefs that resolve to another
    wrapped page become ``linksTo`` edges, the rest become ``href`` URL
    atoms.

    HTML has no record faults: the stdlib ``HTMLParser`` reads any text,
    so unbalanced markup, empty ``src``/``href``/``title`` values, NUL
    bytes and an empty file all wrap as admitted pages.  Only a page the
    graph refuses would be a fault, at ``page PATH``.
    """

    source_kind = "html"

    def __init__(
        self,
        pages: Dict[str, str],
        collection: str = "Pages",
        source_name: str = "",
    ) -> None:
        super().__init__(source_name)
        self.pages = dict(pages)
        self.collection = collection

    # ------------------------------------------------------------ #

    def _wrap_into(self, graph: Graph) -> None:
        """A page that will not scan is a fault at ``page PATH``; links
        that pointed at it degrade into plain ``href`` atoms."""
        graph.create_collection(self.collection)
        scans: Dict[str, _PageScan] = {}
        oids: Dict[str, Oid] = {}
        for path, text in self.pages.items():
            try:
                scans[path], oids[path] = self._wrap_page(graph, path, text)
            except (StrudelError, ValueError) as error:
                oid = Oid(f"page:{path}")
                if graph.has_node(oid):
                    graph.remove_node(oid)
                self._fault(f"page {path}", error, text)
                continue
            self.last_quarantine.admitted += 1
        self._wire_links(graph, scans, oids)

    def _wrap_page(self, graph: Graph, path: str, text: str) -> Tuple[_PageScan, Oid]:
        scan = _PageScan()
        scan.feed(text)
        scan.close()
        oid = graph.add_node(Oid(f"page:{path}"))
        graph.add_edge(oid, "path", string(path))
        if scan.title:
            graph.add_edge(oid, "title", string(scan.title))
        for heading in scan.headings:
            graph.add_edge(oid, "heading", string(heading))
        if scan.paragraphs:
            graph.add_edge(oid, "text", text_file(" ".join(scan.paragraphs)))
        for image in scan.images:
            graph.add_edge(oid, "image", image_file(image))
        for name, content in scan.metas:
            graph.add_edge(oid, f"meta-{name}", string(content))
        graph.add_to_collection(self.collection, oid)
        return scan, oid

    def _wire_links(
        self, graph: Graph, scans: Dict[str, _PageScan], oids: Dict[str, Oid]
    ) -> None:
        for path, scan in scans.items():
            source = oids[path]
            base = posixpath.dirname(path)
            for href, anchor in scan.links:
                resolved = _resolve(base, href)
                target = oids.get(resolved)
                if target is not None:
                    graph.add_edge(source, "linksTo", target)
                else:
                    graph.add_edge(source, "href", url(href))
                if anchor:
                    graph.add_edge(source, "anchor", string(anchor))


def _resolve(base: str, href: str) -> str:
    """Resolve ``href`` relative to directory ``base`` (posix semantics)."""
    if "://" in href or href.startswith("#"):
        return href
    href = href.split("#", 1)[0].split("?", 1)[0]
    if href.startswith("/"):
        return posixpath.normpath(href.lstrip("/"))
    return posixpath.normpath(posixpath.join(base, href))
