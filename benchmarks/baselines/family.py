"""The Fig. 8 site family: one site, four authoring technologies.

Fig. 8 of the paper categorizes web-creation tools along two axes --
amount of data and structural complexity ("one possible measure of
structural complexity is the number of link clauses in the
site-definition query; an analogous measure ... is the number of CGI-BIN
scripts required") -- and claims Strudel wins the large-data /
complex-structure corner.

To regenerate that figure we need the *same* site expressed in each
technology, at every grid point.  The family: a data graph of N items
(each with a handful of atomic attributes and a group key per structural
feature), and a site with K *features*, where feature k is "a set of
group pages partitioning the items by group key k, each linking to the
item pages, all reachable from the root".  Each feature costs a fixed
number of link clauses, so K is exactly the paper's structural-
complexity axis.

For each technology we generate the authored artifact and count its
non-blank source lines -- the *specification size* a site builder must
write and maintain:

* **Strudel**: the STRUQL query (:func:`strudel_query`) plus the
  templates (:func:`strudel_templates`); evaluated with the real
  pipeline.
* **Procedural (CGI-BIN)**: generated Python source with one render
  function per page type (:func:`procedural_source`), executed via
  :func:`run_procedural`.
* **DB-with-templates (StoryServer style)**: per-page-type HTML
  templates with embedded queries plus a driver loop
  (:func:`dbtemplate_source`), executed via :func:`run_dbtemplate`.
* **Static HTML (WYSIWYG)**: every page is hand-maintained; the
  specification *is* the output, so spec size = total generated HTML
  lines (:func:`static_html_lines`).

All four produce the same page set, asserted in tests.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.graph import Atom, Graph, Oid, integer, string
from repro.struql import evaluate, parse, query_bindings
from repro.template import TemplateSet, generate_site

#: attributes every item carries (regular part of the family data)
ITEM_ATTRIBUTES = ("title", "body", "rank")

#: One-time substrate each technology needs before the first page exists,
#: in authored lines.  Static HTML needs none (the pages ARE the spec).
#: Strudel needs a wrapper + collection setup (the paper's "simple AWK
#: programs" were a few dozen lines per source); a DB-backed template
#: system needs a schema + loader; a procedural generator needs data
#: access code.  These constants make the Fig. 8 *total* authored cost
#: comparable across technologies; the per-feature growth rates are what
#: the spec-line functions below measure.
SETUP_OVERHEAD = {
    "static HTML": 0,
    "db-template": 35,
    "procedural": 25,
    "strudel": 40,
}


def family_graph(items: int, features: int, seed: int = 0, groups: int = 8) -> Graph:
    """N items, each with base attributes and one group key per feature."""
    rng = random.Random(seed)
    graph = Graph("family")
    graph.create_collection("Items")
    for index in range(items):
        oid = graph.add_node(hint="item")
        graph.add_edge(oid, "title", string(f"Item {index}"))
        graph.add_edge(oid, "body", string(f"Body text of item {index}."))
        graph.add_edge(oid, "rank", integer(rng.randint(1, 100)))
        for feature in range(features):
            graph.add_edge(
                oid, f"g{feature}", string(f"group{rng.randrange(groups)}")
            )
        graph.add_to_collection("Items", oid)
    return graph


# -------------------------------------------------------------------- #
# Strudel


def strudel_query(features: int) -> str:
    """The family's STRUQL site definition with K features."""
    lines = [
        "create RootPage()",
        "where Items(x), x -> l -> v",
        "create ItemPage(x)",
        "link ItemPage(x) -> l -> v",
        "collect ItemPages(ItemPage(x))",
    ]
    for feature in range(features):
        group = f"Group{feature}Page(g)"
        lines.extend(
            [
                f'{{ where x -> "g{feature}" -> g',
                f"  create {group}",
                f'  link {group} -> "Item" -> ItemPage(x), {group} -> "Key" -> g, '
                f'RootPage() -> "Group{feature}" -> {group}',
                f"  collect Group{feature}Pages({group}) }}",
            ]
        )
    return "\n".join(lines) + "\n"


def strudel_templates(features: int) -> TemplateSet:
    """Templates for the family site."""
    templates = TemplateSet()
    root_sections = "\n".join(
        f"<h2>By key {feature}</h2><SFMT Group{feature} UL ORDER=ascend KEY=Key>"
        for feature in range(features)
    )
    templates.add(
        "root",
        f"<html><head><title>Family site</title></head><body>\n"
        f"<h1>Items</h1>\n{root_sections}\n</body></html>\n",
    )
    templates.add(
        "group",
        "<html><head><title>Group <SFMT Key></title></head><body>\n"
        "<h1>Group <SFMT Key></h1>\n<SFMT Item UL>\n</body></html>\n",
    )
    templates.add(
        "item",
        "<html><head><title><SFMT title></title></head><body>\n"
        "<h1><SFMT title></h1>\n<p><SFMT body></p>\n"
        "<p>rank <SFMT rank></p>\n</body></html>\n",
    )
    templates.for_object("RootPage()", "root")
    templates.for_collection("ItemPages", "item")
    for feature in range(features):
        templates.for_collection(f"Group{feature}Pages", "group")
    return templates


def run_strudel(graph: Graph, features: int) -> Dict[str, str]:
    """Evaluate the family site with the real pipeline; returns pages."""
    site_graph = evaluate(parse(strudel_query(features)), graph)
    site = generate_site(site_graph, strudel_templates(features), ["RootPage()"])
    return site.pages


def strudel_spec_lines(features: int) -> int:
    """Authored lines of the Strudel spec: query + templates."""
    query_lines = _count_lines(strudel_query(features))
    templates = strudel_templates(features)
    return query_lines + templates.total_source_lines()


# -------------------------------------------------------------------- #
# Procedural (CGI-BIN scripts)


def procedural_source(features: int) -> str:
    """Python source for the CGI-style generator: one function per page
    type, one script-like driver, mirroring how the official AT&T site
    was generated by "a large set of CGI-BIN scripts"."""
    parts: List[str] = [
        "def _attr(graph, oid, label):",
        "    value = graph.attribute(oid, label)",
        "    return '' if value is None else str(value)",
        "",
        "def _item_filename(oid):",
        "    return 'item_' + ''.join(ch if ch.isalnum() else '_' for ch in oid.name) + '.html'",
        "",
        "def render_item(graph, oid):",
        "    title = _attr(graph, oid, 'title')",
        "    body = _attr(graph, oid, 'body')",
        "    rank = _attr(graph, oid, 'rank')",
        "    return ('<html><head><title>' + title + '</title></head><body>'",
        "            + '<h1>' + title + '</h1><p>' + body + '</p>'",
        "            + '<p>rank ' + rank + '</p></body></html>')",
        "",
    ]
    for feature in range(features):
        parts.extend(
            [
                f"def collect_groups_{feature}(graph):",
                "    groups = {}",
                "    for oid in graph.collection('Items'):",
                f"        for value in graph.targets(oid, 'g{feature}'):",
                "            groups.setdefault(str(value), []).append(oid)",
                "    return groups",
                "",
                f"def render_group_{feature}(graph, key, members):",
                "    links = ''.join('<li><a href=\"' + _item_filename(m) + '\">'",
                "                    + _attr(graph, m, 'title') + '</a></li>'",
                "                    for m in members)",
                "    return ('<html><head><title>Group ' + key + '</title></head><body>'",
                "            + '<h1>Group ' + key + '</h1><ul>' + links + '</ul></body></html>')",
                "",
            ]
        )
    parts.extend(
        [
            "def render_root(graph):",
            "    sections = []",
        ]
    )
    for feature in range(features):
        parts.extend(
            [
                f"    groups = collect_groups_{feature}(graph)",
                f"    links = ''.join('<li><a href=\"group{feature}_' + key + '.html\">' + key + '</a></li>'",
                "                    for key in sorted(groups))",
                f"    sections.append('<h2>By key {feature}</h2><ul>' + links + '</ul>')",
            ]
        )
    parts.extend(
        [
            "    return ('<html><head><title>Family site</title></head><body><h1>Items</h1>'",
            "            + ''.join(sections) + '</body></html>')",
            "",
            "def generate(graph):",
            "    pages = {}",
            "    pages['index.html'] = render_root(graph)",
            "    for oid in graph.collection('Items'):",
            "        pages[_item_filename(oid)] = render_item(graph, oid)",
        ]
    )
    for feature in range(features):
        parts.extend(
            [
                f"    for key, members in collect_groups_{feature}(graph).items():",
                f"        pages['group{feature}_' + key + '.html'] = render_group_{feature}(graph, key, members)",
            ]
        )
    parts.append("    return pages")
    return "\n".join(parts) + "\n"


def run_procedural(graph: Graph, features: int) -> Dict[str, str]:
    """Execute the generated procedural source against the graph."""
    namespace: Dict[str, object] = {}
    exec(procedural_source(features), namespace)  # noqa: S102 - our own source
    generate: Callable[[Graph], Dict[str, str]] = namespace["generate"]  # type: ignore[assignment]
    return generate(graph)


def procedural_spec_lines(features: int) -> int:
    """Authored lines of the CGI-style generator source."""
    return _count_lines(procedural_source(features))


# -------------------------------------------------------------------- #
# DB + embedded-query templates (StoryServer style)


def dbtemplate_source(features: int) -> List[Tuple[str, str, str]]:
    """Per-page-type (name, embedded query, HTML template) triples plus a
    driver description.  Pages are built one at a time by evaluating the
    embedded query and splicing results -- no site graph, no declarative
    structure; inter-page linking is hand-coded in the templates."""
    specs: List[Tuple[str, str, str]] = []
    specs.append(
        (
            "item",
            "where Items(x), x -> \"title\" -> t, x -> \"body\" -> b, x -> \"rank\" -> r",
            "<html><head><title>{t}</title></head><body>\n"
            "<h1>{t}</h1>\n<p>{b}</p>\n<p>rank {r}</p>\n</body></html>",
        )
    )
    for feature in range(features):
        specs.append(
            (
                f"group{feature}",
                f"where Items(x), x -> \"g{feature}\" -> g, x -> \"title\" -> t",
                "<html><head><title>Group {g}</title></head><body>\n"
                "<h1>Group {g}</h1>\n<ul>{item_links}</ul>\n</body></html>",
            )
        )
    root_template_lines = ["<html><head><title>Family site</title></head><body>",
                           "<h1>Items</h1>"]
    for feature in range(features):
        root_template_lines.append(
            f"<h2>By key {feature}</h2>" + "<ul>{group%d_links}</ul>" % feature
        )
    root_template_lines.append("</body></html>")
    specs.append(("root", "", "\n".join(root_template_lines)))
    return specs


def run_dbtemplate(graph: Graph, features: int) -> Dict[str, str]:
    """Drive the embedded-query templates to produce the same page set."""
    pages: Dict[str, str] = {}
    item_rows = query_bindings(
        'where Items(x), x -> "title" -> t, x -> "body" -> b, x -> "rank" -> r',
        graph,
    )

    def item_filename(oid: Oid) -> str:
        safe = "".join(ch if ch.isalnum() else "_" for ch in oid.name)
        return f"item_{safe}.html"

    for row in item_rows:
        oid = row["x"]
        assert isinstance(oid, Oid)
        pages[item_filename(oid)] = (
            f"<html><head><title>{row['t']}</title></head><body>\n"
            f"<h1>{row['t']}</h1>\n<p>{row['b']}</p>\n"
            f"<p>rank {row['r']}</p>\n</body></html>"
        )
    root_sections: List[str] = []
    for feature in range(features):
        group_rows = query_bindings(
            f'where Items(x), x -> "g{feature}" -> g, x -> "title" -> t', graph
        )
        by_group: Dict[str, List[Tuple[Oid, str]]] = {}
        for row in group_rows:
            oid = row["x"]
            assert isinstance(oid, Oid)
            by_group.setdefault(str(row["g"]), []).append((oid, str(row["t"])))
        for key, members in by_group.items():
            links = "".join(
                f'<li><a href="{item_filename(oid)}">{title}</a></li>'
                for oid, title in members
            )
            pages[f"group{feature}_{key}.html"] = (
                f"<html><head><title>Group {key}</title></head><body>\n"
                f"<h1>Group {key}</h1>\n<ul>{links}</ul>\n</body></html>"
            )
        group_links = "".join(
            f'<li><a href="group{feature}_{key}.html">{key}</a></li>'
            for key in sorted(by_group)
        )
        root_sections.append(f"<h2>By key {feature}</h2><ul>{group_links}</ul>")
    pages["index.html"] = (
        "<html><head><title>Family site</title></head><body>"
        "<h1>Items</h1>" + "".join(root_sections) + "</body></html>"
    )
    return pages


def dbtemplate_spec_lines(features: int) -> int:
    """Authored lines of the embedded-query templates plus driver glue."""
    total = 0
    for name, query, template in dbtemplate_source(features):
        total += _count_lines(query) + _count_lines(template)
        total += 4  # the per-page-type driver glue (fetch, loop, splice, emit)
    return total


# -------------------------------------------------------------------- #
# Static HTML (WYSIWYG)


def static_html_lines(pages: Dict[str, str]) -> int:
    """Spec size of the WYSIWYG approach: the site builder maintains every
    page by hand, so the specification is the page set itself."""
    return sum(_count_lines(content) for content in pages.values())


def _count_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())
