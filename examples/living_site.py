#!/usr/bin/env python3
"""A living site: the section 7 features working together.

The paper's prototype generated static sites and rebuilt them from
scratch when data changed.  This example runs the full modern loop the
paper sketches as future work:

1. a site is *served dynamically* (`PageServer`) -- no materialization;
2. the same definition is *maintained incrementally*
   (`SiteMaintainer`) as articles arrive -- no full rebuilds;
3. an editor fixes a typo on a page and the change is *propagated back*
   to the data (`EditPropagator` in `edit_propagation.py` beside this
   script, the section 5.2 user request);
4. the site is *audited* (`audit`) after every change.

Run:  python examples/living_site.py
"""

from repro import Graph, SiteBuilder, SiteDefinition, TemplateSet
from repro.analysis import audit, render_text
from repro.core import PageServer, SiteMaintainer
from repro.graph import Oid, string

from edit_propagation import EditPropagator

SITE_QUERY = """
create FrontPage()
where Articles(a), a -> "headline" -> h
create ArticlePage(a)
link ArticlePage(a) -> "headline" -> h,
     FrontPage() -> "Story" -> ArticlePage(a)
collect ArticlePages(ArticlePage(a))
{
  where a -> "category" -> c
  create SectionPage(c)
  link SectionPage(c) -> "Name" -> c,
       SectionPage(c) -> "Story" -> ArticlePage(a),
       FrontPage() -> "Section" -> SectionPage(c)
  collect SectionPages(SectionPage(c))
}
"""


def build_templates() -> TemplateSet:
    templates = TemplateSet()
    templates.add("front", """<html><body><h1>The Daily Graph</h1>
<p><SFMT Story COUNT> stories in <SFMT Section COUNT> sections</p>
<SFMT Section UL ORDER=ascend KEY=Name>
<h2>All stories</h2>
<SFMT Story UL>
</body></html>""")
    templates.add("section", """<html><body><h1><SFMT Name></h1><SFMT Story UL></body></html>""")
    templates.add("article", """<html><body><h1><SFMT headline></h1></body></html>""")
    templates.for_object("FrontPage()", "front")
    templates.for_collection("SectionPages", "section")
    templates.for_collection("ArticlePages", "article")
    return templates


def seed_data() -> Graph:
    data = Graph("newsroom")
    for index, (headline, category) in enumerate(
        [("Graphs considered helpful", "tech"),
         ("Declarative wins again", "tech"),
         ("Local boat caught", "local")]
    ):
        oid = data.add_node(Oid(f"art{index}"))
        data.add_edge(oid, "headline", string(headline))
        data.add_edge(oid, "category", string(category))
        data.add_to_collection("Articles", oid)
    return data


def main() -> None:
    data = seed_data()
    templates = build_templates()

    # one data graph, two consumers: a dynamic server and a maintainer
    server = PageServer(SITE_QUERY, data, templates)
    maintainer = SiteMaintainer(SITE_QUERY, data)
    print("front page (dynamic):")
    print(server.get("/"))

    # a new article arrives: incremental maintenance, then refresh server
    report = maintainer.last_report
    maintainer.add_object(
        "Articles",
        [("headline", string("Strudel reproduced in Python")),
         ("category", string("tech"))],
    )
    report = maintainer.last_report
    print(f"\nnew article maintained: {report.queries_seeded} seeded, "
          f"{report.queries_recomputed} recomputed, "
          f"{report.full_rebuilds} rebuilds, "
          f"+{report.nodes_added} nodes +{report.edges_added} edges")
    server.invalidate()
    assert "Strudel reproduced" in server.get("/")

    # an editor fixes a typo on the article page; the fix lands in the data
    propagator = EditPropagator(maintainer)
    result = propagator.apply(
        Oid("ArticlePage(art2)"), "headline",
        string("Local boat caught"), string("Local boat caught -- with Strudel"),
    )
    print(f"edit propagated to {len(result.origins_rewritten)} data edge(s): "
          f"{result.origins_rewritten[0]}")
    server.invalidate()
    assert "with Strudel" in server.get("/")

    # audit the materialized version of the same site
    builder = SiteBuilder(maintainer.data_graph)
    builder.define(SiteDefinition("news", SITE_QUERY, templates,
                                  roots=["FrontPage()"]))
    built = builder.build("news")
    print("\naudit of the materialized site:")
    print(render_text(audit(built)))
    print(f"\nwrote nothing to disk; served {server.requests} dynamic requests")


if __name__ == "__main__":
    main()
