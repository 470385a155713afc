#!/usr/bin/env python3
"""The CNN-demo example (paper section 5.1): wrap existing HTML pages,
build the general news site, then derive the sports-only site.

"Because we did not have access to CNN's databases of articles, we mapped
their HTML pages into a data graph containing about 300 articles" -- we
do the same against synthetic article pages.  The sports-only site is
"derived from the original query and only differs in two extra
predicates in one where clause; both sites use the same templates."

Also demonstrates *dynamic* (click-time) evaluation: browsing the site
without materializing the site graph.

Run:  python examples/news_site.py [output-dir] [article-count]
"""

import random
import sys

from repro import HtmlSiteWrapper, SiteBuilder, SiteDefinition, derive_version, diff_definitions
from repro.core import BrowseSession, NodeInstance
from repro.workloads import (
    NEWS_SITE_QUERY,
    SPORTS_SITE_QUERY,
    article_pages,
    news_templates,
)


def main(output_dir: str = "_out/news", count: str = "120") -> None:
    # 1. wrap existing pages (the paper's route to the CNN data graph)
    pages = article_pages(int(count), seed=11)
    data = HtmlSiteWrapper(pages, collection="Pages").wrap()
    data.create_collection("Articles")
    for oid in data.collection("Pages"):
        path = data.attribute(oid, "path")
        if path is not None and "/article" in str(path):
            data.add_to_collection("Articles", oid)
    # the HTML wrapper exposes <meta name=category> as meta-category;
    # normalize it to the attribute name the site query uses
    rename = []
    for source, target in list(data.edges_with_label("meta-category")):
        rename.append((source, target))
    for source, target in rename:
        data.add_edge(source, "category", target)
    for source, target in list(data.edges_with_label("meta-top")):
        data.add_edge(source, "top", target)
    for source, target in list(data.edges_with_label("meta-date")):
        data.add_edge(source, "date", target)
    for source, target in list(data.edges_with_label("linksTo")):
        data.add_edge(source, "related", target)
    for source, target in list(data.edges_with_label("title")):
        data.add_edge(source, "headline", target)
    print(f"wrapped {len(pages)} pages -> data graph {data.stats()}")
    print(f"articles: {data.collection_cardinality('Articles')}")

    # 2. general site and the derived sports-only site
    builder = SiteBuilder(data)
    general = builder.define(
        SiteDefinition("news", NEWS_SITE_QUERY, news_templates(),
                       roots=["FrontPage()"])
    )
    sports = builder.define(
        derive_version(general, "sports-only", query=SPORTS_SITE_QUERY)
    )
    built_general = builder.build("news")
    built_sports = builder.build("sports-only")
    diff = diff_definitions(general, sports)
    print(f"general site: {built_general.generated.page_count} pages")
    print(f"sports-only:  {built_sports.generated.page_count} pages")
    print(f"derivation cost: {diff.as_row()}  (templates shared: all)")

    # 3. browse the site dynamically -- no materialized site graph
    dynamic = builder.dynamic_site("news", cache=True)
    session = BrowseSession(dynamic, lookahead=True)
    rng = random.Random(0)
    trajectory = session.walk(
        NodeInstance("FrontPage", ()),
        chooser=lambda candidates: rng.choice(candidates),
        clicks=6,
    )
    print("dynamic browse trajectory:")
    for step in trajectory:
        print(f"  {step}")
    print(f"click-time metrics: {dynamic.metrics}")

    built_general.write(f"{output_dir}/general")
    built_sports.write(f"{output_dir}/sports")
    print(f"wrote both sites under {output_dir}/")


if __name__ == "__main__":
    main(*sys.argv[1:3])
