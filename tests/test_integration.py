"""Integration tests: full pipelines across all subsystems, including the
example scripts run as functions."""

import importlib.util
import os
import sys

import pytest

from repro import (
    HtmlSiteWrapper,
    Repository,
    SiteBuilder,
    SiteDefinition,
    derive_version,
    diff_definitions,
)
from repro.core import BrowseSession, DynamicSite, NodeInstance, check
from repro.repository import ddl
from repro.struql import evaluate, parse
from repro.template import generate_site
from repro.workloads import (
    HOMEPAGE_QUERY,
    NEWS_SITE_QUERY,
    SPORTS_SITE_QUERY,
    bibliography_graph,
    build_mediator,
    homepage_templates,
    news_graph,
    news_templates,
)

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _load_example(name):
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFullPipelines:
    def test_bibtex_to_browsable_site(self, tmp_path):
        data = bibliography_graph(30, seed=10)
        builder = SiteBuilder(data)
        builder.define(
            SiteDefinition("home", HOMEPAGE_QUERY, homepage_templates(),
                           roots=["RootPage()"])
        )
        built = builder.build("home")
        assert built.generated.dangling_links() == []
        written = built.write(str(tmp_path))
        assert all(os.path.exists(p) for p in written)
        with open(os.path.join(str(tmp_path), "index.html")) as handle:
            assert "<html>" in handle.read()

    def test_mediated_org_pipeline(self):
        mediator = build_mediator(people=25, seed=2)
        warehouse = mediator.materialize()
        # join integrity: every publication author that matches a person
        # has a back edge
        for person in warehouse.collection("People"):
            for publication in warehouse.targets(person, "publication"):
                authors = warehouse.targets(publication, "authorPerson")
                assert person in authors

    def test_site_graph_persists_through_repository(self, tmp_path):
        repo = Repository(str(tmp_path))
        data = bibliography_graph(10, seed=3)
        site_graph = evaluate(parse(HOMEPAGE_QUERY), data)
        repo.store("site", site_graph)
        reloaded = Repository(str(tmp_path)).fetch("site")
        assert reloaded.stats() == site_graph.stats()
        # and the reloaded site graph still renders
        generated = generate_site(reloaded, homepage_templates(), ["RootPage()"])
        assert generated.page_count > 0

    def test_news_and_sports_versions_agree_on_overlap(self):
        data = news_graph(60, seed=8)
        general = evaluate(parse(NEWS_SITE_QUERY), data)
        sports = evaluate(parse(SPORTS_SITE_QUERY), data)
        sports_articles = {
            o.name for o in sports.nodes() if o.name.startswith("ArticlePage(")
        }
        general_articles = {
            o.name for o in general.nodes() if o.name.startswith("ArticlePage(")
        }
        assert sports_articles <= general_articles
        assert len(sports_articles) < len(general_articles)

    def test_dynamic_browse_agrees_with_generated_pages(self):
        data = news_graph(30, seed=1)
        program = parse(NEWS_SITE_QUERY)
        site_graph = evaluate(program, data)
        generated = generate_site(site_graph, news_templates(), ["FrontPage()"])
        dynamic = DynamicSite(program, data)
        session = BrowseSession(dynamic)
        edges = session.visit(NodeInstance("FrontPage", ()))
        category_targets = [
            t for label, t in edges
            if label == "Category" and isinstance(t, NodeInstance)
        ]
        for target in category_targets:
            assert generated.filenames.get(target.oid()) is not None

    def test_constraint_holds_across_scales(self):
        constraint = (
            'forall X (YearPages(X) => exists Y (RootPage(Y) and Y -> "YearPage" -> X))'
        )
        for count in (5, 40):
            data = bibliography_graph(count, seed=count)
            site_graph = evaluate(parse(HOMEPAGE_QUERY), data)
            assert check(constraint, site_graph).holds

    def test_textonly_version_of_generated_site(self):
        """Compose: build a site graph, then strip image-bearing edges
        with a second query over the *site* graph (the paper's TextOnly)."""
        data = bibliography_graph(10, seed=5)
        site_graph = evaluate(parse(HOMEPAGE_QUERY), data)
        site_graph.create_collection("Root")
        from repro.graph import Oid

        site_graph.add_to_collection("Root", Oid("RootPage()"))
        textonly = evaluate(
            """
            where Root(p), p -> * -> q, q -> l -> q', not(isPostScript(q'))
            create New(p), New(q), New(q')
            link New(q) -> l -> New(q')
            collect TextOnlyRoot(New(p))
            """,
            site_graph,
        )
        assert textonly.collection_cardinality("TextOnlyRoot") == 1
        assert not any(
            getattr(t, "type", None) and t.type.value == "postscript"
            for _, _, t in textonly.edges()
        )

    def test_ordered_authors_end_to_end(self):
        """The section 6.3 integer-key idiom: author order survives the
        unordered data model all the way into rendered HTML."""
        from repro import BibtexWrapper, Renderer
        from repro.template import parse_template

        bibtex = "@article{k, title={T}, author={Zoe Last and Abe First}, year=1998}"
        data = BibtexWrapper(bibtex, ordered_authors=True).wrap()
        site_graph = evaluate(
            "where Publications(x), x -> l -> v create P(x) link P(x) -> l -> v",
            data,
        )
        from repro.graph import Oid

        page = Oid("P(k)")
        html = Renderer(site_graph).render(
            parse_template(
                '<SFOR a IN author DELIM=", "><SFMT @a.name></SFOR>'
            ),
            page,
        )
        assert html == "Zoe Last, Abe First"  # document order, not alphabetical
        sorted_html = Renderer(site_graph).render(
            parse_template("<SFMT author ENUM ORDER=ascend KEY=order>"),
            page,
        )
        assert sorted_html.index("Zoe") < sorted_html.index("Abe")

    def test_ddl_exchange_between_systems(self):
        """Dump a mediated graph, reload it elsewhere, define a site on it."""
        warehouse = build_mediator(people=10, seed=4).materialize()
        transported = ddl.loads(ddl.dumps(warehouse))
        rows = evaluate(
            "where People(p) create P(p) collect Ps(P(p))", transported
        )
        assert rows.collection_cardinality("Ps") == 10


@pytest.mark.parametrize(
    "example, args",
    [
        ("quickstart.py", ()),
        ("homepage_site.py", ()),
        ("news_site.py", ("_unused", "30")),
        ("org_site.py", ("_unused", "40")),
        ("bilingual_site.py", ()),
        ("custom_news.py", ()),
    ],
)
def test_examples_run(example, args, tmp_path, capsys):
    module = _load_example(example)
    out_dir = str(tmp_path / example.replace(".py", ""))
    if args:
        module.main(out_dir, *args[1:])
    else:
        module.main(out_dir)
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    assert os.path.isdir(out_dir) or any(
        os.path.isdir(os.path.join(out_dir, d)) for d in ("internal", "general")
        if os.path.isdir(out_dir)
    )


def test_living_site_example_runs(capsys):
    module = _load_example("living_site.py")
    module.main()
    out = capsys.readouterr().out
    assert "audit of the materialized site" in out
    assert "0 error(s), 0 warning(s), 0 note(s)" in out
