"""Unit tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import main

BIBTEX = """
@article{p1, title = {Alpha}, author = {Mary and Dan}, year = 1998, category = {web}}
@article{p2, title = {Beta}, author = {Dan}, year = 1997}
"""

SITE_QUERY = """
create Root()
where Publications(x), x -> l -> v
create Page(x)
link Page(x) -> l -> v, Root() -> "Paper" -> Page(x)
collect Pages(Page(x))
"""

ROOT_TEMPLATE = '<h1>Papers</h1><SFMT Paper UL ORDER=descend KEY=year>\n'
PAGE_TEMPLATE = '<h2><SFMT title></h2> by <SFMT author ENUM> (<SFMT year>)\n'


@pytest.fixture
def workspace(tmp_path):
    bib = tmp_path / "pubs.bib"
    bib.write_text(BIBTEX)
    query = tmp_path / "site.struql"
    query.write_text(SITE_QUERY)
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "Root__.tmpl").write_text(ROOT_TEMPLATE)
    (templates / "Pages.tmpl").write_text(PAGE_TEMPLATE)
    return tmp_path


def _wrap(workspace):
    data = workspace / "data.ddl"
    code = main(["wrap", "bibtex", str(workspace / "pubs.bib"), "-o", str(data)])
    assert code == 0
    return data


class TestWrap:
    def test_bibtex(self, workspace):
        data = _wrap(workspace)
        text = data.read_text()
        assert "object p1" in text
        assert "member Publications" in text

    def test_csv(self, workspace, capsys):
        csv = workspace / "t.csv"
        csv.write_text("a,b\n1,x\n")
        assert main(["wrap", "csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "collection t" in out

    def test_structured(self, workspace, capsys):
        rec = workspace / "r.txt"
        rec.write_text("%collection R\n\nname: one\n")
        assert main(["wrap", "structured", str(rec)]) == 0
        assert "member R" in capsys.readouterr().out

    def test_html_directory(self, workspace, capsys):
        site = workspace / "html"
        site.mkdir()
        (site / "a.html").write_text("<html><title>A</title></html>")
        assert main(["wrap", "html", str(site)]) == 0
        assert "page:a.html" in capsys.readouterr().out

    def test_ddl_passthrough(self, workspace, capsys):
        ddl_file = workspace / "x.ddl"
        ddl_file.write_text('object a { name: "n" }')
        assert main(["wrap", "ddl", str(ddl_file)]) == 0
        assert "object a" in capsys.readouterr().out


class TestBuild:
    def test_build_site(self, workspace):
        data = _wrap(workspace)
        out_dir = workspace / "out"
        code = main([
            "build", "--data", str(data), "--query",
            str(workspace / "site.struql"), "--templates",
            str(workspace / "templates"), "-o", str(out_dir),
            "--root", "Root()",
        ])
        assert code == 0
        assert (out_dir / "index.html").exists()
        index = (out_dir / "index.html").read_text()
        assert "Alpha" in index and "Beta" in index

    def test_default_roots(self, workspace):
        data = _wrap(workspace)
        out_dir = workspace / "out2"
        code = main([
            "build", "--data", str(data), "--query",
            str(workspace / "site.struql"), "--templates",
            str(workspace / "templates"), "-o", str(out_dir),
        ])
        assert code == 0

    def test_exit_codes_fail_on_any_audit_finding(self, workspace):
        """0 for a clean site; 1 when the audit finds anything, a
        warning-only site (unreachable page, empty page) included."""
        data = _wrap(workspace)
        unlinked = SITE_QUERY.replace(', Root() -> "Paper" -> Page(x)', "")
        cases = {
            "clean": (SITE_QUERY, ROOT_TEMPLATE, PAGE_TEMPLATE, 0),
            "unreachable": (unlinked, "<h1>Papers</h1>\n", PAGE_TEMPLATE, 1),
            "empty": (SITE_QUERY, ROOT_TEMPLATE, "<p><SFMT nothing></p>\n", 1),
            "dangling": (
                SITE_QUERY, ROOT_TEMPLATE + '<a href="gone.html">x</a>\n',
                PAGE_TEMPLATE, 1,
            ),
        }
        for name, (query, root, page, expected) in cases.items():
            (workspace / "site.struql").write_text(query)
            (workspace / "templates" / "Root__.tmpl").write_text(root)
            (workspace / "templates" / "Pages.tmpl").write_text(page)
            code = main([
                "build", "--data", str(data), "--query",
                str(workspace / "site.struql"), "--templates",
                str(workspace / "templates"), "-o", str(workspace / name),
                "--root", "Root()",
            ])
            assert code == expected, name


class TestSchema:
    def test_dot_output(self, workspace, capsys):
        assert main(["schema", str(workspace / "site.struql")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"Root" -> "Page"' in out

    def test_text_output(self, workspace, capsys):
        assert main(
            ["schema", str(workspace / "site.struql"), "--format", "text"]
        ) == 0
        assert 'Root() -> "Paper" -> Page(x)' in capsys.readouterr().out


class TestCheckAndQuery:
    def test_check_holds(self, workspace):
        data = _wrap(workspace)
        code = main(["check", "--site", str(data), "exists X (Publications(X))"])
        assert code == 0

    def test_check_violation_exit_code(self, workspace):
        data = _wrap(workspace)
        code = main(["check", "--site", str(data), "exists X (Nothing(X))"])
        assert code == 1

    def test_static_verification(self, workspace, capsys):
        code = main([
            "check", "--query", str(workspace / "site.struql"),
            'forall X (Page(X) => exists Y (Root(Y) and Y -> "Paper" -> X))',
        ])
        assert code == 0
        assert "static verified" in capsys.readouterr().out

    def test_bindings(self, workspace, capsys):
        data = _wrap(workspace)
        code = main([
            "bindings", "--data", str(data),
            'where Publications(x), x -> "year" -> y',
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "x=p1" in out and "y=1998" in out

    def test_stats(self, workspace, capsys):
        data = _wrap(workspace)
        assert main(["stats", str(data)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 2" in out
        assert "collection Publications: 2" in out

    def test_dot(self, workspace, capsys):
        data = _wrap(workspace)
        assert main(["dot", str(data)]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dot_clustered(self, workspace, capsys):
        data = _wrap(workspace)
        assert main(["dot", str(data), "--cluster"]) == 0
        assert "subgraph cluster_0" in capsys.readouterr().out


class TestLintAndExplain:
    def test_lint_clean(self, workspace):
        code = main([
            "lint", "--query", str(workspace / "site.struql"),
            "--templates", str(workspace / "templates"),
        ])
        assert code == 0

    def test_lint_catches_typo(self, workspace, capsys):
        (workspace / "templates" / "Root__.tmpl").write_text("<SFMT Paperr UL>")
        code = main([
            "lint", "--query", str(workspace / "site.struql"),
            "--templates", str(workspace / "templates"),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "Paperr" in out
        assert f"{workspace / 'templates' / 'Root__.tmpl'}:1: error[TPL001]" in out

    def test_unparsable_template_is_a_finding(self, workspace, capsys):
        """A template that does not parse is a ``TPL004`` finding at its
        file and line: ``lint`` and ``build`` exit 1, not 2, and
        ``build`` writes nothing."""
        data = _wrap(workspace)
        pages = workspace / "templates" / "Pages.tmpl"
        pages.write_text("<p>\n</SFOR>\n")
        code = main([
            "lint", "--query", str(workspace / "site.struql"),
            "--templates", str(workspace / "templates"),
        ])
        assert code == 1
        assert f"{pages}:2: error[TPL004]" in capsys.readouterr().out
        code = main([
            "build", "--data", str(data), "--query",
            str(workspace / "site.struql"), "--templates",
            str(workspace / "templates"), "-o", str(workspace / "out"),
        ])
        assert code == 1
        assert f"{pages}:2: error[TPL004]" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_explain_inline_query(self, workspace, capsys):
        data = _wrap(workspace)
        code = main([
            "explain", 'where Publications(x), x -> "year" -> y',
            "--data", str(data),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan for:" in out
        assert "collection scan Publications" in out

    def test_explain_rejects_naive_flag(self, workspace):
        data = _wrap(workspace)
        with pytest.raises(SystemExit) as exit_info:
            main([
                "explain", 'where Publications(x), x -> "year" -> y',
                "--data", str(data), "--naive",
            ])
        assert exit_info.value.code == 2

    def test_explain_from_file(self, workspace, capsys):
        code = main(["explain", str(workspace / "site.struql")])
        assert code == 0
        assert "plan for:" in capsys.readouterr().out

    def test_explain_shows_every_query_block(self, capsys):
        """The homepage fixture's first block has no where clause; the
        ``Publications(x)`` block and its nested blocks must be shown."""
        fixture = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "fixtures", "clean", "homepage",
        )
        code = main([
            "explain", os.path.join(fixture, "site.struql"),
            "--data", os.path.join(fixture, "data.ddl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("plan for:")]
        assert headers == [
            "plan for: query Q1",
            "plan for: query Q2",
            "plan for: query Q3, nested in Q2 (bound: x)",
            "plan for: query Q4, nested in Q2 (bound: x)",
        ]
        assert "collection scan Publications" in out
        assert 'forward adjacency x -> "year"' in out
        assert 'forward adjacency x -> "category"' in out
