"""Command-line interface: the Strudel pipeline without writing Python.

Section 7 of the paper: "Developing the appropriate API to STRUDEL may
be the best way to incorporate it into tools that Web-site builders
currently use."  This CLI is that integration surface for shell-based
workflows::

    python -m repro wrap bibtex pubs.bib -o data.ddl
    python -m repro build --data data.ddl --query site.struql \\
                          --templates templates/ -o out/
    python -m repro analyze --query site.struql --templates templates/ \\
                            --data data.ddl --format sarif -o report.sarif
    python -m repro schema site.struql -o schema.dot
    python -m repro check --site site.ddl "forall X (...)"
    python -m repro bindings --data data.ddl 'where Publications(x), ...'
    python -m repro stats data.ddl

Template directories hold ``*.tmpl`` files; a template named after a
collection (``Publications.tmpl``) is attached to that collection, one
named after a Skolem term with ``()`` spelled ``__`` is object-specific
(``RootPage__.tmpl`` -> ``RootPage()``), and ``default.tmpl`` becomes
the fallback.

Exit-code contract (usable as a CI gate): 0 = clean, 1 = error-severity
findings (``analyze``, ``lint``, ``check``, ``build`` with a failing
``--analyze`` gate), a template that does not parse (``TPL004``:
``analyze``, ``lint``, ``build``, ``serve``) or any post-build audit
finding (``build``, warnings included), 2 = the command itself failed
(bad input file, syntax error raised outside an analyzed artifact).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import (
    Analyzer,
    DiagnosticReport,
    RENDERERS,
    audit,
    check_templates,
    load_templates,
    render_text,
)
from .core import SiteBuilder, SiteDefinition, SiteSchema, check, verify_static
from .errors import SiteAnalysisError, StrudelError
from .graph import Graph
from .graph.dot import to_dot
from .repository import ddl
from .struql import parse, query_bindings
from .struql import explain as explain_plan
from .template import TemplateSet
from .wrappers import (
    BibtexWrapper,
    DdlWrapper,
    HtmlSiteWrapper,
    RelationalWrapper,
    StructuredFileWrapper,
    Table,
    XmlWrapper,
)

_WRAPPERS = ("bibtex", "csv", "structured", "html", "xml", "ddl")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> Graph:
    return ddl.loads(_read(path), os.path.basename(path))


def _open_data(args: argparse.Namespace):
    """The data graph selected by ``--backend``: ``(graph, sql_repo)``.

    ``memory`` (the default) parses the DDL into the in-memory graph and
    returns ``(graph, None)``.  ``sqlite`` bulk-loads the DDL into a
    SQLite repository -- at ``--db DIR`` if given, else ``:memory:`` --
    and returns the live :class:`~repro.repository.sql.SqlGraph`; query
    evaluation over it picks the STRUQL->SQL pushdown engine
    automatically.
    """
    backend = getattr(args, "backend", "memory") or "memory"
    parsed = _load_graph(args.data)
    if backend == "memory":
        return parsed, None
    from .repository.sql import SqlRepository

    repository = SqlRepository(getattr(args, "db", None))
    name = parsed.name or "data"
    repository.store(name, parsed)
    return repository.fetch(name), repository


def _add_backend_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help="data graph storage backend (sqlite enables SQL pushdown)",
    )
    command.add_argument(
        "--db",
        metavar="DIR",
        help="SQLite repository directory for --backend sqlite "
        "(default: a transient in-memory database)",
    )


def _parsed_templates(directory: str) -> Optional[TemplateSet]:
    """The template set in ``directory``, or ``None`` after printing a
    ``TPL004`` finding to stderr for each file that does not parse."""
    templates, _, unparsable = load_templates(directory)
    if unparsable:
        print(render_text(DiagnosticReport(unparsable)), file=sys.stderr)
        return None
    return templates


# -------------------------------------------------------------------- #
# subcommands


def _make_wrapper(kind: str, source: str):
    """Build the wrapper for one source file (or directory, for html)."""
    if kind == "bibtex":
        return BibtexWrapper(_read(source), source_name=source)
    if kind == "csv":
        name = os.path.basename(source).rsplit(".", 1)[0]
        return RelationalWrapper(
            [Table.from_csv(name, _read(source))],
            source_name=source,
        )
    if kind == "structured":
        return StructuredFileWrapper(_read(source), source_name=source)
    if kind == "xml":
        return XmlWrapper(_read(source), source_name=source)
    if kind == "html":
        pages = {}
        for base, _, files in os.walk(source):
            for filename in files:
                if filename.endswith((".html", ".htm")):
                    path = os.path.join(base, filename)
                    pages[os.path.relpath(path, source)] = _read(path)
        return HtmlSiteWrapper(pages, source_name=source)
    if kind == "ddl":
        return DdlWrapper(_read(source), source_name=source)
    raise ValueError(f"unknown wrapper kind {kind!r}")


def _cmd_wrap(args: argparse.Namespace) -> int:
    graph = _make_wrapper(args.kind, args.source).wrap()
    _write_output(ddl.dumps(graph), args.output)
    print(f"wrapped {args.source}: {graph.stats()}", file=sys.stderr)
    return 0


def _parse_source_spec(spec: str):
    """Parse one ``--source NAME=KIND:PATH`` argument."""
    name, sep, rest = spec.partition("=")
    kind, colon, path = rest.partition(":")
    if not sep or not colon or not name or not path:
        raise ValueError(
            f"bad --source {spec!r}: expected NAME=KIND:PATH "
            f"(e.g. pubs=bibtex:pubs.bib)"
        )
    if kind not in _WRAPPERS:
        raise ValueError(
            f"bad --source {spec!r}: unknown kind {kind!r} "
            f"(choose from {', '.join(_WRAPPERS)})"
        )
    return name, kind, path


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Resilient multi-source ingest: build a warehouse from whatever
    survives, report what degraded, and say so in the exit code."""
    from .mediator import Mediator
    from .repository import open_repository
    from .resilience import ResiliencePolicy, ResilienceReport, WrapPolicy

    constraint_policy = None
    constraint_set = _load_data_constraints(args)
    if constraint_set is not None:
        from .constraints import ConstraintPolicy

        constraint_policy = ConstraintPolicy(constraint_set)
    policy = ResiliencePolicy(
        wrap=WrapPolicy.tolerant(args.max_errors, constraints=constraint_policy),
        min_sources=args.min_sources,
    )
    repository = (
        open_repository(args.repository, args.backend)
        if args.repository
        else None
    )
    mediator = Mediator(repository, policy=policy)
    for spec in args.source:
        name, kind, path = _parse_source_spec(spec)
        mediator.add_source(name, _make_wrapper(kind, path))
        mediator.import_source(name)
    warehouse = mediator.materialize(args.name)
    report = (
        ResilienceReport().record_mediation(mediator).record_recoveries()
    )
    _write_output(ddl.dumps(warehouse), args.output)
    if args.report:
        report.save(args.report)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    if constraint_policy is not None:
        print(
            f"constraints: {constraint_policy.counters.summary()}",
            file=sys.stderr,
        )
    print(f"ingested {args.name}: {warehouse.stats()}", file=sys.stderr)
    return 1 if (report.partial or report.stale) else 0


def _cmd_build(args: argparse.Namespace) -> int:
    data, _ = _open_data(args)
    templates = _parsed_templates(args.templates)
    if templates is None:
        return 1
    definition = SiteDefinition(
        name=args.name,
        query=_read(args.query),
        templates=templates,
        roots=list(args.root) if args.root else [],
        constraints=_load_constraints(args)[0],
    )
    builder = SiteBuilder(data)
    builder.define(definition)
    try:
        built = builder.build(args.name, gate=args.analyze)
    except SiteAnalysisError as error:
        print(render_text(error.report), file=sys.stderr)
        print(f"build of {args.name} blocked: {error}", file=sys.stderr)
        return 1
    built.write(args.output)
    report = audit(built)
    print(f"built {args.name} -> {args.output}", file=sys.stderr)
    print(render_text(report), file=sys.stderr)
    # any audit finding fails the build, warnings included (``report.ok``
    # fails on errors only)
    return 1 if report.diagnostics else 0


def _load_constraints(args: argparse.Namespace):
    """Constraints from ``--constraint`` flags plus a ``--constraints-file``
    (one per line, ``#`` comments and blanks skipped); returns
    ``(constraints, file_lines)`` with file_lines aligned to the file's
    entries for precise spans."""
    constraints = list(getattr(args, "constraint", None) or [])
    lines = [0] * len(constraints)
    path = getattr(args, "constraints_file", None)
    if path:
        for number, raw in enumerate(_read(path).splitlines(), start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            constraints.append(text)
            lines.append(number)
    return constraints, lines


def _load_data_constraints(args: argparse.Namespace):
    """The declarative data-constraint file named by ``--constraints``
    (``None`` when the flag is absent).  Parsing is error-recovering;
    syntax problems surface as DC001 diagnostics, not exceptions."""
    path = getattr(args, "constraints", None)
    if not path:
        return None
    from .constraints import parse_constraints

    return parse_constraints(_read(path), source=path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    diagnostics_pending = []
    templates = None
    template_files = {}
    if args.templates:
        templates, template_files, diagnostics_pending = load_templates(
            args.templates
        )
    constraints, constraint_lines = _load_constraints(args)
    analyzer = Analyzer(
        query=_read(args.query),
        templates=templates,
        constraints=constraints,
        roots=list(args.root) if args.root else [],
        data_graph=_load_graph(args.data) if args.data else None,
        query_file=args.query,
        constraint_file=args.constraints_file or "<constraints>",
        template_files=template_files,
        constraint_lines=constraint_lines,
        data_constraints=_load_data_constraints(args),
    )
    analyzer.pending = diagnostics_pending
    report = analyzer.run(suppress=args.suppress or [])
    _write_output(RENDERERS[args.format](report) + "\n", args.output)
    if args.output:
        print(report.summary(), file=sys.stderr)
    if args.strict and report.warnings:
        return 1
    return report.exit_code


def _cmd_schema(args: argparse.Namespace) -> int:
    program = parse(_read(args.query))
    schema = SiteSchema.from_program(program)
    if args.format == "dot":
        _write_output(schema.to_dot() + "\n", args.output)
    else:
        _write_output("\n".join(schema.recover_link_expressions()) + "\n", args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    if args.site:
        graph = _load_graph(args.site)
        for constraint in args.constraint:
            result = check(constraint, graph)
            status = "holds" if result.holds else f"VIOLATED ({result.witness})"
            print(f"{status}: {constraint}")
            if not result.holds:
                failures += 1
    if args.query:
        schema = SiteSchema.from_program(parse(_read(args.query)))
        for constraint in args.constraint:
            verdict = verify_static(constraint, schema)
            print(f"static {verdict.value}: {constraint}")
    return 1 if failures else 0


def _cmd_bindings(args: argparse.Namespace) -> int:
    graph, _ = _open_data(args)
    rows = query_bindings(args.query, graph)
    for row in rows:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        print(rendered)
    print(f"({len(rows)} rows)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a site over HTTP until SIGINT (or ``--duration`` expires),
    then drain gracefully: stop accepting, finish queued requests."""
    import signal
    import threading
    import time

    from .serve import ServeCore, SiteServer

    data, _ = _open_data(args)
    templates = _parsed_templates(args.templates)
    if templates is None:
        return 1
    core = ServeCore(
        _read(args.query),
        data,
        templates,
        roots=list(args.root) if args.root else None,
        dynamic=args.dynamic,
        site_name=args.name,
    )
    server = SiteServer(
        core,
        host=args.host,
        port=args.port,
        workers=args.workers,
        admission_limit=args.admission_limit,
        deadline_budget=args.deadline if args.deadline else None,
    )
    server.start()
    mode = "dynamic" if args.dynamic else "static"
    print(
        f"serving {args.name} at {server.url} "
        f"({args.workers} workers, {mode} mode, "
        f"{core.cache.current().page_count} pages warm); Ctrl-C to drain",
        file=sys.stderr,
    )
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    # signal handlers only exist on the main thread; tests drive this
    # function from worker threads and use --duration instead
    restore = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            restore[signum] = signal.signal(signum, _request_stop)
        except ValueError:
            pass
    deadline = time.monotonic() + args.duration if args.duration else None
    try:
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(0.2)
    finally:
        for signum, handler in restore.items():
            signal.signal(signum, handler)
    print("draining in-flight requests...", file=sys.stderr)
    clean = server.stop()
    stats = server.stats()
    core_stats = stats["core"]
    admission = stats["admission"]
    print(
        f"served {core_stats['requests']} requests "
        f"({core_stats['not_found']} not found, "
        f"{admission['shed']} shed, "
        f"{core_stats['refreshes_applied']} refreshes); "
        f"{'clean' if clean else 'timed-out'} shutdown",
        file=sys.stderr,
    )
    return 0 if clean else 1


def _print_serve_stats(url: str) -> None:
    """Fetch and pretty-print a running server's ``/_stats``."""
    import json
    from urllib.request import urlopen

    with urlopen(url.rstrip("/") + "/_stats", timeout=10) as response:
        payload = json.loads(response.read().decode("utf-8"))

    def _walk(node: object, indent: int) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                value = node[key]
                if isinstance(value, dict):
                    print(f"{'  ' * indent}{key}:")
                    _walk(value, indent + 1)
                else:
                    print(f"{'  ' * indent}{key}: {value}")
        else:
            print(f"{'  ' * indent}{node}")

    _walk(payload, 0)


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.serve:
        _print_serve_stats(args.serve)
        if not args.data:
            return 0
    if not args.data:
        print("repro stats: error: give a DDL file or --serve URL", file=sys.stderr)
        return 2
    graph, sql_repo = _open_data(args)
    print(f"backend: {'sqlite' if sql_repo is not None else 'memory'}")
    if sql_repo is not None:
        print(f"db file size: {sql_repo.file_size()} bytes")
        rows = sql_repo.index_row_counts()
        rendered = " ".join(f"{table}={count}" for table, count in sorted(rows.items()))
        print(f"index rows: {rendered}")
    for key, value in graph.stats().items():
        print(f"{key}: {value}")
    for collection in graph.collection_names():
        print(f"collection {collection}: {graph.collection_cardinality(collection)}")
    print(f"epoch: {graph.epoch}")
    delta = graph.delta_since(0)
    if delta is None:
        print("delta log: truncated (selective refresh would fall back to coarse)")
    else:
        print(f"delta log: {delta.size()} mutations buffered since epoch 0")
    if args.query:
        from .struql import Metrics, make_engine, parse as parse_struql

        text = _read(args.query) if os.path.exists(args.query) else args.query
        conditions = parse_struql(text).queries[0].where
        engine = make_engine(graph)
        for run in ("cold", "warm"):
            engine.metrics = Metrics()
            engine.bindings(conditions)
            metrics = engine.metrics
            print(
                f"{run}: plan_cache_hits={metrics.plan_cache_hits} "
                f"plan_cache_misses={metrics.plan_cache_misses} "
                f"stats_snapshots={metrics.stats_snapshots} "
                f"conditions_evaluated={metrics.conditions_evaluated} "
                f"hash_join_probes={metrics.hash_join_probes} "
                f"dedup_hits={metrics.dedup_hits} "
                f"path_memo_hits={metrics.path_memo_hits}"
            )
            if sql_repo is not None:
                print(
                    f"{run} sql: pushdowns={metrics.sql_pushdowns} "
                    f"pushed_conditions={metrics.sql_pushed_conditions} "
                    f"rows_fetched={metrics.sql_rows_fetched} "
                    f"fallbacks={metrics.sql_fallbacks}"
                )
        cache = engine.plan_cache.stats()
        print(
            f"plan cache: hits={cache['hits']} misses={cache['misses']} "
            f"plans={cache['plans']} nfas={cache['nfas']} "
            f"path_hits={cache['path_hits']} path_misses={cache['path_misses']} "
            f"path_entries={cache['path_entries']} "
            f"sql_hits={cache['sql_hits']} sql_misses={cache['sql_misses']} "
            f"sql_plans={cache['sql_plans']}"
        )
    if getattr(args, "constraints", None):
        from .constraints import ConstraintChecker

        constraint_set = _load_data_constraints(args)
        checker = ConstraintChecker(graph, constraint_set)
        violations = checker.check_all()
        print(f"constraints: {checker.counters.summary()}")
        for violation in violations[:5]:
            print(f"  violated: {violation}")
        if len(violations) > 5:
            print(f"  ... and {len(violations) - 5} more")
    if args.resilience is not None:
        from .resilience import ResilienceReport

        if args.resilience:
            report = ResilienceReport.load(args.resilience)
        else:
            report = ResilienceReport().record_recoveries().record_slow_queries()
        print("resilience:")
        for line in report.summary_lines():
            print(f"  {line}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    schema = SiteSchema.from_program(parse(_read(args.query)))
    templates, files, unparsable = load_templates(args.templates)
    report = DiagnosticReport(unparsable + check_templates(templates, schema, files))
    print(render_text(report))
    return report.exit_code


def _cmd_explain(args: argparse.Namespace) -> int:
    graph = _load_graph(args.data) if args.data else None
    text = _read(args.query) if os.path.exists(args.query) else args.query
    print(explain_plan(text, graph))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    graph = _load_graph(args.data)
    _write_output(to_dot(graph, cluster_collections=args.cluster) + "\n", args.output)
    return 0


# -------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for doc generation/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Strudel web-site management pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wrap = sub.add_parser("wrap", help="wrap a source into DDL")
    wrap.add_argument("kind", choices=_WRAPPERS)
    wrap.add_argument("source", help="source file (or directory for html)")
    wrap.add_argument("-o", "--output", help="output DDL file (default stdout)")
    wrap.set_defaults(func=_cmd_wrap)

    build = sub.add_parser("build", help="build a browsable site")
    build.add_argument("--data", required=True, help="data graph DDL file")
    build.add_argument("--query", required=True, help="STRUQL site definition")
    build.add_argument("--templates", required=True, help="directory of .tmpl files")
    build.add_argument("-o", "--output", required=True, help="output directory")
    build.add_argument("--name", default="site")
    build.add_argument("--root", action="append", help="root object/collection")
    build.add_argument("--constraint", action="append",
                       help="integrity constraint to check after building")
    build.add_argument("--constraints-file",
                       help="file of constraints, one per line")
    build.add_argument("--analyze", action="store_true",
                       help="run static analysis first; refuse to build "
                            "on error-severity findings")
    _add_backend_flags(build)
    build.set_defaults(func=_cmd_build)

    analyze = sub.add_parser(
        "analyze",
        help="statically analyze a site definition (no build)",
    )
    analyze.add_argument("--query", required=True, help="STRUQL site definition")
    analyze.add_argument("--templates", help="directory of .tmpl files")
    analyze.add_argument("--data",
                         help="data graph DDL file (enables vocabulary checks)")
    analyze.add_argument("--constraint", action="append",
                         help="integrity constraint (repeatable)")
    analyze.add_argument("--constraints-file",
                         help="file of constraints, one per line")
    analyze.add_argument("--constraints", metavar="PATH",
                         help="declarative data-constraint file (DC0xx "
                              "checks: static refutation, violations)")
    analyze.add_argument("--root", action="append",
                         help="root object/collection for reachability")
    analyze.add_argument("--format", choices=sorted(RENDERERS), default="text")
    analyze.add_argument("-o", "--output", help="write the report to a file")
    analyze.add_argument("--suppress", action="append", metavar="CODE[:SUBJECT]",
                         help="suppress findings by code or code:subject")
    analyze.add_argument("--strict", action="store_true",
                         help="also exit non-zero on warnings")
    analyze.set_defaults(func=_cmd_analyze)

    schema = sub.add_parser("schema", help="derive the site schema of a query")
    schema.add_argument("query", help="STRUQL file")
    schema.add_argument("--format", choices=("dot", "text"), default="dot")
    schema.add_argument("-o", "--output")
    schema.set_defaults(func=_cmd_schema)

    check_cmd = sub.add_parser("check", help="check integrity constraints")
    check_cmd.add_argument("constraint", nargs="+")
    check_cmd.add_argument("--site", help="materialized site graph DDL")
    check_cmd.add_argument("--query", help="STRUQL file for static verification")
    check_cmd.set_defaults(func=_cmd_check)

    bindings = sub.add_parser("bindings", help="evaluate a where clause")
    bindings.add_argument("--data", required=True)
    bindings.add_argument("query", help="STRUQL text (where clause)")
    _add_backend_flags(bindings)
    bindings.set_defaults(func=_cmd_bindings)

    serve = sub.add_parser(
        "serve",
        help="serve a site over HTTP with a worker pool and live refresh",
    )
    serve.add_argument("--data", required=True, help="data graph DDL file")
    serve.add_argument("--query", required=True, help="STRUQL site definition")
    serve.add_argument("--templates", required=True, help="directory of .tmpl files")
    serve.add_argument("--root", action="append", help="root object/collection")
    serve.add_argument("--name", default="site")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads, each with a warm engine")
    serve.add_argument("--admission-limit", type=int, default=64,
                       help="max in-flight connections before shedding 503s")
    serve.add_argument("--deadline", type=float, default=5.0,
                       help="per-request evaluation budget in seconds; "
                            "expired requests get a structured 504 "
                            "(0 disables deadlines)")
    serve.add_argument("--dynamic", action="store_true",
                       help="render pages at click time instead of "
                            "serving a pre-built generation")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then drain (default: "
                            "until SIGINT)")
    _add_backend_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser("stats", help="size summary of a DDL graph")
    stats.add_argument("data", nargs="?",
                       help="DDL graph file (optional with --serve)")
    stats.add_argument("--serve", metavar="URL",
                       help="fetch and print a running server's /_stats")
    stats.add_argument("--query",
                       help="STRUQL text or file: also report cold/warm "
                            "query-engine cache counters for its where clause")
    stats.add_argument("--constraints", metavar="PATH",
                       help="check a data-constraint file against the "
                            "graph and print checked/violated/refuted "
                            "counters")
    stats.add_argument("--resilience", nargs="?", const="", metavar="REPORT",
                       help="also print resilience counters (quarantines, "
                            "breaker states, recovery events); give the "
                            "JSON report written by 'ingest --report' to "
                            "summarize a past run")
    _add_backend_flags(stats)
    stats.set_defaults(func=_cmd_stats)

    ingest = sub.add_parser(
        "ingest",
        help="resilient multi-source ingest into one warehouse DDL",
    )
    ingest.add_argument("--source", action="append", required=True,
                        metavar="NAME=KIND:PATH",
                        help="a named source (repeatable), e.g. "
                             "pubs=bibtex:pubs.bib")
    ingest.add_argument("-o", "--output", help="warehouse DDL (default stdout)")
    ingest.add_argument("--name", default="data", help="warehouse graph name")
    ingest.add_argument("--max-errors", type=int, default=None, metavar="N",
                        help="per-source quarantine budget: abort a source "
                             "after N bad records (default: unlimited)")
    ingest.add_argument("--min-sources", type=int, default=1, metavar="N",
                        help="minimum surviving sources (default 1)")
    ingest.add_argument("--repository", metavar="DIR",
                        help="repository directory for generational "
                             "persistence and stale fallback")
    ingest.add_argument("--backend", choices=("ddl", "sqlite"), default="ddl",
                        help="repository backend for --repository: "
                             "checksummed DDL files or one SQLite database "
                             "(each warehouse is committed in one transaction)")
    ingest.add_argument("--report", metavar="FILE",
                        help="write the resilience report as JSON")
    ingest.add_argument("--constraints", metavar="PATH",
                        help="declarative data-constraint file: violating "
                             "records are quarantined with provenance")
    ingest.set_defaults(func=_cmd_ingest)

    lint = sub.add_parser("lint", help="check templates against a site schema")
    lint.add_argument("--query", required=True, help="STRUQL site definition")
    lint.add_argument("--templates", required=True, help="directory of .tmpl files")
    lint.set_defaults(func=_cmd_lint)

    explain_cmd = sub.add_parser("explain", help="show a query's execution plan")
    explain_cmd.add_argument("query", help="STRUQL text or file")
    explain_cmd.add_argument("--data", help="DDL graph for statistics")
    explain_cmd.set_defaults(func=_cmd_explain)

    dot = sub.add_parser("dot", help="render a DDL graph as GraphViz")
    dot.add_argument("data")
    dot.add_argument("--cluster", action="store_true",
                     help="group collection members into clusters")
    dot.add_argument("-o", "--output")
    dot.set_defaults(func=_cmd_dot)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 findings/violations (gate-style failures
    reported by the subcommands themselves), 2 the command crashed on
    bad input (unreadable file, syntax error outside analyzed artifacts).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StrudelError, OSError, ValueError, KeyError) as error:
        # one-line diagnostic, never a traceback
        detail = str(error) or type(error).__name__
        print(f"repro {args.command}: error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
