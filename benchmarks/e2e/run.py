"""End-to-end benchmark of the Strudel pipeline, with per-layer traces.

    python3 benchmarks/e2e/run.py --workload NAME|all --seed N
                                  [--seconds S] [--trace 0|1]

Workloads (see README.md for why each exists):

* ``build-home`` / ``build-org``: cold builds of the paper's homepage
  site (BibTeX -> in-memory STRUQL -> templates) and of the five-source
  org site (wrappers -> mediator -> SQLite warehouse -> pushdown STRUQL
  -> templates), each build in a fresh child process;
* ``serve-update`` / ``serve-insert``: a ``SiteServer`` answering
  open-loop Zipf reads while an editor thread streams author additions
  or new publications.

Every timing is calibrated by the speed of the CPU that did the work (see
``calibration.py``); the raw times are in the ``info`` line.  Every
end-to-end metric named in ``BENCHMARK.json`` is printed as
``workload metric value unit``; with ``--trace 1`` the per-layer metrics
are printed instead.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and a fuller result
file (machine, samples, checks) goes under ``benchmarks/out/e2e/``.  The
exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import select
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import calibration
import common
import loadgen
import tracing

BENCHMARK_FILE = os.path.join(common.ROOT, "BENCHMARK.json")
DIGESTS_FILE = os.path.join(common.HERE, "digests.json")
WORKER = os.path.join(common.HERE, "worker.py")
#: longest wait for one message from a child process
CHILD_TIMEOUT_S = 90.0
#: a read counts only if the generator's own send lag stays below this
LAG_LIMIT_MS = 1.0


class BenchmarkError(Exception):
    """A child process failed or broke the protocol."""


class Child:
    """A worker process and its line-oriented JSON stdout."""

    def __init__(self, mode: str, job: Dict[str, object], stdin: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [common.SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["SQLITE_TMPDIR"] = os.path.join(common.OUT_DIR, "tmp")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, mode, json.dumps(job)],
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            cwd=common.ROOT,
            env=env,
        )
        self._buffer = b""

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            self.proc.kill()
        self.close()

    def message(self, timeout: float = CHILD_TIMEOUT_S) -> Dict[str, object]:
        deadline = time.perf_counter() + timeout
        stdout = self.proc.stdout
        assert stdout is not None
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchmarkError(f"worker {self.proc.pid} sent nothing for {timeout:.0f} s")
            if select.select([stdout], [], [], remaining)[0]:
                chunk = os.read(stdout.fileno(), 1 << 20)
                if not chunk:
                    raise BenchmarkError(f"worker exited with status {self.proc.wait()}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Wait for the process to end (killing it if it has not)."""
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)
        self.attempted += 1
        if not passed:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


def job_for(workload: str, seed: int, seconds: float, trace: bool,
            scale: common.Scale, run_id: str, tag: str) -> Dict[str, object]:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale.as_dict(),
        "spans": os.path.join(common.OUT_DIR, f"spans-{run_id}-{tag}.json"),
    }


def check_digest(outcome: Outcome, scale: common.Scale, seed: int, digest: str,
                 edits: int = 0) -> None:
    """Compare the output with its committed digest, if there is one.  An
    edit workload's output also depends on how many edits it applied."""
    key = outcome.workload
    if common.WORKLOADS[key] == "edit":
        key = f"{key}@{edits}"
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        expected = json.load(handle).get(scale.name, {}).get(str(seed), {}).get(key)
    if expected is not None:
        outcome.check("seed_digest", digest == expected)
    elif seed == 0:
        print(f"{outcome.workload}: no committed digest for {key} at scale {scale.name};"
              f" output not compared", file=sys.stderr)


# ---------------------------------------------------------------------- #
# build workloads


def build_child(job: Dict[str, object]) -> Dict[str, object]:
    """One cold build; its set-up and build times come raw and calibrated."""
    with Child("build", job) as child:
        child.message()
        ready = time.perf_counter()
        result = child.message()
    speed = calibration.CpuSpeed(result.pop("samples"))
    result["setup_s"] = ready - child.started
    result["setup_cal_s"] = result["setup_s"] * speed.over(child.started, ready)
    result["build_cal_s"] = result["build_s"] * speed.over(*result["window"])
    return result


def run_builds(outcome: Outcome, seed: int, seconds: float, trace: bool,
               scale: common.Scale, run_id: str) -> List[Dict[str, object]]:
    """Cold builds back to back for ``seconds`` (and at least
    ``common.MIN_BUILDS``): another build starts only if, at the mean pace
    so far, it ends in time, so a slow host does not stretch the run by a
    whole build.  A traced run alternates traced and untraced builds; the
    untraced ones give the tracing overhead."""
    builds: List[Dict[str, object]] = []
    minimum = max(common.MIN_BUILDS, 4 if trace else 0)
    start = time.perf_counter()

    def another_fits() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed * (len(builds) + 1) / len(builds) <= seconds

    while len(builds) < minimum or another_fits():
        index = len(builds)
        job = job_for(outcome.workload, seed, seconds, trace and index % 2 == 0,
                      scale, run_id, f"build{index}")
        job.update(index=index, backend="sqlite")
        outcome.attempted += 1
        builds.append(build_child(job))
    digests = {build["digest"] for build in builds}
    outcome.check("repeat_digest", len(digests) == 1)
    if outcome.workload == "build-home":
        outcome.check("page_count", all(b["pages"] == b["expected_pages"] for b in builds))
    else:
        # the SQLite pushdown build must equal the in-memory engine's
        job = job_for(outcome.workload, seed, seconds, False, scale, run_id, "reference")
        job.update(index=len(builds), backend="memory")
        reference = build_child(job)
        outcome.check("memory_reference", digests == {reference["digest"]})
    check_digest(outcome, scale, seed, builds[0]["digest"])
    untraced = [b for b in builds if "trace" not in b]
    outcome.metrics.update(
        setup_s=common.median([b["setup_cal_s"] for b in builds]),
        op_p50_ms=common.median([b["build_cal_s"] for b in untraced]) * 1000.0,
        peak_rss_mb=common.median([b["rss_mb"] for b in untraced]),
    )
    outcome.info.update(
        builds=len(builds),
        raw_setup_s=common.median([b["setup_s"] for b in builds]),
        raw_op_p50_ms=common.median([b["build_s"] for b in untraced]) * 1000.0,
        build_s=[round(b["build_s"], 4) for b in builds],
        build_cal_s=[round(b["build_cal_s"], 4) for b in builds],
        pages=builds[0]["pages"],
        digest=builds[0]["digest"],
    )
    return builds


# ---------------------------------------------------------------------- #
# serve workloads


class Server(Child):
    """A serve worker; set-up is timed from process start to the first
    200 on ``/``."""

    def __init__(self, job: Dict[str, object]) -> None:
        super().__init__("serve", job, stdin=True)
        try:
            self.port = int(self.message()["port"])
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30.0)
            try:
                connection.request("GET", "/")
                response = connection.getresponse()
                response.read()
            finally:
                connection.close()
            if response.status != 200:
                raise BenchmarkError(f"GET / answered {response.status}")
        except BaseException as error:
            self.__exit__(type(error), error, None)
            raise
        self.ready = time.perf_counter()
        self.setup_s = self.ready - self.started

    def finish(self) -> Dict[str, object]:
        """Stop the server; its result carries the CPU speed samples,
        which also give the calibrated set-up time."""
        self.send("finish")
        result = self.message()
        self.speed = calibration.CpuSpeed(result.pop("samples"))
        self.setup_cal_s = self.setup_s * self.speed.over(self.started, self.ready)
        return result


def read_schedule(paths: List[str], seconds: float, seed: int, trace: bool):
    """Seeded Poisson arrivals at ``common.READ_RATE`` over Zipf(1.1)-ranked
    paths, ``/`` first; the offsets and the encoded requests."""
    rng = random.Random(f"{seed}-reads")
    offsets = loadgen.poisson_schedule(common.READ_RATE, seconds, rng)
    others = sorted(path for path in paths if path != "/")
    rng.shuffle(others)
    ranked = ["/"] + others
    draw = loadgen.zipf_sampler(len(ranked), rng)
    requests = [
        loadgen.encode_get(ranked[draw()] + ("?trace=1" if trace and index % 2 == 0 else ""))
        for index in range(len(offsets))
    ]
    return offsets, requests


def run_server(outcome: Outcome, seed: int, seconds: float, trace: bool,
               scale: common.Scale, run_id: str):
    """One edit workload run: the server's set-ups, then the edit stream
    beside open-loop reads, then the checks."""
    workload = outcome.workload
    servers: List[Server] = []
    if not trace:
        for index in range(common.SETUPS - 1):
            job = job_for(workload, seed, seconds, False, scale, run_id, f"setup{index}")
            with Server(job) as server:
                server.finish()
            servers.append(server)
    with Server(job_for(workload, seed, seconds, trace, scale, run_id, "server")) as server:
        server.send("paths")
        offsets, requests = read_schedule(server.message()["paths"], seconds, seed, trace)
        server.send("go")
        window = [time.perf_counter()]
        stats = loadgen.run_open_loop(("127.0.0.1", server.port), offsets, requests)
        window.append(time.perf_counter())
        result = server.finish()
    servers.append(server)

    reads = stats.results
    edits = result["edits"]
    outcome.attempted += len(reads) + len(edits)
    outcome.failed += sum(1 for r in reads if r.status != 200)
    outcome.failed += sum(1 for e in edits if not e["ok"])
    outcome.check("read_status", all(r.status == 200 for r in reads))
    outcome.check("edits_applied", bool(edits) and all(e["ok"] for e in edits))
    outcome.check("fresh_build_identical", bool(result["fresh_build_identical"]))
    outcome.check("clean_stop", bool(result["clean_stop"]))
    check_digest(outcome, scale, seed, result["generation_digest"], len(edits))

    # each edit is calibrated by the server CPU's speed while it ran
    for edit in edits:
        edit["latency_cal_s"] = edit["latency_s"] * server.speed.over(*edit["window"])
    read_ms = [r.latency * 1000.0 for r in reads if r.status == 200]
    edit_ms = [e["latency_s"] * 1000.0 for e in edits if e["ok"]]
    outcome.metrics.update(
        setup_s=common.median([s.setup_cal_s for s in servers]),
        op_p50_ms=common.median([e["latency_cal_s"] for e in edits if e["ok"]]) * 1000.0,
        peak_rss_mb=float(result["rss_mb"]),
    )
    client = {
        "lag_p99_ms": common.percentile([lag * 1000.0 for lag in stats.lags] or [0.0], 0.99),
        "sent": float(len(reads)),
        "backlog_end": float(stats.backlog_end),
        "bytes_per_request": _ratio(stats.bytes_received, len(reads)),
    }
    outcome.info.update(
        client,
        lag_ok=client["lag_p99_ms"] < LAG_LIMIT_MS,
        raw_setup_s=common.median([s.setup_s for s in servers]),
        raw_op_p50_ms=common.median(edit_ms),
        cpu_speed=server.speed.over(*window),
        setups_s=[s.setup_s for s in servers],
        read_p50_ms=common.median(read_ms),
        read_p99_ms=common.percentile(read_ms, 0.99) if read_ms else None,
        edit_ms=edit_ms,
        edit_p99_ms=common.percentile(edit_ms, 0.99) if edit_ms else None,
        reconnects=stats.reconnects,
        digest=result["generation_digest"],
    )
    return result, edits, client


# ---------------------------------------------------------------------- #
# per-layer metrics of a traced run


def merge_summaries(summaries: List[Dict[str, dict]]) -> Dict[str, dict]:
    """Fold per-process trace summaries into one per operation kind."""
    merged: Dict[str, dict] = defaultdict(tracing.empty_summary)
    for summary in summaries:
        for kind, entry in summary.items():
            target = merged[kind]
            target["ops"] += entry["ops"]
            for key in ("self_s", "calls", "counters"):
                target[key].update(entry[key])
            for key in ("durations", "samples"):
                for name, values in entry[key].items():
                    target[key][name].extend(values)
            target["coverage"].extend(entry["coverage"])
    return merged


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile_us(values: List[float], share: float) -> float:
    return common.percentile(values, share) * 1e6 if values else 0.0


def layer_metrics(op_kind: str, merged: Dict[str, dict], context: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, per traced operation of the workload's kind
    (a layer the workload never reaches reads 0)."""
    ops = merged[op_kind]
    reads = merged["read"]
    count = max(ops["ops"], 1)
    self_s = ops["self_s"]
    calls = ops["calls"]
    counters = ops["counters"]

    def per_op(value: float) -> float:
        return value / count

    def struql(name: str) -> float:
        return counters["struql." + name]

    rerendered = counters["core.pages_rerendered"]
    apply_durations = ops["durations"].get("serve.apply_edit", [])
    edit_waits = ops["samples"].get("serve.edit_wait_s", [])
    request_durations = reads["durations"].get("serve.request", [])
    handle_durations = reads["durations"].get("serve.handle", [])
    coverage = merged["build" if op_kind == "build" else "setup"]["coverage"]
    return {
        "wrappers.wrap_s": per_op(self_s["wrappers.wrap_s"]),
        "wrappers.records": per_op(counters["wrappers.records"]),
        "mediator.staging_s": per_op(self_s["mediator.staging_s"]),
        "mediator.materialize_self_s": per_op(self_s["mediator.materialize_self_s"]),
        "mediator.mappings_run": per_op(counters["mediator.mappings_run"]),
        "repository.nav_calls": per_op(calls["repository.nav"]),
        "repository.nav_s": per_op(self_s["repository.nav_s"]),
        "repository.write_calls": per_op(calls["repository.write"]),
        "repository.write_s": per_op(self_s["repository.write_s"]),
        "repository.snapshot_s": per_op(self_s["repository.snapshot_s"]),
        "repository.db_bytes": context.get("db_bytes", 0.0),
        "repository.bytes_per_edge": _ratio(context.get("db_bytes", 0.0), context.get("edges", 0.0)),
        "struql.evaluate_s": per_op(self_s["struql.evaluate_s"]),
        "struql.bindings": per_op(struql("bindings_produced")),
        "struql.edges_examined": per_op(struql("edges_examined")),
        "struql.plan_cache_hit_ratio": _ratio(
            struql("plan_cache_hits"), struql("plan_cache_hits") + struql("plan_cache_misses")),
        "struql.path_memo_hit_ratio": _ratio(
            struql("path_memo_hits"), struql("path_memo_hits") + struql("path_memo_misses")),
        "struql.hash_join_probes": per_op(struql("hash_join_probes")),
        "struql.dedup_hits": per_op(struql("dedup_hits")),
        "struql.sql_pushdowns": per_op(struql("sql_pushdowns")),
        "struql.sql_fallbacks": per_op(struql("sql_fallbacks")),
        "struql.pushdown_share": _ratio(
            struql("sql_pushdowns"), struql("sql_pushdowns") + struql("sql_fallbacks")),
        "struql.sql_rows_fetched": per_op(struql("sql_rows_fetched")),
        "struql.sql_rows_per_binding": _ratio(struql("sql_rows_fetched"), struql("bindings_produced")),
        "template.generate_s": per_op(self_s["template.generate_s"]),
        "template.pages": per_op(counters["template.pages"]),
        "template.bytes_out": per_op(counters["template.bytes_out"]),
        "template.page_us": _ratio(self_s["template.generate_s"], counters["template.pages"]) * 1e6,
        "core.maintain_s": per_op(self_s["core.maintain_s"]),
        "core.rerender_s": per_op(self_s["core.rerender_s"]),
        "core.pages_rerendered": per_op(rerendered),
        "core.pages_added": per_op(counters["core.pages_added"]),
        "core.rerender_share": _ratio(rerendered, rerendered + counters["core.pages_retained"]),
        "core.queries_recomputed": per_op(counters["core.queries_recomputed"]),
        "core.queries_seeded": per_op(counters["core.queries_seeded"]),
        "core.queries_skipped": per_op(counters["core.queries_skipped"]),
        "core.full_rebuilds": per_op(counters["core.full_rebuilds"]),
        "core.coarse_edits": per_op(counters["core.coarse_edits"]),
        "serve.request_p50_us": _percentile_us(request_durations, 0.50),
        "serve.request_p99_us": _percentile_us(request_durations, 0.99),
        "serve.handle_p50_us": _percentile_us(handle_durations, 0.50),
        "serve.handle_p99_us": _percentile_us(handle_durations, 0.99),
        "serve.queue_depth_peak": context.get("queue_depth_peak", 0.0),
        "serve.admitted": context.get("admitted", 0.0),
        "serve.shed": context.get("shed", 0.0),
        "serve.cache_hit_ratio": context.get("cache_hit_ratio", 0.0),
        "serve.edit_wait_ms": common.median(edit_waits) * 1000.0,
        "serve.apply_edit_s": per_op(self_s["serve.apply_edit_s"]),
        "serve.publish_s": per_op(self_s["serve.publish_s"]),
        "serve.refresher_busy_share": _ratio(
            common.median(apply_durations) * context.get("edits", 0.0), context.get("window_s", 0.0)),
        "client.lag_p99_ms": context.get("lag_p99_ms", 0.0),
        "client.sent": context.get("sent", 0.0),
        "client.backlog_end": context.get("backlog_end", 0.0),
        "client.bytes_per_request": context.get("bytes_per_request", 0.0),
        "trace.overhead_share": context["overhead_share"],
        "trace.coverage_share": sum(coverage) / len(coverage) if coverage else 0.0,
    }


def _overhead(traced: List[float], untraced: List[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return common.median(traced) / common.median(untraced) - 1.0


# ---------------------------------------------------------------------- #


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: common.Scale) -> Outcome:
    outcome = Outcome(workload)
    run_id = f"{workload}-s{seed}-t{int(trace)}-{int(time.time())}-{os.getpid()}"
    kind = common.WORKLOADS[workload]
    context: Dict[str, float] = {}
    if kind == "build":
        builds = run_builds(outcome, seed, seconds, trace, scale, run_id)
        traced = [b for b in builds if "trace" in b]
        summaries = [b["trace"] for b in traced]
        context["overhead_share"] = _overhead(
            [b["build_cal_s"] for b in traced],
            [b["build_cal_s"] for b in builds if "trace" not in b],
        )
        if workload == "build-org" and traced:
            context["db_bytes"] = common.median([b["db_bytes"] for b in traced])
            context["edges"] = common.median([b["edges"] for b in traced])
    else:
        result, edits, client = run_server(outcome, seed, seconds, trace, scale, run_id)
        summaries = [result["trace"]] if trace else []
        context["overhead_share"] = _overhead(
            [e["latency_cal_s"] for e in edits if e["ok"] and e["traced"]],
            [e["latency_cal_s"] for e in edits if e["ok"] and not e["traced"]],
        )
        admission = result["admission"]
        context.update(
            queue_depth_peak=float(result.get("queue_depth_peak", 0)),
            admitted=float(admission["admitted"]),
            shed=float(admission["shed"]),
            cache_hit_ratio=_ratio(result["cache_hits"], result["requests"]),
            edits=float(len(edits)),
            window_s=float(seconds),
            **client,
        )
    if trace:
        outcome.metrics = layer_metrics(kind, merge_summaries(summaries), context)
    return outcome


def machine() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(common.SCALES), default="full",
                        help="input sizes (tiny is for the smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"no repro package under {common.SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(common.OUT_DIR, "tmp"), exist_ok=True)
    calibration.pin_to_cpu(last=True)
    scale = common.SCALES[args.scale]
    trace = bool(args.trace)
    specs = benchmark["per_layer" if trace else "end_to_end"]
    workloads = sorted(common.WORKLOADS) if args.workload == "all" else [args.workload]

    outcomes = []
    for workload in workloads:
        try:
            outcome = run_workload(workload, args.seed, args.seconds, trace, scale)
        except BenchmarkError as error:
            print(f"{workload}: {error}", file=sys.stderr)
            return 1
        outcomes.append(outcome)
        for spec in specs:
            print(f"{workload} {spec['name']} {outcome.metrics[spec['name']]!r} {spec['unit']}")
        for name, passed in sorted(outcome.checks.items()):
            print(f"{workload} check {name} {'ok' if passed else 'FAILED'}")
        print(f"{workload} info {json.dumps(outcome.info, sort_keys=True)}")
        record = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": trace, "scale": scale.as_dict(), "machine": machine(),
            "correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "checks": outcome.checks,
            "metrics": {s["name"]: {"value": outcome.metrics[s["name"]], "unit": s["unit"]}
                        for s in specs},
            "info": outcome.info, "finished": time.time(),
        }
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = os.path.join(
            common.OUT_DIR, f"result-{workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)

    def metric_key(outcome: Outcome, name: str) -> str:
        return name if len(outcomes) == 1 else f"{outcome.workload}:{name}"

    summary = {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            metric_key(o, s["name"]): {"value": o.metrics[s["name"]], "unit": s["unit"]}
            for o in outcomes for s in specs
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
