"""Smoke test of the end-to-end benchmark at a tiny scale.

    python3 -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload untraced and traced (about 30 s in all) and checks
that each metric named in ``BENCHMARK.json`` is printed with its unit and
that every output check ran and passed.  Numbers are not checked.
"""

import json
import os
import shutil
import subprocess
import sys

import common

RUN = os.path.join(common.HERE, "run.py")

EXPECTED_CHECKS = {
    "build-home": {"repeat_digest", "page_count", "seed_digest"},
    "build-org": {"repeat_digest", "memory_reference", "seed_digest"},
    "serve-update": {"read_status", "edits_applied", "fresh_build_identical", "clean_stop",
                     "seed_digest"},
    "serve-insert": {"read_status", "edits_applied", "fresh_build_identical", "clean_stop",
                     "seed_digest"},
}


def _benchmark():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run_all(trace: int) -> str:
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=common.ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout


def _assert_complete(stdout: str, specs) -> dict:
    """Every metric and check of every workload is there; returns the
    metrics of the final JSON line."""
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    printed = {}
    checks = {workload: set() for workload in common.WORKLOADS}
    for line in lines[:-1]:
        workload, name, rest = line.split(" ", 2)
        if name == "check":
            check, status = rest.split()
            assert status == "ok", line
            checks[workload].add(check)
        elif name != "info":
            value, unit = rest.rsplit(" ", 1)
            printed[(workload, name)] = (float(value), unit)
    for workload in common.WORKLOADS:
        assert checks[workload] == EXPECTED_CHECKS[workload], workload
        for spec in specs:
            assert printed[(workload, spec["name"])][1] == spec["unit"]
            metric = summary["metrics"][f"{workload}:{spec['name']}"]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))
    return summary["metrics"]


def test_every_end_to_end_metric_and_check():
    _assert_complete(_run_all(trace=0), _benchmark()["end_to_end"])


def test_every_per_layer_metric_and_check():
    metrics = _assert_complete(_run_all(trace=1), _benchmark()["per_layer"])
    # the only traced update is the run's first edit; its engine has
    # already evaluated the whole site, which must not count as the edit's
    per_edit = metrics["serve-update:struql.bindings"]["value"]
    per_build = metrics["build-home:struql.bindings"]["value"]
    assert 0 < per_edit < 0.1 * per_build


def test_fails_without_the_system_under_test(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files present,
    the benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(common.HERE, target, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "build-home", "--seed", "0",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
