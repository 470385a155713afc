"""Shared helpers for the experiment benches.

Every bench prints a paper-vs-measured table through the ``report``
fixture, which also persists the table under ``benchmarks/out/`` so
EXPERIMENTS.md numbers can be regenerated.  Run with ``-s`` to see the
tables inline:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s
"""

import json
import os
from typing import Dict, List, Sequence

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store_true",
        default=False,
        help="also write BENCH_<name>.json machine-readable summaries "
             "under benchmarks/out/",
    )


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Plain aligned-columns rendering of a list of dict rows."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        for row in rows
    ]
    return "\n".join([header, separator] + body)


@pytest.fixture
def report():
    """report(name, rows, note="") -> prints and persists a table."""

    def _report(name: str, rows: Sequence[Dict[str, object]], note: str = "") -> None:
        table = format_table(rows)
        block = f"\n== {name} ==\n{table}\n"
        if note:
            block += f"{note}\n"
        print(block)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(block.lstrip("\n"))

    return _report


@pytest.fixture
def json_report(request):
    """json_report(name, payload) -> writes benchmarks/out/BENCH_<name>.json
    when ``--bench-json`` is on (returns the path, else None)."""
    enabled = request.config.getoption("--bench-json")

    def _write(name: str, payload: Dict[str, object]):
        if not enabled:
            return None
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    return _write
