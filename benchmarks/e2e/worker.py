"""One child process of the benchmark: a cold build, or a site server.

``run.py`` starts it as ``python3 worker.py build|serve JOB_JSON`` and
reads one JSON object per line from its stdout:

* ``build``: prints ``{"ready": true}`` once its inputs exist (the parent
  times set-up up to that line), then builds the site from source text
  and prints the build's time, output digest and peak memory.
* ``serve``: builds the site, starts a :class:`repro.serve.SiteServer`
  with the ``repro serve`` defaults and prints its port, then obeys
  commands on stdin: ``paths`` (print the served paths), ``go`` (start
  the edit stream) and ``finish`` (wait for the edits, check the served
  pages against a fresh build, stop the server, print the result and
  exit).

Either runs on one CPU with a :class:`calibration.SpeedSampler` beside
it, and its last message carries the sampler's measurements.

Inputs come from the seed alone: BibTeX from
``repro.workloads.generate_entries``, the five org sources from
``repro.workloads.build_mediator``, and the edit stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

import calibration
import common
import loadgen


def emit(message: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def tracer_for(job: Dict[str, object]):
    if not job["trace"]:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def operation(tracer, trace_id: str, name: str, metrics: bool = False):
    return tracer.operation(trace_id, name, metrics) if tracer else nullcontext()


# ---------------------------------------------------------------------- #
# cold builds


def build(job: Dict[str, object], sampler: calibration.SpeedSampler) -> None:
    scale = common.Scale(**job["scale"])
    seed = int(job["seed"])
    tracer = tracer_for(job)
    from repro import SiteBuilder, SiteDefinition
    from repro.repository.sql import SqlRepository
    from repro.struql import Metrics
    from repro.workloads import build_mediator, generate_entries
    from repro.wrappers import BibtexWrapper

    home = job["workload"] == "build-home"
    site = "home" if home else "org"
    if home:
        bibtex = generate_entries(scale.home_pubs, seed=seed)
    else:
        mediator = build_mediator(people=scale.org_people, seed=seed)
    query, texts = common.read_definition(site)
    db_dir = os.path.join(common.OUT_DIR, "tmp", f"db-{os.getpid()}")
    shutil.rmtree(db_dir, ignore_errors=True)
    emit({"ready": True})

    start = time.perf_counter()
    with operation(tracer, f"build:{job['index']}", "bench.build", metrics=True):
        repository = None
        if home:
            data = BibtexWrapper(bibtex).wrap()
        else:
            if job["backend"] == "sqlite":
                repository = SqlRepository(db_dir)
            mediator.repository = repository
            data = mediator.materialize("data")
        builder = SiteBuilder(data)
        builder.define(
            SiteDefinition(site, query, common.make_templates(texts), roots=common.ROOTS[site])
        )
        pages = builder.build(site, metrics=Metrics()).pages
    end = time.perf_counter()

    result: Dict[str, object] = {
        "build_s": end - start,
        "window": [start, end],
        "digest": common.pages_digest(pages),
        "pages": len(pages),
        "rss_mb": common.peak_rss_mb(),
        "edges": data.edge_count,
    }
    if home:
        result["expected_pages"] = expected_home_pages(bibtex)
    if repository is not None:
        result["db_bytes"] = repository.file_size()
        repository.store_backend.close()
        shutil.rmtree(db_dir, ignore_errors=True)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(job["spans"])
    result["samples"] = sampler.samples
    emit(result)


def expected_home_pages(bibtex: str) -> int:
    """Pages the homepage site must have: root, abstracts index, one
    abstract page per entry, one page per distinct year and category."""
    entries = bibtex.count("\n@") + int(bibtex.startswith("@"))
    years = set(re.findall(r"^\s*year = (\d+),", bibtex, re.M))
    categories = set(re.findall(r"^\s*category = \{([^}]*)\},", bibtex, re.M))
    return 2 + entries + len(years) + len(categories)


# ---------------------------------------------------------------------- #
# the server and its editor


class Edit:
    """One editor mutation, applied by the server's refresher thread to
    its :class:`~repro.core.regen.RegeneratingSite`."""

    def __init__(self, edit_id: int, kind: str, offset: float, change, traced: bool) -> None:
        self.edit_id = edit_id
        self.kind = kind
        self.offset = offset
        #: scheduled submit time (perf_counter), set when the stream starts
        self.due = 0.0
        self.traced = traced
        self._change = change

    def __call__(self, regen) -> None:
        self._change(regen)


def edit_stream(graph, workload: str, scale: common.Scale, seed: int,
                seconds: float, trace: bool) -> List[Edit]:
    """The seeded open-loop edit schedule of an edit workload.

    ``serve-update`` gives a Zipf-chosen existing publication one more
    author (a second title would not show: the templates print a
    publication's first title only); ``serve-insert`` adds a new
    publication generated like the site's own entries.  The edits are a
    prefix of one seeded sequence whose length the run's duration sets,
    so the final site depends on the seed and the edit count alone.
    """
    from repro.graph import Oid
    from repro.workloads import generate_entries
    from repro.wrappers import BibtexWrapper

    timing = random.Random(f"{seed}-edit-times")
    if workload == "serve-update":
        offsets = loadgen.paced_schedule(common.UPDATE_RATE, seconds, timing)
        rng = random.Random(f"{seed}-edits")
        publications = sorted(graph.collection("Publications"), key=lambda oid: oid.name)
        rng.shuffle(publications)
        draw = loadgen.zipf_sampler(len(publications), rng)
        edits = []
        for edit_id, offset in enumerate(offsets):
            target = publications[draw()]
            author = f"Guest Author {edit_id}"
            edits.append(Edit(
                edit_id, "update", offset,
                lambda regen, target=target, author=author: regen.add_edge(target, "author", author),
                trace and edit_id % 2 == 0,
            ))
        return edits
    offsets = loadgen.paced_schedule(scale.insert_rate, seconds, timing)
    fresh = BibtexWrapper(generate_entries(len(offsets), seed=seed + 1_000_003)).wrap()
    edits = []
    for edit_id, (offset, entry) in enumerate(zip(offsets, fresh.collection("Publications"))):
        attributes = [(label, value) for label, value in fresh.out_edges(entry) if label != "key"]
        edits.append(Edit(
            edit_id, "insert", offset,
            lambda regen, attributes=attributes, oid=Oid(f"inserted{edit_id}"):
                regen.add_object("Publications", attributes, oid=oid),
            trace and edit_id % 2 == 0,
        ))
    return edits


class Editor(threading.Thread):
    """Submits the edit stream open loop: each edit at its due time,
    whether or not earlier ones have been applied."""

    def __init__(self, server, edits: List[Edit]) -> None:
        super().__init__(name="bench-editor", daemon=True)
        self.server = server
        self.edits = edits
        self.tickets: List[object] = []

    def run(self) -> None:
        start = time.perf_counter()
        for edit in self.edits:
            edit.due = start + edit.offset
            delay = edit.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.tickets.append(self.server.submit_edit(edit))


def generation_digest(generation) -> str:
    digest = hashlib.sha256()
    for path in generation.paths():
        digest.update(path.encode("utf-8") + b"\0" + generation.lookup(path).body + b"\0")
    return digest.hexdigest()


def serve(job: Dict[str, object], sampler: calibration.SpeedSampler) -> None:
    scale = common.Scale(**job["scale"])
    seed = int(job["seed"])
    workload = str(job["workload"])
    tracer = tracer_for(job)
    from repro import SiteBuilder, SiteDefinition
    from repro.serve import ServeCore, SiteServer
    from repro.workloads import generate_entries
    from repro.wrappers import BibtexWrapper

    bibtex = generate_entries(scale.edit_pubs, seed=seed)
    query, texts = common.read_definition("home")
    with operation(tracer, "setup:0", "bench.setup"):
        graph = BibtexWrapper(bibtex).wrap()
        core = ServeCore(query, graph, common.make_templates(texts), roots=common.ROOTS["home"])
        server = SiteServer(core, port=0, **common.SERVER_OPTIONS).start()
    emit({"port": server.port})

    editor: Optional[Editor] = None
    for line in sys.stdin:
        command = line.strip()
        if command == "paths":
            emit({"paths": core.cache.current().paths()})
        elif command == "go":
            edits = edit_stream(graph, workload, scale, seed, float(job["seconds"]), bool(job["trace"]))
            editor = Editor(server, edits)
            editor.start()
        elif command == "finish":
            break

    result: Dict[str, object] = {"edits": []}
    if editor is not None:
        editor.join()
        deadline = time.perf_counter() + 60.0
        for edit, ticket in zip(editor.edits, editor.tickets):
            applied = ticket.wait(max(0.0, deadline - time.perf_counter())) and ticket.applied
            done = ticket.submitted_at + (ticket.propagation_s or 0.0)
            result["edits"].append({
                "id": edit.edit_id, "kind": edit.kind, "traced": edit.traced,
                "ok": bool(applied), "latency_s": done - edit.due, "window": [edit.due, done],
            })
    # before the check below, whose fresh build would count as the server's
    result["rss_mb"] = common.peak_rss_mb()
    if editor is not None:
        builder = SiteBuilder(core.data_graph)
        builder.define(SiteDefinition("check", query, common.make_templates(texts), roots=common.ROOTS["home"]))
        fresh = builder.build("check").pages
        generation = core.cache.current()
        expected = {"/" + filename for filename in fresh} | {"/"}
        result["fresh_build_identical"] = set(generation.paths()) == expected and all(
            generation.lookup("/" + filename).body == html.encode("utf-8")
            for filename, html in fresh.items()
        )
    stats = server.stats()
    result["clean_stop"] = server.stop()
    result.update({
        "generation_digest": generation_digest(core.cache.current()),
        "admission": stats["admission"],
        "requests": stats["core"]["requests"],
        "cache_hits": stats["core"]["cache_hits"],
    })
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["queue_depth_peak"] = tracer.queue_depth_peak
        tracer.write_spans(job["spans"])
    result["samples"] = sampler.samples
    emit(result)


if __name__ == "__main__":
    calibration.pin_to_cpu(last=False)
    speed_sampler = calibration.SpeedSampler()
    speed_sampler.start()
    mode, job_text = sys.argv[1], sys.argv[2]
    {"build": build, "serve": serve}[mode](json.loads(job_text), speed_sampler)
