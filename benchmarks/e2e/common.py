"""What every process of the benchmark shares: scale, workload kinds,
site definitions, output digests and small statistics helpers.

The site definitions (STRUQL query and HTML templates) are frozen copies
under ``definitions/``, so a change to the example sites in ``src/``
cannot silently change what is measured.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
from dataclasses import asdict, dataclass
from typing import Dict, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out", "e2e")

#: the edit mix is 3 edits/s, 80% updates and 20% inserts; each edit
#: workload runs one side of it (updates per second here)
UPDATE_RATE = 2.4
#: reads per second beside an edit stream: enough to watch edits slow
#: readers, few enough that readers do not set the edits' pace (at 300/s
#: the insert median moved 10% with the host's load)
READ_RATE = 50.0
#: server start-ups per edit run (setup_s is their median)
SETUPS = 3
#: cold builds per build run, at least (more while time is left)
MIN_BUILDS = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes and rates of one benchmark configuration."""

    name: str = "full"
    #: publications of the build-home site
    home_pubs: int = 2000
    #: people of the five-source org site
    org_people: int = 1000
    #: publications of the site the edit workloads serve
    edit_pubs: int = 500
    #: inserts per second: the insert side of the edit mix
    insert_rate: float = 0.6

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: the measured configuration, and one small enough for the smoke test
#: (whose 1 s runs need a faster insert stream to see an insert at all)
SCALES = {
    "full": Scale(),
    "tiny": Scale(name="tiny", home_pubs=40, org_people=40, edit_pubs=30, insert_rate=3.0),
}

#: workload -> the kind of operation it measures
WORKLOADS = {
    "build-home": "build",
    "build-org": "build",
    "serve-update": "edit",
    "serve-insert": "edit",
}

SERVER_OPTIONS = {
    # the `repro serve` defaults
    "workers": 4,
    "admission_limit": 64,
    "deadline_budget": 5.0,
}


#: site definition -> its root page (the site's index.html)
ROOTS = {"home": ["RootPage()"], "org": ["OrgRoot()"]}


def read_definition(name: str) -> Tuple[str, Dict[str, str]]:
    """Source text of a frozen site definition: ``(query, {stem: template})``."""
    base = os.path.join(HERE, "definitions", name)
    with open(os.path.join(base, "site.struql"), encoding="utf-8") as handle:
        query = handle.read()
    texts = {}
    directory = os.path.join(base, "templates")
    for entry in sorted(os.listdir(directory)):
        with open(os.path.join(directory, entry), encoding="utf-8") as handle:
            texts[entry[: -len(".tmpl")]] = handle.read()
    return query, texts


def make_templates(texts: Dict[str, str]):
    """Parse template texts under the ``repro build --templates`` naming
    convention: ``Name__`` is the template of object ``Name()``, any other
    stem the template of the collection of that name."""
    from repro import TemplateSet

    templates = TemplateSet()
    for stem, text in texts.items():
        templates.add(stem, text)
        if stem.endswith("__"):
            templates.for_object(stem[:-2] + "()", stem)
        else:
            templates.for_collection(stem, stem)
    return templates


def pages_digest(pages: Dict[str, str]) -> str:
    """sha256 over the sorted (filename, html) pairs of a page set."""
    digest = hashlib.sha256()
    for filename in sorted(pages):
        digest.update(filename.encode("utf-8") + b"\0")
        digest.update(pages[filename].encode("utf-8") + b"\0")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0

