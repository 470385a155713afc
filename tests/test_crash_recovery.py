"""One crash property for both repository backends.

Store a first generation, then crash a second-generation store at every
``(site, hit)`` fault point it reaches -- the points are enumerated by
a dry run under an empty :class:`FaultPlan`, so a new write step is
covered the moment it calls ``maybe_fail``.  After each crash the
repository handle is dropped and the directory reopened cold: ``fetch``
must return exactly the old or exactly the new generation, never a mix
and never an exception.  For SQLite the reopen is repeated after
flipping bits in the database header, which sends it down the snapshot
recovery path.
"""

import gc
import os

import pytest

from repro.graph import Graph, Oid, integer, string
from repro.repository import Repository, SqlRepository, ddl
from repro.resilience import chaos
from repro.resilience.chaos import ChaosFault, FaultPlan, flip_bit
from repro.resilience.report import recovery_events, reset_recovery_events

BACKENDS = {"ddl": Repository, "sqlite": SqlRepository}


def _generation(tag, items):
    graph = Graph("data")
    graph.create_collection("Items")
    previous = None
    for index in range(items):
        oid = graph.add_node(Oid(f"item:{tag}:{index}"))
        graph.add_edge(oid, "label", string(f"{tag} {index}"))
        graph.add_edge(oid, "rank", integer(index))
        if previous is not None:
            graph.add_edge(previous, "next", oid)
        graph.add_to_collection("Items", oid)
        previous = oid
    anonymous = graph.add_node(hint="note")
    graph.add_edge(anonymous, "about", previous)
    return graph


OLD = _generation("old", 3)
NEW = _generation("new", 5)


def _dump(graph):
    return ddl.dumps(graph.copy())


def _generations():
    return {_dump(OLD): "old", _dump(NEW): "new"}


def _fault_points(backend, directory):
    """Every (site, hit) a second-generation store reaches."""
    repository = BACKENDS[backend](directory)
    repository.store("data", OLD)
    plan = FaultPlan()
    with chaos.installed(plan):
        repository.store("data", NEW)
    return sorted(
        (site, hit) for site, count in plan.hits.items() for hit in range(1, count + 1)
    )


def _fetched(backend, directory):
    """The generation a cold reopen serves: "old" or "new"."""
    repository = BACKENDS[backend](directory)
    generation = _generations().get(_dump(repository.fetch("data")))
    assert generation is not None, "reopened repository holds a mixed generation"
    return repository, generation


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_crash_at_every_fault_point_leaves_old_or_new_generation(backend, tmp_path):
    points = _fault_points(backend, str(tmp_path / "dry-run"))
    sites = {site for site, _ in points}
    write_sites = {
        f"store.{step}.data.{phase}"
        for step in ("backup", "write")
        for phase in ("tmp", "flush", "rename")
    }
    assert write_sites <= sites
    if backend == "sqlite":
        assert {"sql.commit", "sql.fsync", "sql.snapshot"} <= sites

    seen = set()
    for site, hit in points:
        directory = str(tmp_path / f"{site}-{hit}")
        repository = BACKENDS[backend](directory)
        repository.store("data", OLD)
        with chaos.installed(FaultPlan().fail_at(site, hit)):
            with pytest.raises(ChaosFault):
                repository.store("data", NEW)
        # the "kill": the handle is lost without closing anything
        del repository
        gc.collect()

        reopened, generation = _fetched(backend, directory)
        seen.add(generation)
        if backend != "sqlite":
            continue
        database = reopened.store_backend.path
        reopened.store_backend.close()  # checkpoint the WAL into the file
        del reopened
        flip_bit(database, offset=0)
        flip_bit(database, offset=1)
        reset_recovery_events()
        recovered, generation = _fetched(backend, directory)
        assert recovered.integrity_recoveries == 1, (site, hit)
        assert any(e["subject"] == "sql-repository" for e in recovery_events())
        seen.add(generation)
        recovered.store_backend.close()
    # every DDL fault point precedes the final rename; the SQLite ones
    # straddle the commit, so both outcomes occur
    assert seen == ({"old", "new"} if backend == "sqlite" else {"old"})


def test_corrupt_sqlite_snapshot_falls_back_to_previous_generation(tmp_path):
    """A damaged database whose newest snapshot is also damaged comes
    back at the previous snapshot generation, as a DDL file would."""
    directory = str(tmp_path)
    repository = SqlRepository(directory)
    repository.store("data", OLD)
    repository.store("data", NEW)
    database = repository.store_backend.path
    repository.store_backend.close()
    snapshot = os.path.join(directory, "data.ddl")
    with open(snapshot, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(snapshot, "w", encoding="utf-8") as handle:
        handle.write(text[:-10])  # truncated: the checksum no longer holds
    flip_bit(database, offset=0)
    reset_recovery_events()
    reopened, generation = _fetched("sqlite", directory)
    assert reopened.integrity_recoveries == 1
    assert generation == "old"
    details = [event["detail"] for event in recovery_events()]
    assert any("recovered previous generation" in detail for detail in details)
    reopened.store_backend.close()
