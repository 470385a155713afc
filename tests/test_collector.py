"""The cyclic-collector pause around bulk graph builds
(:func:`repro.graph.collection_paused`).

A build allocates no reference cycles, so pausing automatic collection
cannot grow memory -- provided nothing it leaves behind is cyclic.  The
last test holds the build to that: a dropped build's site graph is freed
by reference counting alone.  The thread stress test lives in
``test_thread_safety.py``.

The outermost exit moves the build heap into the oldest generation, so
no young collection walks it afterwards.  The leak probe holds that to
its promise: over many builds and edits in one process the tracked
objects stay flat and nothing is left frozen, and a cycle made inside a
pause is still freed by a later full collection.
"""

import gc
import weakref

import pytest

from repro import SiteBuilder, SiteDefinition
from repro.errors import WrapperError
from repro.graph import collection_paused, string
from repro.graph.values import coercion_probes
from repro.mediator import Mediator
from repro.serve import ServeCore
from repro.struql import clear_plan_cache, parse
from repro.workloads import HOMEPAGE_QUERY, bibliography_graph, homepage_templates
from repro.wrappers import DdlWrapper
from repro.wrappers.base import Wrapper


@pytest.fixture()
def collector_enabled():
    """Run with automatic collection on, and put the caller's setting back."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.usefixtures("collector_enabled")
class TestPause:
    def test_pauses_and_restores(self):
        with collection_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nests(self):
        with collection_paused():
            with collection_paused():
                assert not gc.isenabled()
            # an inner exit must not switch the collector back on
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_restores_the_collector(self):
        with pytest.raises(RuntimeError):
            with collection_paused():
                with collection_paused():
                    raise RuntimeError("boom")
        assert gc.isenabled()
        with collection_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        with collection_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_explicit_collection_still_runs(self):
        with collection_paused():
            assert gc.collect() >= 0
            assert not gc.isenabled()
        assert gc.isenabled()


class _Probe(Wrapper):
    """A wrapper that records whether the collector ran during its wrap."""

    source_kind = "probe"

    def _wrap_into(self, graph):
        self.enabled_inside = gc.isenabled()
        graph.add_to_collection("Probes", graph.add_node(hint="probe"))


@pytest.mark.usefixtures("collector_enabled")
class TestBuildPhasesPause:
    def test_wrap(self):
        probe = _Probe()
        probe.wrap()
        assert probe.enabled_inside is False
        assert gc.isenabled()

    def test_materialize(self, monkeypatch):
        seen = []
        mediator = Mediator()
        mediator.add_source("p", _Probe())
        mediator.import_collection("p", "Probes")
        original = mediator.staging_graph

        def recording_staging_graph(policy=None):
            seen.append(gc.isenabled())
            return original(policy)

        monkeypatch.setattr(mediator, "staging_graph", recording_staging_graph)
        mediator.materialize()
        assert seen == [False]
        assert gc.isenabled()

    def test_site_build(self, monkeypatch):
        seen = []
        builder = SiteBuilder(bibliography_graph(6, seed=3))
        builder.define(SiteDefinition("home", HOMEPAGE_QUERY, homepage_templates()))
        original = builder.site_graph

        def recording_site_graph(name, metrics=None):
            seen.append(gc.isenabled())
            return original(name, metrics=metrics)

        monkeypatch.setattr(builder, "site_graph", recording_site_graph)
        builder.build("home")
        assert seen == [False]
        assert gc.isenabled()

    def test_failed_wrap_restores_the_collector(self):
        with pytest.raises(WrapperError):
            DdlWrapper("this is not DDL {").wrap()
        assert gc.isenabled()


def test_dropped_build_frees_its_site_graph_without_the_collector():
    """The HTML generator and its renderer must not form a cycle: a
    caller that keeps only ``.pages`` must free the site graph at once,
    not at the next full collection."""
    builder = SiteBuilder(bibliography_graph(12, seed=70))
    builder.define(SiteDefinition("home", HOMEPAGE_QUERY, homepage_templates()))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        built = builder.build("home")
        site_graph = weakref.ref(built.site_graph)
        pages = built.pages
        del built
        assert site_graph() is None
        assert pages
    finally:
        if was_enabled:
            gc.enable()


class _Cycle:
    def __init__(self):
        self.me = self


@pytest.mark.usefixtures("collector_enabled")
class TestExit:
    def test_no_young_collection_walks_the_build_heap(self):
        collections = []

        def on_collect(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_collect)
        try:
            with collection_paused():
                heap = [[index] for index in range(20000)]
            more = [[index] for index in range(100)]
        finally:
            gc.callbacks.remove(on_collect)
        assert collections == []
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert len(heap) + len(more) == 20100
        assert gc.get_freeze_count() == 0

    def test_a_cycle_made_inside_a_pause_is_freed_by_a_full_collection(self):
        with collection_paused():
            cycle = _Cycle()
            alive = weakref.ref(cycle)
            del cycle
        assert alive() is not None  # a cycle: reference counting cannot free it
        gc.collect()
        assert alive() is None

    def test_a_callers_frozen_objects_stay_frozen(self):
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with collection_paused():
                pass
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


@pytest.mark.usefixtures("collector_enabled")
def test_leak_probe_builds_and_edits_stay_flat():
    """20 cold builds and 200 serve edits in one process leave the
    tracked-object count flat and nothing frozen.  Bounded caches (the
    plan cache, coercion probes) are emptied before each count, and the
    delta logs' bounded windows are not counted."""
    builder = SiteBuilder(bibliography_graph(12, seed=70))
    builder.define(SiteDefinition("home", HOMEPAGE_QUERY, homepage_templates()))
    core = ServeCore(
        parse(HOMEPAGE_QUERY), bibliography_graph(12, seed=70), homepage_templates()
    )
    pub = core.regen.maintainer.data_graph.collection("Publications")[0]
    author = string("Probe Author")

    def add(regen):
        regen.add_edge(pub, "author", author)

    def remove(regen):
        regen.remove_edge(pub, "author", author)

    def one_round():
        for _ in range(2):
            assert builder.build("home").pages
        for _ in range(10):
            core.apply_edit(add)
            core.apply_edit(remove)

    def tracked():
        clear_plan_cache()
        coercion_probes.cache_clear()
        gc.collect()
        maintainer = core.regen.maintainer
        windows = len(maintainer.data_graph._delta_log) + len(maintainer.site_graph._delta_log)
        return len(gc.get_objects()) - windows

    one_round()  # warm: first-use imports and interned strings
    counts = [tracked()]
    for _ in range(9):
        one_round()
        counts.append(tracked())
        assert gc.get_freeze_count() == 0
    assert max(counts) - min(counts) <= 50, counts
