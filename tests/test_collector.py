"""The cyclic-collector pause around bulk graph builds
(:func:`repro.graph.collection_paused`).

A build allocates no reference cycles, so pausing automatic collection
cannot grow memory -- provided nothing it leaves behind is cyclic.  The
last test holds the build to that: a dropped build's site graph is freed
by reference counting alone.  The thread stress test lives in
``test_thread_safety.py``.
"""

import gc
import weakref

import pytest

from repro import SiteBuilder, SiteDefinition
from repro.errors import WrapperError
from repro.graph import collection_paused
from repro.mediator import Mediator
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
