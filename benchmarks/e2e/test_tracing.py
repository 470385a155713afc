"""Unit tests of the span recorder.

    python3 -m pytest benchmarks/e2e/test_tracing.py -q
"""

import tracing


class _Metrics:
    """Stands in for ``repro.struql.Metrics``: the counters the tracer reads."""

    def __init__(self, bindings: int) -> None:
        for key in tracing.STRUQL_COUNTERS:
            setattr(self, key, 0)
        self.bindings_produced = bindings


def test_an_operation_counts_only_its_own_struql_work():
    tracer = tracing.Tracer()
    # an engine that evaluated the whole site before any traced call used it
    metrics = _Metrics(bindings=50_000)
    with tracer.operation("edit:0", "serve.apply_edit", metrics=True):
        # the bindings shim registers the engine's Metrics on first use
        tracer.register_metrics(metrics)
        metrics.bindings_produced += 3
    with tracer.operation("edit:1", "serve.apply_edit", metrics=True):
        tracer.register_metrics(metrics)
        metrics.bindings_produced += 5
    counters = tracer.summary()["edit"]["counters"]
    assert counters["struql.bindings_produced"] == 8
    assert tracer.counters["edit:0"]["struql.bindings_produced"] == 3
