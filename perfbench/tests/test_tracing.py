"""Span bookkeeping: self time, nesting, wrapping and per-layer metrics."""

import threading

import pytest

import layers
import tracing
from tracing import Probe, Site, Span, self_times


def test_self_time_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.1", 1.5, 2.0, parent=1),
        Span("b", 5.0, 6.0, parent=0),
        Span("leaf", 8.0, 9.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0 - 1.5, 2.5, 0.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children of one parent on other threads may overlap or outlive it.
    spans = [
        Span("root", 0.0, 10.0),
        Span("c1", 2.0, 6.0, parent=0),
        Span("c2", 4.0, 8.0, parent=0),
        Span("c3", 9.0, 12.0, parent=0),
        Span("open", 1.0, None, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert self_times(spans)[4] == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nests_per_thread_and_tags_requests():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outer = tracer.begin("outer")
    clock.now = 1.0
    inner = tracer.begin("inner")

    def other_thread():
        tracer.end(tracer.begin("elsewhere"))

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    clock.now = 2.0
    tracer.end(inner)
    token = tracing.REQUEST_ID.set("r7")
    try:
        tracer.end(tracer.begin("tagged"))
    finally:
        tracing.REQUEST_ID.reset(token)
    clock.now = 3.0
    tracer.end(outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == outer
    assert by_name["elsewhere"].parent is None
    assert by_name["tagged"].parent == outer and by_name["tagged"].request == "r7"
    assert (by_name["outer"].start, by_name["outer"].end) == (0.0, 3.0)


class Codec:
    def encode(self, x):
        return x + 1


def _double(x):
    return 2 * x


def test_install_wraps_each_site_and_remove_restores_it():
    original = Codec.__dict__["encode"]
    module_fn = globals()["_double"]
    tracer = tracing.Tracer()
    probes = [
        Probe("codec.encode", (Site(__name__, "Codec.encode"),),
              attrs=lambda a, k, r: {"out": float(r)}),
        Probe("double", (Site(__name__, "_double"),)),
    ]
    installed = tracing.install(tracer, probes)
    try:
        assert Codec().encode(1) == 2
        assert globals()["_double"](3) == 6
    finally:
        installed.remove()
    assert Codec.__dict__["encode"] is original
    assert globals()["_double"] is module_fn
    assert [s.name for s in tracer.spans] == ["codec.encode", "double"]
    assert tracer.spans[0].attrs == {"out": 2.0}


def test_install_rolls_back_when_a_site_is_missing():
    original = Codec.__dict__["encode"]
    probes = [Probe("codec.encode", (Site(__name__, "Codec.encode"),
                                     Site(__name__, "Codec.missing")))]
    with pytest.raises(KeyError):
        tracing.install(tracing.Tracer(), probes)
    assert Codec.__dict__["encode"] is original


def test_per_layer_metrics_from_spans():
    spans = [
        Span("core.saab.predict_bits_trials", 0.0, 1.0),
        Span("core.mei.predict_bits_trials", 0.1, 0.4, parent=0),
        Span("core.mei.predict_bits_trials", 0.5, 0.8, parent=0),
        Span("core.mei.predict_bits_trials", 2.0, 2.1),
        Span("xbar.mac", 0.2, 0.3, parent=1, attrs={"macs": 1000.0}),
        Span("nn.fit", 3.0, 5.0, attrs={"steps": 400.0}),
        Span("serve.queue_to_done", 6.0, 6.004),
        Span(layers.CLIENT_SPAN, 5.999, 6.010),
    ]
    extra = {"mapping_cache_hit_ratio": 0.5, "serve_shed": 0.0, "serve_retries": 0.0,
             "serve_failed": 0.0, "tracing_overhead_frac": 0.01}
    metrics = layers.per_layer(spans, extra)
    assert metrics["core.saab.members_evaluated"] == 2
    assert metrics["core.saab.vote_self_s"] == pytest.approx(0.4)
    assert metrics["xbar.macs_per_s"] == pytest.approx(10000.0)
    assert metrics["nn.steps_per_s"] == pytest.approx(200.0)
    assert metrics["serve.queue_to_done_ms"] == pytest.approx(4.0)
    assert metrics["serve.http_overhead_ms"] == pytest.approx(7.0)
    assert metrics["core.pruning.candidates"] == 0.0
