"""The layers the traced run wraps, and the per-layer metrics from spans.

Each probe names the public function of one layer of the paper's
signal chain (Fig. 2 / Sec. 3) and every place the workloads' callers
look it up: the class for methods, the module the caller reads it from
for functions (a ``from``-import binds it in the importing module).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from tracing import Probe, Site, Span, mean, ratio, self_times


def _steps(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    trainer, x = args[0], args[2]
    per_epoch = math.ceil(len(x) / trainer.config.batch_size)
    return {"steps": float(getattr(result, "epochs_run", 0) * per_epoch)}


def _macs(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    pair, x = args[0], args[1]
    rows, cols = pair.positive.conductances.shape
    vectors = math.prod(x.shape[:-1]) if getattr(x, "ndim", 1) > 1 else 1
    return {"macs": float(2 * rows * cols * vectors)}


def _samples(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    return {"samples": float(len(args[1]))}


def _sites(attr: str, *modules: str) -> tuple:
    return tuple(Site(module, attr) for module in modules)


CHAIN = (
    Probe("workloads.dataset", _sites("Benchmark.dataset", "repro.workloads.base")),
    Probe("nn.fit", _sites("Trainer.fit", "repro.nn.trainer"), attrs=_steps),
    Probe("core.pruning.prune", _sites("prune_lsbs", "repro.core.pruning"), kind="counting"),
    Probe("xbar.deploy", _sites("AnalogMLP.__init__", "repro.core.deploy")),
    Probe("xbar.mac",
          _sites("DifferentialCrossbar.apply", "repro.xbar.mapping")
          + _sites("DifferentialCrossbar.apply_trials", "repro.xbar.mapping"),
          attrs=_macs),
    Probe("device.sf_draw",
          _sites("lognormal_factor_stack", "repro.core.deploy", "repro.xbar.mapping",
                 "repro.xbar.crossbar")),
    Probe("core.deploy.forward_trials", _sites("AnalogMLP.forward_trials", "repro.core.deploy")),
    Probe("analog.neuron", _sites("SigmoidNeuron.apply", "repro.analog.periphery")),
    Probe("analog.comparator", _sites("Comparator.apply", "repro.analog.periphery")),
    Probe("quant.encode", _sites("FixedPointCodec.encode", "repro.quant.fixedpoint")),
    Probe("quant.decode", _sites("FixedPointCodec.decode", "repro.quant.fixedpoint")),
    Probe("core.mei.predict_bits_trials", _sites("MEI.predict_bits_trials", "repro.core.mei")),
    Probe("core.saab.predict_bits_trials",
          _sites("SAAB.predict_bits_trials", "repro.core.saab")),
    Probe("metrics.noise_eval", _sites("evaluate_under_noise", "repro.metrics.robustness")),
)
"""Probes of the simulator, installed in every traced process."""

SERVE = (
    Probe("serve.validate", _sites("InferenceEngine.validate", "repro.serve.batcher"),
          kind="request"),
    Probe("serve.queue_to_done", _sites("MicroBatcher.submit", "repro.serve.batcher"),
          kind="future"),
    Probe("serve.predict", _sites("InferenceEngine.predict", "repro.serve.batcher"),
          attrs=_samples),
)
"""Probes of the request path, installed in the traced server."""

CLIENT_SPAN = "client.request"
"""Span the load client records around each HTTP request (from send)."""


def per_layer(spans: Sequence[Span], extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``extra`` carries what spans do not: ``mapping_cache_hit_ratio``,
    ``serve_shed``, ``serve_retries``, ``serve_failed`` and
    ``tracing_overhead_frac``.
    """
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def seconds(name: str) -> float:
        return math.fsum(spans[i].duration for i in by_name.get(name, ()))

    def self_seconds(name: str) -> float:
        return math.fsum(own[i] for i in by_name.get(name, ()))

    def calls(name: str) -> float:
        return float(len(by_name.get(name, ())))

    def total(name: str, attr: str) -> float:
        return math.fsum(spans[i].attrs.get(attr, 0.0) for i in by_name.get(name, ()))

    def mean_ms(name: str) -> float:
        return 1000.0 * mean([spans[i].duration for i in by_name.get(name, ())])

    saab = set(by_name.get("core.saab.predict_bits_trials", ()))
    members = sum(1 for i in by_name.get("core.mei.predict_bits_trials", ())
                  if spans[i].parent in saab)
    client_ms = mean_ms(CLIENT_SPAN)
    queue_ms = mean_ms("serve.queue_to_done")
    return {
        "workloads.dataset_s": seconds("workloads.dataset"),
        "nn.fit_s": seconds("nn.fit"),
        "nn.fit_calls": calls("nn.fit"),
        "nn.steps_per_s": ratio(total("nn.fit", "steps"), seconds("nn.fit")),
        "core.pruning.prune_s": seconds("core.pruning.prune"),
        "core.pruning.candidates": ratio(total("core.pruning.prune", "candidates"),
                                         calls("core.pruning.prune")),
        "xbar.deploy_s": seconds("xbar.deploy"),
        "xbar.mapping_cache_hit_ratio": extra["mapping_cache_hit_ratio"],
        "xbar.mac_s": seconds("xbar.mac"),
        "xbar.mac_calls": calls("xbar.mac"),
        "xbar.macs_per_s": ratio(total("xbar.mac", "macs"), seconds("xbar.mac")),
        "device.sf_draw_s": seconds("device.sf_draw"),
        "core.deploy.forward_self_s": self_seconds("core.deploy.forward_trials"),
        "analog.neuron_s": seconds("analog.neuron"),
        "analog.comparator_s": seconds("analog.comparator"),
        "quant.encode_s": seconds("quant.encode"),
        "quant.decode_s": seconds("quant.decode"),
        "core.saab.vote_self_s": self_seconds("core.saab.predict_bits_trials"),
        "core.saab.members_evaluated": float(members),
        "metrics.noise_eval_self_s": self_seconds("metrics.noise_eval"),
        "serve.validate_ms": mean_ms("serve.validate"),
        "serve.compute_ms": mean_ms("serve.predict"),
        "serve.batch_samples": ratio(total("serve.predict", "samples"), calls("serve.predict")),
        "serve.queue_to_done_ms": queue_ms,
        "serve.http_overhead_ms": client_ms - queue_ms if calls(CLIENT_SPAN) else 0.0,
        "serve.shed": extra["serve_shed"],
        "serve.retries": extra["serve_retries"],
        "serve.failed": extra["serve_failed"],
        "obs.tracing_overhead_frac": extra["tracing_overhead_frac"],
    }
