"""Inference serving layer: model artifacts + micro-batched request path.

The paper's MEI system is ultimately an *inference engine* — a
deployed crossbar answering value-domain queries through bit codecs.
This package is the request path around it:

* :mod:`repro.serve.artifact` — compact load-once model artifacts
  (programmed conductances, bit-codec config ``B_I/B_O/B_N``, mapping
  config, ensemble weights, provenance) with a versioned schema and a
  content digest verified on load;
* :mod:`repro.serve.batcher` — the micro-batcher fusing concurrent
  requests into single ``forward_trials`` calls, with overload
  shedding, per-request deadlines and a resilient batch worker;
* :mod:`repro.serve.service` — the asyncio HTTP front
  (``python -m repro serve``) plus a background-thread harness for
  tests and benchmarks.

See ``docs/serving.md`` for the artifact format and the knob table.
"""

from repro.serve.artifact import (
    ARTIFACT_KIND,
    ARTIFACT_SCHEMA_VERSION,
    load_artifact,
    save_artifact,
    train_serve_system,
)
from repro.serve.batcher import (
    BatchPolicy,
    DeadlineExceeded,
    InferenceEngine,
    MicroBatcher,
    QueueOverflow,
    RequestError,
    ServeError,
)
from repro.serve.service import BackgroundServer

__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_SCHEMA_VERSION",
    "BackgroundServer",
    "BatchPolicy",
    "DeadlineExceeded",
    "InferenceEngine",
    "MicroBatcher",
    "QueueOverflow",
    "RequestError",
    "ServeError",
    "load_artifact",
    "save_artifact",
    "train_serve_system",
]
