"""Shared experiment infrastructure: scales, the paper recipe, tables.

Lives in :mod:`repro.core` (not ``repro.experiments``) because
lower-level consumers — :mod:`repro.robustness`, the benchmark
suite — need the scale/table helpers without pulling in the
experiment entry points (repro-lint RPR006 forbids that upward edge).

Every experiment module regenerates one of the paper's tables/figures
and supports two scales:

* **quick** (default) — reduced sample counts / epochs / Monte-Carlo
  trials so the whole suite runs in minutes on a laptop;
* **full** — the paper's setup (10,000 training samples, 1,000 test
  samples, 1,000-style noise statistics scaled to 100 trials).
  Enable with environment variable ``REPRO_FULL=1`` or by passing
  ``FULL_SCALE`` explicitly.

The paper recipe, :func:`paper_setup`, is the one place a Table 1
system is set up: the benchmark, its dataset at the scale's training
size, the standard :func:`train_config`, and the paper's MEI at its
published pruned hidden width (Table 1's ``(D*B)xHx(D*B)`` column).
Table 1, Fig. 4, Fig. 5, the bit-length extension, the error budget,
the fault campaign and serving all train from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import knobs
from repro.core.mei import MEIConfig
from repro.nn.trainer import TrainConfig
from repro.parallel import get_executor
from repro.workloads.base import Benchmark, Dataset
from repro.workloads.registry import PAPER_TABLE1, make_benchmark

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "default_scale",
    "PaperSetup",
    "paper_setup",
    "train_config",
    "train_samples_for",
    "repeat_with_seeds",
    "format_table",
]

_N_TRAIN_MULTIPLIER = {
    # Jmeint's 18-dimensional triangle-pair geometry overfits badly on
    # small sample counts; its generator is cheap, so give it more data
    # (the paper's suite ships large captured trace sets for it too).
    "jmeint": 4,
}


def train_samples_for(benchmark_name: str, scale: "ExperimentScale") -> int:
    """Training-set size for one benchmark at a given scale."""
    return scale.n_train * _N_TRAIN_MULTIPLIER.get(benchmark_name, 1)


@dataclass(frozen=True)
class ExperimentScale:
    """Budget knobs shared by all experiments."""

    name: str
    n_train: int
    n_test: int
    epochs: int
    noise_trials: int

    def __post_init__(self) -> None:
        if min(self.n_train, self.n_test, self.epochs, self.noise_trials) < 1:
            raise ValueError("all scale fields must be >= 1")


QUICK_SCALE = ExperimentScale(name="quick", n_train=2500, n_test=400, epochs=300, noise_trials=5)
FULL_SCALE = ExperimentScale(
    name="full", n_train=10_000, n_test=1_000, epochs=400, noise_trials=100
)


def default_scale() -> ExperimentScale:
    """FULL_SCALE when ``REPRO_FULL`` is truthy, QUICK_SCALE otherwise."""
    return FULL_SCALE if knobs.get_bool("REPRO_FULL") else QUICK_SCALE


def train_config(scale: ExperimentScale, seed: int = 0) -> TrainConfig:
    """The standard training recipe at a given scale.

    Adam with a step learning-rate decay; sized so the paper's small
    topologies converge at either scale.
    """
    # Small batches matter more than epochs for these tiny networks:
    # the paper-scale topologies need the extra gradient steps.
    return TrainConfig(
        epochs=scale.epochs,
        batch_size=32 if scale.n_train <= 4000 else 64,
        learning_rate=0.01,
        shuffle_seed=seed,
        lr_decay=0.5,
        lr_decay_every=max(1, scale.epochs // 2),
    )


@dataclass(frozen=True)
class PaperSetup:
    """One Table 1 system before training: what :func:`paper_setup` returns."""

    bench: Benchmark
    data: Dataset
    train: TrainConfig
    mei: MEIConfig


def paper_setup(name: str, scale: ExperimentScale, seed: int = 0) -> PaperSetup:
    """The paper recipe for one benchmark at ``scale`` and ``seed``.

    The dataset has :func:`train_samples_for` training rows and
    ``scale.n_test`` test rows; the MEI has the benchmark's I/O groups
    and word length and Table 1's pruned hidden width.
    """
    bench = make_benchmark(name)
    topology = bench.spec.topology
    return PaperSetup(
        bench=bench,
        data=bench.dataset(
            n_train=train_samples_for(name, scale), n_test=scale.n_test, seed=seed
        ),
        train=train_config(scale, seed),
        mei=MEIConfig(
            in_groups=topology.inputs,
            out_groups=topology.outputs,
            hidden=PAPER_TABLE1[name].pruned_mei.hidden,
            bits=topology.bits,
        ),
    )


def repeat_with_seeds(fn, seeds: Sequence[int], workers: Optional[int] = None,
                      executor=None):
    """Run ``fn(seed) -> float`` across seeds; return (mean, std, values).

    The paper reports single-run numbers; reviewers usually want
    seed-averaged ones.  Use with any experiment entry point, e.g.
    ``repeat_with_seeds(lambda s: run_benchmark_row('fft', seed=s).error_mei,
    range(3))``.

    Seed repeats are embarrassingly parallel: pass ``workers`` (or set
    ``REPRO_WORKERS``) or an explicit :mod:`repro.parallel` executor to
    fan them out.  Results keep seed order, so serial and parallel runs
    agree bit for bit (``fn`` must be a picklable top-level callable
    for process-based executors; otherwise the map degrades to serial).
    """
    import numpy as np

    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    executor = executor if executor is not None else get_executor(workers)
    values = np.array([float(v) for v in executor.map(fn, seeds)])
    return float(values.mean()), float(values.std()), values


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table (the harness prints paper-style rows)."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
