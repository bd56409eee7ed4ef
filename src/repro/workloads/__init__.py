"""The six NPU-suite benchmarks, rebuilt from scratch (Table 1)."""

from repro.workloads.registry import make_benchmark

__all__ = ["make_benchmark"]
