"""Parallel sweep engine: one fan-out loop + deterministic seeding.

Every independent-task sweep runs on ``get_executor(...).map`` (with an
optional :class:`RetryPolicy`), and per-task seeds derive from
:func:`derive_seed`, so serial and parallel runs stay bit-identical.
Configure with ``REPRO_WORKERS`` / ``REPRO_EXECUTOR`` or explicit
``workers=`` arguments; see ``docs/performance.md``.
"""

from repro.parallel.executor import (
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    ResilienceReport,
    RetryPolicy,
    TaskError,
    get_executor,
    resolve_workers,
)
from repro.parallel.seeding import derive_seed, derive_seeds

__all__ = [
    "TASK_TIMEOUT_ENV",
    "TASK_RETRIES_ENV",
    "RetryPolicy",
    "TaskError",
    "ResilienceReport",
    "resolve_workers",
    "get_executor",
    "derive_seed",
    "derive_seeds",
]
