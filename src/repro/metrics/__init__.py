"""Application error metrics and robustness statistics."""

from repro.metrics.signal import bit_error_rate, snr_db, weighted_bit_error

__all__ = [
    "snr_db",
    "bit_error_rate",
    "weighted_bit_error",
]
