"""Application error metrics and robustness statistics."""

from repro.metrics.error import METRICS, average_relative_error, image_diff, miss_rate
from repro.metrics.image import psnr, ssim
from repro.metrics.robustness import (
    NoisyEvaluation,
    evaluate_under_noise,
    robustness_index,
)
from repro.metrics.signal import bit_error_rate, snr_db, weighted_bit_error

__all__ = [
    "average_relative_error",
    "miss_rate",
    "image_diff",
    "METRICS",
    "psnr",
    "ssim",
    "NoisyEvaluation",
    "evaluate_under_noise",
    "robustness_index",
    "snr_db",
    "bit_error_rate",
    "weighted_bit_error",
]
