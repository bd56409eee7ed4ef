"""Image quality metrics: PSNR and a windowed SSIM.

The paper scores its image benchmarks with the mean-absolute "image
diff"; these standard metrics complement it for the JPEG / Sobel /
K-Means pipelines (a reconstruction with equal image-diff can still
differ perceptually, which SSIM captures).

Both operate on grayscale arrays; RGB images are scored channel-wise
and averaged.
"""

from __future__ import annotations

import numpy as np

__all__ = ["psnr", "ssim"]


def psnr(reference: np.ndarray, test: np.ndarray, data_range: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical inputs)."""
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if data_range <= 0:
        raise ValueError(f"data_range must be positive, got {data_range}")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(data_range**2 / mse)


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 255.0,
    window: int = 8,
) -> float:
    """Structural similarity over non-overlapping windows.

    A simplified (block rather than Gaussian-sliding) SSIM: for each
    ``window x window`` tile, compare local means, variances and
    covariance with the standard SSIM formula, then average the tile
    scores.  Identical images score 1.0; value drops toward 0 (or
    slightly below) as structure diverges.
    """
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if reference.ndim == 3:
        channels = [
            ssim(reference[..., c], test[..., c], data_range, window)
            for c in range(reference.shape[-1])
        ]
        return float(np.mean(channels))
    if reference.ndim != 2:
        raise ValueError(f"expected a 2-D or 3-D image, got shape {reference.shape}")
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if min(reference.shape) < window:
        raise ValueError("image smaller than one SSIM window")
    if data_range <= 0:
        raise ValueError(f"data_range must be positive, got {data_range}")

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    h = (reference.shape[0] // window) * window
    w = (reference.shape[1] // window) * window

    def tiles(img: np.ndarray) -> np.ndarray:
        return (
            img[:h, :w]
            .reshape(h // window, window, w // window, window)
            .transpose(0, 2, 1, 3)
            .reshape(-1, window * window)
        )

    a = tiles(reference)
    b = tiles(test)
    mu_a = a.mean(axis=1)
    mu_b = b.mean(axis=1)
    var_a = a.var(axis=1)
    var_b = b.var(axis=1)
    cov = ((a - mu_a[:, None]) * (b - mu_b[:, None])).mean(axis=1)
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(score))
