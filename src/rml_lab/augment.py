"""Input perturbations and CutMix mixing.

Photometric ops only (brightness shift, contrast scale, additive Gaussian
noise) so images and pixel-wise label maps always stay aligned; geometric
transforms are deliberately absent. CutMix masks are axis-aligned
rectangles of half the image area, fully contained in the image.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from .errors import InputError


# magnitudes at strength 1; photometric scales each by its strength
CONTRAST = 0.5
BRIGHTNESS = 0.25
NOISE_SIGMA = 0.08


def photometric(x: np.ndarray, s: float, rng: np.random.Generator) -> np.ndarray:
    """Photometric perturbation of an image batch at strength ``s``.

    Draws, in this order, a contrast factor ``c ~ U(1 - s*CONTRAST,
    1 + s*CONTRAST)`` and a brightness shift ``b ~ U(-s*BRIGHTNESS,
    s*BRIGHTNESS)`` per image, then per-pixel noise ``e ~ N(0, s*NOISE_SIGMA)``,
    and returns ``clip(0.5 + (x - 0.5)*c + b + e, 0, 1)``. Strength 0 is the
    exact identity and draws nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    if s == 0.0:
        return x.copy()
    n = x.shape[0]
    extra = (1,) * (x.ndim - 1)
    contrast = rng.uniform(1.0 - s * CONTRAST, 1.0 + s * CONTRAST, size=(n,) + extra)
    brightness = rng.uniform(-s * BRIGHTNESS, s * BRIGHTNESS, size=(n,) + extra)
    y = x - 0.5
    y *= contrast
    y += 0.5
    y += brightness
    y += rng.normal(0.0, s * NOISE_SIGMA, size=x.shape)
    return np.clip(y, 0.0, 1.0, out=y)


def sample_rect_mask(h_img: int, w_img: int, rng: np.random.Generator) -> np.ndarray:
    """Sample an ``(H,W)`` half-area rectangle mask, 1 inside the rectangle;
    position uniform over valid placements.

    Height is uniform over the feasible range and width is ``round(area/h)``,
    so the mask sum matches ``round(0.5*H*W)`` up to integer rounding.
    """
    if h_img < 2 or w_img < 2:
        raise InputError(f"mask needs H, W >= 2, got {h_img}x{w_img}")
    area = round(0.5 * h_img * w_img)
    hmin, hmax = ceil(area / w_img), min(h_img, area)
    h = int(rng.integers(hmin, hmax + 1))
    w = int(min(w_img, max(1, round(area / h))))
    top = int(rng.integers(0, h_img - h + 1))
    left = int(rng.integers(0, w_img - w + 1))
    m = np.zeros((h_img, w_img))
    m[top:top + h, left:left + w] = 1.0
    return m


def _mask_array(m, hw: tuple[int, int], what: str) -> np.ndarray:
    """Validate an (H,W) or (N,H,W) mask against a target spatial shape."""
    mm = np.asarray(m, dtype=np.float64)
    if mm.ndim not in (2, 3) or mm.shape[-2:] != hw:
        raise InputError(f"mask shape {mm.shape} does not match {what} {hw}")
    return mm


def mix_images(x1: np.ndarray, x2: np.ndarray, m) -> np.ndarray:
    """Pixelwise ``m*x1 + (1-m)*x2``; ``m`` may be (H,W) or (N,H,W)."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise InputError(f"image shape mismatch: {x1.shape} vs {x2.shape}")
    mm = _mask_array(m, x1.shape[1:3], "images")
    return mm[..., None] * x1 + (1.0 - mm[..., None]) * x2


def mix_label_maps(a: np.ndarray, b: np.ndarray, m) -> np.ndarray:
    """CutMix of per-pixel maps (labels, gates): ``a`` where ``m`` is 1,
    ``b`` elsewhere; ``m`` may be (H,W) or (N,H,W)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InputError(f"map shape mismatch: {a.shape} vs {b.shape}")
    return np.where(_mask_array(m, a.shape[-2:], "maps") == 1, a, b)
