"""Reference computations the tests check rml_lab against."""

import numpy as np

from rml_lab.errors import InputError


def cross_entropy(p: np.ndarray, target: np.ndarray, pixel_mask: np.ndarray | None = None) -> float:
    """Mean cross entropy over unmasked pixels, computed from probabilities.

    ``p`` and ``target`` are ``(..., K)``; probabilities are clamped at
    1e-12 before the log. All pixels masked out yields 0.0.
    """
    p = np.asarray(p, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if p.shape != target.shape:
        raise InputError(f"p/target shape mismatch: {p.shape} vs {target.shape}")
    sums = p.sum(axis=-1)
    if np.any(p < -1e-9) or np.any(np.abs(sums - 1.0) > 1e-4):
        raise InputError("p rows are not valid probability vectors")
    ce = -(target * np.log(np.clip(p, 1e-12, None))).sum(axis=-1)
    if pixel_mask is None:
        return float(ce.mean())
    pixel_mask = np.asarray(pixel_mask, dtype=np.float64)
    if pixel_mask.shape != ce.shape:
        raise InputError(f"mask shape {pixel_mask.shape} does not match {ce.shape}")
    n = pixel_mask.sum()
    if n == 0:
        return 0.0
    return float((ce * pixel_mask).sum() / n)


def float64_copy(model):
    """A copy of ``model`` with its params cast to float64, so that it computes
    in float64 and the float64 oracles keep their tolerances."""
    copy = model.clone()
    copy.params = {k: v.astype(np.float64) for k, v in copy.params.items()}
    return copy
