"""Reference implementations the benchmark checks rml_lab's outputs against.

Written from the method's definitions and sharing no code with ``rml_lab``:
segmentation scores from a confusion matrix, and prototype rectification
(distance-softmax confidence over the bank, then ``argmax omega * p0``).
"""

from __future__ import annotations

import numpy as np


def confusion(pred: np.ndarray, gt: np.ndarray, k: int) -> np.ndarray:
    """``(K, K)`` pixel counts indexed ``[ground truth, prediction]``."""
    pred = np.asarray(pred, dtype=np.int64).ravel()
    gt = np.asarray(gt, dtype=np.int64).ravel()
    if pred.shape != gt.shape:
        raise ValueError(f"prediction {pred.shape} and ground truth {gt.shape} differ")
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (gt, pred), 1)
    return conf


def miou_and_accuracy(pred: np.ndarray, gt: np.ndarray, k: int) -> tuple[float, float]:
    """Mean IoU over classes present in prediction or ground truth, and pixel accuracy."""
    conf = confusion(pred, gt, k)
    ious = []
    for c in range(k):
        tp = int(conf[c, c])
        union = int(conf[c, :].sum()) + int(conf[:, c].sum()) - tp
        if union:
            ious.append(tp / union)
    total = int(conf.sum())
    miou = float(np.mean(ious)) if ious else float("nan")
    acc = int(np.trace(conf)) / total if total else float("nan")
    return miou, acc


def distance_softmax(feats: np.ndarray, eta: np.ndarray, pi: np.ndarray,
                     seen: np.ndarray) -> np.ndarray:
    """Per-pixel ``omega_k ∝ pi_k exp(-||z - eta_k||)`` over seen classes, 0 elsewhere.

    Distances are taken directly from the feature differences rather than
    from the squared expansion.
    """
    c = eta.shape[1]
    z = np.asarray(feats, dtype=np.float64).reshape(-1, c)
    dist = np.sqrt(((z[:, None, :] - eta[None, :, :]) ** 2).sum(axis=-1))
    logits = np.where(seen[None, :], np.log(pi)[None, :] - dist, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w.reshape(*np.shape(feats)[:-1], len(pi))


def rectified_classes(p0: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``argmax_k omega_k * p0_k`` per pixel, and the gap to the runner-up.

    Pixels where the product vanishes for every class take ``argmax p0``;
    their gap is reported as infinite. The gap, relative to the winning
    product, tells how close a pixel is to a tie.
    """
    prod = np.asarray(omega, dtype=np.float64) * np.asarray(p0, dtype=np.float64)
    dead = prod.sum(axis=-1) == 0.0
    labels = np.where(dead, np.argmax(p0, axis=-1), np.argmax(prod, axis=-1))
    top2 = np.sort(prod, axis=-1)[..., -2:]
    gap = np.where(dead, np.inf, (top2[..., 1] - top2[..., 0]) / np.maximum(top2[..., 1], 1e-300))
    return labels, gap


def rectification_mismatches(labels: np.ndarray, feats: np.ndarray, p0: np.ndarray,
                             eta: np.ndarray, pi: np.ndarray, seen: np.ndarray,
                             tie_tol: float = 1e-9) -> int:
    """Pixels whose label differs from the reference, ignoring near-ties."""
    ref, gap = rectified_classes(p0, distance_softmax(feats, eta, pi, seen))
    return int(((np.asarray(labels) != ref) & (gap > tie_tol)).sum())
