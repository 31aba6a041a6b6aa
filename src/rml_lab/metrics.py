"""Evaluation metrics: total variation divergence, IoU, pseudo-label accuracy."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .netcore import class_sum


def tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-pixel TV distance ``0.5 * sum_k |p_k - q_k|`` in float64, of rows it does not check."""
    if p.shape != q.shape:
        raise InputError(f"shape mismatch: {p.shape} vs {q.shape}")
    d = np.subtract(p, q, dtype=np.float64)
    return 0.5 * class_sum(np.abs(d, out=d))[..., 0]


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, k: int) -> np.ndarray:
    """K x K counts indexed ``[gt, pred]``."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if pred.shape != gt.shape:
        raise InputError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if (pred.min(initial=0) < 0 or pred.max(initial=0) >= k
            or gt.min(initial=0) < 0 or gt.max(initial=0) >= k):
        raise InputError(f"label values out of range for K={k}")
    return np.bincount(k * gt + pred, minlength=k * k).reshape(k, k)


def segmentation_scores(conf: np.ndarray):
    """Per-class IoU, mIoU and pixel accuracy of a ``[gt, pred]`` confusion
    matrix, such as a sum of per-chunk ones.

    Classes absent from both prediction and ground truth get IoU ``nan``
    and are excluded from the mean.
    """
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.where(denom > 0, tp / np.where(denom > 0, denom, 1.0), np.nan)
    miou = float(np.nanmean(iou)) if np.any(denom > 0) else float("nan")
    pixel_acc = float(tp.sum() / conf.sum()) if conf.sum() else float("nan")
    return iou, miou, pixel_acc


def pseudo_accuracy(labels: np.ndarray, gt: np.ndarray, valid: np.ndarray):
    """Fraction of valid pixels whose pseudo class in the integer label map
    ``labels`` matches the ground truth. Returns ``None`` when every pixel is
    gated out.
    """
    labels = np.asarray(labels)
    gt = np.asarray(gt)
    if labels.shape != gt.shape:
        raise InputError(f"shape mismatch: {labels.shape} vs {gt.shape}")
    valid = np.asarray(valid, dtype=bool)
    n = valid.sum()
    if n == 0:
        return None
    return float((labels[valid] == gt[valid]).mean())
