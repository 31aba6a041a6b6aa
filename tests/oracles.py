"""Reference computations the tests check rml_lab against."""

import numpy as np

from rml_lab.errors import InputError
from rml_lab import netcore
from rml_lab.metrics import confusion_matrix, segmentation_scores, tv_rows
from rml_lab.netcore import softmax


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


# The formulas below are the ones rml_lab computed before its small-tensor
# rewrite (class-axis sums as column adds, in-place buffers, one bincount)
# and before hard labels became integer maps (the one-hot loss and the float
# CutMix mix); the tests require each rewrite to give the same bits.


def class_sums_per_dim(features, assign, k):
    """Per-class feature sums ``(K, C)`` and pixel counts, one ``bincount``
    per feature dim."""
    c = features.shape[-1]
    flat_f = features.reshape(-1, c)
    flat_a = np.asarray(assign).ravel()
    sums = np.stack([np.bincount(flat_a, weights=flat_f[:, dim], minlength=k)
                     for dim in range(c)], axis=1)
    return sums, np.bincount(flat_a, minlength=k)


def confidence_weights_expanded(features, eta, pi, seen):
    """Distance-softmax confidence by the squared expansion, one new array
    per step and the reductions over the class axis."""
    features = np.asarray(features, dtype=np.float64)
    flat = features.reshape(-1, features.shape[-1])
    d2 = ((flat ** 2).sum(axis=1, keepdims=True)
          - 2.0 * flat @ eta.T
          + (eta ** 2).sum(axis=1))
    dist = np.sqrt(np.clip(d2, 0.0, None))
    logits = -dist + np.log(pi)
    logits[:, ~seen] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w.reshape(*features.shape[:-1], len(eta))


def loss_terms(logits, terms):
    """Per-term cross-entropy losses and the summed logit gradient of
    ``loss_and_gradients`` for ``(labels, mask)`` terms, by the one-hot
    formulas ``-sum_k y_k log p_k`` and ``p - y``; a term with no unmasked
    pixel has loss 0 and no gradient."""
    zs = logits - logits.max(axis=-1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    dlogits = np.zeros_like(logits)
    losses = []
    for labels, mask in terms:
        target = np.eye(logits.shape[-1], dtype=logits.dtype)[labels]
        mask = np.asarray(mask, dtype=logits.dtype)
        n = mask.sum()
        if n == 0:
            losses.append(0.0)
            continue
        losses.append(float((-(target * logp).sum(axis=-1) * mask).sum() / n))
        dlogits += (p - target) * mask[..., None] / n
    return losses, dlogits


def float_mix(a, b, m):
    """``m*a + (1-m)*b``: the float CutMix of one-hot label maps and of gates
    that integer label maps replaced."""
    m = np.asarray(m, dtype=np.float64)
    return m * a + (1.0 - m) * b


def upsample_tokens(tok, th, tw, pp):
    """``(N, th*tw, C)`` patch tokens to ``(N, th*pp, tw*pp, C)`` pixels by
    repeats and a transpose."""
    n, _, c = tok.shape
    return (tok.reshape(n, th, tw, 1, 1, c)
            .repeat(pp, axis=3).repeat(pp, axis=4)
            .transpose(0, 1, 3, 2, 4, 5).reshape(n, th * pp, tw * pp, c))


# Attention keeps its token grid until a consumer needs pixels, and evaluation
# scores inside its eval chunks; these work per pixel on the whole (N,H,W,K)
# arrays that were once built, and the tests require the same bits.


def pixel_outputs(model, images):
    """Eval ``(features, logits)`` per pixel from one forward of the whole
    batch, attention's token rows repeated by :func:`upsample_tokens`."""
    outs = netcore._forward(model, images, None, False)[:2]
    if model.arch.kind != "attn":
        return outs
    n, th, tw, _ = outs[0].shape
    return tuple(upsample_tokens(a.reshape(n, th * tw, -1), th, tw, model.arch.patch)
                 for a in outs)


def soft_predictions(model, images):
    """Eval softmax predictions per pixel of ``model`` over the whole batch at once."""
    return softmax(pixel_outputs(model, images)[1])


def whole_scores(model, images, labels, k):
    """Per-class IoU, mIoU and pixel accuracy of the argmax of
    :func:`soft_predictions`."""
    return segmentation_scores(confusion_matrix(soft_predictions(model, images).argmax(-1),
                                                labels, k))


def tv_distance(p, q):
    """Mean per-pixel TV distance of two probability tensors, each checked to
    hold rows of probabilities: the mean of ``tv_rows``, as the run logs it."""
    for a in (p, q):
        sums = a.sum(axis=-1, dtype=np.float64)
        if a.min(initial=0.0) < -1e-9 or np.any(np.abs(sums - 1.0) > 1e-4):
            raise InputError("not a probability tensor")
    return float(tv_rows(p, q).mean())
