"""Per-class feature prototypes and distance-softmax confidence weights.

The bank keeps one centroid per class in a model's feature space, updated
with momentum from batch means. Confidence of a pixel belonging to class k
is the softmax of negative Euclidean feature distances to the prototypes
under a fixed uniform class prior, renormalized over classes actually
observed so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, StateError
from .netcore import class_max, class_sum

INIT_BATCH = 64   # images per forward when init_bank computes its prototypes


@dataclass
class PrototypeBank:
    eta: np.ndarray              # (K, C) centroids
    pi: np.ndarray               # (K,) uniform mixture weights
    seen: np.ndarray             # (K,) bool, class ever observed
    lam: float                   # momentum

    @property
    def num_classes(self) -> int:
        return len(self.pi)

    def copy(self) -> "PrototypeBank":
        return PrototypeBank(self.eta.copy(), self.pi.copy(), self.seen.copy(), self.lam)


def new_bank(k: int, c: int, lam: float) -> PrototypeBank:
    return PrototypeBank(
        eta=np.zeros((k, c)),
        pi=np.full(k, 1.0 / k),
        seen=np.zeros(k, dtype=bool),
        lam=lam,
    )


def _class_sums(features: np.ndarray, assign, k: int):
    """Per-class feature sums ``(K, C)`` and pixel counts ``(K,)``.

    One ``bincount`` over the bins ``class*C + dim``, so every sum adds its
    pixels in pixel order wherever prototypes are accumulated.
    """
    c = features.shape[-1]
    flat_a = np.asarray(assign).ravel()
    bins = (flat_a.astype(np.intp)[:, None] * c + np.arange(c)).ravel()
    sums = np.bincount(bins, weights=features.reshape(-1), minlength=k * c)
    return sums.reshape(-1, c), np.bincount(flat_a, minlength=k)


def batch_prototypes(features: np.ndarray, assign: np.ndarray, k: int):
    """Per-class feature means over one batch.

    ``features`` is ``(..., C)``, ``assign`` the matching integer label map.
    Returns ``(eta_prime, present)``; rows with ``present=False`` are zero
    and must be ignored.
    """
    features = np.asarray(features, dtype=np.float64)
    assign = np.asarray(assign)
    if features.shape[:-1] != assign.shape:
        raise InputError(
            f"features {features.shape} do not align with assignments {assign.shape}"
        )
    sums, counts = _class_sums(features, assign, k)
    present = counts > 0
    sums[present] /= counts[present, None]
    return sums, present


def update_bank(bank: PrototypeBank, eta_prime: np.ndarray, present: np.ndarray) -> None:
    """Momentum update in place: ``eta_k <- lam*eta_k + (1-lam)*eta_prime_k``.

    Rows first observed now are adopted outright instead of being dragged
    from the zero initialization.
    """
    fresh = present & ~bank.seen
    bank.eta[fresh] = eta_prime[fresh]
    old = present & bank.seen
    bank.eta[old] = bank.lam * bank.eta[old] + (1.0 - bank.lam) * eta_prime[old]
    bank.seen |= present


def init_bank(model, labeled, unlabeled, k: int, lam: float) -> PrototypeBank:
    """Ideal (non-momentum) prototypes from a trained model over L and U.

    Labeled pixels contribute under their ground-truth class; unlabeled
    pixels under the model's argmax prediction. Features and predictions
    come from eval forwards of clean images.
    """
    parts = []
    for ds, use_gt in ((labeled, True), (unlabeled, False)):
        for start in range(0, len(ds), INIT_BATCH):
            feats, logits = model.forward(ds.images[start:start + INIT_BATCH])
            assign = (ds.labels[start:start + INIT_BATCH] if use_gt
                      else logits.argmax(axis=-1))
            parts.append(_class_sums(feats, assign, k))
    if not parts:
        raise InputError("init_bank needs at least one nonempty dataset")
    sums = sum(s for s, _ in parts)
    counts = sum(n for _, n in parts)
    bank = new_bank(k, sums.shape[1], lam)
    present = counts > 0
    bank.eta[present] = sums[present] / counts[present, None]
    bank.seen = present
    return bank


def confidence_weights(features: np.ndarray, bank: PrototypeBank) -> np.ndarray:
    """Distance-softmax class confidence per pixel.

    ``omega_k = pi_k * exp(-||z - eta_k||) / sum_k' pi_k' * exp(-||z - eta_k'||)``
    over seen classes; unseen classes get exactly 0. Needs at least two
    seen classes.
    """
    if int(bank.seen.sum()) < 2:
        raise StateError("confidence needs at least 2 seen classes in the bank")
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != bank.eta.shape[1]:
        raise InputError(
            f"feature dim {features.shape[-1]} does not match bank C={bank.eta.shape[1]}"
        )
    lead = features.shape[:-1]
    flat = features.reshape(-1, features.shape[-1])
    # squared expansion: memory N*K, not N*K*C; then every step in place
    w = (2.0 * flat) @ bank.eta.T
    np.subtract((flat ** 2).sum(axis=1, keepdims=True), w, out=w)
    w += (bank.eta ** 2).sum(axis=1)
    np.sqrt(np.clip(w, 0.0, None, out=w), out=w)    # distances
    np.subtract(np.log(bank.pi), w, out=w)   # log prior minus distance
    if not bank.seen.all():
        w[:, ~bank.seen] = -np.inf
    w -= class_max(w)
    np.exp(w, out=w)
    w /= class_sum(w)
    return w.reshape(*lead, bank.num_classes)


def bank_tensors(bank: PrototypeBank) -> dict[str, np.ndarray]:
    """Named tensors for embedding a bank in a checkpoint."""
    return {
        "bank/eta": bank.eta,
        "bank/pi": bank.pi,
        "bank/seen": bank.seen.astype(np.float64),
        "bank/lambda": np.array([bank.lam]),
    }


def bank_from_tensors(tensors: dict[str, np.ndarray]) -> PrototypeBank:
    return PrototypeBank(
        eta=np.asarray(tensors["bank/eta"], dtype=np.float64),
        pi=np.asarray(tensors["bank/pi"], dtype=np.float64),
        seen=np.asarray(tensors["bank/seen"]) > 0.5,
        lam=float(tensors["bank/lambda"][0]),
    )
