"""Pseudo-label generation, thresholding and prototype-based rectification.

A stage keeps the initial soft predictions ``p0`` of every unlabeled image
frozen in a :class:`StagePseudoStore`, one ``(N,H,W,K)`` array whose rows
are looked up by stable image id. Each step reweights a batch's rows with
the current confidence map and re-hardens them
(:func:`rectified_labels`). The labels of the two halves of a CutMix pair
are rectified separately and mixed by the trainer, like every variant's
pseudo labels.

A soft prediction is a plain ``(N,H,W,K)`` probability array. A hardened one is
:class:`HardLabels`: the ``(N,H,W)`` integer class map and its threshold gate, the form
every loss term and metric takes. The teacher's outputs come on its grid (``netcore.pixels``):
an attn teacher's confidence weights are computed per token and up-sampled to meet ``p0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import photometric
from .errors import InputError, StateError
from .netcore import class_max, class_sum, pixels, softmax
from .protobank import confidence_weights

@dataclass
class HardLabels:
    """Hard labels plus their threshold gate.

    ``labels`` is the ``(N,H,W)`` integer class map and ``valid`` is
    ``(N,H,W)``, 0 where the prediction fell below the threshold and must
    not contribute to losses.
    """

    labels: np.ndarray
    valid: np.ndarray
    num_classes: int

    @property
    def onehot(self) -> np.ndarray:
        """The ``(N,H,W,K)`` one-hot form of ``labels``. Nothing in the
        package reads it; only the traced benchmark's rectification hook
        does (``benchmarks/layers.py:96``)."""
        return np.eye(self.num_classes)[self.labels]


class StagePseudoStore:
    """Frozen stage-initial soft pseudo labels: one ``(N,H,W,K)`` array plus
    the row of each stable image id."""

    def __init__(self, ids, p0: np.ndarray, stage: int):
        self.p0 = np.asarray(p0, dtype=np.float64)
        self.rows = {int(i): r for r, i in enumerate(np.asarray(ids).ravel())}
        self.stage = stage

    def get_batch(self, ids) -> np.ndarray:
        try:
            rows = [self.rows[int(i)] for i in np.asarray(ids).ravel()]
        except KeyError as exc:
            raise StateError(f"image id {exc.args[0]} missing from "
                             f"stage-{self.stage} pseudo store") from None
        return self.p0[rows]


def teacher_predict(teacher, x: np.ndarray, weak_strength: float,
                    rng) -> tuple[np.ndarray, np.ndarray]:
    """Eval-forward teacher features and logits on ``x`` perturbed at ``weak_strength``,
    on the teacher's grid; a caller that needs probabilities takes their softmax."""
    return teacher.grid_forward(photometric(x, weak_strength, rng))


def harden_with_threshold(p: np.ndarray, tau: float) -> HardLabels:
    """The per-pixel argmax class of ``p``; ``valid`` iff ``max_k p_k > tau``.

    Ties break toward the lowest class index.
    """
    p = np.asarray(p, dtype=np.float64)
    if not 0.0 <= tau < 1.0:
        raise InputError(f"tau out of [0,1): {tau}")
    valid = (class_max(p)[..., 0] > tau).astype(np.float64)
    return HardLabels(p.argmax(axis=-1), valid, p.shape[-1])


def denoise(p0: np.ndarray, omega: np.ndarray, tau: float) -> tuple[HardLabels, int]:
    """Rectify frozen soft labels with confidence weights and re-harden.

    Per pixel the rectified class is ``argmax_k omega_k * p0_k``; the
    threshold gate applies to the renormalized product. Pixels whose
    product vanishes for every class fall back to ``argmax p0`` (gated on
    ``p0``); their count is returned alongside the labels.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if p0.shape != omega.shape:
        raise InputError(f"p0 {p0.shape} and omega {omega.shape} not aligned")
    if not 0.0 <= tau < 1.0:
        raise InputError(f"tau out of [0,1): {tau}")
    prod = omega * p0
    norm = class_sum(prod)
    dead = norm[..., 0] == 0.0
    fallback = int(dead.sum())
    if fallback:   # where the product vanishes, p0 stands in for it
        prod[dead], norm[dead] = p0[dead], 1.0
    labels = prod.argmax(axis=-1)
    valid = (class_max(prod / norm)[..., 0] > tau).astype(np.float64)
    return HardLabels(labels, valid, p0.shape[-1]), fallback


def rectified_labels(teacher, x: np.ndarray, ids, bank, store: StagePseudoStore,
                     weak_strength: float, tau: float, rng,
                     confidence_source: str = "prototype") -> tuple[HardLabels, np.ndarray, int]:
    """Denoise one unlabeled batch; returns ``(labels, teacher_feats, fallbacks)``.

    The teacher sees ``x`` perturbed at ``weak_strength``. Its confidence weights
    come on its grid and are up-sampled to meet ``p0``; the features, per pixel.
    ``confidence_source="teacher_softmax"`` replaces the prototype weights with
    the teacher's own softmax output (ablation path).
    """
    p0 = store.get_batch(ids)
    feats, logits = teacher_predict(teacher, x, weak_strength, rng)
    if confidence_source == "prototype":
        omega = confidence_weights(feats, bank)
    elif confidence_source == "teacher_softmax":
        omega = softmax(logits)
    else:
        raise InputError(f"unknown confidence source {confidence_source!r}")
    labels, fallback = denoise(p0, pixels(teacher, omega), tau)
    return labels, pixels(teacher, feats), fallback
