"""Host speed, measured by a fixed kernel, to put timings on a steady scale.

The small shared VM this benchmark was written on runs the same work up to
30-40% slower from one minute to the next, as the host's load changes. A
wall time alone then says more about the host than about the program. So
a run takes calibration bursts between its set-ups and operations: the
benchmark's own fixed kernel, sharing no code with ``rml_lab``. Its time
over its reference time is the host's slowdown, and a timing divided by
the median slowdown of the bursts around it is the time the same work would
take at the reference speed. A change to the program cannot move the kernel, so it moves
the scaled time exactly as it moves the wall time on a steady host.

The kernel has three parts, one for each kind of work the program does.
``step`` is a training step of a small residual conv net at batch 4:
forward and backward by im2col and BLAS matmul, on arrays that fit in
cache. ``eval`` is one of its layers at batch 128, on arrays far too big
for cache, like the eval forwards. ``python`` is plain Python. Host load
slows these kinds of work by different amounts, so each timing is scaled by
the part, or the geometric mean of the parts, that does its kind of work.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# seconds each part takes at the reference speed: rounded medians on a 2-vCPU
# Intel Xeon KVM guest, numpy on OpenBLAS, one thread. Fixed values that set
# the scale of the scaled timings; they are never measured again.
REFERENCE_S = {"step": 0.017, "eval": 0.045, "python": 0.006}
REPEATS = {"step": 4, "eval": 1, "python": 10}
SAMPLES = 3            # samples per burst; a burst keeps each part's median

_rng = np.random.default_rng(12345)
_C = 16                                    # channels, as the cnn's feature_dim
_W = [_rng.standard_normal((9 * ci, _C)) * 0.1 for ci in (3, _C, _C)]
_STEP_X = _rng.standard_normal((4, 16, 16, 3))
_EVAL_X = _rng.standard_normal((128, 16, 16, _C))


def _im2col(x: np.ndarray) -> np.ndarray:
    n, h, w, ci = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((n, h, w, 3, 3, ci))
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, di, dj, :] = xp[:, di:di + h, dj:dj + w, :]
    return cols.reshape(n * h * w, 9 * ci)


def _forward(x: np.ndarray):
    """Stem conv and two residual convs; returns the output and the cache."""
    n, h, w, _ = x.shape
    cache = []
    for i, wt in enumerate(_W):
        cols = _im2col(x)
        y = (cols @ wt).reshape(n, h, w, _C)
        cache.append((cols, x))
        x = np.maximum(y, 0.0) if i == 0 else x + np.maximum(y, 0.0)
    return x, cache


def _col2im(dcols: np.ndarray, shape) -> np.ndarray:
    n, h, w, ci = shape
    dcols = dcols.reshape(n, h, w, 3, 3, ci)
    dxp = np.zeros((n, h + 2, w + 2, ci))
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += dcols[:, :, :, di, dj, :]
    return dxp[:, 1:-1, 1:-1, :]


def _step() -> None:
    """Forward and backward at batch 4: the cost of a training step, not a
    true gradient."""
    out, cache = _forward(_STEP_X)
    dy = out - out.mean()
    for wt, (cols, x) in zip(reversed(_W), reversed(cache)):
        d2 = dy.reshape(-1, _C)
        cols.T @ d2
        dy = _col2im(d2 @ wt.T, x.shape)


def _eval() -> None:
    """One conv layer at batch 128: its 38 MB patch matrix is above glibc's
    largest mmap threshold, so like the eval forwards' it is mapped, faulted
    in and unmapped on every call."""
    np.maximum(_im2col(_EVAL_X) @ _W[1], 0.0).argmax(axis=-1)


def _python() -> None:
    acc, table = 0, {}
    for i in range(4000):
        acc += i * i % 7
        table[i & 255] = acc


_PARTS = {"step": _step, "eval": _eval, "python": _python}


def part_seconds() -> dict[str, float]:
    """One timing of each part, in seconds."""
    out = {}
    for name, fn in _PARTS.items():
        t0 = perf_counter()
        for _ in range(REPEATS[name]):
            fn()
        out[name] = perf_counter() - t0
    return out


def slowdown_of(seconds: dict[str, float], parts) -> float:
    """Geometric mean over ``parts`` of each part's time over its reference time."""
    return math.exp(statistics.fmean(math.log(seconds[k] / REFERENCE_S[k]) for k in parts))


class Speed:
    """The calibration bursts taken during a run."""

    def __init__(self):
        self.bursts: list[dict[str, float]] = []   # per burst, each part's median

    def burst(self) -> None:
        """Time every part ``SAMPLES`` times and keep each part's median."""
        samples = [part_seconds() for _ in range(SAMPLES)]
        self.bursts.append({k: statistics.median(s[k] for s in samples) for k in REFERENCE_S})

    def slowdown(self, parts, first: int = 0, last: int | None = None) -> float:
        """The median over ``bursts[first:last]`` of the slowdown ``parts`` read."""
        return statistics.median(slowdown_of(b, parts) for b in self.bursts[first:last])
