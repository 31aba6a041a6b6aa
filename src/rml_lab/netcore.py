"""Minimal differentiable network engine.

Three fixed toy architectures (pixelwise MLP, residual CNN, single-head
patch attention) with hand-written backprop, configurable dropout and
stochastic depth, plain SGD and EMA parameter updates, and a little-endian
binary checkpoint format, on numpy; there is no general autodiff.

A model is its :class:`ArchSpec`, K, C, params and :class:`NoiseConfig`, all
stored in a checkpoint. A forward is eval or train by its call: every forward
over :func:`eval_chunks` draws nothing and scales each residual branch by its
survival; the one train forward, :func:`loss_and_gradients`, draws from ``rng``.

A model computes in the dtype of its params: float32 as
:func:`build_model` makes them, float64 once its params are cast (the
finite-difference tests do so). Inputs and loss masks are cast to that
dtype, and every buffer, gate, mask and gradient takes it. Random
draws are float64 and cast afterwards, so a float64 model draws and
computes exactly as a float64 engine would. Softmax keeps the logits'
dtype. Everything outside this module (augmentation, prototypes,
rectification, metrics) works in float64.

All inputs are ``(N, H, W, Cin)`` arrays (classification tasks use ``H = W = 1``:
``data.load_dataset`` flattens their images). A forward returns features ``(..., C)``
and logits ``(..., K)`` on the model's grid: ``(N, H, W)`` for cnn and mlp, attention's
``(N, H/p, W/p)`` tokens. :func:`pixels` is the one up-sample, so row-by-row work runs
once per token with each row's bits; ``NetModel.forward`` returns pixels.

One loss serves every training step: :func:`loss_and_gradients` runs one
forward pass, scores a list of ``(labels, pixel_mask)`` cross-entropy
terms against it and backpropagates the sum of the per-term losses once.
Every target is hard, so ``labels`` is an integer class map, checked for
its shape and its range: a term's loss gathers ``log p`` at the label, and
its logit gradient is ``p`` with 1 taken off at the label. Those are the
bits of the one-hot formulas ``-sum_k y_k log p_k`` and ``p - y``.

Eval forwards run over chunks of whole images, about ``EVAL_CHUNK_ROWS`` rows each
on the grid of the pass's model with the most rows an image, so no pass builds one
im2col patch matrix of its whole batch (75 MB per conv layer at 256 images of 16x16
with 16 channels), and an attn model alone takes p*p times the images. BLAS may sum a
smaller matmul in another order, so no chunk is smaller than the chunk size unless the
whole batch is, and each chunk's output is bitwise that of a forward over the whole
batch (see tests/test_netcore.py and tests/test_grid.py). :func:`eval_chunks`, the one
chunk runner, hands each chunk's outputs of one or more models to a consumer's
function, so consumers reduce inside the chunks (confusion counts, TV rows) and build
no ``(N, H, W, K)`` array; ``NetModel.forward`` concatenates them. The train forward is
not chunked, so its random draws are those of one forward over its whole batch.

The caller and up to one worker per other usable CPU each take the next
chunk until none is left. No chunk's bits depend on which thread ran it,
and an eval forward draws nothing, so the result is the same at any worker
count; a single-chunk pass, such as a teacher's prediction for a training
step's batch of 4, runs on the caller alone. The workers share one thread
pool, made on first use.

On glibc, importing this module sets the process's heap policy, so it
holds for training before any eval pass and on a one-CPU host, where no
pool is ever made. glibc keeps one malloc arena, since a worker's own
arena raised peak RSS by up to 17%. The heap's mmap threshold is fixed at
32 MB, so an array under it comes from the heap and, once freed, is reused
without page faults; left alone, glibc moves the threshold each time a
large mapped array is freed, and a fresh two-stage ``rml-lab train`` took
about 12 times the minor faults. The trim threshold is fixed at 12 MB:
free memory beyond it at the heap's top goes back to the system. It clears
one eval pass, which with one worker holds about 10 MB, and stays below the
13 to 16 MB that a whole-batch forward and its scoring leave free, so that
much always goes back: a free top near the threshold is kept or not by
thread timing, and the process's peak RSS with it. A training run and a
baseline end with :func:`release_heap`, which hands back the rest
(glibc's ``malloc_trim``).

A 3x3 same-padding conv is one matmul of the ``(N*H*W, 9*Ci)`` im2col patch
matrix (tap-major, then channel) with the ``(9*Ci, Co)`` weights. The
backward keeps that matrix for ``dw``. A forward with no backward (every
eval forward) keeps no patch matrix: each one is freed after its
matmul, so one 16-image eval chunk never holds two. The input gradient is
itself a 3x3 conv: of ``dy`` with the kernel flipped in both taps and
transposed in its channels, so it is one im2col of ``dy`` and one matmul,
with no strided per-tap adds. It sums in another order than the
im2col/col2im reference in tests/test_netcore.py, which holds it to a stated
tolerance. No first layer (the cnn stem, the mlp's ``fc1``) computes an
input gradient, since nothing uses it. Bias gradients are column sums taken
as one BLAS product with a ones vector.

At desk scale the cost is per call, not per FLOP, so the hot path makes few
arrays and keeps NumPy's bits. Sums and maxima over the K classes are adds
and maxima of the K columns (:func:`class_sum`, :func:`class_max`). Bias
adds, ReLUs (the mlp's backward masks on ``h > 0``), softmaxes and each loss
term's gradient work in place in a buffer the step already made.
"""

from __future__ import annotations

import math
import os
import re
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, FormatError, InputError, TrainingError

ARCH_KINDS = ("mlp", "cnn", "attn")

CHECKPOINT_MAGIC = b"RMLCKPT3"

EVAL_CHUNK_ROWS = 4096    # grid rows per eval chunk: 16 images of 16x16 pixels, 64 of 2x2 tokens


@dataclass(frozen=True)
class NoiseConfig:
    """Noise injection for a model; ``NoiseConfig()`` is no noise.

    Dropout acts on the last hidden layer only; stochastic depth acts on
    residual blocks only. The train forward draws them; an eval forward draws
    nothing: dropout is the identity, each residual branch scaled by its survival.
    """

    dropout_rate: float = 0.0
    stochastic_depth_survival: float = 1.0

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of [0,1]: {value}")


@dataclass(frozen=True)
class ArchSpec:
    """Resolved architecture: one of ``ARCH_KINDS`` and its integer sizes."""

    kind: str
    in_channels: int
    hidden: int
    patch: int

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ConfigError(f"unknown architecture {self.kind!r}, expected one of {ARCH_KINDS}")
        if self.in_channels < 1 or self.hidden < 1 or self.patch < 1:
            raise ConfigError(f"architecture sizes must be positive: {self}")

    def descriptor(self) -> str:
        return f"{self.kind}:in={self.in_channels}:hidden={self.hidden}:patch={self.patch}"


class NetModel:
    """A small network: feature extractor plus linear per-pixel classifier."""

    # inert: only benchmarks/workloads.py's eval_predictions reads, sets and restores
    # ``mode`` and calls ``eval()``; no forward reads either
    mode = "eval"

    def eval(self) -> "NetModel":
        return self

    def __init__(self, arch: ArchSpec, num_classes: int, feature_dim: int,
                 noise: NoiseConfig, params: dict[str, np.ndarray]):
        self.arch = arch
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.noise = noise
        self.params = params

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: that of the params."""
        return self.params["head_w"].dtype

    def clone(self) -> "NetModel":
        return NetModel(self.arch, self.num_classes, self.feature_dim, self.noise,
                        {k: v.copy() for k, v in self.params.items()})

    def grid_forward(self, x: np.ndarray):
        """The eval forward: ``(features, logits)`` on the model's grid, over its chunks.

        Pure: it draws no noise and scales each residual branch by its survival.
        The batch runs in chunks of whole images, on the caller and the spare
        CPUs, with the same bits at any worker count (see the module docstring).
        """
        outs = eval_chunks((self,), x, lambda rows, out: out, feats=True)
        return outs[0] if len(outs) == 1 else tuple(np.concatenate(a) for a in zip(*outs))

    def forward(self, x: np.ndarray):
        """:meth:`grid_forward`'s ``(features, logits)`` at pixel resolution."""
        return tuple(pixels(self, a) for a in self.grid_forward(x))

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}


def _spare_cpus() -> int:
    """The CPUs this process may use, less the caller's own."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:   # no affinity call on this platform
        return (os.cpu_count() or 1) - 1


def _set_heap_policy():
    """glibc's ``malloc_trim`` once the heap policy is set (see the module docstring);
    None, with nothing set, off glibc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc
        return None
    if not glibc:
        return None
    import ctypes
    libc = ctypes.CDLL(None)
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_ARENA_MAX (-8), M_MMAP_THRESHOLD (-3), M_TRIM_THRESHOLD (-1)
    for param, value in ((-8, 1), (-3, 32 << 20), (-1, 12 << 20)):
        mallopt(param, value)
    trim = libc.malloc_trim
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return trim


_malloc_trim = _set_heap_policy()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _eval_pool() -> ThreadPoolExecutor:
    """The eval-chunk thread pool, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _spare_cpus()), "rml-eval")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def release_heap() -> None:
    """Hand the heap's free pages back to the system: on glibc, whose heap policy is
    set when this module is imported, else nothing."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def eval_chunks(models, x: np.ndarray, fn, feats: bool = False) -> list:
    """``fn(rows, *outs)`` of each eval chunk ``x[rows]`` of whole images, in chunk
    order; ``outs`` holds each model's eval-forward logits of the chunk on its grid,
    or its ``(features, logits)`` with ``feats``. The caller and the spare CPUs' workers
    each take the next chunk until none is left. An error, in a forward or in
    ``fn``, leaves the chunks not yet taken undone and is raised once every
    thread has stopped: the caller's own, else the first worker's in submission order."""
    xs = [_check_input(m, x) for m in models]
    n, h, w, _ = xs[0].shape
    rows = max(h * w // (m.arch.patch ** 2 if m.arch.kind == "attn" else 1) for m in models)
    step = max(1, EVAL_CHUNK_ROWS // rows)   # by the model with the most grid rows an image
    # the last chunk takes the remainder, so no chunk is smaller than step
    bounds = [i * step for i in range(max(1, n // step))] + [n]
    todo = deque(range(len(bounds) - 1))
    outs: list = [None] * len(todo)

    def drain():
        try:
            while True:
                try:
                    i = todo.popleft()
                except IndexError:
                    return
                rows = slice(bounds[i], bounds[i + 1])
                # a generator, so features not asked for are freed before fn runs
                fwd = (_forward(m, xm[rows], None, False) for m, xm in zip(models, xs))
                outs[i] = fn(rows, *(f[:2] if feats else f[1] for f in fwd))
        except BaseException:
            todo.clear()
            raise

    workers = min(_spare_cpus(), len(outs) - 1)
    jobs = [_eval_pool().submit(drain) for _ in range(workers)]
    try:
        drain()
    finally:
        wait(jobs)
    for job in jobs:
        job.result()
    return outs


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _param_shapes(spec: ArchSpec, K: int, C: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of a model, in initialization order."""
    if K < 2:
        raise ConfigError(f"need at least 2 classes, got K={K}")
    if C < 1:
        raise ConfigError(f"feature dim must be positive, got C={C}")
    ci, h, p = spec.in_channels, spec.hidden, spec.patch
    if spec.kind == "mlp":
        shapes = {"fc1_w": (ci, h), "fc1_b": (h,), "fc2_w": (h, C), "fc2_b": (C,)}
    elif spec.kind == "cnn":
        shapes = {"conv1_w": (9 * ci, C), "conv1_b": (C,), "block1_w": (9 * C, C),
                  "block1_b": (C,), "block2_w": (9 * C, C), "block2_b": (C,)}
    else:  # attn
        shapes = {"embed_w": (p * p * ci, C), "embed_b": (C,), "q_w": (C, C), "k_w": (C, C),
                  "v_w": (C, C), "out_w": (C, C), "out_b": (C,)}
    return {**shapes, "head_w": (C, K), "head_b": (K,)}


def build_model(kind: str, K: int, C: int, noise: NoiseConfig = NoiseConfig(), seed: int = 0,
                in_channels: int = 3, hidden: int = 64, patch: int = 2) -> NetModel:
    """A float32 model of architecture ``kind``, for eval and train forwards alike.

    Weights are Glorot uniform (``±sqrt(6/(fan_in+fan_out))``) drawn in
    float64 from ``np.random.default_rng(seed)`` in a fixed parameter order
    and then cast; biases start at zero. Two builds from the same arguments
    are parameter-identical.
    """
    spec = ArchSpec(kind, in_channels, hidden, patch)
    rng = np.random.default_rng(seed)
    params = {name: (_glorot(rng, shape) if len(shape) == 2 else np.zeros(shape))
              .astype(np.float32) for name, shape in _param_shapes(spec, K, C).items()}
    return NetModel(spec, K, C, noise, params)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _check_input(m: NetModel, x: np.ndarray) -> np.ndarray:
    """Validate input shape; returns the input in the model's dtype."""
    x = np.asarray(x, dtype=m.dtype)
    if x.ndim != 4:
        raise InputError(f"expected (N,H,W,C) input, got shape {x.shape}")
    if x.shape[-1] != m.arch.in_channels:
        raise InputError(
            f"model expects {m.arch.in_channels} input channels, got {x.shape[-1]}"
        )
    if m.arch.kind == "attn":
        p = m.arch.patch
        if x.shape[1] % p or x.shape[2] % p:
            raise InputError(
                f"attn input {x.shape[1]}x{x.shape[2]} not divisible by patch {p}"
            )
    return x


def _dropout(m: NetModel, x: np.ndarray, rng, train: bool):
    """Inverted dropout on the last hidden layer. Returns (y, mask_or_None)."""
    rate = m.noise.dropout_rate
    if not train or rate == 0.0:
        return x, None
    if rate >= 1.0:
        return np.zeros_like(x), np.zeros_like(x)
    if rng is None:
        raise InputError("a train forward with dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) * x.dtype.type(1.0 / (1.0 - rate))
    return x * mask, mask


def _sd_gate(m: NetModel, n: int, rng, train: bool):
    """Per-sample stochastic-depth gate for one residual block, shape (n,1,1,1)."""
    p = m.noise.stochastic_depth_survival
    if p >= 1.0:
        return np.ones((n, 1, 1, 1), m.dtype)
    if not train:
        return np.full((n, 1, 1, 1), p, m.dtype)
    if rng is None:
        raise InputError("a train forward with stochastic depth needs an rng")
    return (rng.random((n, 1, 1, 1)) < p).astype(m.dtype)


def _im2col3(x: np.ndarray) -> np.ndarray:
    """3x3 same-padding patch extraction: (N,H,W,Ci) -> (N,H,W,3,3,Ci)."""
    n, h, w, ci = x.shape
    xp = np.zeros((n, h + 2, w + 2, ci), x.dtype)
    xp[:, 1:-1, 1:-1] = x
    s0, s1, s2, s3 = xp.strides
    return as_strided(xp, (n, h, w, 3, 3, ci), (s0, s1, s2, s1, s2, s3)).copy()


def _conv3(x, w, b):
    n, h, wd, ci = x.shape
    cols = _im2col3(x)
    y = cols.reshape(n * h * wd, 9 * ci) @ w
    y += b
    return y.reshape(n, h, wd, -1), cols


def _col_sums(a):
    """Column sums as one BLAS product, several times faster than ``a.sum(axis=0)``."""
    return np.ones(a.shape[0], a.dtype) @ a


def _conv3_grads(dy, cols):
    """Weight and bias gradients of :func:`_conv3` from its patch matrix."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = cols.reshape(dy2.shape[0], -1).T @ dy2
    return dw, _col_sums(dy2)


def _conv3_dx(dy, w):
    """Input gradient of :func:`_conv3`: the 3x3 same-padding conv of ``dy``
    with the kernel flipped in both taps and transposed in its channels."""
    ci = w.shape[0] // 9
    wf = w.reshape(3, 3, ci, -1)[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, ci)
    return (_im2col3(dy).reshape(-1, wf.shape[0]) @ wf).reshape(*dy.shape[:-1], ci)


def _pixelwise(x, w, b):
    shp = x.shape
    y = x.reshape(-1, shp[-1]) @ w
    y += b
    return y.reshape(*shp[:-1], -1)


def _pixelwise_grads(dy, x):
    """Weight and bias gradients of :func:`_pixelwise`."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    return x.reshape(-1, x.shape[-1]).T @ dy2, _col_sums(dy2)


def _pixelwise_back(dy, x, w):
    return ((dy.reshape(-1, dy.shape[-1]) @ w.T).reshape(x.shape), *_pixelwise_grads(dy, x))


def class_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)`` as ``np.maximum`` over the K columns,
    several times faster for few classes (attention's 64 tokens are not). Same
    bits, NaN included, but for the sign of a max where +0 and -0 tie."""
    out = z[..., :1].copy()
    for k in range(1, z.shape[-1]):
        np.maximum(out, z[..., k:k + 1], out=out)
    return out


def class_sum(z: np.ndarray) -> np.ndarray:
    """``z.sum(axis=-1, keepdims=True)`` as adds of the K columns, faster for few
    classes and the same bits: NumPy adds under 8 terms in column order after a
    +0 start. It sums 8 or more (attention's 64 tokens) pairwise, so those keep it."""
    if z.shape[-1] >= 8:
        return z.sum(axis=-1, keepdims=True)
    out = z[..., :1] + z[..., 1:2]
    for k in range(2, z.shape[-1]):
        out += z[..., k:k + 1]
    return np.add(out, 0.0, out=out)   # the +0 start: an all -0 row sums to +0


def _softmax_last(z: np.ndarray, zmax: np.ndarray) -> np.ndarray:
    e = z - zmax
    return np.divide(np.exp(e, out=e), class_sum(e), out=e)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the class (last) axis, in the logits' dtype."""
    z = np.asarray(logits)
    return _softmax_last(z, class_max(z))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits)
    zs = z - class_max(z)
    return np.subtract(zs, np.log(class_sum(np.exp(zs))), out=zs)


def pixels(m: NetModel, a: np.ndarray) -> np.ndarray:
    """``(N, gh, gw, ...)`` rows on ``m``'s grid, per pixel: each attn token fills its patch."""
    if m.arch.kind != "attn":
        return a   # cnn and mlp rows are pixels
    (n, th, tw, *c), pp = a.shape, m.arch.patch
    return np.broadcast_to(a.reshape(n, th, 1, tw, 1, *c),   # one copy of a broadcast view
                           (n, th, pp, tw, pp, *c)).reshape(n, th * pp, tw * pp, *c)


def _forward(m: NetModel, x: np.ndarray, rng, train: bool):
    """``(features, logits, cache)``, the outputs on ``m``'s grid (see :func:`pixels`)."""
    x = _check_input(m, x)
    p = m.params
    cache: dict = {"x": x}
    if m.arch.kind == "mlp":
        z1 = _pixelwise(x, p["fc1_w"], p["fc1_b"])
        h1 = np.maximum(z1, 0.0, out=z1)
        z2 = _pixelwise(h1, p["fc2_w"], p["fc2_b"])
        feats = np.maximum(z2, 0.0, out=z2)
        fdrop, dmask = _dropout(m, feats, rng, train)
        logits = _pixelwise(fdrop, p["head_w"], p["head_b"])
        if train:
            cache.update(h1=h1, feats=feats, fdrop=fdrop, dmask=dmask)
    elif m.arch.kind == "cnn":
        # stem conv, then two residual blocks x + gate*conv3(relu(x))
        def conv(a, layer, key):
            y, cols = _conv3(a, p[layer + "_w"], p[layer + "_b"])
            if train:   # a backward needs it; else it dies with this call
                cache[key] = cols
            return y

        c1 = conv(x, "conv1", "cols1")
        h0 = np.maximum(c1, 0.0)
        g1 = _sd_gate(m, x.shape[0], rng, train)
        c2 = conv(h0, "block1", "cols2")
        b1 = h0 + g1 * c2
        g2 = _sd_gate(m, x.shape[0], rng, train)
        r2 = np.maximum(b1, 0.0)
        c3 = conv(r2, "block2", "cols3")
        feats = b1 + g2 * c3
        fdrop, dmask = _dropout(m, feats, rng, train)
        logits = _pixelwise(fdrop, p["head_w"], p["head_b"])
        if train:
            cache.update(c1=c1, h0=h0, g1=g1, b1=b1, g2=g2, r2=r2, feats=feats,
                         fdrop=fdrop, dmask=dmask)
    else:  # attn
        n, h, w, ci = x.shape
        pp = m.arch.patch
        th, tw = h // pp, w // pp
        tokens = (x.reshape(n, th, pp, tw, pp, ci)
                   .transpose(0, 1, 3, 2, 4, 5)
                   .reshape(n, th * tw, pp * pp * ci))
        emb = tokens @ p["embed_w"]
        emb += p["embed_b"]
        q = emb @ p["q_w"]
        k = emb @ p["k_w"]
        v = emb @ p["v_w"]
        scale = float(1.0 / np.sqrt(m.feature_dim))  # a numpy f64 scalar would promote
        scores = np.matmul(q, k.transpose(0, 2, 1))
        scores *= scale
        # fmax is faster than max, and a NaN score that only max returns NaNs the row anyway
        attn = _softmax_last(scores, np.fmax.reduce(scores, axis=-1, keepdims=True))
        ctx = np.matmul(attn, v)
        out = ctx @ p["out_w"]
        out += p["out_b"]
        gate = _sd_gate(m, n, rng, train)[:, :, :, 0]  # (n,1,1), broadcasts over tokens
        z = emb + gate * out
        fdrop_tok, dmask = _dropout(m, z, rng, train)
        logits = fdrop_tok @ p["head_w"]
        logits += p["head_b"]
        feats, logits = z.reshape(n, th, tw, -1), logits.reshape(n, th, tw, -1)
        if train:
            cache.update(tokens=tokens, emb=emb, q=q, k=k, v=v, scale=scale,
                         attn=attn, ctx=ctx, gate=gate, z=z, fdrop=fdrop_tok,
                         dmask=dmask, tshape=(th, tw))
    return feats, logits, (cache if train else None)


def _backward(m: NetModel, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    p = m.params
    g: dict[str, np.ndarray] = {}
    if m.arch.kind == "mlp":
        dfdrop, g["head_w"], g["head_b"] = _pixelwise_back(dlogits, cache["fdrop"], p["head_w"])
        if cache["dmask"] is not None:
            dfdrop *= cache["dmask"]
        dfdrop *= cache["feats"] > 0
        dh1, g["fc2_w"], g["fc2_b"] = _pixelwise_back(dfdrop, cache["h1"], p["fc2_w"])
        dh1 *= cache["h1"] > 0
        g["fc1_w"], g["fc1_b"] = _pixelwise_grads(dh1, cache["x"])
    elif m.arch.kind == "cnn":
        dfdrop, g["head_w"], g["head_b"] = _pixelwise_back(dlogits, cache["fdrop"], p["head_w"])
        dfeats = dfdrop if cache["dmask"] is None else dfdrop * cache["dmask"]
        db1 = dfeats.copy()
        dc3 = dfeats * cache["g2"]
        g["block2_w"], g["block2_b"] = _conv3_grads(dc3, cache["cols3"])
        db1 += _conv3_dx(dc3, p["block2_w"]) * (cache["b1"] > 0)
        dh0 = db1.copy()
        dc2 = db1 * cache["g1"]
        g["block1_w"], g["block1_b"] = _conv3_grads(dc2, cache["cols2"])
        dh0 += _conv3_dx(dc2, p["block1_w"])
        dc1 = dh0 * (cache["c1"] > 0)
        g["conv1_w"], g["conv1_b"] = _conv3_grads(dc1, cache["cols1"])
    else:  # attn
        n, h, w, _ = cache["x"].shape
        pp = m.arch.patch
        th, tw = cache["tshape"]
        # pixel grads sum back onto their patch token
        dlog_tok = dlogits.reshape(n, th, pp, tw, pp, -1).sum(axis=(2, 4)).reshape(n, th * tw, -1)
        fdrop = cache["fdrop"]
        dy2 = dlog_tok.reshape(-1, m.num_classes)
        g["head_w"] = fdrop.reshape(-1, m.feature_dim).T @ dy2
        g["head_b"] = _col_sums(dy2)
        dfdrop = dlog_tok @ p["head_w"].T
        dz = dfdrop if cache["dmask"] is None else dfdrop * cache["dmask"]
        demb = dz.copy()
        dout = dz * cache["gate"]
        ctx2 = cache["ctx"].reshape(-1, m.feature_dim)
        dout2 = dout.reshape(-1, m.feature_dim)
        g["out_w"] = ctx2.T @ dout2
        g["out_b"] = _col_sums(dout2)
        dctx = dout @ p["out_w"].T
        dattn = np.matmul(dctx, cache["v"].transpose(0, 2, 1))
        dv = np.matmul(cache["attn"].transpose(0, 2, 1), dctx)
        a = cache["attn"]
        dscores = a * (dattn - (dattn * a).sum(axis=-1, keepdims=True))
        dq = np.matmul(dscores, cache["k"]) * cache["scale"]
        dk = np.matmul(dscores.transpose(0, 2, 1), cache["q"]) * cache["scale"]
        emb2 = cache["emb"].reshape(-1, m.feature_dim)
        g["q_w"] = emb2.T @ dq.reshape(-1, m.feature_dim)
        g["k_w"] = emb2.T @ dk.reshape(-1, m.feature_dim)
        g["v_w"] = emb2.T @ dv.reshape(-1, m.feature_dim)
        demb += dq @ p["q_w"].T + dk @ p["k_w"].T + dv @ p["v_w"].T
        tok2 = cache["tokens"].reshape(-1, cache["tokens"].shape[-1])
        demb2 = demb.reshape(-1, m.feature_dim)
        g["embed_w"] = tok2.T @ demb2
        g["embed_b"] = _col_sums(demb2)
    return g


# ---------------------------------------------------------------------------
# losses and updates
# ---------------------------------------------------------------------------


def loss_and_gradients(m: NetModel, x: np.ndarray, terms,
                       rng: np.random.Generator | None = None):
    """Forward, cross entropy for each ``(labels, pixel_mask)`` term, backward.

    Each ``labels`` is an ``(N,H,W)`` integer map of classes in ``[0, K)``;
    each ``pixel_mask`` is ``(N,H,W)``, 1 for pixels included in that term,
    or ``None`` for all pixels. A term's loss is its mean over its unmasked
    pixels, 0 when it has none. Returns ``(per_term_losses, grads)``, the
    gradients of the sum of the per-term losses; when no term has a pixel
    they are zero.
    """
    _, logits, cache = _forward(m, x, rng, True)
    logits = pixels(m, logits)
    k = logits.shape[-1]
    logp = log_softmax(logits)
    p = np.exp(logp)
    dlogits = np.zeros_like(logits)
    losses = []
    any_pixels = False
    for labels, pixel_mask in terms:
        labels = np.asarray(labels)
        if labels.shape != logits.shape[:-1]:
            raise InputError(f"labels shape {labels.shape} does not match {logits.shape[:-1]}")
        if labels.dtype.kind not in "iu" or np.any((labels < 0) | (labels >= k)):
            raise InputError(f"labels must be integer classes in [0, {k})")
        if pixel_mask is None:
            mask = np.ones(logits.shape[:-1], logits.dtype)
        else:
            mask = np.asarray(pixel_mask, dtype=logits.dtype)
            if mask.shape != logits.shape[:-1]:
                raise InputError(f"mask shape {mask.shape} does not match {logits.shape[:-1]}")
        n = mask.sum()
        if n == 0:
            losses.append(0.0)
            continue
        any_pixels = True
        at = labels.ravel() + k * np.arange(labels.size)   # flat index of each label
        ce = np.negative(logp.reshape(-1)[at]).reshape(mask.shape)
        losses.append(float(np.multiply(ce, mask, out=ce).sum() / n))
        d = p.copy()
        d.reshape(-1)[at] -= 1
        d *= mask[..., None]
        dlogits += np.divide(d, n, out=d)
    grads = _backward(m, cache, dlogits) if any_pixels else m.zero_grads()
    return losses, grads


def sgd_step(m: NetModel, grads: dict[str, np.ndarray], lr: float) -> NetModel:
    """In-place plain SGD: every parameter moves by ``-lr * grad``."""
    for name, w in m.params.items():
        w -= lr * grads[name]
    if not np.isfinite(np.concatenate([w.ravel() for w in m.params.values()])).all():
        bad = next(n for n, w in m.params.items() if not np.isfinite(w).all())
        raise TrainingError(f"non-finite parameter after update: {bad}")
    return m


def ema_params(teacher: NetModel, student: NetModel, alpha: float) -> NetModel:
    """In-place EMA: teacher <- alpha * teacher + (1 - alpha) * student."""
    for name, w in teacher.params.items():
        w *= alpha
        w += (1.0 - alpha) * student.params[name]
    return teacher


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
# Little-endian binary:
#   magic "RMLCKPT3"
#   u32 len + utf-8 arch descriptor, u32 K, u32 C
#   f64 dropout rate, f64 stochastic-depth survival
#   u32 tensor count, then per tensor:
#     u32 name len + utf-8 name, u8 dtype code, u32 ndim, u32 dims...,
#     data in that dtype
# The dtype codes are the IDX ones: 0x0D f32, 0x0E f64. Model parameters are
# stored under "param/<name>" in their own dtype, so a float32 model comes
# back bit for bit; callers may attach extra named tensors (e.g. a
# prototype bank), stored as f32 if they are f32 and as f64 otherwise. The
# older formats cannot describe the saved model ("RMLCKPT1" had no noise
# fields, "RMLCKPT2" no dtypes) and are rejected.

_DTYPES = {0x0D: np.dtype("<f4"), 0x0E: np.dtype("<f8")}


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    code = 0x0D if np.asarray(arr).dtype == np.float32 else 0x0E
    data = np.ascontiguousarray(arr, dtype=_DTYPES[code])
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack(f"<BI{data.ndim}I", code, data.ndim, *data.shape))
    fh.write(data.tobytes())


def save_checkpoint(path, model: NetModel, extra: dict[str, np.ndarray] | None = None) -> None:
    """Write a model (and optional extra tensors) in the checkpoint format."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        desc = model.arch.descriptor().encode("utf-8")
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(struct.pack("<II", model.num_classes, model.feature_dim))
        fh.write(struct.pack("<dd", model.noise.dropout_rate,
                             model.noise.stochastic_depth_survival))
        extra = extra or {}
        names = [f"param/{k}" for k in sorted(model.params)] + sorted(extra)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            if name.startswith("param/"):
                _write_tensor(fh, name, model.params[name[6:]])
            else:
                _write_tensor(fh, name, extra[name])


class _Reader:
    """Reads the fields of a checkpoint's bytes in order; a field that is cut
    short or is not UTF-8 text is a FormatError that gives its offset."""

    def __init__(self, path, raw: bytes):
        self.path, self.raw, self.pos = path, raw, 0

    def take(self, n: int, what: str) -> bytes:
        if n > len(self.raw) - self.pos:
            raise FormatError(
                f"truncated checkpoint {self.path}: missing {what} at offset {self.pos}")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def text(self, what: str) -> str:
        (n,) = self.unpack("I", f"{what} length")
        at = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} in checkpoint {self.path} is not UTF-8 "
                              f"at offset {at + exc.start}") from None


def load_checkpoint(path):
    """Read a checkpoint; returns ``(NetModel, extra_tensors)``.

    The model has the architecture, noise and params it was saved with, in
    their saved dtype, so its eval and train forwards are the saved model's.
    The params must be those the architecture, K and C name, in their shapes,
    in one dtype and finite.
    """
    try:
        with open(path, "rb") as fh:
            r = _Reader(path, fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    magic = r.take(8, "magic")
    if magic in (b"RMLCKPT1", b"RMLCKPT2"):
        raise FormatError(f"checkpoint {path} has the older {magic.decode()} format, which "
                          "cannot describe the saved model; train the run again")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r} at offset 0 in {path}")
    desc = r.text("descriptor")
    k, c = r.unpack("II", "K/C header")
    noise = NoiseConfig(*r.unpack("dd", "noise header"))
    (count,) = r.unpack("I", "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.text("tensor name")
        (code,) = r.unpack("B", f"dtype code of {name!r}")
        if code not in _DTYPES:
            raise FormatError(f"unknown dtype code {code:#04x} of tensor {name!r} "
                              f"at offset {r.pos - 1} in checkpoint {path}")
        (ndim,) = r.unpack("I", "tensor ndim")
        at = r.pos
        dims = r.unpack(f"{ndim}I", "tensor dims")
        dtype = _DTYPES[code]
        raw = r.take(math.prod(dims) * dtype.itemsize, f"tensor data for {name!r}")
        try:  # an empty tensor may still name more dims or entries than numpy allows
            tensors[name] = np.frombuffer(raw, dtype).astype(dtype.type).reshape(dims)
        except ValueError:
            raise FormatError(f"impossible dims of tensor {name!r} at offset {at} "
                              f"in checkpoint {path}") from None
    arch = re.fullmatch(r"(\w+):in=(\d+):hidden=(\d+):patch=(\d+)", desc)
    if arch is None:
        raise FormatError(f"bad architecture descriptor {desc!r} in checkpoint {path}")
    try:
        spec = ArchSpec(arch[1], *map(int, arch.groups()[1:]))
        noise.validate()
        shapes = _param_shapes(spec, k, c)
    except ConfigError as exc:
        raise FormatError(f"bad model description in checkpoint {path}: {exc}") from None
    params = {n[6:]: t for n, t in tensors.items() if n.startswith("param/")}
    extra = {n: t for n, t in tensors.items() if not n.startswith("param/")}
    if set(params) != set(shapes):
        raise FormatError(f"checkpoint {path} has params {sorted(params)}, but its "
                          f"{desc!r} model with K={k}, C={c} has {sorted(shapes)}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise FormatError(f"param {name} in checkpoint {path} has shape "
                              f"{params[name].shape}, but its model needs {shape}")
    dtypes = sorted({t.dtype.name for t in params.values()})
    if len(dtypes) > 1:
        raise FormatError(f"checkpoint {path} mixes param dtypes {dtypes}")
    for name, t in params.items():   # as sgd_step keeps every trained param
        if not np.isfinite(t).all():
            raise FormatError(f"param {name} in checkpoint {path} is not finite")
    return NetModel(spec, k, c, noise, params), extra
