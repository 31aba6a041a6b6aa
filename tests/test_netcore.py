import os
import platform
import signal
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from rml_lab import netcore
from rml_lab.augment import photometric
from rml_lab.errors import (
    ConfigError,
    FormatError,
    InputError,
    TrainingError,
)
from rml_lab.netcore import (
    NoiseConfig,
    build_model,
    class_max,
    class_sum,
    ema_params,
    load_checkpoint,
    log_softmax,
    loss_and_gradients,
    save_checkpoint,
    sgd_step,
    softmax,
)
from rml_lab.rectify import teacher_predict

from oracles import cross_entropy, float64_copy, loss_terms, upsample_tokens

NOISY = NoiseConfig(dropout_rate=0.5, stochastic_depth_survival=0.8)


def small_model(kind, seed=0, noise=NoiseConfig()):
    if kind == "mlp":
        return build_model("mlp", K=3, C=4, noise=noise, seed=seed, in_channels=5, hidden=6)
    if kind == "cnn":
        return build_model("cnn", K=3, C=3, noise=noise, seed=seed, in_channels=2)
    return build_model("attn", K=3, C=4, noise=noise, seed=seed, in_channels=2, patch=2)


def small_input(kind, n=2, seed=1):
    rng = np.random.default_rng(seed)
    if kind == "mlp":
        return rng.random((n, 1, 1, 5))
    return rng.random((n, 4, 4, 2))


def fd_gradients(model, x, target, mask, step=1e-4, rng_seed=None):
    """Central finite differences over every parameter entry."""
    grads = {}
    for name, w in model.params.items():
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + step
            rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            (lp,), _ = loss_and_gradients(model, x, [(target, mask)], rng)
            w[idx] = orig - step
            rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            (lm,), _ = loss_and_gradients(model, x, [(target, mask)], rng)
            w[idx] = orig
            g[idx] = (lp - lm) / (2 * step)
            it.iternext()
        grads[name] = g
    return grads


def max_rel_error(ga, gb):
    worst = 0.0
    for name in ga:
        denom = np.maximum(np.maximum(np.abs(ga[name]), np.abs(gb[name])), 1e-6)
        worst = max(worst, float((np.abs(ga[name] - gb[name]) / denom).max()))
    return worst


def label_map(shape_nhw, K, seed=2):
    return np.random.default_rng(seed).integers(0, K, size=shape_nhw)


# ---------------------------------------------------------------------------
# build / forward contracts
# ---------------------------------------------------------------------------


def test_build_deterministic_from_seed():
    a = build_model("mlp", K=10, C=64, seed=7)
    b = build_model("mlp", K=10, C=64, seed=7)
    assert set(a.params) == set(b.params)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    c = build_model("mlp", K=10, C=64, seed=8)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


@pytest.mark.parametrize("kind", ["mlp", "cnn", "attn"])
def test_float32_model_computes_in_float32(kind):
    # dropout and stochastic depth active: one float64 gate, mask, buffer or
    # constant anywhere would silently promote the whole pass to float64
    m = small_model(kind, noise=NOISY)
    assert {w.dtype for w in m.params.values()} == {np.dtype(np.float32)}
    assert m.dtype == np.float32
    x = small_input(kind)   # float64 input is cast to the model's dtype
    feats, logits, cache = netcore._forward(m, x, np.random.default_rng(0), True)
    arrays = [feats, logits] + [v for v in cache.values() if isinstance(v, np.ndarray)]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert softmax(logits).dtype == np.float32
    t = label_map(x.shape[:1] + m_out_hw(m, x), m.num_classes)
    mask = np.ones(t.shape)
    (loss,), grads = loss_and_gradients(m, x, [(t, mask)], rng=np.random.default_rng(0))
    assert np.isfinite(loss)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
    feats, logits = m.forward(x)
    assert feats.dtype == logits.dtype == np.float32


@pytest.mark.parametrize("kind", ["mlp", "cnn", "attn"])
def test_float32_gradients_match_float64(kind):
    # same params, input and draws, so only rounding differs: each gradient
    # within 1e-5 of its largest entry (about 1e-6 is seen at 16x16, batch 4)
    m = build_model(kind, K=6, C=16, noise=NOISY, seed=3, in_channels=3)
    x = np.random.default_rng(4).random((4, 16, 16, 3))
    t = label_map((4, 16, 16), 6)
    _, g32 = loss_and_gradients(m, x, [(t, None)], rng=np.random.default_rng(9))
    _, g64 = loss_and_gradients(float64_copy(m), x, [(t, None)], rng=np.random.default_rng(9))
    for name, g in g64.items():
        assert g.dtype == np.float64
        np.testing.assert_allclose(g32[name], g, rtol=0, atol=1e-5 * np.abs(g).max())


def test_mlp_logit_shape():
    m = build_model("mlp", K=10, C=64, seed=7, in_channels=12)
    _, logits = m.forward(np.random.default_rng(0).random((1, 1, 1, 12)))
    assert logits.shape == (1, 1, 1, 10)


def test_cnn_feature_shape():
    m = build_model("cnn", K=5, C=16, seed=3, in_channels=3)
    feats, logits = m.forward(np.random.default_rng(0).random((1, 8, 8, 3)))
    assert feats.shape == (1, 8, 8, 16)
    assert logits.shape == (1, 8, 8, 5)


def test_attn_feature_shape():
    m = build_model("attn", K=4, C=8, seed=3, in_channels=3, patch=2)
    feats, logits = m.forward(np.random.default_rng(0).random((2, 6, 4, 3)))
    assert feats.shape == (2, 6, 4, 8)
    assert logits.shape == (2, 6, 4, 4)
    # pixels of one patch share their token output
    np.testing.assert_array_equal(logits[0, 0, 0], logits[0, 1, 1])


def test_bad_arch_rejected():
    with pytest.raises(ConfigError):
        build_model("resnet", K=3, C=4)
    with pytest.raises(ConfigError):
        build_model("mlp:widht=3", K=3, C=4)


def test_eval_forward_is_pure():
    for kind in ("mlp", "cnn", "attn"):
        m = small_model(kind, noise=NOISY)
        x = small_input(kind)
        f1, l1 = m.forward(x)
        f2, l2 = m.forward(x)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(f1, f2)


def whole_forward(m, x, rng=None, train=False):
    """``(features, logits)`` per pixel of one unchunked forward: with ``train``,
    what a loss's forward computes."""
    return tuple(netcore.pixels(m, a) for a in netcore._forward(m, x, rng, train)[:2])


def test_noise_off_train_equals_eval():
    for kind in ("mlp", "cnn", "attn"):
        m = small_model(kind, noise=NoiseConfig())
        x = small_input(kind)
        _, lt = whole_forward(m, x, train=True)
        _, le = m.forward(x)
        np.testing.assert_array_equal(lt, le)


def test_dropout_zeroed_fraction_binomial():
    # binomial-proportion oracle: 1e4 units at rate 0.5 -> fraction in 0.5 +/- 0.02
    m = build_model("mlp", K=2, C=10_000, seed=0, in_channels=4, hidden=8,
                    noise=NoiseConfig(dropout_rate=0.5))
    x = np.abs(np.random.default_rng(5).random((1, 1, 1, 4))) + 0.5
    feats, _ = whole_forward(m, x, np.random.default_rng(11), train=True)
    dropped, mask = netcore._dropout(m, feats, np.random.default_rng(11), True)
    frac = float((mask == 0).mean())
    assert abs(frac - 0.5) <= 0.02
    # surviving units are rescaled by 1/keep
    np.testing.assert_allclose(dropped, feats * mask)


def test_stochastic_depth_survival_one_is_identity():
    m = small_model("cnn", noise=NoiseConfig(0.0, 1.0))
    x = small_input("cnn")
    _, lt = whole_forward(m, x, np.random.default_rng(0), train=True)
    _, le = m.forward(x)
    np.testing.assert_array_equal(lt, le)


def test_train_mode_with_noise_requires_rng():
    m = small_model("mlp", noise=NOISY)
    with pytest.raises(InputError):
        whole_forward(m, small_input("mlp"), train=True)


def test_input_shape_errors():
    m = small_model("cnn")
    with pytest.raises(InputError):
        m.forward(np.zeros((1, 4, 4, 7)))
    a = small_model("attn")
    with pytest.raises(InputError):
        a.forward(np.zeros((1, 5, 4, 2)))


def count_chunks(monkeypatch):
    """Record the batch size of every ``_forward`` call."""
    sizes = []
    inner = netcore._forward

    def counted(m, x, *args, **kwargs):
        sizes.append(len(x))
        return inner(m, x, *args, **kwargs)

    monkeypatch.setattr(netcore, "_forward", counted)
    return sizes


@pytest.mark.parametrize("kind", ["cnn", "attn", "mlp"])
def test_eval_forward_chunks_are_bitwise_whole_batch(kind, monkeypatch):
    # 16x16 images: 16 per chunk, and 64 of attn's 8x8 tokens; 37 (148) is no
    # multiple, so the last chunk takes 21 (84)
    per = 4 if kind == "attn" else 1
    m = build_model(kind, K=6, C=16, noise=NOISY, seed=3, in_channels=3)
    x = np.random.default_rng(4).random((37 * per, 16, 16, 3))
    whole_f, whole_l = whole_forward(m, x)
    sizes = count_chunks(monkeypatch)
    feats, logits = m.forward(x)
    assert sorted(sizes) == [16 * per, 21 * per]   # chunks on workers may start in any order
    np.testing.assert_array_equal(feats, whole_f)
    np.testing.assert_array_equal(logits, whole_l)


def test_flattened_mlp_chunks_by_flattened_pixels(monkeypatch):
    # a 28x28 image flattened (as load_dataset gives it) is one pixel: 4096
    # images per chunk, and the remainder joins the last chunk, so no chunk
    # has fewer rows than the whole-batch matmuls would (fewer rows change
    # BLAS summation here)
    m = build_model("mlp", K=10, C=64, noise=NOISY, seed=3, in_channels=784)
    step = netcore.EVAL_CHUNK_ROWS
    x = np.random.default_rng(5).random((2 * step + 3, 1, 1, 784))
    whole_f, whole_l, _ = netcore._forward(m, x, None, False)
    sizes = count_chunks(monkeypatch)
    feats, logits = m.forward(x)
    assert sorted(sizes) == [step, step + 3]
    np.testing.assert_array_equal(feats, whole_f)
    np.testing.assert_array_equal(logits, whole_l)
    sizes.clear()
    m.forward(x[:40])
    assert sizes == [40]


@pytest.mark.parametrize("kind", ["cnn", "attn", "mlp"])
def test_train_forward_is_unchunked(kind, monkeypatch):
    # a loss's train forward is one pass over the whole batch, with the
    # draws of one whole_forward
    m = build_model(kind, K=6, C=16, noise=NOISY, seed=3, in_channels=3)
    x = np.random.default_rng(6).random((37, 16, 16, 3))
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    whole_forward(m, x, rng_a, train=True)
    sizes = count_chunks(monkeypatch)
    loss_and_gradients(m, x, [(label_map((37, 16, 16), 6), None)], rng=rng_b)
    assert sizes == [37]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_eval_forward_frees_each_patch_matrix_after_its_matmul():
    # one 16-image eval chunk at 16x16: each block conv's (4096, 144) float32
    # patch matrix is 2.4 MB, and no two may be alive at once
    m = build_model("cnn", K=6, C=16, seed=3, in_channels=3)
    x = np.random.default_rng(8).random((16, 16, 16, 3)).astype(np.float32)
    m.forward(x)   # a first call may allocate what later calls reuse
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4096 * 144 * 4, peak


def chunked_model(kind, monkeypatch):
    """A noisy model on 16x16x3 images, 16 images a chunk; the flat mlp takes
    them flattened, with the chunk size cut to 16 flattened pixels, and attn
    has it cut to 16 images' 1024 tokens."""
    if kind == "flat-mlp":
        monkeypatch.setattr(netcore, "EVAL_CHUNK_ROWS", 16)
        return build_model("mlp", K=6, C=16, noise=NOISY, seed=3, in_channels=768)
    if kind == "attn":
        monkeypatch.setattr(netcore, "EVAL_CHUNK_ROWS", 1024)
    return build_model(kind, K=6, C=16, noise=NOISY, seed=3, in_channels=3)


@pytest.mark.parametrize("kind", ["cnn", "attn", "mlp", "flat-mlp"])
@pytest.mark.parametrize("n", [10, 37, 48, 85])   # 1, 2 (with a remainder), 3 and 5 chunks
def test_eval_forward_bits_do_not_depend_on_workers(kind, n, monkeypatch):
    m = chunked_model(kind, monkeypatch)
    x = np.random.default_rng(n).random((n, 16, 16, 3))
    if kind == "flat-mlp":
        x = x.reshape(n, 1, 1, 768)
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 0)
    serial_f, serial_l = m.forward(x)
    serial_grid = m.grid_forward(x)[1]
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 3)   # three workers, whatever the CPU count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # threads switch often: more schedules in 10 calls
    try:
        for _ in range(10):
            feats, logits = m.forward(x)
            np.testing.assert_array_equal(feats, serial_f)
            np.testing.assert_array_equal(logits, serial_l)
            chunks = netcore.eval_chunks([m], x, lambda rows, z: z)   # grid logits alone
            assert np.concatenate(chunks).tobytes() == serial_grid.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_release_heap_trims_with_no_pool(monkeypatch):
    # the heap policy is set at import, so on glibc malloc_trim is there before any
    # pool; tests/test_heap.py checks it in a process that never makes one
    assert (netcore._malloc_trim is not None) == (platform.libc_ver()[0] == "glibc")
    trims = []
    monkeypatch.setattr(netcore, "_malloc_trim", None)   # not glibc
    netcore.release_heap()
    monkeypatch.setattr(netcore, "_malloc_trim", trims.append)
    netcore.release_heap()
    assert trims == [0]


@pytest.mark.parametrize("chunks", [1, 2, 5])
def test_eval_workers_are_spare_cpus_capped_by_chunks(chunks, monkeypatch):
    # a single-chunk forward stays on the caller; else at most one worker a chunk
    # beyond the caller's
    submitted = []
    pool = ThreadPoolExecutor(3)

    def submit(fn):
        submitted.append(fn)
        return pool.submit(fn)

    monkeypatch.setattr(netcore, "_eval_pool", lambda: SimpleNamespace(submit=submit))
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 3)
    m = build_model("cnn", K=6, C=16, seed=3, in_channels=3)
    try:
        m.forward(np.zeros((16 * chunks, 16, 16, 3)))
    finally:
        pool.shutdown()
    assert len(submitted) == min(3, chunks - 1)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_spare_cpus_leaves_the_caller_its_cpu():
    assert netcore._spare_cpus() == len(os.sched_getaffinity(0)) - 1


@pytest.mark.parametrize("spare", [0, 3])
def test_eval_forward_with_noise_draws_nothing(spare, monkeypatch):
    # the eval forward passes no generator down, so a draw would be an error
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: spare)
    for kind in ("cnn", "attn", "mlp"):
        m = small_model(kind, noise=NOISY)
        x = np.random.default_rng(1).random((37, 16, 16, 5 if kind == "mlp" else 2))
        _, logits = m.forward(x)
        assert logits.tobytes() == whole_forward(m, x)[1].tobytes()


@pytest.mark.parametrize("kind", ["cnn", "attn", "mlp"])
def test_a_built_noisy_model_runs_every_eval_forward_as_it_is(kind):
    # a model has no mode: fresh from build_model, as a baseline or a student
    # is, it runs each eval forward with the bits of one unchunked eval
    # forward, and teacher_predict draws only photometric's noise from its rng
    m = small_model(kind, noise=NOISY)
    x = small_input(kind, n=5)
    want_f, want_l = whole_forward(m, x)
    feats, logits = m.forward(x)
    assert feats.tobytes() == want_f.tobytes() and logits.tobytes() == want_l.tobytes()
    (chunk,) = netcore.eval_chunks([m], x, lambda rows, z: z)
    assert netcore.pixels(m, chunk).tobytes() == want_l.tobytes()
    rng, replay = np.random.default_rng(2), np.random.default_rng(2)
    f, z = teacher_predict(m, x, 0.5, rng)
    want_f, want_l, _ = netcore._forward(m, photometric(x, 0.5, replay), None, False)
    assert f.tobytes() == want_f.tobytes() and z.tobytes() == want_l.tobytes()
    assert rng.bit_generator.state == replay.bit_generator.state
    # dropout is the identity, and each residual branch is scaled by its survival
    quiet = small_model(kind).forward(x)[1]
    assert np.array_equal(logits, quiet) == (kind == "mlp")


@pytest.mark.parametrize("spare", [0, 3])
def test_eval_chunk_error_reaches_the_caller(spare, monkeypatch):
    # every pixel of image i holds i, so a chunk knows where it starts
    m = build_model("cnn", K=6, C=16, seed=3, in_channels=3)
    x = np.broadcast_to(np.arange(48.0)[:, None, None, None], (48, 16, 16, 3))
    want_f, want_l = m.forward(x)
    inner = netcore._forward

    def failing(model, chunk, *args, **kwargs):
        if chunk[0, 0, 0, 0] == 16:
            raise TrainingError("second chunk")
        return inner(model, chunk, *args, **kwargs)

    monkeypatch.setattr(netcore, "_spare_cpus", lambda: spare)
    monkeypatch.setattr(netcore, "_forward", failing)
    with pytest.raises(TrainingError, match="second chunk"):
        m.forward(x)
    monkeypatch.setattr(netcore, "_forward", inner)
    feats, logits = m.forward(x)
    np.testing.assert_array_equal(feats, want_f)
    np.testing.assert_array_equal(logits, want_l)


def test_worker_error_reaches_the_caller_and_stops_the_rest(monkeypatch):
    # the caller's first chunk waits until the worker has failed; the failure
    # leaves the caller no further chunk, and its error is the one raised
    m = build_model("cnn", K=6, C=16, seed=3, in_channels=3)
    x = np.random.default_rng(2).random((80, 16, 16, 3))   # 5 chunks
    inner = netcore._forward
    failed = threading.Event()
    on_caller = []

    def worker_fails(model, chunk, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise TrainingError("on a worker")
        assert failed.wait(10)
        on_caller.append(len(chunk))
        return inner(model, chunk, *args, **kwargs)

    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 1)
    monkeypatch.setattr(netcore, "_forward", worker_fails)
    with pytest.raises(TrainingError, match="on a worker"):
        m.forward(x)
    assert len(on_caller) <= 1
    monkeypatch.setattr(netcore, "_forward", inner)
    assert m.forward(x)[1].shape == (80, 16, 16, 6)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_runs_eval_chunks_without_its_parents_workers(monkeypatch):
    # the child inherits the pool object but none of its threads; a hang
    # there ends in the alarm's SIGALRM
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 1)
    m = build_model("cnn", K=6, C=16, seed=3, in_channels=3)
    x = np.random.default_rng(3).random((48, 16, 16, 3))
    want = m.forward(x)[1]
    pid = os.fork()
    if pid == 0:   # the child must never return into pytest
        code = 1
        try:
            signal.alarm(20)
            code = 0 if np.array_equal(m.forward(x)[1], want) else 1
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0


# ---------------------------------------------------------------------------
# softmax / cross entropy
# ---------------------------------------------------------------------------


def test_softmax_normalized_and_shift_invariant():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 3, 3, 6)) * 10
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
    p_shift = softmax(logits + 17.3)
    np.testing.assert_allclose(p, p_shift, atol=1e-6)


def class_axis_rows(k, dtype):
    """Random rows over ``k`` classes, with ties, infinities, NaNs and -0."""
    rng = np.random.default_rng(k)
    z = rng.normal(size=(3, 8, k)) * 10
    z[0, 0] = 2.5                           # every class tied
    z[0, 1, -2:] = z[0, 1].max() + 1.0      # two classes tied at the max
    z[0, 2, -1] = np.inf
    z[0, 3, 0] = -np.inf
    z[0, 4] = -np.inf
    z[0, 5, 1] = np.nan
    z[0, 6] = -0.0
    z[1] = np.nan
    return z.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 6, 10])
def test_class_axis_max_gives_the_bits_of_the_max_reduction(dtype, k):
    z = class_axis_rows(k, dtype)
    want = z.max(axis=-1, keepdims=True)
    got = class_max(z)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.isnan(got[1]).all() and np.isnan(got[0, 5]).all()
    with np.errstate(invalid="ignore"):
        zs = z - want
        e = np.exp(zs)
        assert softmax(z).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
        ref = zs - np.log(e.sum(axis=-1, keepdims=True))
        assert log_softmax(z).tobytes() == ref.tobytes()
        assert np.isnan(softmax(z)[1]).all() and np.isnan(log_softmax(z)[1]).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 6, 7, 10])
def test_class_axis_sum_gives_the_bits_of_the_sum_reduction(dtype, k):
    z = class_axis_rows(k, dtype)
    z[0, 7] = 0.0
    z[0, 7, ::2] = -0.0                     # +0 and -0 mixed
    z[0, 2, 0] = -np.inf                    # inf - inf
    z[2, :, 1:] = np.finfo(dtype).max       # overflow
    with np.errstate(invalid="ignore", over="ignore"):
        want = z.sum(axis=-1, keepdims=True)
        got = class_sum(z)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        big = np.random.default_rng(k).normal(size=(4, 16, 16, k)).astype(dtype)
        assert class_sum(big).tobytes() == big.sum(axis=-1, keepdims=True).tobytes()


def test_cross_entropy_exact_match_is_zero():
    t = np.eye(4)[np.array([[0, 1], [2, 3]])][None]
    assert cross_entropy(t, t) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_is_log_k():
    p = np.full((1, 2, 2, 4), 0.25)
    t = np.eye(4)[label_map((1, 2, 2), 4)]
    assert cross_entropy(p, t) == pytest.approx(np.log(4), rel=1e-12)


def test_cross_entropy_rejects_unnormalized():
    t = np.eye(4)[label_map((1, 1, 1), 4)]
    with pytest.raises(InputError):
        cross_entropy(np.full((1, 1, 1, 4), 0.3), t)


def test_all_masked_returns_zero_loss_and_grads():
    m = small_model("mlp")
    x = small_input("mlp")
    t = label_map((2, 1, 1), 3)
    losses, grads = loss_and_gradients(m, x, [(t, np.zeros((2, 1, 1)))])
    assert losses == [0.0]
    assert all(np.all(g == 0) for g in grads.values())


def test_masked_pixels_do_not_contribute():
    m = small_model("cnn")
    x = small_input("cnn")
    t = label_map((2, 4, 4), 3)
    mask = np.ones((2, 4, 4))
    mask[1] = 0
    (loss_m,), _ = loss_and_gradients(m, x, [(t, mask)])
    (loss_0,), _ = loss_and_gradients(m, x[:1], [(t[:1], mask[:1])])
    assert loss_m == pytest.approx(loss_0, rel=1e-12)


def test_every_term_target_is_checked():
    # a bad pseudo-label term is refused as the second term too
    m = small_model("cnn")
    x = small_input("cnn")
    t = label_map((2, 4, 4), 3)
    mask = np.ones((2, 4, 4))
    for bad in (t.astype(np.float64), t - 1, t + 1, np.full_like(t, 3)):
        with pytest.raises(InputError, match=r"integer classes in \[0, 3\)"):
            loss_and_gradients(m, x, [(t, mask), (bad, mask)])
    with pytest.raises(InputError, match="mask shape"):
        loss_and_gradients(m, x, [(t, mask), (t, mask[:1])])
    with pytest.raises(InputError, match="labels shape"):
        loss_and_gradients(m, x, [(t, mask), (t[:1], mask)])
    with pytest.raises(InputError, match="labels shape"):   # the one-hot form is refused
        loss_and_gradients(m, x, [(np.eye(3)[t], mask)])


def test_terms_sum_their_losses_and_gradients():
    m = float64_copy(small_model("cnn"))
    x = small_input("cnn")
    rng = np.random.default_rng(2)
    t1 = label_map((2, 4, 4), 3)
    t2 = rng.integers(0, 3, (2, 4, 4))
    m1 = (rng.random((2, 4, 4)) < 0.6).astype(np.float64)
    m2 = (rng.random((2, 4, 4)) < 0.6).astype(np.float64)
    losses, grads = loss_and_gradients(m, x, [(t1, m1), (t2, m2)])
    (l1,), g1 = loss_and_gradients(m, x, [(t1, m1)])
    (l2,), g2 = loss_and_gradients(m, x, [(t2, m2)])
    assert losses == [l1, l2]
    for name in m.params:
        np.testing.assert_allclose(grads[name], g1[name] + g2[name], rtol=1e-12,
                                   atol=1e-15)


@pytest.mark.parametrize("n_terms", [1, 2])
def test_loss_and_logit_gradient_give_the_bits_of_the_reduction_formulas(n_terms, monkeypatch):
    # the gathered loss and p - 1 at the label against the one-hot formulas,
    # through the pairwise class sum (K >= 8) and on 1x1 maps too; a 2-term
    # loss also runs with either term's mask all zero
    seen = []
    inner = netcore._backward
    monkeypatch.setattr(netcore, "_backward",
                        lambda m, cache, dlogits: seen.append(dlogits) or inner(m, cache, dlogits))
    for k in (2, 6, 7, 10):
        for hw in (16, 1):
            if hw == 1:
                m = build_model("mlp", K=k, C=8, seed=k, in_channels=12, hidden=16)
                x = np.random.default_rng(k).random((16, 1, 1, 12))
            else:
                m = build_model("attn", K=k, C=8, seed=k, in_channels=3, patch=2)
                x = np.random.default_rng(k).random((4, 16, 16, 3))
            nhw = x.shape[:1] + (hw, hw)
            for empty in (None,) if n_terms == 1 else (None, 0, 1):
                rng = np.random.default_rng(8 + k)
                terms = [(rng.integers(0, k, nhw), (rng.random(nhw) < 0.7).astype(np.float64))
                         for _ in range(n_terms)]
                if empty is not None:
                    terms[empty] = (terms[empty][0], np.zeros(nhw))
                seen.clear()
                losses, _ = loss_and_gradients(m, x, terms)
                _, logits = whole_forward(m, x)   # no noise: the loss's own forward
                want_losses, want_dlogits = loss_terms(logits, terms)
                assert losses == want_losses
                (dlogits,) = seen
                assert dlogits.dtype == np.float32
                assert dlogits.tobytes() == want_dlogits.tobytes()


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_attn_pixels_are_their_tokens_repeated(train):
    m = build_model("attn", K=5, C=4, noise=NOISY, seed=2, in_channels=2, patch=2)
    x = np.random.default_rng(3).random((3, 4, 6, 2))
    feats, logits, cache = netcore._forward(m, x, np.random.default_rng(4), train)
    th, tw = feats.shape[1:3]
    assert (th, tw) == (2, 3)
    z, tok = (a.reshape(3, th * tw, -1) for a in (feats, logits))
    if train:   # the tokens the backward takes
        assert cache["tshape"] == (th, tw)
        assert_same_bits(z, cache["z"])
        assert_same_bits(tok, cache["fdrop"] @ m.params["head_w"] + m.params["head_b"])
    assert_same_bits(netcore.pixels(m, feats), upsample_tokens(z, th, tw, 2))
    assert_same_bits(netcore.pixels(m, logits), upsample_tokens(tok, th, tw, 2))


# ---------------------------------------------------------------------------
# gradient checks (finite-difference oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["mlp", "cnn", "attn"])
def test_gradients_match_finite_differences(kind):
    m = float64_copy(small_model(kind, seed=4))
    x = small_input(kind, seed=6)
    t = label_map(x.shape[:1] + m_out_hw(m, x), m.num_classes)
    mask = np.ones(t.shape)
    mask.flat[0] = 0.0  # exercise masking in the gradient too
    _, grads = loss_and_gradients(m, x, [(t, mask)])
    fd = fd_gradients(m, x, t, mask)
    assert max_rel_error(grads, fd) <= 1e-4


def m_out_hw(m, x):
    return (1, 1) if m.arch.kind == "mlp" and x.shape[1] == 1 else x.shape[1:3]


def test_gradients_with_noise_active_match_fd():
    # same rng seed per evaluation makes the noisy loss deterministic
    m = float64_copy(small_model("mlp", noise=NOISY))
    x = small_input("mlp")
    t = label_map((2, 1, 1), 3)
    _, grads = loss_and_gradients(m, x, [(t, None)], rng=np.random.default_rng(9))
    fd = fd_gradients(m, x, t, None, rng_seed=9)
    assert max_rel_error(grads, fd) <= 1e-4


# ---------------------------------------------------------------------------
# 3x3 conv against the im2col/col2im reference
# ---------------------------------------------------------------------------
# The forward and the weight gradient sum in the reference's order, so they
# are bitwise equal. The input gradient is a conv of dy with the flipped
# kernel and the bias gradient a BLAS product with a ones vector, so both
# sum in another order: they are held to REL_TOL of the largest reference
# entry, about 5e3 float64 ulps.

REL_TOL = 1e-12


def ref_im2col3(x):
    n, h, w, ci = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((n, h, w, 3, 3, ci))
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, di, dj, :] = xp[:, di:di + h, dj:dj + w, :]
    return cols


def ref_col2im3(dcols):
    n, h, w, _, _, ci = dcols.shape
    dxp = np.zeros((n, h + 2, w + 2, ci))
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += dcols[:, :, :, di, dj, :]
    return dxp[:, 1:-1, 1:-1, :]


def ref_conv3(x, w, b):
    n, h, wd, ci = x.shape
    cols = ref_im2col3(x)
    y = cols.reshape(n * h * wd, 9 * ci) @ w + b
    return y.reshape(n, h, wd, -1), cols


def ref_conv3_back(dy, cols, w):
    n, h, wd, _, _, ci = cols.shape
    dy2 = dy.reshape(n * h * wd, -1)
    dw = cols.reshape(n * h * wd, 9 * ci).T @ dy2
    db = dy2.sum(axis=0)
    dcols = (dy2 @ w.T).reshape(n, h, wd, 3, 3, ci)
    return ref_col2im3(dcols), dw, db


def ref_cnn_backward(m, cache, dlogits):
    """The cnn backward on the reference conv, patch matrices rebuilt from
    the cached conv inputs."""
    p = m.params
    g = {}
    dfdrop, g["head_w"], g["head_b"] = netcore._pixelwise_back(dlogits, cache["fdrop"], p["head_w"])
    dfeats = dfdrop if cache["dmask"] is None else dfdrop * cache["dmask"]
    db1 = dfeats.copy()
    dc3 = dfeats * cache["g2"]
    dr2, g["block2_w"], g["block2_b"] = ref_conv3_back(dc3, ref_im2col3(cache["r2"]), p["block2_w"])
    db1 += dr2 * (cache["b1"] > 0)
    dh0 = db1.copy()
    dc2 = db1 * cache["g1"]
    dh0_branch, g["block1_w"], g["block1_b"] = ref_conv3_back(
        dc2, ref_im2col3(cache["h0"]), p["block1_w"])
    dh0 += dh0_branch
    dc1 = dh0 * (cache["c1"] > 0)
    _, g["conv1_w"], g["conv1_b"] = ref_conv3_back(dc1, ref_im2col3(cache["x"]), p["conv1_w"])
    return g


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def assert_close_to_reference(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


def conv3_against_reference(n, hw, ci, co):
    """``{name: (got, reference)}`` for the conv forward and backward."""
    rng = np.random.default_rng(n * 1000 + ci * 10 + co)
    x = rng.standard_normal((n, *hw, ci))
    w = rng.standard_normal((9 * ci, co))
    b = rng.standard_normal(co)
    dy = rng.standard_normal((n, *hw, co))
    y_ref, cols_ref = ref_conv3(x, w, b)
    dx_ref, dw_ref, db_ref = ref_conv3_back(dy, cols_ref, w)
    y, cols = netcore._conv3(x, w, b)
    dw, db = netcore._conv3_grads(dy, cols)
    return {"y": (y, y_ref), "cols": (cols, cols_ref), "dw": (dw, dw_ref),
            "db": (db, db_ref), "dx": (netcore._conv3_dx(dy, w), dx_ref)}


@pytest.mark.parametrize("n", [1, 4, 17])
@pytest.mark.parametrize("hw", [(1, 1), (5, 7), (16, 16)])
@pytest.mark.parametrize("ci,co", [(1, 4), (3, 16), (16, 8)])
def test_conv3_bitwise_equals_reference(n, hw, ci, co):
    pairs = conv3_against_reference(n, hw, ci, co)
    for name in ("y", "cols", "dw"):
        assert_same_bits(*pairs[name])


@pytest.mark.parametrize("n", [1, 4, 17])
@pytest.mark.parametrize("hw", [(1, 1), (5, 7), (16, 16)])
@pytest.mark.parametrize("ci,co", [(1, 4), (3, 16), (16, 8)])
def test_conv3_input_and_bias_gradients_match_reference(n, hw, ci, co):
    pairs = conv3_against_reference(n, hw, ci, co)
    for name in ("dx", "db"):
        assert_close_to_reference(*pairs[name])


def test_cnn_gradients_match_reference_backward(monkeypatch):
    seen = []
    inner = netcore._backward

    def spy(m, cache, dlogits):
        seen.append((cache, dlogits))
        return inner(m, cache, dlogits)

    monkeypatch.setattr(netcore, "_backward", spy)
    # the reference conv computes in float64
    m = float64_copy(build_model("cnn", K=6, C=16, noise=NOISY, seed=3, in_channels=3))
    x = np.random.default_rng(4).random((4, 16, 16, 3))
    t = label_map((4, 16, 16), 6)
    mask = (np.random.default_rng(5).random((4, 16, 16)) < 0.7).astype(np.float64)
    _, grads = loss_and_gradients(m, x, [(t, mask)], rng=np.random.default_rng(7))
    (cache, dlogits), = seen
    ref = ref_cnn_backward(m, cache, dlogits)
    assert set(grads) == set(ref) == set(m.params)
    for name in ref:
        assert_close_to_reference(grads[name], ref[name])


# ---------------------------------------------------------------------------
# sgd / ema
# ---------------------------------------------------------------------------


def test_sgd_zero_lr_is_identity():
    m = small_model("mlp")
    before = {k: v.copy() for k, v in m.params.items()}
    grads = {k: np.ones_like(v) for k, v in m.params.items()}
    sgd_step(m, grads, 0.0)
    for k in before:
        np.testing.assert_array_equal(m.params[k], before[k])


def test_sgd_scalar_rule():
    m = small_model("mlp")
    m.params["fc1_b"][0] = 1.0
    grads = m.zero_grads()
    grads["fc1_b"][0] = 0.5
    sgd_step(m, grads, 0.1)
    assert m.params["fc1_b"][0] == pytest.approx(0.95)


def test_sgd_two_steps_linear():
    m1 = float64_copy(small_model("mlp", seed=3))
    m2 = m1.clone()
    grads = {k: np.full_like(v, 0.25) for k, v in m1.params.items()}
    sgd_step(m1, grads, 0.1)
    sgd_step(m1, grads, 0.1)
    sgd_step(m2, grads, 0.2)
    for k in m1.params:
        np.testing.assert_allclose(m1.params[k], m2.params[k], atol=1e-12)


def test_sgd_names_the_first_non_finite_parameter():
    m = small_model("mlp")
    grads = m.zero_grads()
    grads["fc2_b"][1] = np.nan
    grads["head_w"][0, 0] = np.inf
    with pytest.raises(TrainingError, match=r"^non-finite parameter after update: fc2_b$"):
        sgd_step(m, grads, 0.1)


def test_ema_alpha_one_keeps_teacher():
    t = small_model("mlp", seed=1)
    s = small_model("mlp", seed=2)
    before = {k: v.copy() for k, v in t.params.items()}
    ema_params(t, s, 1.0)
    for k in before:
        np.testing.assert_array_equal(t.params[k], before[k])


def test_ema_scalar_rule():
    t = small_model("mlp", seed=1)
    s = small_model("mlp", seed=2)
    t.params["fc1_b"][:] = 1.0
    s.params["fc1_b"][:] = 0.0
    ema_params(t, s, 0.99)
    np.testing.assert_allclose(t.params["fc1_b"], 0.99)


def test_ema_geometric_decay_oracle():
    # frozen student: |teacher_t - student| = alpha^t * |teacher_0 - student|
    t = float64_copy(small_model("mlp", seed=1))
    s = float64_copy(small_model("mlp", seed=2))
    alpha = 0.97
    diff0 = {k: t.params[k] - s.params[k] for k in t.params}
    for step in range(100):
        ema_params(t, s, alpha)
    for k in t.params:
        expected = s.params[k] + (alpha ** 100) * diff0[k]
        np.testing.assert_allclose(t.params[k], expected, rtol=1e-9, atol=1e-15)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    # the whole model comes back: arch, sizes, noise and bitwise params in
    # their own dtype (float32 as built, float64 once cast); f64 extras stay f64
    extra = {"bank/eta": np.random.default_rng(0).normal(size=(2, 3))}
    for kind in ("mlp", "cnn", "attn"):
        built = small_model(kind, seed=12, noise=NOISY)
        for m in (built, float64_copy(built)):
            path = tmp_path / f"{kind}-{m.dtype}.ckpt"
            save_checkpoint(path, m, extra)
            assert path.read_bytes()[:8] == b"RMLCKPT3"
            loaded, extras = load_checkpoint(path)
            assert loaded.arch == m.arch
            assert loaded.num_classes == m.num_classes
            assert loaded.feature_dim == m.feature_dim
            assert loaded.noise == NOISY
            assert set(loaded.params) == set(m.params)
            for k in m.params:
                assert loaded.params[k].dtype == m.params[k].dtype
                assert loaded.params[k].tobytes() == m.params[k].tobytes()
            assert extras["bank/eta"].dtype == np.float64
            assert extras["bank/eta"].tobytes() == extra["bank/eta"].tobytes()
            x = small_input(kind)
            assert m.forward(x)[1].tobytes() == loaded.forward(x)[1].tobytes()
    # a float32 model's params take 4 bytes an entry on disk
    f32, f64 = (tmp_path / f"attn-{t}.ckpt" for t in ("float32", "float64"))
    numel = sum(w.size for w in built.params.values())
    assert f64.stat().st_size - f32.stat().st_size == 4 * numel


@pytest.mark.parametrize("kind", ["mlp", "cnn", "attn"])
def test_a_loaded_model_trains_with_the_noise_of_the_built_one(kind, tmp_path):
    # loss_and_gradients draws the loaded model's dropout and stochastic-depth
    # noise from its rng, as it does the model that was saved
    built = small_model(kind, seed=5, noise=NOISY)
    save_checkpoint(tmp_path / "m.ckpt", built)
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    x = small_input(kind, n=4)
    terms = [(label_map(x.shape[:1] + m_out_hw(built, x), 3), None)]
    runs = []
    for m in (built, loaded, small_model(kind, seed=5)):
        rng = np.random.default_rng(7)
        losses, grads = loss_and_gradients(m, x, terms, rng=rng)
        runs.append((losses, [g.tobytes() for g in grads.values()], rng.bit_generator.state))
    assert runs[1] == runs[0]
    assert runs[0][2] != runs[2][2]   # the noise drew, where the quiet model's forward did not
    assert runs[0][:2] != runs[2][:2]


def test_v1_checkpoint_is_rejected_as_an_older_format(tmp_path):
    # RMLCKPT1 stored no noise and RMLCKPT2 no dtypes, so neither can give
    # back the saved model
    m = small_model("cnn", seed=12)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, m)
    blob = path.read_bytes()
    for magic in ("RMLCKPT1", "RMLCKPT2"):
        path.write_bytes(magic.encode() + blob[8:])
        with pytest.raises(FormatError, match=f"older {magic} format.*train the run again"):
            load_checkpoint(path)


def tensor_offset(blob: bytes, name: str) -> int:
    """Offset of a tensor record (its name length) in a checkpoint."""
    return blob.index(name.encode()) - 4


def rewrite_tensor(path, name: str, new_name: str | None = None, array=None) -> None:
    """Rename a checkpoint's tensor or replace its array, keeping every other byte."""
    blob = path.read_bytes()
    at = tensor_offset(blob, name)
    head = at + 4 + len(name)   # dtype code, ndim, dims, data
    code, ndim = struct.unpack_from("<BI", blob, head)
    dims = struct.unpack_from(f"<{ndim}I", blob, head + 5)
    end = head + 5 + 4 * ndim + int(np.prod(dims)) * (4 if code == 0x0D else 8)
    body = blob[head:end] if array is None else (
        struct.pack(f"<BI{array.ndim}I", 0x0D if array.dtype == np.float32 else 0x0E,
                    array.ndim, *array.shape)
        + array.astype(array.dtype.newbyteorder("<")).tobytes())
    new = (new_name or name).encode()
    path.write_bytes(blob[:at] + struct.pack("<I", len(new)) + new + body + blob[end:])


@pytest.mark.parametrize("fault, match", [
    (dict(new_name="param/block1_x"), "has params"),
    (dict(array=np.zeros((30, 3), np.float32)), "block1_w .* has shape \\(30, 3\\)"),
    (dict(array=np.zeros((27, 3), np.float64)), "mixes param dtypes"),
], ids=["renamed", "30 rows", "float64"])
def test_checkpoint_params_must_fit_their_model(tmp_path, fault, match):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model("cnn", seed=12))
    rewrite_tensor(path, "param/block1_w", **fault)
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


def test_checkpoint_unknown_dtype_code_is_a_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model("cnn", seed=12))
    blob = bytearray(path.read_bytes())
    at = tensor_offset(blob, "param/block1_b") + 4 + len("param/block1_b")
    assert blob[at] == 0x0D
    blob[at] = 0x0C   # int32 in IDX, not a checkpoint dtype
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"unknown dtype code 0x0c .* offset {at}"):
        load_checkpoint(path)


@pytest.mark.parametrize("noise", [(0.5, 1.5), (-0.1, 0.8), (float("nan"), 1.0)])
def test_checkpoint_with_bad_noise_is_a_format_error(tmp_path, noise):
    m = small_model("cnn", seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    blob = bytearray(path.read_bytes())
    at = 8 + 4 + len(m.arch.descriptor()) + 8
    blob[at:at + 16] = struct.pack("<dd", *noise)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="out of"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncation_reports_offset(tmp_path):
    m = small_model("mlp", seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError, match="offset"):
        load_checkpoint(path)


@pytest.mark.parametrize("desc", [b"rnn:in=3:hidden=64:patch=2", b"cnn:in=3:hidden=64:patch=0",
                                  b"cnn:in=3:widht=64:patch=2"])
def test_checkpoint_with_bad_architecture_is_a_format_error(tmp_path, desc):
    m = small_model("cnn", seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    old = m.arch.descriptor().encode()
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<I", len(desc)) + desc + blob[12 + len(old):])
    with pytest.raises(FormatError, match="checkpoint"):
        load_checkpoint(path)
