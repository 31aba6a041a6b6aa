import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rml_lab.augment import mix_label_maps, sample_rect_mask
from rml_lab.errors import StateError
from rml_lab.netcore import build_model, softmax
from rml_lab.protobank import new_bank
from rml_lab.rectify import (
    HardLabels,
    StagePseudoStore,
    denoise,
    harden_with_threshold,
    rectified_labels,
    teacher_predict,
)
from rml_lab.trainer import Learner, RmlConfig, _mix_halves, pseudo_labels

from oracles import float64_copy

WEAK = 0.0  # weak strength 0: the teacher sees clean input


def rand_probs(rng, shape):
    p = rng.random(shape) + 1e-6
    return p / p.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# teacher_predict
# ---------------------------------------------------------------------------


def test_teacher_predict_probabilities_and_determinism():
    teacher = float64_copy(build_model("mlp", K=3, C=4, seed=0, in_channels=2))
    x = np.random.default_rng(0).random((2, 1, 1, 2))
    f1, z1 = teacher_predict(teacher, x, WEAK, np.random.default_rng(1))
    f2, z2 = teacher_predict(teacher, x, WEAK, np.random.default_rng(2))
    np.testing.assert_allclose(softmax(z1).sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(z1, z2)  # weak strength 0 -> pure function
    feats, logits = teacher.forward(x)
    np.testing.assert_array_equal(f1, feats)
    np.testing.assert_array_equal(z1, logits)  # logits, not probabilities


# ---------------------------------------------------------------------------
# harden_with_threshold
# ---------------------------------------------------------------------------


def test_tau_zero_admits_everything():
    rng = np.random.default_rng(0)
    p = rand_probs(rng, (2, 3, 3, 4))
    out = harden_with_threshold(p, 0.0)
    assert np.all(out.valid == 1.0)
    np.testing.assert_array_equal(out.labels, p.argmax(axis=-1))


def test_tie_breaks_to_lowest_class():
    p = np.array([[[[0.5, 0.5]]]])
    out = harden_with_threshold(p, 0.0)
    assert out.labels[0, 0, 0] == 0
    assert out.valid[0, 0, 0] == 1.0


def test_gate_excludes_low_confidence():
    p = np.array([[[[0.5, 0.3, 0.2]]]])
    out = harden_with_threshold(p, 0.6)
    assert out.valid[0, 0, 0] == 0.0


def test_gate_monotone_in_tau():
    rng = np.random.default_rng(1)
    p = rand_probs(rng, (4, 5, 5, 3))
    counts = [harden_with_threshold(p, t).valid.sum() for t in (0.0, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------


def test_uniform_omega_keeps_argmax():
    rng = np.random.default_rng(2)
    p0 = rand_probs(rng, (2, 4, 4, 3))
    omega = np.full_like(p0, 1 / 3)
    out, fallback = denoise(p0, omega, 0.0)
    assert fallback == 0
    np.testing.assert_array_equal(out.labels, p0.argmax(axis=-1))


def test_uniform_p0_takes_argmax_omega():
    rng = np.random.default_rng(3)
    omega = rand_probs(rng, (1, 2, 2, 4))
    p0 = np.full_like(omega, 0.25)
    out, _ = denoise(p0, omega, 0.0)
    np.testing.assert_array_equal(out.labels, omega.argmax(axis=-1))


def test_denoise_flips_label():
    p0 = np.array([[[[0.6, 0.4]]]])
    omega = np.array([[[[0.25, 0.75]]]])
    out, _ = denoise(p0, omega, 0.0)
    # products (0.15, 0.30) pick class 1
    assert out.labels[0, 0, 0] == 1
    assert out.valid[0, 0, 0] == 1.0


def test_denoise_gate_uses_renormalized_product():
    p0 = np.array([[[[0.6, 0.4]]]])
    omega = np.array([[[[0.5, 0.5]]]])
    out, _ = denoise(p0, omega, 0.55)
    assert out.valid[0, 0, 0] == 1.0  # renormalized product equals p0 again
    out2, _ = denoise(p0, omega, 0.65)
    assert out2.valid[0, 0, 0] == 0.0


def test_denoise_zero_product_fallback():
    p0 = np.array([[[[0.7, 0.3, 0.0]]]])
    omega = np.array([[[[0.0, 0.0, 1.0]]]])
    out, fallback = denoise(p0, omega, 0.0)
    assert fallback == 1
    assert out.labels[0, 0, 0] == 0  # argmax p0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_denoise_matches_direct_product_argmax(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    p0 = rand_probs(rng, (2, 3, 3, k))
    omega = rand_probs(rng, (2, 3, 3, k))
    out, fallback = denoise(p0, omega, 0.0)
    assert fallback == 0
    np.testing.assert_array_equal(out.labels, (omega * p0).argmax(axis=-1))


def test_hard_labels_onehot_is_the_label_map():
    rng = np.random.default_rng(3)
    p0, omega = rand_probs(rng, (2, 2, 3, 3, 7))
    for out in (harden_with_threshold(p0, 0.5), denoise(p0, omega, 0.5)[0]):
        assert out.num_classes == 7 and out.labels.dtype.kind == "i"
        onehot = out.onehot
        assert onehot.shape == (2, 3, 3, 7)
        np.testing.assert_array_equal(onehot.argmax(axis=-1), out.labels)
        assert np.all(onehot.sum(axis=-1) == 1.0) and np.all((onehot == 0) | (onehot == 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_denoise_monotone_in_omega(seed):
    rng = np.random.default_rng(seed)
    p0 = rand_probs(rng, (1, 2, 2, 3))
    omega = rand_probs(rng, (1, 2, 2, 3))
    out, _ = denoise(p0, omega, 0.0)
    j = int(rng.integers(0, 3))
    boosted = omega.copy()
    boosted[..., j] *= 4.0
    out2, _ = denoise(p0, boosted, 0.0)
    # raising omega_j never moves the label away from class j
    moved_away = (out.labels == j) & (out2.labels != j)
    assert not moved_away.any()


# ---------------------------------------------------------------------------
# stage store
# ---------------------------------------------------------------------------


def test_store_missing_id():
    store = StagePseudoStore([1], np.full((1, 1, 1, 2), 0.5), stage=0)
    np.testing.assert_array_equal(store.get_batch([1]), store.p0)
    with pytest.raises(StateError, match="image id 2"):
        store.get_batch([1, 2])


def test_store_get_batch_follows_ids():
    rng = np.random.default_rng(4)
    p0 = rand_probs(rng, (3, 2, 2, 3))
    store = StagePseudoStore(np.array([7, 9, 4]), p0, stage=1)
    assert len(store.rows) == 3
    np.testing.assert_array_equal(store.get_batch(np.array([4, 7, 4])),
                                  p0[[2, 0, 2]])


# ---------------------------------------------------------------------------
# rectified CutMix pairs: trainer.pseudo_labels per half, then the trainer's mix
# ---------------------------------------------------------------------------


def build_fixture(seed=0):
    rng = np.random.default_rng(seed)
    teacher = build_model("mlp", K=2, C=3, seed=3, in_channels=2)
    bank = new_bank(2, 3, lam=0.9)
    bank.eta = rng.normal(size=(2, 3))
    bank.seen[:] = True
    x1 = rng.random((1, 2, 2, 2))
    x2 = rng.random((1, 2, 2, 2))
    store = StagePseudoStore([0, 1], rand_probs(rng, (2, 2, 2, 2)), stage=0)
    return teacher, bank, store, x1, x2


def mix_rectified(teacher, bank, store, x1, x2, ids1, ids2, m, seed=0):
    """Rectify both halves as learner 0 of an rml pair, then mix them.

    Returns the mixed labels and each half's ``(labels, feats, fallback)``."""
    learner = Learner(None, teacher, bank, store, None, None, None)
    rng = np.random.default_rng(seed)
    halves = [pseudo_labels(learner, x, ids, RmlConfig(weak_strength=WEAK), rng)
              for x, ids in ((x1, ids1), (x2, ids2))]
    return _mix_halves([y for y, _, _ in halves], m), halves


def test_mix_rectify_full_mask_equals_single_denoise():
    teacher, bank, store, x1, x2 = build_fixture()
    mixed, halves = mix_rectified(teacher, bank, store, x1, x2, [0], [1],
                                  np.ones((2, 2)))
    for got in (halves[0][0], rectified_labels(teacher, x1, [0], bank, store, WEAK, 0.0,
                                               np.random.default_rng(0))[0]):
        np.testing.assert_array_equal(mixed.labels, got.labels)
        np.testing.assert_array_equal(mixed.valid, got.valid)


def test_mix_rectify_same_image_mask_independent():
    teacher, bank, store, x1, _ = build_fixture()
    m1 = sample_rect_mask(2, 2, np.random.default_rng(1))
    m2 = sample_rect_mask(2, 2, np.random.default_rng(5))
    a, _ = mix_rectified(teacher, bank, store, x1, x1, [0], [0], m1)
    b, _ = mix_rectified(teacher, bank, store, x1, x1, [0], [0], m2)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.valid, b.valid)


def test_mix_rectify_composition_oracle():
    teacher, bank, store, x1, x2 = build_fixture(seed=2)
    m = sample_rect_mask(2, 2, np.random.default_rng(2))
    mixed, ((y1, _, _), (y2, _, _)) = mix_rectified(teacher, bank, store, x1, x2,
                                                    [0], [1], m)
    np.testing.assert_array_equal(mixed.labels, mix_label_maps(y1.labels, y2.labels, m))
    np.testing.assert_array_equal(mixed.valid, mix_label_maps(y1.valid, y2.valid, m))
    # label equals the side the mask picked, pixel by pixel
    for r in range(2):
        for c in range(2):
            src = y1 if m[r, c] == 1 else y2
            assert mixed.labels[0, r, c] == src.labels[0, r, c]
            assert mixed.valid[0, r, c] == src.valid[0, r, c]


def test_mix_halves_mixes_labels_and_gates_with_one_mask():
    rng = np.random.default_rng(6)
    halves = [HardLabels(rng.integers(0, 4, (2, 3, 3)),
                         (rng.random((2, 3, 3)) < 0.5).astype(np.float64), 4) for _ in range(2)]
    m = np.stack([sample_rect_mask(3, 3, rng) for _ in range(2)])
    mixed = _mix_halves(halves, m)
    inside = m == 1
    for name in ("labels", "valid"):
        got, a, b = (getattr(y, name) for y in (mixed, *halves))
        np.testing.assert_array_equal(got[inside], a[inside])
        np.testing.assert_array_equal(got[~inside], b[~inside])
    assert mixed.num_classes == 4
    assert _mix_halves(halves[:1], None) is halves[0]


def test_mix_rectify_missing_store_entry():
    teacher, bank, store, x1, x2 = build_fixture()
    with pytest.raises(StateError):
        mix_rectified(teacher, bank, store, x1, x2, [0], [42], np.ones((2, 2)))


def test_teacher_softmax_confidence_path():
    teacher, bank, store, x1, _ = build_fixture()
    out, feats, _ = rectified_labels(teacher, x1, [0], bank, store, WEAK, 0.0,
                                     np.random.default_rng(0),
                                     confidence_source="teacher_softmax")
    _, logits = teacher_predict(teacher, x1, WEAK, np.random.default_rng(0))
    expected, _ = denoise(store.get_batch([0]), softmax(logits), 0.0)
    np.testing.assert_array_equal(out.labels, expected.labels)
    np.testing.assert_array_equal(out.valid, expected.valid)
