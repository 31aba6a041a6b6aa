import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rml_lab import protobank
from rml_lab.data import Dataset
from rml_lab.errors import InputError, StateError
from rml_lab.netcore import build_model
from rml_lab.protobank import (
    PrototypeBank,
    bank_from_tensors,
    bank_tensors,
    batch_prototypes,
    confidence_weights,
    init_bank,
    new_bank,
    update_bank,
)

from oracles import class_sums_per_dim, confidence_weights_expanded


def direct_posterior(z, eta, pi, seen):
    """Brute-force mixture posterior with Euclidean distances."""
    w = np.zeros(len(eta))
    for k in range(len(eta)):
        if seen[k]:
            w[k] = pi[k] * np.exp(-np.linalg.norm(z - eta[k]))
    return w / w.sum()


# ---------------------------------------------------------------------------
# batch prototypes
# ---------------------------------------------------------------------------


def test_single_class_batch():
    feats = np.random.default_rng(0).random((1, 4, 4, 3))
    assign = np.full((1, 4, 4), 2)
    eta, present = batch_prototypes(feats, assign, k=4)
    np.testing.assert_allclose(eta[2], feats.reshape(-1, 3).mean(axis=0))
    np.testing.assert_array_equal(present, [False, False, True, False])


def test_empty_class_not_present():
    feats = np.zeros((1, 2, 2, 2))
    assign = np.zeros((1, 2, 2), dtype=int)
    _, present = batch_prototypes(feats, assign, k=3)
    assert not present[1] and not present[2]


def test_batch_prototypes_exhaustive_mean_oracle():
    rng = np.random.default_rng(3)
    feats = rng.random((2, 4, 4, 5))
    assign = rng.integers(0, 3, (2, 4, 4))
    eta, present = batch_prototypes(feats, assign, k=3)
    for k in range(3):
        sel = [feats[i, r, c] for i in range(2) for r in range(4) for c in range(4)
               if assign[i, r, c] == k]
        if not sel:
            assert not present[k]
        else:
            np.testing.assert_allclose(eta[k], np.mean(sel, axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# momentum update
# ---------------------------------------------------------------------------


def test_update_rule_scalar():
    bank = new_bank(2, 1, lam=0.9)
    bank.eta[:] = 1.0
    bank.seen[:] = True
    update_bank(bank, np.zeros((2, 1)), np.array([True, True]))
    np.testing.assert_allclose(bank.eta, 0.9)


def test_absent_row_unchanged():
    bank = new_bank(2, 1, lam=0.5)
    bank.eta[:] = 1.0
    bank.seen[:] = True
    update_bank(bank, np.full((2, 1), 5.0), np.array([True, False]))
    assert bank.eta[0, 0] == pytest.approx(3.0)
    assert bank.eta[1, 0] == 1.0


def test_fresh_row_adopted_outright():
    bank = new_bank(2, 1, lam=0.99)
    bank.eta[0] = 1.0
    bank.seen[0] = True
    update_bank(bank, np.array([[0.0], [4.0]]), np.array([False, True]))
    assert bank.eta[1, 0] == 4.0
    assert bank.seen[1]


def test_geometric_decay_oracle():
    bank = new_bank(1, 3, lam=0.8)
    bank.eta[0] = np.array([5.0, -2.0, 1.0])
    bank.seen[:] = True
    target = np.array([[1.0, 1.0, 1.0]])
    diff0 = bank.eta[0] - target[0]
    for t in range(1, 21):
        update_bank(bank, target, np.array([True]))
        np.testing.assert_allclose(bank.eta[0] - target[0], (0.8 ** t) * diff0,
                                   rtol=1e-9, atol=1e-12)


def test_update_equals_brute_force_ewma():
    rng = np.random.default_rng(7)
    lam = 0.7
    bank = new_bank(1, 2, lam=lam)
    bank.eta[0] = rng.random(2)
    bank.seen[:] = True
    eta0 = bank.eta[0].copy()
    batches = [rng.random(2) for _ in range(20)]
    for b in batches:
        update_bank(bank, b[None], np.array([True]))
    expected = eta0 * lam ** len(batches)
    for i, b in enumerate(batches):
        expected = expected + (1 - lam) * lam ** (len(batches) - 1 - i) * b
    np.testing.assert_allclose(bank.eta[0], expected, atol=1e-9)


# ---------------------------------------------------------------------------
# init from datasets
# ---------------------------------------------------------------------------


def make_ds(images, labels):
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(images, labels, np.arange(len(images), dtype=np.int64))


def test_init_bank_matches_brute_force():
    model = build_model("cnn", K=3, C=4, seed=1, in_channels=2)
    rng = np.random.default_rng(0)
    labeled = make_ds(rng.random((2, 4, 4, 2)), rng.integers(0, 3, (2, 4, 4)))
    unlabeled = make_ds(rng.random((1, 4, 4, 2)), np.zeros((1, 4, 4)))
    bank = init_bank(model, labeled, unlabeled, k=3, lam=0.9)
    # brute force: labeled pixels by gt, unlabeled pixels by model argmax
    fl, _ = model.forward(labeled.images.astype(np.float64))
    fu, lu = model.forward(unlabeled.images.astype(np.float64))
    # the bank sums the model's float32 features in float64
    feats = np.concatenate([fl.reshape(-1, 4), fu.reshape(-1, 4)]).astype(np.float64)
    assign = np.concatenate([labeled.labels.ravel(), lu.argmax(-1).ravel()])
    for k in range(3):
        if (assign == k).any():
            assert bank.seen[k]
            np.testing.assert_allclose(bank.eta[k], feats[assign == k].mean(axis=0),
                                       atol=1e-10)
        else:
            assert not bank.seen[k]


def test_init_bank_constant_features_give_that_value():
    # pixelwise mlp on constant input -> identical features everywhere
    model = build_model("mlp", K=2, C=3, seed=0, in_channels=2)
    imgs = np.full((2, 2, 2, 2), 0.5)
    labeled = make_ds(imgs, np.zeros((2, 2, 2)))
    unlabeled = make_ds(np.zeros((0, 2, 2, 2)), np.zeros((0, 2, 2)))
    bank = init_bank(model, labeled, unlabeled, k=2, lam=0.9)
    feats, _ = model.forward(imgs.astype(np.float64))
    np.testing.assert_allclose(bank.eta[0], feats[0, 0, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# confidence weights
# ---------------------------------------------------------------------------


def test_equidistant_gives_uniform():
    bank = new_bank(3, 2, lam=0.9)
    bank.eta = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    bank.seen[:] = True
    # the origin is distance 1 from each prototype
    w = confidence_weights(np.zeros((1, 1, 1, 2)), bank)
    np.testing.assert_allclose(w, 1 / 3, atol=1e-12)


def test_closed_form_two_class():
    bank = new_bank(2, 1, lam=0.9)
    bank.eta = np.array([[0.0], [np.log(3.0)]])
    bank.seen[:] = True
    w = confidence_weights(np.zeros((1, 1, 1, 1)), bank)
    np.testing.assert_allclose(w[0, 0, 0], [0.75, 0.25], atol=1e-12)


def test_matches_direct_formula():
    rng = np.random.default_rng(5)
    bank = new_bank(3, 4, lam=0.9)
    bank.eta = rng.normal(size=(3, 4))
    bank.seen[:] = True
    feats = rng.normal(size=(1, 1, 5, 4))
    w = confidence_weights(feats, bank)
    for p in range(5):
        ref = direct_posterior(feats[0, 0, p], bank.eta, bank.pi, bank.seen)
        np.testing.assert_allclose(w[0, 0, p], ref, atol=1e-10)


def test_unseen_class_gets_zero_and_renormalizes():
    bank = new_bank(3, 2, lam=0.9)
    bank.eta = np.array([[0.0, 0.0], [1.0, 0.0], [9.9, 9.9]])
    bank.seen = np.array([True, True, False])
    w = confidence_weights(np.zeros((1, 1, 1, 2)), bank)
    assert w[0, 0, 0, 2] == 0.0
    assert w[0, 0, 0].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w[0, 0, 0, :2] > 0)


def test_too_few_seen_classes():
    bank = new_bank(3, 2, lam=0.9)
    bank.seen = np.array([True, False, False])
    with pytest.raises(StateError):
        confidence_weights(np.zeros((1, 1, 1, 2)), bank)


def test_feature_dim_mismatch():
    bank = new_bank(2, 3, lam=0.9)
    bank.seen[:] = True
    with pytest.raises(InputError):
        confidence_weights(np.zeros((1, 1, 1, 2)), bank)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_confidence_properties(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    c = int(rng.integers(1, 5))
    bank = new_bank(k, c, lam=0.9)
    bank.eta = rng.normal(size=(k, c))
    bank.seen[:] = True
    feats = rng.normal(size=(2, 3, 3, c))
    w = confidence_weights(feats, bank)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(w > 0) and np.all(w < 1)
    # translation equivariance: shift features and prototypes together
    shift = rng.normal(size=c)
    bank2 = bank.copy()
    bank2.eta = bank.eta + shift
    w2 = confidence_weights(feats + shift, bank2)
    np.testing.assert_allclose(w, w2, atol=1e-6)
    # uniform-pi rescaling cancels
    bank3 = bank.copy()
    bank3.pi = bank.pi * 7.0
    np.testing.assert_allclose(w, confidence_weights(feats, bank3), atol=1e-9)


def test_bank_tensor_roundtrip():
    bank = new_bank(3, 2, lam=0.95)
    bank.eta = np.arange(6, dtype=np.float64).reshape(3, 2)
    bank.seen = np.array([True, False, True])
    back = bank_from_tensors(bank_tensors(bank))
    np.testing.assert_array_equal(back.eta, bank.eta)
    np.testing.assert_array_equal(back.seen, bank.seen)
    assert back.lam == pytest.approx(bank.lam)


# ---------------------------------------------------------------------------
# the one-bincount sums and the in-place confidence chain keep their bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pixels", [3072, 16384])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_class_sums_give_the_bits_of_one_bincount_per_dim(pixels, dtype):
    rng = np.random.default_rng(pixels)
    feats = rng.normal(size=(pixels // 256, 16, 16, 16)).astype(dtype)
    assign = rng.integers(0, 6, size=feats.shape[:-1])
    assign[assign == 3] = 4   # class 3 absent
    sums, counts = protobank._class_sums(feats, assign, 6)
    want_sums, want_counts = class_sums_per_dim(feats, assign, 6)
    assert sums.shape == want_sums.shape == (6, 16) and counts[3] == 0
    assert sums.tobytes() == want_sums.tobytes()
    assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("unseen", [None, 2])
def test_confidence_weights_give_the_bits_of_the_expanded_formula(unseen):
    rng = np.random.default_rng(5)
    eta = rng.normal(size=(6, 16))
    seen = np.ones(6, dtype=bool)
    if unseen is not None:
        seen[unseen] = False
    bank = PrototypeBank(eta, np.full(6, 1 / 6), seen, 0.9)
    feats = rng.normal(size=(4, 16, 16, 16))
    feats[0, 0, 0] = eta[0]   # zero distance, clipped below 0 by rounding
    got = confidence_weights(feats, bank)
    want = confidence_weights_expanded(feats, eta, bank.pi, seen)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
