"""Attention's outputs stay on its token grid until a consumer needs pixels.

``netcore.pixels`` is the one up-sample. Each consumer that leaves the grid
(confidence weights, rectification, the unrectified variants' labels, the
bank's labeled features, ``eval_confusion``, ``_pair_tv`` and the stage
store) is held bit for bit to the per-pixel oracles of oracles.py. The
images are 8x12, so a token grid is not square, at patch 2 and 4; eval
passes run over several chunks, with the caller alone and with one worker
beside it. cnn and mlp outputs already are pixels.
"""

import copy

import numpy as np
import pytest

from rml_lab import netcore, trainer
from rml_lab.augment import photometric
from rml_lab.data import Dataset
from rml_lab.metrics import confusion_matrix, segmentation_scores
from rml_lab.netcore import NoiseConfig, build_model, pixels, softmax
from rml_lab.protobank import batch_prototypes, confidence_weights, new_bank, update_bank
from rml_lab.rectify import StagePseudoStore, denoise, harden_with_threshold, rectified_labels
from rml_lab.trainer import Learner, RmlConfig, init_stage, pseudo_labels, unlabeled_step

from oracles import pixel_outputs, soft_predictions, tv_distance, upsample_tokens

K = 6
C = 8
H, W = 8, 12
NOISY = NoiseConfig(dropout_rate=0.5, stochastic_depth_survival=0.8)
WEAK = 0.2   # the teacher's input is perturbed, so the draws must line up too
# (kind, patch): attention at two grids, and the two pixel architectures
MODELS = [("attn", 2), ("attn", 4), ("cnn", 2), ("mlp", 2)]
IDS = [f"{kind}-p{patch}" for kind, patch in MODELS]


@pytest.fixture(params=[0, 1], ids=["caller-alone", "one-worker"])
def spare(request, monkeypatch):
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: request.param)
    return request.param


def model(kind, patch=2, seed=3):
    """A noisy model, as a baseline or a student is."""
    return build_model(kind, K=K, C=C, noise=NOISY, seed=seed, in_channels=3, patch=patch)


def images(n, seed=0):
    return np.random.default_rng(seed).random((n, H, W, 3))


def dataset(n=1400, seed=0):
    """``n`` random 8x12 images and label maps. An eval chunk holds 42 of them
    for cnn and mlp, and 170 and 682 for attn alone at patch 2 and 4 (4096
    grid rows), so 1400 make at least two chunks."""
    labels = np.random.default_rng(seed + 1).integers(0, K, (n, H, W))
    return Dataset(images(n, seed), labels, np.arange(n))


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def bank_near(feats, unseen, seed=0):
    """A bank whose prototypes sit near ``K`` of the feature rows; the classes
    in ``unseen`` were never observed."""
    rng = np.random.default_rng(seed)
    flat = np.asarray(feats, dtype=np.float64).reshape(-1, feats.shape[-1])
    bank = new_bank(K, flat.shape[1], lam=0.9)
    bank.eta = flat[rng.choice(len(flat), K, replace=False)] + rng.normal(0, 0.1, (K, C))
    bank.seen[:] = True
    bank.seen[list(unseen)] = False
    return bank


# ---------------------------------------------------------------------------
# pixels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("patch", [2, 4])
def test_pixels_repeats_each_token_over_its_patch(patch):
    m = model("attn", patch)
    th, tw = H // patch, W // patch
    rng = np.random.default_rng(patch)
    rows = rng.random((3, th, tw, 5))
    assert_same_bits(pixels(m, rows), upsample_tokens(rows.reshape(3, th * tw, 5), th, tw, patch))
    labels = rng.integers(0, K, (3, th, tw))   # a class map has no channel axis
    assert_same_bits(pixels(m, labels),
                     upsample_tokens(labels.reshape(3, th * tw, 1), th, tw, patch)[..., 0])
    x = images(5)
    feats, logits = m.grid_forward(x)
    assert feats.shape == (5, th, tw, C) and logits.shape == (5, th, tw, K)
    for got, want in zip(m.forward(x), pixel_outputs(m, x)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_pixels_is_the_identity_for_cnn_and_mlp(kind):
    m = model(kind)
    rows = np.random.default_rng(1).random((3, H, W, 5))
    assert pixels(m, rows) is rows
    x = images(5)
    for grid, pixel in zip(m.grid_forward(x), m.forward(x)):
        assert grid.shape[:3] == (5, H, W)
        assert_same_bits(grid, pixel)


# ---------------------------------------------------------------------------
# confidence weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("unseen", [(), (K - 1,)], ids=["all-seen", "one-unseen"])
@pytest.mark.parametrize("n", [1, 4, 37])
@pytest.mark.parametrize("patch", [2, 4])
def test_confidence_weights_on_tokens_are_the_pixel_weights(patch, n, unseen):
    m = model("attn", patch)
    feats = m.grid_forward(images(n, seed=n))[0]
    bank = bank_near(feats, unseen, seed=n)
    th, tw = feats.shape[1:3]
    want = confidence_weights(upsample_tokens(feats.reshape(n, th * tw, C), th, tw, patch), bank)
    got = confidence_weights(feats, bank)
    assert got.shape == (n, th, tw, K)
    assert_same_bits(pixels(m, got), want)
    assert (want[..., list(unseen)] == 0).all()


# ---------------------------------------------------------------------------
# pseudo labels: rectified (rml) and hardened (iml, direct_ml)
# ---------------------------------------------------------------------------


def stage_store(n, ids, seed=0):
    """Frozen soft labels; every third image is one-hot on class K-1, so where
    that class is unseen its pixels fall back to ``p0``."""
    rng = np.random.default_rng(seed)
    p0 = rng.random((n, H, W, K)) + 1e-6
    p0 /= p0.sum(axis=-1, keepdims=True)
    p0[::3] = np.eye(K)[K - 1]
    return StagePseudoStore(ids, p0, stage=1)


@pytest.mark.parametrize("source", ["prototype", "teacher_softmax"])
@pytest.mark.parametrize("kind,patch", MODELS, ids=IDS)
def test_rectified_labels_are_the_pixel_path(kind, patch, source):
    teacher = model(kind, patch)
    n, ids, tau = 6, np.arange(10, 16), 0.3
    x = images(n, seed=2)
    store = stage_store(n, ids)
    bank = bank_near(pixel_outputs(teacher, x)[0], unseen=(K - 1,))
    labels, feats, fallback = rectified_labels(teacher, x, ids, bank, store, WEAK, tau,
                                               np.random.default_rng(5), source)
    f, z = pixel_outputs(teacher, photometric(x, WEAK, np.random.default_rng(5)))
    omega = confidence_weights(f, bank) if source == "prototype" else softmax(z)
    want, want_fallback = denoise(store.get_batch(ids), omega, tau)
    assert_same_bits(labels.labels, want.labels)
    assert_same_bits(labels.valid, want.valid)
    assert fallback == want_fallback
    assert fallback > 0 if source == "prototype" else fallback == 0
    assert_same_bits(feats, f)


@pytest.mark.parametrize("variant", ["iml", "direct_ml"])
@pytest.mark.parametrize("kind,patch", MODELS, ids=IDS)
def test_unrectified_pseudo_labels_are_the_pixel_path(kind, patch, variant):
    student, teacher = model(kind, patch, seed=3), model(kind, patch, seed=4)
    learner = Learner(student, teacher, None, None, None, None, None)
    x, tau = images(6, seed=3), 0.3
    labels, feats, fallback = pseudo_labels(learner, x, np.arange(6),
                                            RmlConfig(variant=variant, weak_strength=WEAK,
                                                      tau=tau), np.random.default_rng(6))
    source = student if variant == "direct_ml" else teacher
    f, z = pixel_outputs(source, photometric(x, WEAK, np.random.default_rng(6)))
    want = harden_with_threshold(softmax(z), tau)
    assert_same_bits(labels.labels, want.labels)
    assert_same_bits(labels.valid, want.valid)
    assert labels.num_classes == K and fallback == 0
    assert_same_bits(feats, f)


def test_bank_update_takes_pixel_features_of_the_labeled_batch():
    # an attn/mlp rml step: each bank takes the prototypes of both rectified
    # halves and of the labeled batch, all from per-pixel teacher features
    cfg = RmlConfig(variant="rml", arch_pair=("attn", "mlp"), feature_dim=C, tau=0.2,
                    weak_strength=WEAK, strong_strength=0.5).validate()
    n, lx = 3, images(4, seed=7)
    ll = np.random.default_rng(8).integers(0, K, (4, H, W))
    halves = [(images(n, seed=9 + h), np.arange(n * h, n * h + n)) for h in range(2)]
    store = stage_store(2 * n, np.arange(2 * n))
    learners = []
    for i, kind in enumerate(("attn", "mlp")):
        teacher = model(kind, seed=20 + i)
        bank = bank_near(pixel_outputs(teacher, lx)[0], unseen=(K - 1,), seed=i)
        learners.append(Learner(model(kind, seed=20 + i), teacher, bank, store,
                                *(np.random.default_rng(30 + 3 * i + j) for j in range(3))))
    want = []
    for learner in learners:   # the oracle, from pre-step copies
        teacher, bank = learner.teacher.clone(), learner.bank.copy()
        rng = copy.deepcopy(learner.rng_teacher)
        fparts, aparts = [], []
        for x, ids in halves:
            f, _ = pixel_outputs(teacher, photometric(x, WEAK, rng))
            y, _ = denoise(store.get_batch(ids), confidence_weights(f, bank), cfg.tau)
            fparts.append(f.reshape(-1, C))
            aparts.append(y.labels.ravel())
        fparts.append(pixel_outputs(teacher, photometric(lx, WEAK, rng))[0].reshape(-1, C))
        aparts.append(ll.ravel())
        update_bank(bank, *batch_prototypes(np.concatenate(fparts), np.concatenate(aparts), K))
        want.append(bank)
    unlabeled_step(learners, *halves, cfg, lr=0.05, k=K, rng_mask=np.random.default_rng(1),
                   labeled_batch=(lx, ll))
    for learner, bank in zip(learners, want):
        assert_same_bits(learner.bank.eta, bank.eta)
        assert_same_bits(learner.bank.seen, bank.seen)


# ---------------------------------------------------------------------------
# evaluation and the stage store
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("peers,per_chunk", [((("attn", 2),), 170), ((("attn", 4),), 682),
                                             ((("attn", 2), ("attn", 4)), 170),
                                             ((("attn", 2), ("mlp", 2)), 42)])
def test_a_chunk_holds_the_grid_rows_of_its_finest_model(peers, per_chunk, monkeypatch):
    # 4096 rows of the grid with the most rows an image: 24 attn tokens at
    # patch 2, 6 at patch 4, 96 pixels
    models = [model(kind, patch) for kind, patch in peers]
    sizes = []
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 0)
    netcore.eval_chunks(models, images(2 * per_chunk + 5),
                        lambda rows, *logits: sizes.append(rows.stop - rows.start))
    assert sizes == [per_chunk, per_chunk + 5]


@pytest.mark.parametrize("kind,patch", MODELS, ids=IDS)
def test_eval_confusion_counts_the_pixel_argmax(kind, patch, spare):
    m, ds = model(kind, patch), dataset()
    want = confusion_matrix(soft_predictions(m, ds.images).argmax(-1), ds.labels, K)
    assert_same_bits(trainer.eval_confusion(m, ds, K), want)
    assert repr(trainer.evaluate_model(m, ds, K)) == repr(segmentation_scores(want)[1:])


PAIRS = {"attn-mlp": (("attn", 2), ("mlp", 2)), "attn-attn": (("attn", 2), ("attn", 2)),
         "attn2-attn4": (("attn", 2), ("attn", 4))}


@pytest.mark.parametrize("pair", list(PAIRS))
def test_pair_tv_is_the_pixel_scores(pair, spare):
    models = [model(kind, patch, seed=3 + i) for i, (kind, patch) in enumerate(PAIRS[pair])]
    ds = dataset(seed=1)
    probs = [soft_predictions(m, ds.images) for m in models]
    scores = [segmentation_scores(confusion_matrix(p.argmax(-1), ds.labels, K)) for p in probs]
    tv = tv_distance(*probs)
    assert tv > 0
    got = trainer._pair_tv(models, ds, K, len(ds))
    assert repr(got) == repr(([s[1] for s in scores], [s[2] for s in scores], tv))


@pytest.mark.parametrize("pair", list(PAIRS))
def test_stage_store_is_the_pixel_softmax(pair, spare):
    # stage 1 stores each model's own predictions; stage 2 their average
    unlabeled = dataset(seed=2)
    models = tuple(model(kind, patch, seed=3 + i) for i, (kind, patch) in enumerate(PAIRS[pair]))
    p = [soft_predictions(b, unlabeled.images).astype(np.float64) for b in models]
    mean = p[0].copy()
    mean += p[1]
    mean *= 0.5
    cfg = RmlConfig(variant="rml", arch_pair=tuple(b.arch.kind for b in models),
                    feature_dim=C, confidence_source="teacher_softmax").validate()
    for stage, want in ((1, p), (2, [mean, mean])):
        rngs = [[np.random.default_rng(s) for s in range(3)] for _ in range(2)]
        learners = init_stage(models, unlabeled, unlabeled, cfg, K, stage, rngs)
        for learner, w in zip(learners, want):
            assert_same_bits(learner.store.p0, w)
