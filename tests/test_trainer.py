import copy
import dataclasses
import json
import typing

import numpy as np
import pytest

from rml_lab.augment import mix_images, photometric
from rml_lab.data import Dataset, generate_shapes_dataset, make_split
from rml_lab import netcore, trainer
from rml_lab.errors import ConfigError, TrainingError
from rml_lab.metrics import pseudo_accuracy
from rml_lab.netcore import load_checkpoint, softmax
from rml_lab.protobank import init_bank
from rml_lab.rectify import harden_with_threshold
from rml_lab.trainer import (
    RmlConfig,
    evaluate_model,
    init_stage,
    labeled_step,
    run_rml,
    pseudo_labels,
    train_baseline,
    unlabeled_step,
)

from oracles import cross_entropy, float64_copy, soft_predictions, tv_distance

K = 4
# no dropout and no stochastic depth
NO_MODEL_NOISE = dict(dropout_rate=0.0, sd_survival=1.0)


def tiny_cfg(**kw) -> RmlConfig:
    defaults = dict(
        variant="rml", arch_pair=("cnn", "cnn"), feature_dim=8,
        lr=0.08, baseline_iterations=60, iterations=30, stages=1,
        batch_labeled=4, batch_unlabeled=3, eval_interval=15,
        eval_subset=16, pseudo_subset=16, seed=0,
        weak_strength=0.1, strong_strength=0.8,
    )
    defaults.update(kw)
    return RmlConfig(**defaults).validate()


@pytest.fixture(scope="module")
def shapes_data():
    train = generate_shapes_dataset(28, 8, 8, K, 0.2, seed=11)
    ev = generate_shapes_dataset(16, 8, 8, K, 0.2, seed=12)
    split = make_split(len(train), 0.25, seed=0)
    return train.subset(split.labeled), train.subset(split.unlabeled), ev


def learner_streams(seed=5) -> list:
    """Per learner, its labeled, student and teacher streams."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]
    return [rngs[:3], rngs[3:]]


def start(base, labeled, unlabeled, cfg, seed=5) -> list:
    """The stage-1 learners of one shared baseline."""
    return init_stage((base, base), labeled, unlabeled, cfg, K, 1, learner_streams(seed))


def float64_learners(learners) -> list:
    """The learners with float64 copies of their models, for the float64 loss
    oracles."""
    return [dataclasses.replace(learner, student=float64_copy(learner.student),
                                teacher=float64_copy(learner.teacher)) for learner in learners]


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def separable_dataset(n=64, seed=0):
    # two classes decided by channel 0 with a wide margin: trivially separable
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, (n, 1, 1))
    x = rng.random((n, 1, 1, 3)).astype(np.float32) * 0.2
    x[..., 0] += 0.8 * labels[..., None][:, :, :, 0]
    return Dataset(x.astype(np.float32), labels, np.arange(n))


def test_baseline_validates_its_config(shapes_data):
    # the run converts lr to a float: past float range it is a config error
    # before any model is built, as in run_rml
    labeled, _, _ = shapes_data
    cfg = dataclasses.replace(tiny_cfg(), lr=10**400)
    with pytest.raises(ConfigError, match="^lr is too large for a float$"):
        train_baseline(labeled, cfg, k=K)


def test_baseline_separable_reaches_high_accuracy():
    ds = separable_dataset()
    cfg = tiny_cfg(arch_pair="mlp", feature_dim=8, baseline_iterations=400,
                   lr=0.5, **NO_MODEL_NOISE)
    model = train_baseline(ds, cfg, k=2)
    preds = softmax(model.forward(ds.images.astype(np.float64))[1]).argmax(-1)
    assert (preds == ds.labels).mean() >= 0.99


def test_baseline_deterministic(shapes_data):
    labeled, _, _ = shapes_data
    cfg = tiny_cfg()
    a = train_baseline(labeled, cfg, k=K)
    b = train_baseline(labeled, cfg, k=K)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])


def test_baseline_improves_over_init(shapes_data):
    labeled, _, ev = shapes_data
    cfg = tiny_cfg(baseline_iterations=120)
    evals = []
    train_baseline(labeled, cfg, k=K, on_eval=lambda it, lr, loss, model: evals.append(
        (it, loss, evaluate_model(model, ev, K, cfg.eval_subset)[0])))
    assert [it for it, _, _ in evals] == list(range(15, 121, 15))
    assert evals[-1][1] < evals[0][1] + 0.5
    assert np.isfinite(evals[-1][2])


# ---------------------------------------------------------------------------
# init_stage
# ---------------------------------------------------------------------------


def test_init_stage_contracts(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg()
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    for learner in learners:
        for model in (learner.student, learner.teacher):
            for key in base.params:
                np.testing.assert_array_equal(model.params[key], base.params[key])
    # store covers every unlabeled id exactly once, with the baseline's labels
    store = learners[0].store
    assert len(store.rows) == len(unlabeled) and learners[1].store is store
    np.testing.assert_array_equal(store.get_batch(unlabeled.ids),
                                  soft_predictions(base, unlabeled.images))
    # banks identical bitwise at init, equal to the baseline's own, not shared
    fresh = init_bank(base, labeled, unlabeled, k=K, lam=cfg.lam)
    banks = [learner.bank for learner in learners]
    for bank in banks:
        np.testing.assert_array_equal(bank.eta, fresh.eta)
        np.testing.assert_array_equal(bank.seen, fresh.seen)
    assert banks[0] is not banks[1]
    for name in ("eta", "pi", "seen"):
        assert not np.shares_memory(getattr(banks[0], name), getattr(banks[1], name))


def test_init_stage_skips_banks_for_iml(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(variant="iml")
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    assert [(learner.bank, learner.store) for learner in learners] == [(None, None)] * 2


def test_init_stage_from_two_models(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(baseline_iterations=20)
    bases = tuple(train_baseline(labeled, cfg, k=K, seed=seed) for seed in (0, 1))
    p = [soft_predictions(b, unlabeled.images).astype(np.float64) for b in bases]
    assert not np.array_equal(p[0], p[1])
    rngs = learner_streams()
    first, second = (init_stage(bases, labeled, unlabeled, cfg, K, stage, rngs)
                     for stage in (1, 2))
    # stage 1: each learner stores its own baseline's predictions
    for learner, own in zip(first, p):
        np.testing.assert_array_equal(learner.store.get_batch(unlabeled.ids), own)
    assert first[0].store is not first[1].store
    # later stages: one store of the pair's average, shared
    assert second[0].store is second[1].store
    np.testing.assert_array_equal(second[0].store.get_batch(unlabeled.ids),
                                  (p[0] + p[1]) * 0.5)
    for learners in (first, second):
        for learner, base, streams in zip(learners, bases, rngs):
            fresh = init_bank(base, labeled, unlabeled, k=K, lam=cfg.lam)
            for name in ("eta", "pi", "seen"):
                np.testing.assert_array_equal(getattr(learner.bank, name),
                                              getattr(fresh, name))
            held = (learner.rng_labeled, learner.rng_student, learner.rng_teacher)
            assert all(a is b for a, b in zip(held, streams, strict=True))


def test_run_rml_hands_every_stage_the_same_streams(shapes_data, monkeypatch):
    # a stage that reseeded its learners' streams would change every output
    labeled, unlabeled, ev = shapes_data
    given, states = [], []

    def recorded(*args):
        rngs = args[-1]
        given.append(rngs)
        states.append([[rng.bit_generator.state for rng in per] for per in rngs])
        return init_stage(*args)

    monkeypatch.setattr(trainer, "init_stage", recorded)
    cfg = tiny_cfg(variant="iml", stages=2, iterations=10, eval_interval=10,
                   baseline_iterations=5)
    run_rml(labeled, unlabeled, ev, cfg, k=K)
    first, second = ([rng for per in rngs for rng in per] for rngs in given)
    assert len({id(rng) for rng in first}) == 6
    assert all(a is b for a, b in zip(first, second, strict=True))
    # learner i's labeled, student and teacher streams are children 6+i, 2+i
    # and 4+i of the run's seed sequence; stage 2 takes them where stage 1
    # left them
    children = np.random.SeedSequence([cfg.seed, 0x51A6E]).spawn(8)
    assert states[0] == [[np.random.default_rng(children[j]).bit_generator.state
                          for j in (6 + i, 2 + i, 4 + i)] for i in range(2)]
    assert all(a != b for a, b in zip(states[0], states[1]))


# ---------------------------------------------------------------------------
# labeled_step
# ---------------------------------------------------------------------------


def test_labeled_step_loss_matches_direct_ce(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(**NO_MODEL_NOISE, weak_strength=0.0)
    base = train_baseline(labeled, cfg, k=K)
    learners = float64_learners(start(base, labeled, unlabeled, cfg))
    frozen = copy.deepcopy(learners)
    x, y = labeled.images[:4], labeled.labels[:4]
    losses = labeled_step(learners, x, y, cfg, lr=0.05)
    for i in range(2):
        p = softmax(frozen[i].student.forward(x.astype(np.float64))[1])
        expected = cross_entropy(p, np.eye(K)[y])
        assert losses[i] == pytest.approx(expected, rel=1e-9)


def test_labeled_step_zero_lr_keeps_parameters(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg()
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    before = [{k2: v.copy() for k2, v in learner.student.params.items()}
              for learner in learners]
    losses = labeled_step(learners, labeled.images[:4], labeled.labels[:4], cfg, lr=0.0)
    assert all(np.isfinite(l) for l in losses)
    for i, learner in enumerate(learners):
        for key in learner.student.params:
            np.testing.assert_array_equal(learner.student.params[key], before[i][key])


def test_labeled_step_overfits_one_batch(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(**NO_MODEL_NOISE, weak_strength=0.0)
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    x, y = labeled.images[:4], labeled.labels[:4]
    first = labeled_step(learners, x, y, cfg, lr=0.05)
    last = None
    for _ in range(49):
        last = labeled_step(learners, x, y, cfg, lr=0.05)
    assert last[0] < first[0] and last[1] < first[1]


def test_labeled_step_leaves_teachers_alone(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg()
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    before = [{k2: v.copy() for k2, v in learner.teacher.params.items()}
              for learner in learners]
    labeled_step(learners, labeled.images[:4], labeled.labels[:4], cfg, lr=0.1)
    for i, learner in enumerate(learners):
        for key in learner.teacher.params:
            np.testing.assert_array_equal(learner.teacher.params[key], before[i][key])


def test_non_finite_supervised_loss_names_its_step(shapes_data, monkeypatch):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(baseline_iterations=5)
    learners = start(train_baseline(labeled, cfg, k=K), labeled, unlabeled, cfg)
    real, calls_left = trainer.loss_and_gradients, [3]

    def nan_loss_at_call(*args, **kw):
        calls_left[0] -= 1
        losses, grads = real(*args, **kw)
        return ([float("nan")] if calls_left[0] == 0 else losses), grads

    monkeypatch.setattr(trainer, "loss_and_gradients", nan_loss_at_call)
    with pytest.raises(TrainingError, match=r"^non-finite baseline loss at iteration 2$"):
        train_baseline(labeled, cfg, k=K)
    calls_left[0] = 1
    with pytest.raises(TrainingError, match=r"^non-finite labeled loss$"):
        labeled_step(learners, labeled.images[:4], labeled.labels[:4], cfg, lr=0.1)


# ---------------------------------------------------------------------------
# unlabeled_step
# ---------------------------------------------------------------------------


def unlabeled_batches(unlabeled, b=3):
    return ((unlabeled.images[:b], unlabeled.ids[:b]),
            (unlabeled.images[b:2 * b], unlabeled.ids[b:2 * b]))


def labeled_batch(labeled, b=4):
    return labeled.images[:b], labeled.labels[:b]


def test_rml_with_uniform_confidence_equals_iml_labels(shapes_data):
    # identical prototype rows -> equidistant -> uniform omega; the rectified
    # argmax then equals the plain hardened pseudo label at stage init
    labeled, unlabeled, _ = shapes_data
    cfg_rml = tiny_cfg(variant="rml", weak_strength=0.0, **NO_MODEL_NOISE)
    base = train_baseline(labeled, cfg_rml, k=K)
    learners = start(base, labeled, unlabeled, cfg_rml)
    for learner in learners:
        learner.bank.eta[:] = learner.bank.eta[0]
        learner.bank.seen[:] = True
    b1, b2 = unlabeled_batches(unlabeled)
    masks = np.ones((len(b1[0]),) + unlabeled.images.shape[1:3])

    def mixed(learner, cfg):
        rng = np.random.default_rng(0)
        halves = [pseudo_labels(learner, x, ids, cfg, rng)[0] for x, ids in (b1, b2)]
        return trainer._mix_halves(halves, masks)

    cfg_iml = tiny_cfg(variant="iml", weak_strength=0.0, **NO_MODEL_NOISE)
    learners_iml = start(base, labeled, unlabeled, cfg_iml)
    np.testing.assert_array_equal(mixed(learners[0], cfg_rml).labels,
                                  mixed(learners_iml[0], cfg_iml).labels)


@pytest.mark.parametrize("variant", ["rml", "iml", "direct_ml"])
def test_pseudo_acc_scores_the_training_labels(shapes_data, variant):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(variant=variant, tau=0.4)
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    # move the students off their teachers, so the two label sources differ
    labeled_step(learners, labeled.images[:4], labeled.labels[:4], cfg, lr=0.5)
    sub = Dataset(unlabeled.images[:8], unlabeled.labels[:8], unlabeled.ids[:8])
    accs = trainer._measure_pseudo_acc(learners, sub, cfg, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for i, learner in enumerate(learners):
        replay = copy.deepcopy(rng)
        y, feats, _ = pseudo_labels(learner, sub.images, sub.ids, cfg, rng)
        assert accs[i] == pseudo_accuracy(y.labels, sub.labels, y.valid)
        # the labels come from the variant's model, on weakly augmented input
        source = learner.student if variant == "direct_ml" else learner.teacher
        xw = photometric(sub.images, cfg.weak_strength, replay)
        np.testing.assert_array_equal(feats, source.forward(xw)[0])


def test_teacher_update_is_exactly_ema_of_post_step_student(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg()
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    teacher_before = [{k2: v.copy() for k2, v in learner.teacher.params.items()}
                      for learner in learners]
    b1, b2 = unlabeled_batches(unlabeled)
    unlabeled_step(learners, b1, b2, cfg, lr=0.05, k=K, rng_mask=np.random.default_rng(5),
                   labeled_batch=labeled_batch(labeled))
    for i, learner in enumerate(learners):
        for key in learner.teacher.params:
            expected = (cfg.alpha * teacher_before[i][key]
                        + (1 - cfg.alpha) * learner.student.params[key])
            np.testing.assert_allclose(learner.teacher.params[key], expected, atol=1e-12)


def test_ema_applied_after_sgd(shapes_data):
    # alpha=0 makes the teacher a copy of whatever the student is after the
    # step; equality proves the EMA happens last
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(alpha=0.0)
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    b1, b2 = unlabeled_batches(unlabeled)
    unlabeled_step(learners, b1, b2, cfg, lr=0.05, k=K, rng_mask=np.random.default_rng(5),
                   labeled_batch=labeled_batch(labeled))
    for learner in learners:
        for key in learner.teacher.params:
            np.testing.assert_array_equal(learner.teacher.params[key],
                                          learner.student.params[key])


def test_four_term_loss_oracle(shapes_data):
    # teachers equal students at init; iml losses must equal four CE values
    # computed independently, and reduce to direct_ml cross terms + self terms
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(variant="iml", strong_strength=0.0, **NO_MODEL_NOISE,
                   weak_strength=0.0)
    base = train_baseline(labeled, cfg, k=K)
    learners = float64_learners(start(base, labeled, unlabeled, cfg))
    frozen = copy.deepcopy(learners)
    b1, b2 = unlabeled_batches(unlabeled)
    losses, info = unlabeled_step(learners, b1, b2, cfg, lr=0.05, k=K,
                                  rng_mask=np.random.default_rng(7),
                                  labeled_batch=labeled_batch(labeled))

    # oracle: recompute every term from the frozen pre-step state
    mask_rng = np.random.default_rng(7)
    from rml_lab.augment import sample_rect_mask
    h, w = b1[0].shape[1:3]
    mask_stack = np.stack([sample_rect_mask(h, w, mask_rng) for _ in range(len(b1[0]))])
    x_mix = mix_images(b1[0], b2[0], mask_stack)
    yhat = []
    for i in range(2):
        p1 = softmax(frozen[i].teacher.forward(b1[0].astype(np.float64))[1])
        p2 = softmax(frozen[i].teacher.forward(b2[0].astype(np.float64))[1])
        y1 = np.eye(K)[harden_with_threshold(p1, 0.0).labels]
        y2 = np.eye(K)[harden_with_threshold(p2, 0.0).labels]
        mixed = mask_stack[..., None] * y1 + (1 - mask_stack[..., None]) * y2
        yhat.append(mixed)
    for i in range(2):
        p_student = softmax(frozen[i].student.forward(x_mix)[1])
        ce_peer = cross_entropy(p_student, yhat[1 - i])
        ce_self = cross_entropy(p_student, yhat[i])
        assert info.loss_terms[i][0] == pytest.approx(ce_peer, rel=1e-9)
        assert info.loss_terms[i][1] == pytest.approx(ce_self, rel=1e-9)
        assert losses[i] == pytest.approx(ce_peer + ce_self, rel=1e-9)


def test_direct_ml_uses_cross_terms_only(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg(variant="direct_ml", strong_strength=0.0, **NO_MODEL_NOISE,
                   weak_strength=0.0)
    base = train_baseline(labeled, cfg, k=K)
    learners = float64_learners(start(base, labeled, unlabeled, cfg))
    frozen = copy.deepcopy(learners)
    b1, b2 = unlabeled_batches(unlabeled)
    losses, info = unlabeled_step(learners, b1, b2, cfg, lr=0.05, k=K,
                                  rng_mask=np.random.default_rng(7),
                                  labeled_batch=labeled_batch(labeled))
    assert all(len(t) == 1 for t in info.loss_terms)
    # teachers equal students at init, so the cross term must match the
    # iml peer term computed from the same frozen state
    mask_rng = np.random.default_rng(7)
    from rml_lab.augment import sample_rect_mask
    h, w = b1[0].shape[1:3]
    mask_stack = np.stack([sample_rect_mask(h, w, mask_rng) for _ in range(len(b1[0]))])
    x_mix = mix_images(b1[0], b2[0], mask_stack)
    for i in range(2):
        peer = 1 - i
        p1 = softmax(frozen[peer].student.forward(b1[0].astype(np.float64))[1])
        p2 = softmax(frozen[peer].student.forward(b2[0].astype(np.float64))[1])
        mixed = (mask_stack[..., None] * np.eye(K)[harden_with_threshold(p1, 0.0).labels]
                 + (1 - mask_stack[..., None]) * np.eye(K)[harden_with_threshold(p2, 0.0).labels])
        p_student = softmax(frozen[i].student.forward(x_mix)[1])
        assert losses[i] == pytest.approx(cross_entropy(p_student, mixed), rel=1e-9)


def test_threshold_monotone_valid_pixels(shapes_data):
    labeled, unlabeled, _ = shapes_data
    base_cfg = tiny_cfg()
    base = train_baseline(labeled, base_cfg, k=K)
    counts = []
    for tau in (0.0, 0.3, 0.6, 0.9):
        cfg = tiny_cfg(tau=tau)
        learners = start(base, labeled, unlabeled, cfg, seed=3)
        b1, b2 = unlabeled_batches(unlabeled)
        _, info = unlabeled_step(learners, b1, b2, cfg, lr=0.05, k=K,
                                 rng_mask=np.random.default_rng(3),
                                 labeled_batch=labeled_batch(labeled))
        counts.append(sum(info.valid_pixels))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_bank_update_happens_in_unlabeled_step(shapes_data):
    labeled, unlabeled, _ = shapes_data
    cfg = tiny_cfg()
    base = train_baseline(labeled, cfg, k=K)
    learners = start(base, labeled, unlabeled, cfg)
    eta_before = learners[0].bank.eta.copy()
    b1, b2 = unlabeled_batches(unlabeled)
    unlabeled_step(learners, b1, b2, cfg, lr=0.05, k=K, rng_mask=np.random.default_rng(5),
                   labeled_batch=labeled_batch(labeled))
    assert not np.array_equal(learners[0].bank.eta, eta_before)


# ---------------------------------------------------------------------------
# run_rml
# ---------------------------------------------------------------------------


def test_run_rml_bookkeeping_and_determinism(shapes_data, tmp_path):
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(stages=2, iterations=30, eval_interval=15)
    res1 = run_rml(labeled, unlabeled, ev, cfg, k=K, out_dir=tmp_path / "a")
    assert len(res1.records) == cfg.stages * cfg.iterations // cfg.eval_interval
    assert res1.summary["stages"][0]["stage"] == 1
    assert (tmp_path / "a" / "metrics.jsonl").exists()
    assert (tmp_path / "a" / "stage1_student1.ckpt").exists()
    cfg2 = tiny_cfg(stages=2, iterations=30, eval_interval=15)
    res2 = run_rml(labeled, unlabeled, ev, cfg2, k=K, out_dir=tmp_path / "b")
    assert [r.to_dict() for r in res1.records] == [r.to_dict() for r in res2.records]
    assert ((tmp_path / "a" / "metrics.jsonl").read_bytes()
            == (tmp_path / "b" / "metrics.jsonl").read_bytes())


@pytest.mark.parametrize("arch_pair", [("cnn", "cnn"), ("attn", "mlp")],
                         ids=["cnn-cnn", "attn-mlp"])
def test_given_baselines_write_the_bytes_of_a_run_that_trains_its_own(shapes_data, tmp_path,
                                                                     arch_pair):
    # the benchmark trains the baselines itself, then passes them in
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(arch_pair=arch_pair, stages=2, iterations=15, eval_interval=15,
                   baseline_iterations=20)
    if arch_pair[0] == arch_pair[1]:
        base = train_baseline(labeled, cfg, k=K)
        bases = (base, base)
    else:
        bases = tuple(train_baseline(labeled, cfg, K, arch_index=i, seed=cfg.seed + i)
                      for i in range(2))
    run_rml(labeled, unlabeled, ev, cfg, k=K, out_dir=tmp_path / "own")
    run_rml(labeled, unlabeled, ev, cfg, k=K, baselines=bases, out_dir=tmp_path / "given")
    names = sorted(path.name for path in (tmp_path / "own").iterdir())
    assert len(names) == 10   # metrics, summary and 8 stage checkpoints
    assert names == sorted(path.name for path in (tmp_path / "given").iterdir())
    for name in names:
        assert ((tmp_path / "own" / name).read_bytes()
                == (tmp_path / "given" / name).read_bytes()), name


def test_eval_interval_predicts_each_model_once(shapes_data, monkeypatch):
    # each eval interval scores the students, then the teachers, in one eval
    # pass a pair: one chunk forward of each model per chunk (16 images of
    # 8x8 are one chunk), and no other forward inside it
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(variant="iml", stages=2, iterations=30, eval_interval=15)
    forward, pair_tv = netcore._forward, trainer._pair_tv
    forwards, passes = [], []

    def counted(model, x, *args, **kwargs):
        forwards.append((model, len(x)))
        return forward(model, x, *args, **kwargs)

    def scored(models, *args):
        forwards.clear()
        result = pair_tv(models, *args)
        passes.append(forwards == [(models[0], 16), (models[1], 16)])
        return result

    monkeypatch.setattr(netcore, "_forward", counted)
    monkeypatch.setattr(trainer, "_pair_tv", scored)
    res = run_rml(labeled, unlabeled, ev, cfg, k=K)
    assert passes == [True] * (2 * len(res.records))
    last = res.records[-1]
    for role in ("students", "teachers"):
        models = getattr(res.quad, role)
        scores = [evaluate_model(m, ev, K, cfg.eval_subset) for m in models]
        assert getattr(last, f"miou_{role}") == [s[0] for s in scores]
        assert getattr(last, f"acc_{role}") == [s[1] for s in scores]
        probs = [soft_predictions(m, ev.images[:cfg.eval_subset]) for m in models]
        assert getattr(last, f"tv_{role}") == tv_distance(*probs)


def test_run_supervised_matches_train_baseline(shapes_data, tmp_path):
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(variant="supervised")
    res = run_rml(labeled, unlabeled, ev, cfg, k=K, out_dir=tmp_path)
    model, _ = load_checkpoint(tmp_path / "baseline.ckpt")
    direct = train_baseline(labeled, tiny_cfg(variant="supervised"), k=K)
    for key in direct.params:
        np.testing.assert_array_equal(model.params[key], direct.params[key])
    miou, _ = evaluate_model(direct, ev, K, cfg.eval_subset)
    assert res.summary["final_miou"] == pytest.approx(miou)


def test_failed_supervised_run_keeps_the_records_it_emitted(shapes_data, tmp_path,
                                                             monkeypatch):
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(variant="supervised")   # 60 iterations, one eval every 15
    run_rml(labeled, unlabeled, ev, cfg, k=K, out_dir=tmp_path / "whole")
    whole = (tmp_path / "whole" / "metrics.jsonl").read_text().splitlines()
    step, calls = trainer._supervised_step, []

    def fails_at_41(*args):
        calls.append(1)
        if len(calls) == 41:
            raise TrainingError("planted failure at iteration 41")
        return step(*args)

    monkeypatch.setattr(trainer, "_supervised_step", fails_at_41)
    with pytest.raises(TrainingError, match="planted"):
        run_rml(labeled, unlabeled, ev, cfg, k=K, out_dir=tmp_path / "cut")
    cut = (tmp_path / "cut" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["iteration"] for line in cut] == [15, 30]
    assert cut == whole[:2]
    assert not (tmp_path / "cut" / "summary.json").exists()


def test_run_rml_single_stage_contract(shapes_data):
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(stages=1)
    res = run_rml(labeled, unlabeled, ev, cfg, k=K)
    assert len(res.summary["stages"]) == 1
    assert res.summary["final_miou"] == res.summary["stages"][0]["final_miou"]
    assert res.summary["initial_pseudo_acc"] is not None


def test_classification_pipeline_without_cutmix(monkeypatch):
    # 1x1 labels: CutMix follows the label maps, so no mask is drawn
    def no_mask(*args):
        raise AssertionError("CutMix mask drawn for 1x1 labels")

    monkeypatch.setattr(trainer, "sample_rect_mask", no_mask)
    train = separable_dataset(n=60, seed=1)
    ev = separable_dataset(n=20, seed=2)
    split = make_split(60, 0.2, seed=0)
    cfg = tiny_cfg(arch_pair="mlp", variant="iml_noise",
                   iterations=20, eval_interval=10, baseline_iterations=40)
    res = run_rml(train.subset(split.labeled), train.subset(split.unlabeled),
                  ev, cfg, k=2)
    assert len(res.records) == 2
    assert res.records[-1].tv_teachers is not None


def test_hetero_pair_runs(shapes_data):
    labeled, unlabeled, ev = shapes_data
    cfg = tiny_cfg(arch_pair=("mlp", "cnn"), feature_dim=(6, 8), variant="iml",
                   iterations=10, eval_interval=10, baseline_iterations=30)
    res = run_rml(labeled, unlabeled, ev, cfg, k=K)
    assert res.quad.students[0].arch.kind == "mlp"
    assert res.quad.students[1].arch.kind == "cnn"
    assert len(res.records) == 1


def test_zero_baseline_iterations_start_two_fresh_learners(shapes_data, monkeypatch):
    labeled, unlabeled, ev = shapes_data

    def no_baseline(*args, **kw):
        raise AssertionError("train_baseline ran")

    starts = []

    def recorded(baselines, *args, **kw):
        starts.append(baselines)
        return init_stage(baselines, *args, **kw)

    monkeypatch.setattr(trainer, "train_baseline", no_baseline)
    monkeypatch.setattr(trainer, "init_stage", recorded)
    cfg = tiny_cfg(variant="iml", baseline_iterations=0, iterations=10, eval_interval=10)
    run_rml(labeled, unlabeled, ev, cfg, k=K)
    (first,) = starts
    assert len(first) == 2 and first[0] is not first[1]
    assert any(not np.array_equal(first[0].params[key], first[1].params[key])
               for key in first[0].params)
    for i, model in enumerate(first):   # fresh: the parameters of a new build
        fresh = trainer._build_learner(cfg, i, K, labeled.images, labeled.labels,
                                       seed=cfg.seed + 101 * (i + 1))
        for key in fresh.params:
            np.testing.assert_array_equal(model.params[key], fresh.params[key])


def test_no_config_field_is_a_switch():
    # an ablation switch is a magnitude at zero, not a boolean field
    assert bool not in typing.get_type_hints(RmlConfig).values()
