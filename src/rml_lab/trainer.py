"""Supervised baseline training and the robust mutual learning loop.

One iteration follows the reference procedure: a labeled step for both
students, an unlabeled step (CutMix pair, per-learner pseudo labels, one
SGD step per student on the peer+self terms), then batch prototypes, bank
momentum updates and the teacher EMA updates, in that order. Stage
boundaries recompute the frozen soft pseudo labels from the mean teachers
and restart the loop on them. The supervised variant is the run with zero
stages: its metrics records come from the baseline's own training. Each
side of the pair is one :class:`Learner`; a stage rebuilds its models, bank
and store, and its three random streams outlive the stage.

The variants differ only in where a learner's pseudo labels come from and
which loss terms apply. :func:`pseudo_labels` is the one source, used by
both training and the pseudo-accuracy metric:

- ``rml``: the stage store's soft labels, rectified with the learner's mean
  teacher (prototype or teacher-softmax confidence);
- ``iml`` and ``iml_noise``: the learner's mean teacher's prediction,
  hardened;
- ``direct_ml``: the learner's own student's eval-forward prediction,
  hardened; it trains on its peer's labels only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .augment import mix_images, mix_label_maps, photometric, sample_rect_mask
from .data import Dataset
from .errors import ConfigError, TrainingError
from .metrics import confusion_matrix, pseudo_accuracy, segmentation_scores, tv_rows
from .netcore import (
    ARCH_KINDS,
    NetModel,
    NoiseConfig,
    build_model,
    ema_params,
    eval_chunks,
    loss_and_gradients,
    pixels,
    release_heap,
    save_checkpoint,
    sgd_step,
    softmax,
)
from .protobank import PrototypeBank, bank_tensors, batch_prototypes, init_bank, update_bank
from .rectify import (
    HardLabels,
    StagePseudoStore,
    harden_with_threshold,
    rectified_labels,
    teacher_predict,
)

VARIANTS = ("supervised", "direct_ml", "iml", "iml_noise", "rml")


def check_seed(seed: int) -> None:
    """A seed is a nonnegative int, as NumPy's seed sequences require."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0: {seed}", "seed")


def _pair(value) -> tuple:
    return tuple(value) if isinstance(value, (list, tuple)) else (value, value)


@dataclass
class RmlConfig:
    """Hyperparameters for one training run.

    Each ablation switch is a magnitude at zero: ``strong_strength`` 0 feeds
    the students clean input; ``dropout_rate`` 0 with ``sd_survival`` 1 is no
    model noise; ``baseline_iterations`` 0 starts mutual learning from two
    fresh initializations, with no supervised warm start (the supervised
    variant needs at least 1). CutMix follows the label maps: the unlabeled
    pairs are mixed exactly when their labels are per-pixel.

    :meth:`validate` is the one reporter of a bad value: :func:`run_rml` and
    :func:`train_baseline` call it, and nothing inside the run checks a value
    again. Every float field converts to a float; a value stays as written.
    """

    variant: str = "rml"
    arch_pair: tuple[str, str] = ("cnn", "cnn")
    feature_dim: tuple[int, int] = (16, 16)
    hidden: int = 64
    patch: int = 2
    labeled_fraction: float = 1 / 8
    lr: float = 0.1
    lr_power: float = 0.9
    baseline_iterations: int = 800
    iterations: int = 1000
    stages: int = 2
    batch_labeled: int = 4
    batch_unlabeled: int = 4
    tau: float = 0.0
    lam: float = 0.999
    alpha: float = 0.99
    dropout_rate: float = 0.5
    sd_survival: float = 0.8
    confidence_source: str = "prototype"
    eval_interval: int = 200
    eval_subset: int = 256
    pseudo_subset: int = 128
    weak_strength: float = 0.2
    strong_strength: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # one value serves both learners
        self.arch_pair = _pair(self.arch_pair)
        self.feature_dim = _pair(self.feature_dim)

    def validate(self) -> "RmlConfig":
        for name in (f.name for f in fields(self) if f.type == "float"):
            try:
                float(getattr(self, name))
            except OverflowError:
                raise ConfigError(f"{name} is too large for a float", name) from None
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}", "variant")
        if len(self.arch_pair) != 2 or any(a not in ARCH_KINDS for a in self.arch_pair):
            raise ConfigError(f"arch_pair must be 2 architectures of {ARCH_KINDS}, "
                              f"got {self.arch_pair}", "arch_pair")
        if len(self.feature_dim) != 2 or min(self.feature_dim) < 1:
            raise ConfigError(f"feature_dim must be 1 or 2 positive ints, got {self.feature_dim}",
                              "feature_dim")
        for name, lo, hi in (("tau", 0.0, 0.999999), ("alpha", 0.0, 1.0),
                             ("lam", 0.0, 0.999999), ("labeled_fraction", 1e-9, 1.0),
                             ("dropout_rate", 0.0, 1.0), ("sd_survival", 0.0, 1.0)):
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ConfigError(f"{name} out of range [{lo},{hi}]: {v}", name)
        check_seed(self.seed)
        for name in ("iterations", "stages", "batch_labeled", "batch_unlabeled",
                     "eval_interval", "eval_subset", "pseudo_subset", "hidden", "patch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1", name)
        least = 1 if self.variant == "supervised" else 0
        if self.baseline_iterations < least:
            raise ConfigError(f"baseline_iterations must be >= {least} for the "
                              f"{self.variant} variant", "baseline_iterations")
        for name in ("lr", "lr_power", "weak_strength", "strong_strength"):
            v = getattr(self, name)
            if not 0 <= v < float("inf"):
                raise ConfigError(f"{name} must be finite and nonnegative: {v}", name)
        if self.iterations % self.eval_interval:
            raise ConfigError("iterations must be a multiple of eval_interval", "eval_interval")
        if self.confidence_source not in ("prototype", "teacher_softmax"):
            raise ConfigError(f"unknown confidence_source {self.confidence_source!r}",
                              "confidence_source")
        return self

    def model_noise(self) -> NoiseConfig:
        return NoiseConfig(dropout_rate=self.dropout_rate,
                           stochastic_depth_survival=self.sd_survival)

    @property
    def needs_rectification(self) -> bool:
        return self.variant == "rml"


@dataclass
class Learner:
    """One side of the pair: a student, its mean teacher, the teacher's
    prototype bank (None but for prototype confidence), the stage store (None
    but for rml) and the streams of its labeled step, student and teacher."""

    student: NetModel
    teacher: NetModel
    bank: PrototypeBank | None
    store: StagePseudoStore | None
    rng_labeled: np.random.Generator
    rng_student: np.random.Generator
    rng_teacher: np.random.Generator


@dataclass
class ModelQuad:
    """A stage's students and mean teachers; ``RunResult`` holds the last stage's."""

    students: list
    teachers: list


@dataclass
class StepInfo:
    """Diagnostics from one unlabeled step."""

    loss_terms: list          # per learner: per-term CE values
    valid_pixels: list        # per learner: loss-contributing pixel count
    fallback_pixels: int = 0


@dataclass
class MetricsRecord:
    iteration: int
    stage: int
    lr: float
    loss_labeled: list
    loss_unlabeled: list | None
    miou_students: list
    acc_students: list
    miou_teachers: list | None
    acc_teachers: list | None
    tv_teachers: float | None
    tv_students: float | None
    pseudo_acc: list | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    quad: ModelQuad | None
    records: list
    summary: dict


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def poly_lr(base: float, it: int, total: int, power: float) -> float:
    return base * (1.0 - it / total) ** power


def in_channels_for(arch: str, images: np.ndarray, labels: np.ndarray) -> int:
    """Channels the model sees: the images' last axis. Data with 1x1 labels
    is vector data (``data.load_dataset`` flattens its images), which only
    mlp takes."""
    if labels.shape[1:] == (1, 1) and arch != "mlp":
        raise ConfigError(
            f"{arch} produces per-pixel output but the dataset has 1x1 labels; "
            "only mlp supports flattened classification input"
        )
    return images.shape[-1]


def _build_learner(cfg: RmlConfig, i: int, k: int, images, labels, seed) -> NetModel:
    return build_model(
        cfg.arch_pair[i], K=k, C=cfg.feature_dim[i], noise=cfg.model_noise(),
        seed=seed, in_channels=in_channels_for(cfg.arch_pair[i], images, labels),
        hidden=cfg.hidden, patch=cfg.patch,
    )


def eval_confusion(model: NetModel, ds: Dataset, k: int, limit: int | None = None):
    """``[gt, pred]`` counts per pixel of ``model``'s eval-forward argmax on clean images,
    taken on its grid: the sum of each :func:`netcore.eval_chunks` chunk's own counts."""
    labels = ds.labels[:limit]
    return sum(eval_chunks([model], ds.images[:limit], lambda rows, logits: confusion_matrix(
        pixels(model, softmax(logits).argmax(axis=-1)), labels[rows], k)))


def evaluate_model(model: NetModel, ds: Dataset, k: int, limit: int | None = None):
    """Eval mIoU and pixel accuracy on clean images, from :func:`eval_confusion`'s chunks."""
    return segmentation_scores(eval_confusion(model, ds, k, limit))[1:]


def _sample(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return rng.choice(n, size=size, replace=n < size)


def _supervised_step(model: NetModel, images, labels, weak_strength: float, lr: float,
                     rng_aug, rng_noise, what: str) -> float:
    """Weak augmentation, one cross-entropy term on ``labels``, one SGD step;
    ``what`` names the loss in the error if it is not finite."""
    x = photometric(images, weak_strength, rng_aug)
    (loss,), grads = loss_and_gradients(model, x, [(labels, None)], rng=rng_noise)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite {what}")
    sgd_step(model, grads, lr)
    return loss


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def train_baseline(labeled: Dataset, cfg: RmlConfig, k: int, arch_index: int = 0,
                   seed: int | None = None, on_eval=None) -> NetModel:
    """Supervised training on weakly augmented labeled data only; calls
    ``on_eval(iteration, lr, loss, model)``, if given, every eval interval."""
    cfg.validate()
    if len(labeled) == 0:
        raise ConfigError("baseline training needs a nonempty labeled set")
    seed = cfg.seed if seed is None else seed
    ss = np.random.SeedSequence([seed, 0xBA5E])
    rng_data, rng_aug, rng_noise = [np.random.default_rng(s) for s in ss.spawn(3)]
    model = _build_learner(cfg, arch_index, k, labeled.images, labeled.labels, seed)
    for it in range(cfg.baseline_iterations):
        idx = _sample(rng_data, len(labeled), cfg.batch_labeled)
        lr = poly_lr(cfg.lr, it, cfg.baseline_iterations, cfg.lr_power)
        loss = _supervised_step(model, labeled.images[idx], labeled.labels[idx], cfg.weak_strength,
                                lr, rng_aug, rng_noise, f"baseline loss at iteration {it}")
        if on_eval is not None and (it + 1) % cfg.eval_interval == 0:
            on_eval(it + 1, lr, loss, model)
    release_heap()
    return model


def _start_models(labeled: Dataset, cfg: RmlConfig, k: int, on_eval) -> tuple:
    """The pair stage 1 starts from: at 0 baseline iterations, two fresh
    initializations for mutual learning from scratch; one baseline per
    learner of a heterogeneous pair; else one shared baseline twice, which is
    also the supervised run's one model (the run that passes ``on_eval``)."""
    if cfg.baseline_iterations == 0:
        return tuple(_build_learner(cfg, i, k, labeled.images, labeled.labels,
                                    seed=cfg.seed + 101 * (i + 1)) for i in range(2))
    if cfg.variant != "supervised" and (cfg.arch_pair[0] != cfg.arch_pair[1]
                                        or cfg.feature_dim[0] != cfg.feature_dim[1]):
        return tuple(train_baseline(labeled, cfg, k, arch_index=i, seed=cfg.seed + i)
                     for i in range(2))
    model = train_baseline(labeled, cfg, k, on_eval=on_eval)
    return model, model


# ---------------------------------------------------------------------------
# stage setup
# ---------------------------------------------------------------------------


def init_stage(baselines, labeled: Dataset, unlabeled: Dataset, cfg: RmlConfig,
               k: int, stage: int, rngs) -> list[Learner]:
    """The stage's two learners, cloned from the pair ``baselines`` (a shared
    baseline is the same model twice), each with the streams ``rngs`` gives
    it as ``(rng_labeled, rng_student, rng_teacher)``.

    Only rml keeps stores, and banks only with prototype confidence. Stage 1
    stores each baseline's own soft predictions; later stages start from the
    previous mean teachers, and both learners share their average. Learners
    of one shared baseline share its store and start from copies of one bank.
    """
    shared = baselines[0] is baselines[1]
    banks = [None, None]
    if cfg.needs_rectification and cfg.confidence_source == "prototype":
        banks[0] = init_bank(baselines[0], labeled, unlabeled, k=k, lam=cfg.lam)
        banks[1] = (banks[0].copy() if shared else
                    init_bank(baselines[1], labeled, unlabeled, k=k, lam=cfg.lam))
    stores = [None, None]
    if cfg.needs_rectification and len(unlabeled) > 0:
        # float64, as all of rectification is; each chunk's softmax goes straight in
        models = baselines[:1] if shared else baselines
        p0 = [np.empty(unlabeled.images.shape[:3] + (k,)) for _ in models]

        def fill(rows, *logits):
            for p, m, z in zip(p0, models, logits):
                p[rows] = pixels(m, softmax(z))

        eval_chunks(models, unlabeled.images, fill)
        if stage > 1 and not shared:
            # average in place: no third (N,H,W,K) array at the peak
            p0[0] += p0[1]
            p0[0] *= 0.5
            del p0[1]
        per = [StagePseudoStore(unlabeled.ids, p, stage) for p in p0]
        stores = [per[0], per[-1]]
    return [Learner(base.clone(), base.clone(), bank, store, *streams)
            for base, bank, store, streams in zip(baselines, banks, stores, rngs)]


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


def labeled_step(learners: list[Learner], images: np.ndarray, labels: np.ndarray,
                 cfg: RmlConfig, lr: float) -> list:
    """One supervised SGD step per student; teachers untouched."""
    return [_supervised_step(learner.student, images, labels, cfg.weak_strength, lr,
                             learner.rng_labeled, learner.rng_labeled, "labeled loss")
            for learner in learners]


def pseudo_labels(learner: Learner, x: np.ndarray, ids, cfg: RmlConfig,
                  rng) -> tuple[HardLabels, np.ndarray, int]:
    """A learner's pseudo labels for one unlabeled batch, from the source its
    variant names (see the module docstring).

    Returns ``(labels, feats, fallback_pixels)``, with the features of the
    model that made the labels.
    """
    if cfg.needs_rectification:
        return rectified_labels(learner.teacher, x, ids, learner.bank, learner.store,
                                cfg.weak_strength, cfg.tau, rng, cfg.confidence_source)
    model = learner.student if cfg.variant == "direct_ml" else learner.teacher
    feats, logits = teacher_predict(model, x, cfg.weak_strength, rng)
    y = harden_with_threshold(softmax(logits), cfg.tau)   # on the model's grid
    return (HardLabels(pixels(model, y.labels), pixels(model, y.valid), y.num_classes),
            pixels(model, feats), 0)


def _mix_halves(halves: list, masks) -> HardLabels:
    """CutMix the labels and gates of a pair's two halves; one half passes
    through."""
    if len(halves) == 1:
        return halves[0]
    y1, y2 = halves
    return HardLabels(mix_label_maps(y1.labels, y2.labels, masks),
                      mix_label_maps(y1.valid, y2.valid, masks), y1.num_classes)


def unlabeled_step(learners: list[Learner], batch1, batch2, cfg: RmlConfig,
                   lr: float, k: int, rng_mask, labeled_batch):
    """One mutual-learning step on an unlabeled pair.

    ``batch1``/``batch2`` are ``(images, ids)``; ``batch2`` is ``None``
    on data with 1x1 labels, which takes no CutMix. Each learner
    labels each half with :func:`pseudo_labels`; the halves are mixed with
    CutMix masks from ``rng_mask``. Every student trains on its peer's
    labels, plus its own unless the variant is direct_ml. Both learners'
    pseudo labels and gradients come from pre-step parameters; afterwards
    each bank kept takes batch prototypes from both halves and the
    ``labeled_batch`` ``(images, labels)``, and each teacher its EMA step.
    Returns ``(per_student_losses, StepInfo)``.
    """
    batches = [batch1] if batch2 is None else [batch1, batch2]
    x_mix, mask_stack = batch1[0], None
    if batch2 is not None:
        h, w = x_mix.shape[1:3]
        mask_stack = np.stack([sample_rect_mask(h, w, rng_mask) for _ in range(len(x_mix))])
        x_mix = mix_images(x_mix, batch2[0], mask_stack)

    # per learner, one (labels, feats, fallback) per half
    halves = [[pseudo_labels(learner, x, ids, cfg, learner.rng_teacher) for x, ids in batches]
              for learner in learners]
    labels = [_mix_halves([y for y, _, _ in hs], mask_stack) for hs in halves]

    losses, grads_list, info_terms, info_valid = [], [], [], []
    for i, learner in enumerate(learners):
        xs = photometric(x_mix, cfg.strong_strength, learner.rng_student)
        peer, own = labels[1 - i], labels[i]
        terms = [(peer.labels, peer.valid)]
        if cfg.variant != "direct_ml":
            terms.append((own.labels, own.valid))
        term_losses, grads = loss_and_gradients(learner.student, xs, terms,
                                                rng=learner.rng_student)
        total = float(sum(term_losses))
        if not np.isfinite(total):
            raise TrainingError("non-finite unlabeled loss")
        losses.append(total)
        grads_list.append(grads)
        info_terms.append(term_losses)
        info_valid.append(int(sum(t[1].sum() for t in terms)))
    for learner, grads in zip(learners, grads_list):
        sgd_step(learner.student, grads, lr)

    lx, ll = labeled_batch
    for learner, hs in zip(learners, halves):
        if learner.bank is not None:
            fparts = [f.reshape(-1, f.shape[-1]) for _, f, _ in hs]
            aparts = [y.labels.ravel() for y, _, _ in hs]
            lf, _ = teacher_predict(learner.teacher, lx, cfg.weak_strength, learner.rng_teacher)
            fparts.append(pixels(learner.teacher, lf).reshape(-1, lf.shape[-1]))
            aparts.append(np.asarray(ll).ravel())
            eta_prime, present = batch_prototypes(np.concatenate(fparts),
                                                  np.concatenate(aparts), k)
            update_bank(learner.bank, eta_prime, present)
        ema_params(learner.teacher, learner.student, cfg.alpha)
    fallback = sum(fb for hs in halves for _, _, fb in hs)
    return losses, StepInfo(info_terms, info_valid, fallback)


# ---------------------------------------------------------------------------
# metrics during a run
# ---------------------------------------------------------------------------


def _measure_pseudo_acc(learners, ds_sub, cfg, rng):
    """Pseudo-label accuracy of each learner on a held-out unlabeled subset."""
    labels = [pseudo_labels(learner, ds_sub.images, ds_sub.ids, cfg, rng)[0]
              for learner in learners]
    return [pseudo_accuracy(y.labels, ds_sub.labels, y.valid) for y in labels]


def _pair_tv(models, eval_set: Dataset, k: int, limit: int):
    """``(mious, accs, tv)``: each model's eval mIoU and accuracy from per-pixel confusion
    counts of its grid argmax, summed over the chunks of one :func:`netcore.eval_chunks`
    pass over both, and the mean TV distance over all the chunks' per-pixel TV rows."""
    labels = eval_set.labels[:limit]

    def score(rows, *logits):
        probs = [(m, softmax(z)) for m, z in zip(models, logits)]
        return ([confusion_matrix(pixels(m, p.argmax(axis=-1)), labels[rows], k) for m, p in probs],
                tv_rows(*(pixels(m, p) for m, p in probs)))

    parts = eval_chunks(models, eval_set.images[:limit], score)
    scores = [segmentation_scores(sum(confs[i] for confs, _ in parts)) for i in range(2)]
    tv = float(np.concatenate([rows for _, rows in parts]).mean())
    return [s[1] for s in scores], [s[2] for s in scores], tv


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------


def run_rml(labeled: Dataset, unlabeled: Dataset, eval_set: Dataset, cfg: RmlConfig,
            k: int, baselines=None, out_dir=None) -> RunResult:
    """Full stage-wise run; emits one metrics record per eval interval.

    ``baselines``: an optional pretrained pair to start from, one shared
    model given twice or one per learner; without it the run trains its own
    (see ``_start_models``). The supervised variant runs zero stages: its
    records are the baseline's, and its one model is ``baseline.ckpt``.
    Metrics are appended to ``out_dir/metrics.jsonl`` as they are produced,
    so partial output survives a failure; checkpoints are written at stage
    boundaries.
    """
    cfg.validate()
    stages = 0 if cfg.variant == "supervised" else cfg.stages
    records: list[MetricsRecord] = []
    out_path = Path(out_dir) if out_dir is not None else None
    sink = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        sink = open(out_path / "metrics.jsonl", "w")

    def emit(rec: MetricsRecord):
        records.append(rec)
        if sink is not None:
            sink.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
            sink.flush()

    def emit_baseline(it: int, lr: float, loss: float, model: NetModel):
        miou, acc = evaluate_model(model, eval_set, k, cfg.eval_subset)
        emit(MetricsRecord(
            iteration=it, stage=0, lr=lr, loss_labeled=[loss], loss_unlabeled=None,
            miou_students=[miou], acc_students=[acc],
            miou_teachers=None, acc_teachers=None,
            tv_teachers=None, tv_students=None, pseudo_acc=None,
        ))

    def save(name: str, model: NetModel, extra):
        if out_path is not None:
            save_checkpoint(out_path / f"{name}.ckpt", model, extra)

    try:
        if baselines is None:
            baselines = _start_models(labeled, cfg, k, None if stages else emit_baseline)

        rng_data, rng_mask, *streams = [np.random.default_rng(s) for s in
                                        np.random.SeedSequence([cfg.seed, 0x51A6E]).spawn(8)]
        # learner i's labeled, student and teacher streams, for every stage
        rngs = [(streams[4 + i], streams[i], streams[2 + i]) for i in range(2)]
        rng_metrics = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x3E7A1]))

        n_halves = 1 if unlabeled.labels.shape[1:] == (1, 1) else 2   # CutMix needs pixel labels
        pseudo_sub = None
        if len(unlabeled) > 0:
            n_sub = min(cfg.pseudo_subset, len(unlabeled))
            pseudo_sub = Dataset(unlabeled.images[:n_sub], unlabeled.labels[:n_sub],
                                 unlabeled.ids[:n_sub])

        summary: dict = {"variant": cfg.variant, "seed": cfg.seed, "stages": [],
                         "initial_pseudo_acc": None}
        quad = None
        for stage in range(1, stages + 1):
            learners = init_stage(baselines, labeled, unlabeled, cfg, k, stage, rngs)
            quad = ModelQuad([learner.student for learner in learners],
                             [learner.teacher for learner in learners])
            if stage == 1 and learners[0].store is not None and pseudo_sub is not None:
                init_hard = harden_with_threshold(learners[0].store.get_batch(pseudo_sub.ids),
                                                  cfg.tau)
                summary["initial_pseudo_acc"] = pseudo_accuracy(
                    init_hard.labels, pseudo_sub.labels, init_hard.valid)
            for it in range(cfg.iterations):
                lr = poly_lr(cfg.lr, it, cfg.iterations, cfg.lr_power)
                li = _sample(rng_data, len(labeled), cfg.batch_labeled)
                lab_imgs, lab_labels = labeled.images[li], labeled.labels[li]
                losses_l = labeled_step(learners, lab_imgs, lab_labels, cfg, lr)
                losses_u = None
                if len(unlabeled) > 0:
                    ui = _sample(rng_data, len(unlabeled), n_halves * cfg.batch_unlabeled)
                    parts = [(unlabeled.images[j], unlabeled.ids[j])
                             for j in np.split(ui, n_halves)]
                    losses_u, _ = unlabeled_step(
                        learners, parts[0], parts[1] if n_halves == 2 else None, cfg, lr, k,
                        rng_mask, labeled_batch=(lab_imgs, lab_labels))
                if (it + 1) % cfg.eval_interval == 0:
                    miou_s, acc_s, tv_s = _pair_tv(quad.students, eval_set, k, cfg.eval_subset)
                    miou_t, acc_t, tv_t = _pair_tv(quad.teachers, eval_set, k, cfg.eval_subset)
                    emit(MetricsRecord(
                        iteration=(stage - 1) * cfg.iterations + it + 1, stage=stage,
                        lr=lr, loss_labeled=losses_l, loss_unlabeled=losses_u,
                        miou_students=miou_s, acc_students=acc_s,
                        miou_teachers=miou_t, acc_teachers=acc_t,
                        tv_teachers=tv_t, tv_students=tv_s,
                        pseudo_acc=(None if pseudo_sub is None else
                                    _measure_pseudo_acc(learners, pseudo_sub, cfg, rng_metrics)),
                    ))
            last = records[-1]
            summary["stages"].append({
                "stage": stage,
                "miou_students": last.miou_students,
                "miou_teachers": last.miou_teachers,
                "final_miou": float(np.mean(last.miou_teachers)),
                "pseudo_acc": last.pseudo_acc,
                "tv_teachers": last.tv_teachers,
            })
            for i, learner in enumerate(learners, 1):
                extra = None if learner.bank is None else bank_tensors(learner.bank)
                save(f"stage{stage}_student{i}", learner.student, extra)
                save(f"stage{stage}_teacher{i}", learner.teacher, extra)
            baselines = tuple(quad.teachers)
        if stages:
            summary.update(final_miou=float(np.mean(last.miou_teachers)),
                           final_miou_students=last.miou_students,
                           final_miou_teachers=last.miou_teachers,
                           final_pseudo_acc=last.pseudo_acc,
                           final_tv_teachers=last.tv_teachers)
        else:
            save("baseline", baselines[0], None)
            miou, acc = evaluate_model(baselines[0], eval_set, k, cfg.eval_subset)
            summary.update(final_miou=miou, final_acc=acc, final_miou_students=[miou],
                           final_pseudo_acc=None)
        if out_path is not None:
            (out_path / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return RunResult(quad, records, summary)
    finally:
        if sink is not None:
            sink.close()
        release_heap()
