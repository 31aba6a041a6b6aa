"""The benchmark's workloads: inputs, set-up, timed operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. ``rml-cnn`` and ``rml-hetero`` time
whole training runs; ``ckpt-eval`` times ``rml-lab eval`` on checkpoints.

Untraced runs put every timing on the reference speed of ``calibrate.py``:
calibration bursts run between the set-ups and between the operations. Each
timing is divided by the median host slowdown that the bursts of its own
phase read, set-up or timed loop, on the kernel parts that do its kind of
work (``SCALED_BY``).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import layers
import reference
from spans import SpanIndex, Tracer, covered, without_op
from rml_lab import cli, data, netcore, rectify, trainer

SETUP_REPS = 3          # set-ups per run; setup_s is their median
CAPTURE_LIMIT = 48      # rectification calls checked per traced run
TOL = 1e-12             # equality of scores computed in two ways
CKPT_SEED = 0           # the checkpoints of ckpt-eval do not depend on --seed

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("miou", "ratio"),
    ("pseudo_acc", "ratio"),
    ("eval_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# the calibration parts that scale each timing (calibrate.py): set-up and
# training mix every kind of work, evaluation is big batched forwards
SCALED_BY = {
    "setup_s": ("step", "eval", "python"),
    "train_s": ("step", "eval", "python"),
    "eval_ms": ("eval",),
}

# rml-cnn: the paper's full method on the conv hot path, sparse in-run eval
RML_CNN = dict(
    data=dict(n=256, n_eval=128),
    train=dict(variant="rml", arch_pair=("cnn", "cnn"), feature_dim=16,
               labeled_fraction=0.25, lr=0.05, baseline_iterations=400,
               iterations=100, stages=2, eval_interval=100, eval_subset=128,
               pseudo_subset=64),
)

# rml-hetero: attention/mlp pair, no conv, dense in-run eval over the eval split
RML_HETERO = dict(
    data=dict(n=256, n_eval=128),
    train=dict(variant="rml", arch_pair=("attn", "mlp"), feature_dim=16,
               labeled_fraction=0.25, lr=0.15, baseline_iterations=600,
               iterations=200, stages=2, eval_interval=25, eval_subset=128,
               pseudo_subset=64),
)

# ckpt-eval: a short rml-cnn-style run on the default shapes sizes makes the
# final-stage checkpoints; the timed loop evaluates them
CKPT_EVAL = dict(
    data=dict(n=192, n_eval=64),
    train=dict(RML_CNN["train"], baseline_iterations=20, iterations=20,
               eval_interval=20, eval_subset=64),
)

WARMUP = dict(baseline_iterations=4, iterations=4, eval_interval=4)
WARMUP_IMAGES = 16
WARMUP_OP = "warmup"


def head(ds, n: int):
    return data.Dataset(ds.images[:n], ds.labels[:n], ds.ids[:n])


def quiet_cli(*argv) -> str:
    """Run ``rml-lab <argv>`` in-process; return its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"rml-lab {' '.join(map(str, argv))} exited with {code}")
    return buf.getvalue()


def gen_data(out: Path, seed: int, n: int, n_eval: int) -> None:
    quiet_cli("gen-data", "--dataset", "shapes", "--out", out, "--seed", seed,
              "--n", n, "--n-eval", n_eval)


def run_checkpoints(out: Path, cfg) -> list[Path]:
    """The four checkpoints each stage of a run writes, teachers first."""
    return [out / f"stage{stage}_{role}{i + 1}.ckpt" for stage in range(1, cfg.stages + 1)
            for role in ("teacher", "student") for i in range(2)]


def final_checkpoints(out: Path, cfg) -> list[Path]:
    """The four checkpoints the last stage of a run writes, teachers first."""
    return run_checkpoints(out, cfg)[-4:]


def eval_predictions(model, images) -> np.ndarray:
    """Class map of an eval-mode forward, argmax of the benchmark's own softmax."""
    was = model.mode
    model.eval()
    try:
        _, logits = model.forward(np.asarray(images, dtype=np.float64))
    finally:
        model.mode = was
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True)).argmax(axis=-1)


def close(a, b) -> bool:
    return abs(a - b) <= TOL


def percentile_tail(samples) -> float | None:
    """Highest whole percentile with at least ten samples beyond it, or None
    below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    p = int(100 * (n - 10) / n)
    return float(np.percentile(samples, p))


class Bench:
    """State shared by the workloads: checks, counts and timings."""

    SET_UP_TIMINGS = ("setup_s",)    # the timings made during set-up

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.eval_s: list[float] = []    # wall time of each checkpoint evaluation
        self.train_s: list[float] = []
        self.speed: calibrate.Speed | None = None   # set in untraced runs
        self.recorder: Tracer | None = None   # the traced run's tracer
        self.tracer: Tracer | None = None     # the recorder while it is installed
        self.captures: list = []
        self.traced_runs: list = []      # configs of the training runs traced
        self.reference_metrics = None    # first run's metrics.jsonl and summary

    def calibrate(self) -> None:
        """A calibration burst, in untraced runs only."""
        if self.speed is not None:
            self.speed.burst()

    def slowdowns(self, set_up_bursts: int) -> dict[str, float]:
        """The host slowdown that scales each timing: read by the first
        ``set_up_bursts`` bursts for the timings made during set-up, by the
        bursts of the timed loop for the others."""
        phases = {True: (0, set_up_bursts), False: (set_up_bursts - 1, None)}
        return {k: self.speed.slowdown(parts, *phases[k in self.SET_UP_TIMINGS])
                for k, parts in SCALED_BY.items()}

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)

    def checks(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def config(self, seed: int, **overrides) -> trainer.RmlConfig:
        kw = dict(self.spec["train"], seed=seed)
        kw.update(overrides)
        return trainer.RmlConfig(**kw).validate()

    def load(self, data_dir: Path, cfg: trainer.RmlConfig):
        """Dataset and labeled/unlabeled split the way ``rml-lab train`` makes them."""
        train, ev, meta = data.load_dataset(data_dir)
        split = data.make_split(len(train), cfg.labeled_fraction, cfg.seed)
        return train.subset(split.labeled), train.subset(split.unlabeled), ev, meta["num_classes"]

    def train(self, cfg, labeled, unlabeled, ev, k, out: Path, burst: bool = False):
        """Baselines plus the RML run that starts from them, as ``run_rml`` would
        train them itself; returns ``(baselines, result, seconds)``. With
        ``burst``, a calibration burst runs between the two, and its time is
        not counted."""
        t0 = perf_counter()
        if cfg.arch_pair[0] != cfg.arch_pair[1]:
            bases = tuple(trainer.train_baseline(labeled, cfg, k, arch_index=i,
                                                 seed=cfg.seed + i) for i in range(2))
        else:
            base = trainer.train_baseline(labeled, cfg, k)
            bases = (base, base)
        seconds = perf_counter() - t0
        if burst:
            self.calibrate()
        t0 = perf_counter()
        result = trainer.run_rml(labeled, unlabeled, ev, cfg, k, baselines=bases,
                                 out_dir=out)
        seconds += perf_counter() - t0
        if self.tracer is not None and self.tracer.op != WARMUP_OP:
            self.traced_runs.append(cfg)
        return bases, result, seconds

    def warm_up(self, out: Path, seed: int, labeled, unlabeled, ev, k) -> None:
        """A short training run and one ``rml-lab eval`` through every code path
        the operations use, on a slice of the data so that it stays short."""
        cfg = self.config(seed, **WARMUP)
        if self.tracer is not None:
            op, self.tracer.op = self.tracer.op, WARMUP_OP
        self.train(cfg, *(head(ds, WARMUP_IMAGES) for ds in (labeled, unlabeled, ev)), k, out)
        self.cli_eval(final_checkpoints(out, cfg)[0])
        if self.tracer is not None:
            self.tracer.op = op

    def cli_eval(self, ckpt: Path) -> tuple[dict, float]:
        """``rml-lab eval`` of one checkpoint on both splits: one evaluation.
        Returns the scores per split and the wall time."""
        t0 = perf_counter()
        out = {split: json.loads(quiet_cli("eval", "--checkpoint", ckpt, "--data",
                                           self.data_dir, "--split", split))
               for split in ("eval", "train")}
        return out, perf_counter() - t0

    def reference_scores(self, model) -> dict:
        """Reference mIoU and pixel accuracy of ``model`` on both splits."""
        train, ev, meta = data.load_dataset(self.data_dir)
        return {split: reference.miou_and_accuracy(eval_predictions(model, ds.images),
                                                   ds.labels, meta["num_classes"])
                for split, ds in (("eval", ev), ("train", train))}

    def check_rectification(self) -> None:
        for cap in self.captures:
            bad = reference.rectification_mismatches(cap["labels"], cap["feats"], cap["p0"],
                                                     cap["eta"], cap["pi"], cap["seen"])
            self.check(bad == 0, f"rectified labels differ from argmax omega*p0 on {bad} pixels")
        self.check(len(self.captures) > 0, "no rectification call was captured")

    # -- tracing ----------------------------------------------------------

    @contextlib.contextmanager
    def tracing(self, op: str):
        """Record spans of everything the block calls into rml_lab."""
        if self.recorder is None:
            self.recorder = Tracer(layers.make_hooks(rectify.rectified_labels,
                                                     self.captures, CAPTURE_LIMIT))
        self.recorder.op = op
        self.recorder.install()
        self.tracer = self.recorder
        try:
            yield
        finally:
            self.recorder.uninstall()
            self.tracer = None

    def layer_metrics(self, windows, untraced_s, traced_s) -> dict:
        """Per-layer metrics from the traced set-up and operations; the
        warm-up's spans, on a slice of the data, are left out."""
        ix = SpanIndex(without_op(self.recorder.spans, WARMUP_OP))
        runs = self.traced_runs
        values = layers.layer_metrics(
            ix, iterations=sum(c.stages * c.iterations for c in runs),
            intervals=sum(c.stages * c.iterations // c.eval_interval for c in runs),
            runs=len(runs))
        top = [(s.start, s.end) for s in self.recorder.spans if s.parent < 0]
        span_s = sum(covered(top, lo, hi) for lo, hi in windows)
        window_s = sum(hi - lo for lo, hi in windows)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s)
                                                / statistics.median(untraced_s) - 1.0)
        values["trace.coverage_pct"] = 100.0 * span_s / window_s
        return values


class TrainBench(Bench):
    """rml-cnn and rml-hetero: one operation is one whole training run."""

    def setup(self, d: Path) -> float:
        t0 = perf_counter()
        self.data_dir = d / "data"
        gen_data(self.data_dir, self.seed, **self.spec["data"])
        self.cfg = self.config(self.seed)
        self.labeled, self.unlabeled, self.ev, self.k = self.load(self.data_dir, self.cfg)
        self.warm_up(d / "warmup", self.seed, self.labeled, self.unlabeled, self.ev, self.k)
        return perf_counter() - t0

    def op(self, out: Path) -> None:
        self.attempted += 1
        bases, result, seconds = self.train(self.cfg, self.labeled, self.unlabeled,
                                            self.ev, self.k, out, burst=True)
        self.train_s.append(seconds)
        self.calibrate()
        # every checkpoint of the run through rml-lab eval, each followed by a
        # calibration burst. The first evaluation after training is slower
        # than the rest and is not timed; its result, for the final teacher 1,
        # is checked against the reference.
        ckpt = final_checkpoints(out, self.cfg)[0]
        scores, _ = self.cli_eval(ckpt)
        for c in run_checkpoints(out, self.cfg):
            self.eval_s.append(self.cli_eval(c)[1])
            self.calibrate()
        with self.checks():
            self.check_run(bases, result, out)
            model, _ = netcore.load_checkpoint(ckpt)
            for split, (miou, acc) in self.reference_scores(model).items():
                self.check(close(scores[split]["miou"], miou)
                           and close(scores[split]["pixel_acc"], acc),
                           f"rml-lab eval on the {split} split disagrees with the reference")

    def check_run(self, bases, result, out: Path) -> None:
        cfg, k, s = self.cfg, self.k, result.summary
        images = self.ev.images[:cfg.eval_subset]
        labels = self.ev.labels[:cfg.eval_subset]
        last = result.records[-1]
        for i, teacher in enumerate(result.quad.teachers):
            miou, acc = reference.miou_and_accuracy(eval_predictions(teacher, images), labels, k)
            self.check(close(s["final_miou_teachers"][i], miou) and close(last.acc_teachers[i], acc),
                       f"teacher {i + 1} mIoU/accuracy differ from the reference")
            self.check(s["final_pseudo_acc"][i] > s["initial_pseudo_acc"],
                       f"learner {i + 1} pseudo-label accuracy did not improve")
        self.check(close(s["final_miou"], float(np.mean(s["final_miou_teachers"]))),
                   "final_miou is not the mean teacher mIoU")
        base = [reference.miou_and_accuracy(eval_predictions(b, images), labels, k)[0]
                for b in bases]
        self.check(s["final_miou"] > float(np.mean(base)),
                   f"final teacher mIoU {s['final_miou']:.4f} does not exceed "
                   f"the baseline's {np.mean(base):.4f}")
        jsonl = (out / "metrics.jsonl").read_bytes()
        if self.reference_metrics is None:
            self.reference_metrics = (jsonl, s)
        self.check(jsonl == self.reference_metrics[0],
                   "metrics.jsonl differs between runs of the same inputs")

    def end_to_end(self, setup_s: float) -> dict:
        s = self.reference_metrics[1]
        return {
            "setup_s": setup_s,
            "train_s": statistics.median(self.train_s),
            "miou": s["final_miou"],
            "pseudo_acc": float(np.mean(s["final_pseudo_acc"])),
            "eval_ms": 1e3 * statistics.median(self.eval_s),
        }


class CkptBench(Bench):
    """ckpt-eval: one operation is one checkpoint evaluated on both splits."""

    SET_UP_TIMINGS = ("setup_s", "train_s")

    def __init__(self, *args):
        super().__init__(*args)
        self.checkpoints: list = []   # per checkpoint: (in-run scores, reference scores)

    def setup(self, d: Path) -> float:
        t0 = perf_counter()
        self.data_dir = d / "data"
        gen_data(self.data_dir, CKPT_SEED, **self.spec["data"])
        cfg = self.config(CKPT_SEED)
        labeled, unlabeled, ev, k = self.load(self.data_dir, cfg)
        self.warm_up(d / "warmup", CKPT_SEED, labeled, unlabeled, ev, k)
        out = d / "run"
        _, result, seconds = self.train(cfg, labeled, unlabeled, ev, k, out)
        paths = final_checkpoints(out, cfg)
        setup_s = perf_counter() - t0
        self.train_s.append(seconds)
        with self.checks():
            blobs = [p.read_bytes() for p in paths]
            if not self.checkpoints:
                self.summary = result.summary
                self.expect(paths, result.quad.teachers + result.quad.students, ev, k)
                self.blobs = blobs
            self.check(blobs == self.blobs, "checkpoints differ between set-ups of the same inputs")
        self.paths = paths
        self.order = np.random.default_rng(self.seed).permutation(len(paths))
        return setup_s

    def expect(self, paths, models, ev, k) -> None:
        """In-run eval of each in-memory model, and the reference scores of the
        model loaded from its checkpoint, on both splits."""
        train, _, _ = data.load_dataset(self.data_dir)
        for path, model in zip(paths, models):
            in_run = {"eval": trainer.evaluate_model(model, ev, k),
                      "train": trainer.evaluate_model(model, train, k)}
            loaded, _ = netcore.load_checkpoint(path)
            self.checkpoints.append((in_run, self.reference_scores(loaded)))

    def op(self, out: Path) -> None:
        """One whole round: every checkpoint once, in the seed's order."""
        for j in self.order:
            path, (in_run, ref) = self.paths[j], self.checkpoints[j]
            self.attempted += 1
            scores, seconds = self.cli_eval(path)
            self.eval_s.append(seconds)
            with self.checks():
                for split in ("eval", "train"):
                    got = scores[split]
                    self.check(close(got["miou"], ref[split][0])
                               and close(got["pixel_acc"], ref[split][1]),
                               f"rml-lab eval of {path.name} on the {split} split "
                               "disagrees with the reference")
                self.failed += not all(close(scores[sp]["miou"], in_run[sp][0])
                                       and close(scores[sp]["pixel_acc"], in_run[sp][1])
                                       for sp in ("eval", "train"))
        self.calibrate()

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "train_s": statistics.median(self.train_s),
            "miou": float(np.mean([ref["eval"][0] for _, ref in self.checkpoints])),
            "pseudo_acc": float(np.mean(self.summary["final_pseudo_acc"])),
            "eval_ms": 1e3 * statistics.median(self.eval_s),
        }


WORKLOADS = {
    "rml-cnn": (TrainBench, RML_CNN),
    "rml-hetero": (TrainBench, RML_HETERO),
    "ckpt-eval": (CkptBench, CKPT_EVAL),
}


def timed_loop(bench: Bench, seconds: float, out: Path) -> None:
    """Operations until ``seconds`` have passed, at least one."""
    t_end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < t_end:
        bench.op(out / f"op{i}")
        i += 1


def traced_loop(bench: Bench, seconds: float, out: Path):
    """Pairs of one untraced and one traced operation, in alternating order,
    until ``seconds`` have passed; returns the untraced and traced wall times
    and the ``(start, end)`` window of each traced operation."""
    untraced, traced, windows = [], [], []
    t_end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < t_end:
        for with_trace in (i % 2 == 1, i % 2 == 0):
            tag = f"traced{i}" if with_trace else f"plain{i}"
            with bench.tracing(tag) if with_trace else contextlib.nullcontext():
                lo = perf_counter()
                bench.op(out / tag)
                hi = perf_counter()
            (traced if with_trace else untraced).append(hi - lo)
            if with_trace:
                windows.append((lo, hi))
        i += 1
    return untraced, traced, windows


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        import_s: float) -> dict:
    cls, spec = WORKLOADS[name]
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=scratch) as tmp:
        tmp = Path(tmp)
        bench = cls(spec, seed)
        if not trace:
            bench.speed = calibrate.Speed()
            calibrate.part_seconds()          # untimed: first calls run slower
            bench.calibrate()
        setups = []
        for i in range(SETUP_REPS):
            setups.append(bench.setup(tmp / f"setup{i}"))
            bench.calibrate()
        tail, slowdowns = None, {}
        if not trace:
            set_up_bursts = len(bench.speed.bursts)
            timed_loop(bench, seconds, tmp)
            slowdowns = bench.slowdowns(set_up_bursts)
            metrics = bench.end_to_end(import_s + statistics.median(setups))
            for k, slowdown in slowdowns.items():
                metrics[k] /= slowdown
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
            if percentile_tail(bench.eval_s) is not None:
                tail = 1e3 * percentile_tail(bench.eval_s) / slowdowns["eval_ms"]
        else:
            with bench.tracing("setup"):
                bench.setup(tmp / "traced-setup")
            untraced, traced, windows = traced_loop(bench, seconds, tmp)
            bench.check_rectification()
            metrics = bench.layer_metrics(windows, untraced, traced)
            units = dict(layers.METRICS)
            bench.recorder.write(scratch / f"spans-{name}-seed{seed}.jsonl")
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "errors": bench.errors,
        "slowdowns": slowdowns,
        "eval_tail_ms": tail,
    }
