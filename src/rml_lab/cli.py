"""Command-line front door: data generation, training, presets, curve export.

Subcommands: ``gen-data``, ``train``, ``validate``, ``eval``, ``preset``,
``emit-curves``.
Every training run writes a manifest (resolved config + seed + artifact
hashes) sufficient to reproduce its metrics bit for bit. Errors exit
nonzero with a single machine-parseable ``error:<category>: ...`` line;
every success prints one JSON document on stdout.

A preset is data in ``PRESETS``: a dataset, shared training keywords, a
seed count, named rows of overrides and named seed-paired comparisons.
``run_preset`` trains each row at each seed into ``<out>/<row>/seed<s>`` and
reports every run's summary verbatim beside the comparisons; the curves of
all runs come from ``emit-curves --metrics <out>``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, resolved_dump, validate_config
from .data import (
    generate_digits_dataset,
    generate_shapes_dataset,
    ingest_mnist_idx,
    load_dataset,
    make_split,
    save_dataset,
    save_split,
)
from .errors import ConfigError, FormatError, InputError, RmlError, StateError
from .metrics import segmentation_scores
from .netcore import load_checkpoint
from .trainer import RmlConfig, check_seed, eval_confusion, run_rml

EXIT_CODES = {"config": 2, "input": 2, "format": 3, "state": 4, "training": 5,
              "internal": 1}

# desk-scale dataset defaults
SHAPES_SPEC = dict(n_train=192, n_eval=64, h=16, w=16, k=6, rare_freq=0.12)
MNIST_TRAIN, MNIST_EVAL = 60_000, 2_000


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stale_lock(path: Path) -> bool:
    """True when a lock file holds the PID of a process that has exited."""
    try:
        pid = int(path.read_text())
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass  # no lock, an empty or unreadable one, or another user's live process
    return False


def _make_out_dir(path) -> Path:
    """Create an output directory; a path at or below a file is a FormatError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(f"cannot create output directory {path}: {exc.strerror}") from None
    return Path(path)


class OutputLock:
    """One run per output directory, enforced by a lock file holding the
    run's PID. A lock left by a process that has exited is taken over; an
    empty or unreadable lock still refuses. Two runs that start at the same
    moment on one stale lock can both take it over."""

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        _make_out_dir(self.path.parent)
        if _stale_lock(self.path):
            self.path.unlink(missing_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StateError(f"output directory {self.path.parent} is locked "
                             "(another run in progress? delete .lock if stale)") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def generate_data(dataset: str, out, seed: int, n=None, n_eval=None, size=None, k=None,
                  rare_freq=None, mnist_dir=None) -> dict:
    """Write a dataset directory; returns its path and the files' hashes.
    A size left None takes the default; 0 is a value, which the generator
    checks."""
    check_seed(seed)
    if dataset == "shapes":
        n = SHAPES_SPEC["n_train"] if n is None else n
        ne = SHAPES_SPEC["n_eval"] if n_eval is None else n_eval
        h = w = SHAPES_SPEC["h"] if size is None else size
        k = SHAPES_SPEC["k"] if k is None else k
        rare = SHAPES_SPEC["rare_freq"] if rare_freq is None else rare_freq
        train = generate_shapes_dataset(n, h, w, k, rare, seed=seed)
        ev = generate_shapes_dataset(ne, h, w, k, rare, seed=seed + 1_000_003)
        meta = {"dataset": "shapes", "num_classes": k, "source": "synthetic-shapes",
                "seed": seed, "n_train": n, "n_eval": ne}
    else:
        if mnist_dir:
            train, ev = ingest_mnist_idx(mnist_dir)
            source = "mnist-idx"
        else:
            print("warning: no --mnist-dir with real MNIST IDX files; "
                  "generating the synthetic digits stand-in", file=sys.stderr)
            n = MNIST_TRAIN if n is None else n
            ne = MNIST_EVAL if n_eval is None else n_eval
            train = generate_digits_dataset(n, seed=seed)
            ev = generate_digits_dataset(ne, seed=seed + 1_000_003)
            source = "synthetic-digits"
        meta = {"dataset": "mnist", "num_classes": 10, "source": source,
                "seed": seed, "n_train": len(train), "n_eval": len(ev)}
    out = _make_out_dir(out)
    paths = save_dataset(out, train, ev, meta)
    return {"out": str(out), "hashes": {p.name: sha256_file(p) for p in paths}}


def cmd_gen_data(args) -> int:
    result = generate_data(args.dataset, args.out, args.seed, args.n, args.n_eval,
                           args.size, args.k, args.rare_freq, args.mnist_dir)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def run_training(cfg: ExperimentConfig, out_dir) -> dict:
    """Load data, split, run, write manifest. Returns the run summary."""
    out = Path(out_dir)
    train, ev, meta = load_dataset(cfg.data_dir)
    k = meta["num_classes"]
    split = make_split(len(train), cfg.train.labeled_fraction, cfg.train.seed)
    labeled = train.subset(split.labeled)
    unlabeled = train.subset(split.unlabeled)
    with OutputLock(out):
        result = run_rml(labeled, unlabeled, ev, cfg.train, k=k, out_dir=out)
        save_split(out, split)
        manifest = {
            "resolved_config": cfg.to_dict(),
            "seed": cfg.train.seed,
            "dataset_meta": meta,
            "artifacts": {
                p.name: sha256_file(p)
                for p in sorted(out.iterdir())
                if p.suffix in (".jsonl", ".json", ".ckpt") and p.name != "manifest.json"
            },
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return result.summary


def cmd_train(args) -> int:
    cfg = validate_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
        cfg.validate()
    if args.data:
        cfg.data_dir = args.data
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    cfg.out_dir = str(out)
    summary = run_training(cfg, out)
    print(json.dumps({"out": str(out), "final_miou": summary.get("final_miou")},
                     sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    cfg = validate_config(args.config)
    sys.stdout.write(resolved_dump(cfg))
    return 0


def cmd_eval(args) -> int:
    """Score a checkpoint on one split by in-run evaluation's chunk path,
    :func:`trainer.eval_confusion`; a K not the dataset's is an input error."""
    model, _ = load_checkpoint(args.checkpoint)
    train, ev, meta = load_dataset(args.data)
    k = meta["num_classes"]
    if model.num_classes != k:
        raise InputError(f"checkpoint {args.checkpoint} has K={model.num_classes} classes, "
                         f"but the dataset has {k}")
    ds = ev if args.split == "eval" else train
    iou, miou, acc = segmentation_scores(eval_confusion(model, ds, k))
    print(json.dumps({"miou": miou, "pixel_acc": acc,
                      "iou": [None if np.isnan(v) else float(v) for v in iou]},
                     indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# emit-curves
# ---------------------------------------------------------------------------


def _flatten_record(rec: dict) -> dict:
    flat = {}
    for key, value in rec.items():
        if key in ("iteration",):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[key] = value
        elif isinstance(value, list):
            for i, v in enumerate(value):
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    flat[f"{key}_{i + 1}"] = v
    return flat


def emit_curves(metrics_dir, out_dir=None) -> tuple[int, int]:
    """JSON-lines metrics -> one CSV per series. Returns (n_series, n_warnings)."""
    metrics_dir = Path(metrics_dir)
    if not metrics_dir.is_dir():
        raise FormatError(f"metrics path {metrics_dir} is not a directory")
    out_dir = Path(out_dir) if out_dir else metrics_dir / "curves"
    series: dict[str, dict[int, float]] = {}
    warnings = 0
    for jl in sorted(metrics_dir.glob("**/metrics.jsonl")):
        prefix = "".join(part + "_" for part in jl.parent.relative_to(metrics_dir).parts)
        seen: set[int] = set()
        for line in jl.read_bytes().splitlines():
            if not line.strip():
                continue
            try:   # a line that is not UTF-8 is a UnicodeDecodeError, a ValueError
                rec = json.loads(line.decode("utf-8"))
                it = int(rec["iteration"])
            except (KeyError, TypeError, ValueError):
                warnings += 1
                continue
            if it in seen:
                warnings += 1  # duplicate iteration: last writer wins
            seen.add(it)
            for name, value in _flatten_record(rec).items():
                series.setdefault(prefix + name, {})[it] = value
    _make_out_dir(out_dir)
    for name, points in sorted(series.items()):
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "value"])
            for it in sorted(points):
                writer.writerow([it, points[it]])
    return len(series), warnings


def cmd_emit_curves(args) -> int:
    n, warnings = emit_curves(args.metrics, args.out)
    print(json.dumps({"series": n, "warnings": warnings}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


# calibrated desk-scale hyperparameters shared by the shapes presets
SHAPES_TRAIN = dict(
    arch_pair=("cnn", "cnn"), feature_dim=16, labeled_fraction=1 / 8,
    lr=0.08, baseline_iterations=1200, iterations=1200, stages=1, batch_labeled=4,
    batch_unlabeled=4, eval_interval=200, eval_subset=64, pseudo_subset=96,
    weak_strength=0.2, strong_strength=1.0, alpha=0.99, lam=0.999,
)

MNIST_TRAIN_KW = dict(
    arch_pair=("mlp", "mlp"), feature_dim=64, hidden=64, labeled_fraction=1 / 60,
    lr=0.2, iterations=10_000, stages=1, batch_labeled=32, batch_unlabeled=32,
    eval_interval=500, eval_subset=512, pseudo_subset=256, baseline_iterations=0,
    weak_strength=0.1, strong_strength=1.0, alpha=0.99,
)

# clean student input and no dropout or stochastic depth
NO_NOISE = dict(strong_strength=0.0, dropout_rate=0.0, sd_survival=1.0)

# A preset trains each row (the shared ``train`` keywords updated by the row's
# overrides) at seeds ``--seed`` .. ``--seed + seeds - 1``. A comparison
# ``(a, b, metric, stage)`` pairs rows a and b seed by seed on one metric of
# ``summary["stages"][stage - 1]``; a seed is A's when its value is higher.
PRESETS = {
    "fig2-divergence": dict(
        dataset="mnist", data_seed=1234, train=MNIST_TRAIN_KW, seeds=1,
        rows={"direct": dict(variant="direct_ml", **NO_NOISE),
              "indirect_noise": dict(variant="iml_noise")},
        comparisons={"mean_teacher_tv": ("indirect_noise", "direct", "tv_teachers", 1)}),
    "ablation-table": dict(
        dataset="shapes", data_seed=777, train=SHAPES_TRAIN, seeds=3,
        rows={"supervised": dict(variant="supervised"),
              "direct_ml": dict(variant="direct_ml", **NO_NOISE),
              "iml": dict(variant="iml", **NO_NOISE),
              "iml_noise": dict(variant="iml_noise"),
              "rml": dict(variant="rml", stages=2),
              "rml_tsoftmax": dict(variant="rml", stages=2,
                                   confidence_source="teacher_softmax")},
        comparisons={
            "mean_teacher_tv": ("iml", "direct_ml", "tv_teachers", 1),
            "mean_teacher_miou": ("iml", "direct_ml", "final_miou", 1),
            "noise_miou": ("iml_noise", "iml", "final_miou", 1),
            "rectify_miou": ("rml", "iml_noise", "final_miou", 1),
            "prototype_miou_stage1": ("rml", "rml_tsoftmax", "final_miou", 1),
            "prototype_miou_stage2": ("rml", "rml_tsoftmax", "final_miou", 2),
            "prototype_pseudo_acc_stage1": ("rml", "rml_tsoftmax", "pseudo_acc", 1),
            "prototype_pseudo_acc_stage2": ("rml", "rml_tsoftmax", "pseudo_acc", 2)}),
    "threshold-sweep": dict(
        dataset="shapes", data_seed=777, train=SHAPES_TRAIN, seeds=1,
        rows={f"tau{tau:g}": dict(variant="rml", tau=tau) for tau in (0.0, 0.6, 0.9)},
        comparisons={f"tau{tau}_miou": (f"tau{tau}", "tau0", "final_miou", 1)
                     for tau in ("0.6", "0.9")}),
    "hetero-pair": dict(
        dataset="shapes", data_seed=777, train=SHAPES_TRAIN, seeds=1,
        rows={"baseline_mlp": dict(variant="supervised", arch_pair="mlp", feature_dim=24,
                                   lr=0.15),
              "baseline_cnn": dict(variant="supervised"),
              "pair": dict(variant="iml", arch_pair=("mlp", "cnn"), feature_dim=(24, 16),
                           lr=0.1, **NO_NOISE)},
        comparisons={}),
    "stage-sweep": dict(
        dataset="shapes", data_seed=777, train=SHAPES_TRAIN, seeds=1,
        rows={"rml3": dict(variant="rml", stages=3)}, comparisons={}),
}


def _ensure_data(dataset: str, data_dir, seed: int) -> Path:
    data_dir = Path(data_dir)
    if not (data_dir / "images.idx").exists():
        generate_data(dataset, data_dir, seed)
    return data_dir


def compare_runs(a_runs: list, b_runs: list, metric: str, stage: int) -> dict:
    """Seed-paired difference A - B of one stage metric, with its spread and
    how many seeds A won (a higher value) or tied. ``pseudo_acc`` is the
    mean of the two learners'."""
    def value(summary):
        v = summary["stages"][stage - 1][metric]
        return float(np.mean(v)) if metric == "pseudo_acc" else v

    deltas = [value(a) - value(b) for a, b in zip(a_runs, b_runs)]
    return {"deltas": deltas, "mean": float(np.mean(deltas)), "min": min(deltas),
            "max": max(deltas), "wins": sum(d > 0 for d in deltas),
            "ties": sum(d == 0 for d in deltas)}


def run_preset(name: str, out: Path, data_dir: Path, seed: int) -> dict:
    """Train every row of a preset at each of its seeds into
    ``<out>/<row>/seed<s>``; returns the rows' summaries and comparisons."""
    spec = PRESETS[name]
    rows = {}
    for row, overrides in spec["rows"].items():
        runs = []
        for s in range(spec["seeds"]):
            print(f"{name}: {row} seed {s}", file=sys.stderr)
            run_out = out / row / f"seed{s}"
            train = RmlConfig(**{**spec["train"], **overrides, "seed": seed + s})
            cfg = ExperimentConfig(data_dir=str(data_dir), out_dir=str(run_out),
                                   train=train).validate()
            runs.append(run_training(cfg, run_out))
        mious = [r["final_miou"] for r in runs]
        rows[row] = {"runs": runs, "miou_mean": float(np.mean(mious)),
                     "miou_std": float(np.std(mious))}
    comparisons = {
        key: {"a": a, "b": b, "metric": metric, "stage": stage,
              **compare_runs(rows[a]["runs"], rows[b]["runs"], metric, stage)}
        for key, (a, b, metric, stage) in spec["comparisons"].items()}
    return {"preset": name, "seed": seed, "rows": rows, "comparisons": comparisons}


def cmd_preset(args) -> int:
    if args.name not in PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; available: {sorted(PRESETS)}")
    check_seed(args.seed)   # a bad --seed or --data is an error before anything is created
    if args.data:
        load_dataset(args.data)
    out = _make_out_dir(args.out)
    spec = PRESETS[args.name]
    data_dir = (Path(args.data) if args.data else
                _ensure_data(spec["dataset"], out / "data", spec["data_seed"]))
    summary = run_preset(args.name, out, data_dir, args.seed)
    text = json.dumps(summary, indent=2, sort_keys=True)
    (out / "preset_summary.json").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rml-lab",
        description="desk-scale robust mutual learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate or ingest a dataset directory")
    g.add_argument("--dataset", choices=("shapes", "mnist"), required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=None, help="training images")
    g.add_argument("--n-eval", type=int, default=None)
    g.add_argument("--size", type=int, default=None, help="shapes image side")
    g.add_argument("--k", type=int, default=None, help="shapes class count")
    g.add_argument("--rare-freq", type=float, default=None)
    g.add_argument("--mnist-dir", default=None,
                   help="directory with real MNIST IDX files")

    t = sub.add_parser("train", help="run one training config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--data", default=None)
    t.add_argument("--seed", type=int, default=None)

    v = sub.add_parser("validate", help="validate a config and print the resolved dump")
    v.add_argument("--config", required=True)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("train", "eval"), default="eval")

    p = sub.add_parser("preset", help="run a paper-style experiment preset")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("emit-curves", help="export plot-ready CSV series")
    c.add_argument("--metrics", required=True)
    c.add_argument("--out", default=None)
    return parser


PARSER = build_parser()

COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "validate": cmd_validate,
    "eval": cmd_eval,
    "preset": cmd_preset,
    "emit-curves": cmd_emit_curves,
}


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except RmlError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    raise SystemExit(main())
