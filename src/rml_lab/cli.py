"""Command-line front door: data generation, training, presets, curve export.

Subcommands: ``gen-data``, ``train``, ``validate``, ``eval``, ``preset``,
``emit-curves``.
Every training run writes a manifest (resolved config + seed + artifact
hashes) sufficient to reproduce its metrics bit for bit. Errors exit
nonzero with a single machine-parseable ``error:<category>: ...`` line.
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
from .errors import ConfigError, FormatError, RmlError, StateError
from .metrics import segmentation_scores
from .netcore import load_checkpoint
from .trainer import RmlConfig, run_rml, soft_predictions

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


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if args.dataset == "shapes":
        # a flag not given is None; 0 is a value, which the generator checks
        n = SHAPES_SPEC["n_train"] if args.n is None else args.n
        ne = SHAPES_SPEC["n_eval"] if args.n_eval is None else args.n_eval
        h = w = SHAPES_SPEC["h"] if args.size is None else args.size
        k = SHAPES_SPEC["k"] if args.k is None else args.k
        rare = SHAPES_SPEC["rare_freq"] if args.rare_freq is None else args.rare_freq
        train = generate_shapes_dataset(n, h, w, k, rare, seed=args.seed)
        ev = generate_shapes_dataset(ne, h, w, k, rare, seed=args.seed + 1_000_003)
        meta = {"dataset": "shapes", "num_classes": k, "source": "synthetic-shapes",
                "seed": args.seed, "n_train": n, "n_eval": ne}
    else:
        if args.mnist_dir:
            train, ev = ingest_mnist_idx(args.mnist_dir)
            source = "mnist-idx"
        else:
            print("warning: no --mnist-dir with real MNIST IDX files; "
                  "generating the synthetic digits stand-in", file=sys.stderr)
            n = MNIST_TRAIN if args.n is None else args.n
            ne = MNIST_EVAL if args.n_eval is None else args.n_eval
            train = generate_digits_dataset(n, seed=args.seed)
            ev = generate_digits_dataset(ne, seed=args.seed + 1_000_003)
            source = "synthetic-digits"
        meta = {"dataset": "mnist", "num_classes": 10, "source": source,
                "seed": args.seed, "n_train": len(train), "n_eval": len(ev)}
    paths = save_dataset(_make_out_dir(out), train, ev, meta)
    hashes = {p.name: sha256_file(p) for p in paths}
    print(json.dumps({"out": str(out), "hashes": hashes}, indent=2, sort_keys=True))
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
    model, _ = load_checkpoint(args.checkpoint)
    train, ev, meta = load_dataset(args.data)
    ds = ev if args.split == "eval" else train
    preds = soft_predictions(model, ds.images).argmax(axis=-1)
    _, iou, miou, acc = segmentation_scores(preds, ds.labels, meta["num_classes"])
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
        prefix = "" if jl.parent == metrics_dir else jl.parent.name + "_"
        seen: set[int] = set()
        for line in jl.read_text().splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                it = int(rec["iteration"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
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


def _preset_cfg(dataset: str, data_dir, out_dir, **train_kw) -> ExperimentConfig:
    return ExperimentConfig(dataset=dataset, data_dir=str(data_dir),
                            out_dir=str(out_dir), train=RmlConfig(**train_kw)).validate()


def _ensure_data(dataset: str, data_dir, seed: int) -> Path:
    data_dir = Path(data_dir)
    if (data_dir / "images.idx").exists():
        return data_dir
    cmd_gen_data(build_parser().parse_args(
        ["gen-data", "--dataset", dataset, "--out", str(data_dir), "--seed", str(seed)]))
    return data_dir


# calibrated desk-scale hyperparameters shared by the shapes presets
SHAPES_TRAIN = dict(
    arch_pair=("cnn", "cnn"), feature_dim=16, labeled_fraction=1 / 8,
    lr=0.08, baseline_iterations=1200, iterations=1200, batch_labeled=4,
    batch_unlabeled=4, eval_interval=200, eval_subset=64, pseudo_subset=96,
    weak_strength=0.2, strong_strength=1.0, alpha=0.99, lam=0.999,
)

MNIST_TRAIN_KW = dict(
    arch_pair=("mlp", "mlp"), feature_dim=64, hidden=64, labeled_fraction=1 / 60,
    lr=0.2, iterations=10_000, stages=1, batch_labeled=32, batch_unlabeled=32,
    eval_interval=500, eval_subset=512, pseudo_subset=256, use_cutmix=False,
    init_from_baseline=False, baseline_iterations=1, weak_strength=0.1,
    strong_strength=1.0, alpha=0.99,
)


def preset_fig2_divergence(out: Path, data: Path | None, seed: int) -> dict:
    data_dir = _ensure_data("mnist", data or out / "data", seed=1234)
    results = {}
    for name, variant, noise in (("direct", "direct_ml", False),
                                 ("indirect_noise", "iml_noise", True)):
        cfg = _preset_cfg("mnist", data_dir, out / name, variant=variant,
                          noise_input=noise, noise_model=noise, seed=seed,
                          **MNIST_TRAIN_KW)
        print(f"fig2-divergence: running {name}", file=sys.stderr)
        summary = run_training(cfg, out / name)
        results[name] = summary
        curve = [{"iteration": r["iteration"], "tv_teachers": r["tv_teachers"]}
                 for r in map(json.loads,
                              (out / name / "metrics.jsonl").read_text().splitlines())]
        with open(out / f"divergence_{name}.jsonl", "w") as fh:
            for row in curve:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    summary = {
        "preset": "fig2-divergence", "seed": seed,
        "tv_direct_final": results["direct"]["final_tv_teachers"],
        "tv_indirect_noise_final": results["indirect_noise"]["final_tv_teachers"],
    }
    return summary


def _shapes_run(out, data_dir, seed, **overrides) -> dict:
    kw = dict(SHAPES_TRAIN)
    kw.update(overrides)
    cfg = _preset_cfg("shapes", data_dir, out, seed=seed, **kw)
    return run_training(cfg, out)


ABLATION_SEEDS = 3
ABLATION_ROWS = {
    "supervised": dict(variant="supervised", stages=1),
    "iml": dict(variant="iml", stages=1, noise_input=False, noise_model=False),
    "iml_noise": dict(variant="iml_noise", stages=1),
    "rml": dict(variant="rml", stages=2),
    "rml_tsoftmax": dict(variant="rml", stages=1, confidence_source="teacher_softmax"),
}


def preset_ablation_table(out: Path, data: Path | None, seed: int) -> dict:
    data_dir = _ensure_data("shapes", data or out / "data", seed=777)
    table: dict[str, dict] = {}
    for row, overrides in ABLATION_ROWS.items():
        runs = []
        for s in range(ABLATION_SEEDS):
            run_out = out / row / f"seed{s}"
            print(f"ablation-table: {row} seed {s}", file=sys.stderr)
            summary = _shapes_run(run_out, data_dir, seed + s, **overrides)
            runs.append(summary)
        entry = {
            "miou_mean": float(np.mean([r["final_miou"] for r in runs])),
            "miou_std": float(np.std([r["final_miou"] for r in runs])),
            "miou_runs": [r["final_miou"] for r in runs],
        }
        if runs[0].get("stages"):
            entry["stage_mious"] = [
                [st["final_miou"] for st in r["stages"]] for r in runs]
        if runs[0].get("initial_pseudo_acc") is not None:
            entry["initial_pseudo_acc"] = [r["initial_pseudo_acc"] for r in runs]
            entry["final_pseudo_acc"] = [r["final_pseudo_acc"] for r in runs]
        table[row] = entry
    summary = {"preset": "ablation-table", "seed": seed, "rows": table}
    return summary


def preset_threshold_sweep(out: Path, data: Path | None, seed: int) -> dict:
    data_dir = _ensure_data("shapes", data or out / "data", seed=777)
    taus = (0.0, 0.6, 0.9)
    mious = {}
    for tau in taus:
        run_out = out / f"tau{tau:g}"
        print(f"threshold-sweep: tau={tau}", file=sys.stderr)
        summary = _shapes_run(run_out, data_dir, seed, variant="rml", stages=1,
                              tau=tau)
        mious[f"{tau:g}"] = summary["final_miou"]
    vals = list(mious.values())
    summary = {"preset": "threshold-sweep", "seed": seed, "miou_by_tau": mious,
               "spread": float(max(vals) - min(vals))}
    return summary


def preset_hetero_pair(out: Path, data: Path | None, seed: int) -> dict:
    data_dir = _ensure_data("shapes", data or out / "data", seed=777)
    base_mlp = _shapes_run(out / "baseline_mlp", data_dir, seed,
                           variant="supervised", stages=1, arch_pair="mlp",
                           feature_dim=24, lr=0.15)
    base_cnn = _shapes_run(out / "baseline_cnn", data_dir, seed,
                           variant="supervised", stages=1)
    pair = _shapes_run(out / "pair", data_dir, seed, variant="iml", stages=1,
                       arch_pair=("mlp", "cnn"), feature_dim=(24, 16),
                       noise_input=False, noise_model=False, lr=0.1)
    summary = {
        "preset": "hetero-pair", "seed": seed,
        "baseline_mlp_miou": base_mlp["final_miou"],
        "baseline_cnn_miou": base_cnn["final_miou"],
        "pair_student_mlp_miou": pair["final_miou_students"][0],
        "pair_student_cnn_miou": pair["final_miou_students"][1],
        "pair_teacher_mious": pair["final_miou_teachers"],
    }
    return summary


def preset_stage_sweep(out: Path, data: Path | None, seed: int) -> dict:
    data_dir = _ensure_data("shapes", data or out / "data", seed=777)
    summary_run = _shapes_run(out / "rml3", data_dir, seed, variant="rml", stages=3)
    summary = {
        "preset": "stage-sweep", "seed": seed,
        "stage_mious": [st["final_miou"] for st in summary_run["stages"]],
    }
    return summary


PRESETS = {
    "fig2-divergence": preset_fig2_divergence,
    "ablation-table": preset_ablation_table,
    "threshold-sweep": preset_threshold_sweep,
    "hetero-pair": preset_hetero_pair,
    "stage-sweep": preset_stage_sweep,
}


def cmd_preset(args) -> int:
    if args.name not in PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; available: {sorted(PRESETS)}")
    out = _make_out_dir(args.out)
    summary = PRESETS[args.name](out, Path(args.data) if args.data else None,
                                 args.seed)
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


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "validate": cmd_validate,
    "eval": cmd_eval,
    "preset": cmd_preset,
    "emit-curves": cmd_emit_curves,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except RmlError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    raise SystemExit(main())
