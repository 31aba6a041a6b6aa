import contextlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rml_lab import cli, netcore
from rml_lab.config import config_from_dict, resolved_dump, validate_config
from rml_lab.data import load_dataset, make_split, read_idx, write_idx
from rml_lab.errors import ConfigError, StateError
from rml_lab.netcore import NoiseConfig, build_model, save_checkpoint
from rml_lab.trainer import RmlConfig, evaluate_model, run_rml


def write_config(tmp_path, blob, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(blob, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_empty_config_fills_defaults(tmp_path):
    cfg = validate_config(write_config(tmp_path, {}))
    dump = json.loads(resolved_dump(cfg))
    assert dump["tau"] == 0.0
    assert dump["stages"] == 2
    assert dump["alpha"] == 0.99
    assert dump["lam"] == pytest.approx(0.999)
    assert "dataset" not in dump and "preset" not in dump


def test_out_of_range_value_names_field(tmp_path):
    path = write_config(tmp_path, {"tau": 1.5})
    with pytest.raises(ConfigError, match="tau"):
        validate_config(path)


@pytest.mark.parametrize("field", ["hidden", "patch"])
def test_architecture_sizes_must_be_positive(tmp_path, field):
    path = write_config(tmp_path, {"seed": 1, field: 0})
    with pytest.raises(ConfigError, match=rf"cfg\.json:3: {field} must be >= 1"):
        validate_config(path)


@pytest.mark.parametrize("field, value, message", [
    ("eval_subset", 0, "must be >= 1"), ("eval_subset", -1, "must be >= 1"),
    ("pseudo_subset", 0, "must be >= 1"),
    ("weak_strength", -0.1, "must be finite and nonnegative"),
    ("weak_strength", float("nan"), "must be finite and nonnegative"),
    ("strong_strength", -1.0, "must be finite and nonnegative"),
    ("lr", float("inf"), "must be finite and nonnegative"),
    ("lr_power", -1e9, "must be finite and nonnegative"),
    ("lr_power", float("inf"), "must be finite and nonnegative")])
def test_out_of_range_subset_or_strength_is_one_config_error_on_its_line(
        tmp_path, capsys, field, value, message):
    path = write_config(tmp_path, {"seed": 1, field: value})
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error:config: {path}:3: {field} {message}")


def test_unknown_field_is_line_referenced(tmp_path):
    path = write_config(tmp_path, {"seed": 1, "taus": 0.3})
    with pytest.raises(ConfigError, match=r"cfg\.json:\d+.*taus"):
        validate_config(path)


def test_bad_value_error_names_its_own_line_once(tmp_path, capsys):
    # "iterations" is a substring of the message; the error must still point
    # at line 4, where baseline_iterations is, and name the file once
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "iterations": 10,\n  "eval_interval": 5,\n'
                    '  "baseline_iterations": -1\n}\n')
    rc = cli.main(["train", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error:config: {path}:4: baseline_iterations must be >= 0 "
                   "for the rml variant"]


def test_supervised_run_needs_a_baseline_iteration(tmp_path, capsys):
    # 0 baseline iterations means mutual learning from scratch; the
    # supervised variant trains the baseline alone, so it needs one
    path = write_config(tmp_path, {"variant": "supervised", "baseline_iterations": 0})
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error:config: {path}:3: baseline_iterations must be >= 1 for the supervised variant"]


@pytest.mark.parametrize("field", ["noise_input", "noise_model", "init_from_baseline",
                                   "use_cutmix"])
@pytest.mark.parametrize("form", ["config", "manifest"])
def test_removed_switch_is_one_unknown_field_error_on_its_line(tmp_path, capsys, field,
                                                               form):
    # the ablation switches are magnitudes at zero now: strong_strength 0,
    # dropout_rate 0 with sd_survival 1, baseline_iterations 0, and CutMix
    # follows the labels; an old config or manifest names its line
    cfg = {"seed": 1, field: False, "stages": 1}
    blob = cfg if form == "config" else {"dataset_meta": {"num_classes": 6},
                                         "resolved_config": cfg}
    path = tmp_path / f"{form}.json"
    path.write_text(json.dumps(blob, indent=2) + "\n")
    line = next(i for i, text in enumerate(path.read_text().splitlines(), start=1)
                if f'"{field}"' in text)
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error:config: {path}:{line}: unknown field(s) ['{field}']"]


def test_manifest_bad_value_names_its_resolved_config_line(tmp_path, capsys):
    # "dataset" is also a key of dataset_meta, above resolved_config; it is
    # no config field, so a manifest that still holds it names its line
    cfg = json.loads(resolved_dump(validate_config(write_config(tmp_path, {}))))
    cfg["dataset"] = "cifar"
    manifest = {"dataset_meta": {"dataset": "shapes"}, "resolved_config": cfg}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    line = next(i for i, text in enumerate(path.read_text().splitlines(), start=1)
                if '"dataset": "cifar"' in text)
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == f"error:config: {path}:{line}: unknown field(s) ['dataset']"


def test_resolved_dump_is_fixpoint(tmp_path):
    cfg = validate_config(write_config(tmp_path, {"stages": 3, "lr": 0.05}))
    dump1 = resolved_dump(cfg)
    cfg2 = config_from_dict(json.loads(dump1))
    assert resolved_dump(cfg2) == dump1


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,\n}\n')
    with pytest.raises(ConfigError, match="broken.json:3"):
        validate_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        validate_config(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def gen_shapes(tmp_path, seed=1, n=24, n_eval=8, size=8, k=4):
    out = tmp_path / f"data{seed}"
    rc = cli.main(["gen-data", "--dataset", "shapes", "--out", str(out),
                   "--seed", str(seed), "--n", str(n), "--n-eval", str(n_eval),
                   "--size", str(size), "--k", str(k)])
    assert rc == 0
    return out


def test_gen_data_deterministic_hashes(tmp_path, capsys):
    gen_shapes(tmp_path / "a", seed=1)
    h1 = json.loads(capsys.readouterr().out)["hashes"]
    gen_shapes(tmp_path / "b", seed=1)
    h2 = json.loads(capsys.readouterr().out)["hashes"]
    assert h1 == h2
    gen_shapes(tmp_path / "c", seed=2)
    h3 = json.loads(capsys.readouterr().out)["hashes"]
    assert h1 != h3


@pytest.mark.parametrize("size", [7, 1, -3])
def test_gen_data_too_small_shapes_is_one_config_error(tmp_path, capsys, size):
    out = tmp_path / "data"
    rc = cli.main(["gen-data", "--dataset", "shapes", "--out", str(out),
                   "--size", str(size)])
    assert rc == cli.EXIT_CODES["config"] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:config:") and ">= 8" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("dataset, flags", [
    ("shapes", ["--size", "0", "--k", "0"]), ("shapes", ["--n", "0"]),
    ("shapes", ["--rare-freq", "0"]), ("shapes", ["--n", "-3"]),
    ("shapes", ["--n-eval", "-1"]), ("mnist", ["--n", "-5"])],
    ids=["shapes-size0-k0", "shapes-n0", "shapes-rare0", "shapes-n-3", "shapes-neval-1",
         "mnist-n-5"])
def test_gen_data_zero_or_negative_is_one_config_error(tmp_path, capsys, dataset, flags):
    # a zero is a value, not "use the default"; a negative count is rejected
    out = tmp_path / "data"
    rc = cli.main(["gen-data", "--dataset", dataset, "--out", str(out)] + flags)
    assert rc == cli.EXIT_CODES["config"] == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error:config:")
    assert not out.exists()


@pytest.mark.parametrize("train_labels", [np.arange(5), np.r_[np.arange(9), 200]],
                         ids=["five-labels-for-ten-images", "label-200"])
def test_gen_data_mnist_dir_with_bad_labels_is_one_format_error(tmp_path, capsys,
                                                                train_labels):
    mnist = tmp_path / "mnist"
    mnist.mkdir()
    images = np.random.default_rng(0).integers(0, 256, (10, 28, 28)).astype(np.uint8)
    for prefix, labels in (("train", train_labels), ("t10k", np.arange(10))):
        write_idx(images, mnist / f"{prefix}-images-idx3-ubyte")
        write_idx(labels.astype(np.uint8), mnist / f"{prefix}-labels-idx1-ubyte")
    out = tmp_path / "data"
    rc = cli.main(["gen-data", "--dataset", "mnist", "--mnist-dir", str(mnist),
                   "--out", str(out)])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith("error:format:") and "train-labels-idx1-ubyte" in err[0]
    assert not out.exists()


def test_preset_data_is_the_gen_data_default(tmp_path, capsys):
    assert cli.main(["gen-data", "--dataset", "shapes", "--out", str(tmp_path / "cli"),
                     "--seed", "777"]) == 0
    hashes = json.loads(capsys.readouterr().out)["hashes"]
    preset_data = cli._ensure_data("shapes", tmp_path / "preset", seed=777)
    assert capsys.readouterr().out == ""
    assert {name: cli.sha256_file(preset_data / name) for name in hashes} == hashes


def test_only_the_digits_generator_imports_scipy(tmp_path):
    script = "\n".join([
        "import sys",
        "from rml_lab import cli",
        "assert 'scipy' not in sys.modules, 'importing the cli imported scipy'",
        "assert cli.main(['gen-data', '--dataset', 'mnist', '--n', '8', '--n-eval', '4',",
        f"                 '--out', {str(tmp_path / 'digits')!r}]) == 0",
        "assert 'scipy' in sys.modules"])
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "digits" / "images.idx").exists()


def quick_train_blob(data_dir, out_dir):
    return {
        "data_dir": str(data_dir), "out_dir": str(out_dir),
        "variant": "rml", "feature_dim": 8, "iterations": 10, "stages": 1,
        "baseline_iterations": 20, "eval_interval": 10, "eval_subset": 8,
        "pseudo_subset": 8, "labeled_fraction": 0.25, "seed": 3,
        "batch_labeled": 3, "batch_unlabeled": 2,
    }


def test_train_writes_manifest_and_reruns_bit_exact(tmp_path, capsys):
    data = gen_shapes(tmp_path, seed=5)
    out1 = tmp_path / "run1"
    cfg_path = write_config(tmp_path, quick_train_blob(data, out1))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert "resolved_config" in manifest and manifest["artifacts"]
    metrics1 = (out1 / "metrics.jsonl").read_bytes()
    # re-run from the manifest alone
    out2 = tmp_path / "run2"
    mpath = tmp_path / "manifest_copy.json"
    mpath.write_text(json.dumps(manifest))
    assert cli.main(["train", "--config", str(mpath), "--out", str(out2)]) == 0
    assert (out2 / "metrics.jsonl").read_bytes() == metrics1
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["artifacts"]["metrics.jsonl"] == manifest["artifacts"]["metrics.jsonl"]


def test_train_missing_dataset_fails_with_category(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data_dir": str(tmp_path / "nowhere")})
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error:format:")


def test_lock_prevents_concurrent_runs(tmp_path, capsys):
    data = gen_shapes(tmp_path, seed=6)
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    cfg_path = write_config(tmp_path, quick_train_blob(data, out))
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == cli.EXIT_CODES["state"]
    assert "error:state:" in capsys.readouterr().err


def test_lock_holds_the_run_pid_and_is_released(tmp_path):
    with cli.OutputLock(tmp_path / "out") as lock:
        assert lock.path.read_text() == f"{os.getpid()}\n"
        with pytest.raises(StateError):
            cli.OutputLock(tmp_path / "out").__enter__()
    assert not lock.path.exists()


def test_stale_lock_is_taken_over(tmp_path):
    data = gen_shapes(tmp_path, seed=6)
    out = tmp_path / "stale"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # exited and reaped: its PID names no live process
    (out / ".lock").write_text(f"{child.pid}\n")
    cfg_path = write_config(tmp_path, quick_train_blob(data, out))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "manifest.json").exists()
    assert not (out / ".lock").exists()


def test_train_hands_back_the_heap(tmp_path, monkeypatch):
    # the baseline and the run after it each end with a trim, with or without an eval pool
    data = gen_shapes(tmp_path, seed=7)
    trims = []
    monkeypatch.setattr(netcore, "_malloc_trim", trims.append)
    cfg_path = write_config(tmp_path, quick_train_blob(data, tmp_path / "run"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert trims == [0, 0]


def test_eval_checkpoint(tmp_path, capsys):
    data = gen_shapes(tmp_path, seed=7)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, quick_train_blob(data, out))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    ckpt = out / "stage1_teacher1.ckpt"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert 0.0 <= blob["miou"] <= 1.0


def test_validate_command_round_trips(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"stages": 1})
    assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    dump = capsys.readouterr().out
    cfg2 = config_from_dict(json.loads(dump))
    assert resolved_dump(cfg2) == dump


# ---------------------------------------------------------------------------
# emit-curves
# ---------------------------------------------------------------------------


def test_emit_curves_empty_dir(tmp_path, capsys):
    rc = cli.main(["emit-curves", "--metrics", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"series": 0, "warnings": 0}


def test_emit_curves_missing_dir_is_one_format_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    rc = cli.main(["emit-curves", "--metrics", str(missing)])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:") and str(missing) in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("below", [True, False], ids=["below-a-file", "a-file"])
@pytest.mark.parametrize("command", ["gen-data", "train", "preset", "emit-curves"])
def test_out_that_cannot_be_a_directory_is_one_format_error(tmp_path, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("x")
    out = afile / "out" if below else afile
    if command == "train":
        data = gen_shapes(tmp_path)
        write_config(tmp_path, quick_train_blob(data, tmp_path / "run"))
        capsys.readouterr()
    argv = {"gen-data": ["gen-data", "--dataset", "shapes", "--n", "4", "--n-eval", "2",
                         "--size", "8", "--k", "4"],
            "train": ["train", "--config", str(tmp_path / "cfg.json")],
            "preset": ["preset", "stage-sweep"],
            "emit-curves": ["emit-curves", "--metrics", str(tmp_path)]}[command]
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:") and str(out) in err[0]
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == "x"


@pytest.mark.parametrize("command", ["gen-data", "train", "train-config", "preset"])
def test_negative_seed_is_one_config_error_and_creates_nothing(tmp_path, capsys, command):
    data = gen_shapes(tmp_path)
    blob = quick_train_blob(data, tmp_path / "run")
    write_config(tmp_path, {**blob, "seed": -1} if command == "train-config" else blob)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"gen-data": ["gen-data", "--dataset", "shapes", "--n", "4", "--n-eval", "2",
                         "--size", "8", "--k", "4", "--seed", "-1"],
            "train": ["train", "--config", str(tmp_path / "cfg.json"), "--seed", "-1"],
            "train-config": ["train", "--config", str(tmp_path / "cfg.json")],
            "preset": ["preset", "stage-sweep", "--seed", "-1"]}[command]
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == cli.EXIT_CODES["config"] == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:config:")
    assert err[0].endswith("seed must be >= 0: -1")
    assert sorted(tmp_path.rglob("*")) == before


def test_emit_curves_orders_and_dedups(tmp_path, capsys):
    lines = [
        {"iteration": 20, "stage": 1, "tv_teachers": 0.2, "loss_labeled": [1.0, 2.0]},
        {"iteration": 10, "stage": 1, "tv_teachers": 0.5, "loss_labeled": [3.0, 4.0]},
        {"iteration": 30, "stage": 1, "tv_teachers": 0.1, "loss_labeled": [0.5, 0.6]},
        {"iteration": 30, "stage": 1, "tv_teachers": 0.7, "loss_labeled": [9.0, 9.9]},
        "not json at all",
    ]
    with open(tmp_path / "metrics.jsonl", "w") as fh:
        for rec in lines:
            fh.write((rec if isinstance(rec, str) else json.dumps(rec)) + "\n")
    # two preset rows hold a seed0 run each: a series is named by the run's
    # path below --metrics, so neither row overwrites the other
    for row, tv in (("rml", 0.25), ("iml", 0.9)):
        (tmp_path / row / "seed0").mkdir(parents=True)
        (tmp_path / row / "seed0" / "metrics.jsonl").write_text(
            json.dumps({"iteration": 10, "tv_teachers": tv}) + "\n")
    rc = cli.main(["emit-curves", "--metrics", str(tmp_path)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["warnings"] == 2  # one malformed line + one duplicate iteration
    for row, tv in (("rml", 0.25), ("iml", 0.9)):
        rows = (tmp_path / "curves" / f"{row}_seed0_tv_teachers.csv").read_text()
        assert rows.splitlines() == ["iteration,value", f"10,{tv}"]
    tv = (tmp_path / "curves" / "tv_teachers.csv").read_text().splitlines()
    assert tv[0] == "iteration,value"
    assert [row.split(",")[0] for row in tv[1:]] == ["10", "20", "30"]
    assert tv[3] == "30,0.7"  # last writer wins
    assert (tmp_path / "curves" / "loss_labeled_2.csv").exists()


def test_emit_curves_counts_a_line_that_is_not_utf8_as_one_warning(tmp_path, capsys):
    (tmp_path / "metrics.jsonl").write_bytes(
        b'{"iteration": 10, "lr": 0.1}\n\xff\xfe\n{"iteration": 20, "lr": 0.2}\n')
    assert cli.main(["emit-curves", "--metrics", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"series": 1, "warnings": 1}
    rows = (tmp_path / "curves" / "lr.csv").read_text().splitlines()
    assert rows == ["iteration,value", "10,0.1", "20,0.2"]


def test_emit_curves_three_records(tmp_path, capsys):
    with open(tmp_path / "metrics.jsonl", "w") as fh:
        for it in (10, 20, 30):
            fh.write(json.dumps({"iteration": it, "lr": it / 100}) + "\n")
    assert cli.main(["emit-curves", "--metrics", str(tmp_path)]) == 0
    rows = (tmp_path / "curves" / "lr.csv").read_text().splitlines()
    assert len(rows) == 4


# ---------------------------------------------------------------------------
# unknown preset and bad args
# ---------------------------------------------------------------------------


def test_unknown_preset_errors(tmp_path, capsys):
    rc = cli.main(["preset", "nope", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"]
    assert "error:config:" in capsys.readouterr().err


TINY_TRAIN = dict(arch_pair=("mlp", "mlp"), feature_dim=8, hidden=8, labeled_fraction=0.25,
                  baseline_iterations=4, iterations=4, eval_interval=2, eval_subset=4,
                  pseudo_subset=4, batch_labeled=2, batch_unlabeled=2)


@pytest.fixture
def tiny_preset(monkeypatch):
    """A 2-row x 2-seed preset that trains in well under a second."""
    monkeypatch.setitem(cli.PRESETS, "tiny", dict(
        dataset="shapes", data_seed=777, train=TINY_TRAIN, seeds=2,
        rows={"rml": dict(variant="rml", stages=2),
              "iml_noise": dict(variant="iml_noise", stages=2)},
        comparisons={"rectify": ("rml", "iml_noise", "pseudo_acc", 2)}))


def test_preset_writes_the_summary_it_prints(tmp_path, capsys, tiny_preset):
    out = tmp_path / "preset"
    assert cli.main(["preset", "tiny", "--out", str(out), "--seed", "4"]) == 0
    printed = capsys.readouterr().out
    summary = json.loads(printed)  # the whole of stdout is one JSON document
    assert (out / "preset_summary.json").read_text() == printed
    assert summary["preset"] == "tiny" and summary["seed"] == 4
    assert sorted(summary["rows"]) == ["iml_noise", "rml"]
    for row, entry in summary["rows"].items():
        runs = entry["runs"]
        for s, run in enumerate(runs):
            run_dir = out / row / f"seed{s}"
            assert run == json.loads((run_dir / "summary.json").read_text())
            assert run["seed"] == 4 + s and run["variant"] == row
            assert (run_dir / "manifest.json").exists()
        mious = [run["final_miou"] for run in runs]
        assert entry["miou_mean"] == pytest.approx(np.mean(mious))
        assert entry["miou_std"] == pytest.approx(np.std(mious))
    cmp = summary["comparisons"]["rectify"]
    assert (cmp["a"], cmp["b"], cmp["metric"], cmp["stage"]) == ("rml", "iml_noise",
                                                                 "pseudo_acc", 2)
    assert cmp == {**cmp, **cli.compare_runs(summary["rows"]["rml"]["runs"],
                                             summary["rows"]["iml_noise"]["runs"],
                                             "pseudo_acc", 2)}
    assert len(cmp["deltas"]) == 2
    # a given --data is read, not generated, and the same seeds give the same runs
    again = tmp_path / "again"
    assert cli.main(["preset", "tiny", "--out", str(again), "--seed", "4",
                     "--data", str(out / "data")]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == summary["rows"]
    assert not (again / "data").exists()


def stages_summary(*stages):
    return {"stages": [dict(final_miou=m, pseudo_acc=p, tv_teachers=tv)
                       for m, p, tv in stages]}


def test_comparison_is_a_seed_paired_difference():
    a = [stages_summary((0.5, [1.0, 0.5], 0.25), (0.75, [1.0, 1.0], 0.5)),
         stages_summary((0.375, [0.5, 0.5], 0.125), (0.5, [0.5, 0.25], 0.5)),
         stages_summary((0.75, [0.25, 0.75], 0.5), (0.25, [0.0, 0.5], 0.0))]
    b = [stages_summary((0.25, [0.5, 0.5], 0.5), (0.75, [0.5, 0.5], 0.5)),
         stages_summary((0.5, [0.5, 0.5], 0.125), (0.25, [0.5, 0.5], 0.5)),
         stages_summary((0.75, [0.5, 0.5], 0.25), (0.5, [0.5, 0.5], 0.25))]
    miou = cli.compare_runs(a, b, "final_miou", 1)
    assert miou == {"deltas": [0.25, -0.125, 0.0], "mean": pytest.approx(0.125 / 3),
                    "min": -0.125, "max": 0.25, "wins": 1, "ties": 1}
    # pseudo accuracy is the mean of the two learners'
    pseudo = cli.compare_runs(a, b, "pseudo_acc", 1)
    assert pseudo["deltas"] == [0.25, 0.0, 0.0] and (pseudo["wins"], pseudo["ties"]) == (1, 2)
    tv = cli.compare_runs(a, b, "tv_teachers", 2)
    assert tv == {"deltas": [0.0, 0.0, -0.25], "mean": pytest.approx(-0.25 / 3),
                  "min": -0.25, "max": 0.0, "wins": 0, "ties": 2}
    assert cli.compare_runs(a, b, "pseudo_acc", 2)["deltas"] == [0.5, -0.125, -0.25]


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_table_is_well_formed(name):
    spec = cli.PRESETS[name]
    assert spec["dataset"] in ("shapes", "mnist") and spec["seeds"] >= 1
    stages = {}
    for row, overrides in spec["rows"].items():
        # every row is a config file that validates, and sets no switch
        blob = json.loads(json.dumps({**spec["train"], **overrides}))
        assert not any(isinstance(v, bool) for v in blob.values()), row
        cfg = config_from_dict(blob).train
        stages[row] = 0 if cfg.variant == "supervised" else cfg.stages
    for a, b, metric, stage in spec["comparisons"].values():
        assert metric in ("final_miou", "pseudo_acc", "tv_teachers")
        assert 1 <= stage <= min(stages[a], stages[b])


def test_ablation_compares_equal_stage_counts():
    rows = cli.PRESETS["ablation-table"]["rows"]
    assert rows["rml"]["stages"] == rows["rml_tsoftmax"]["stages"] == 2
    assert rows["direct_ml"]["variant"] == "direct_ml"
    assert {k: v for k, v in rows["direct_ml"].items() if k != "variant"} == {
        k: v for k, v in rows["iml"].items() if k != "variant"}


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_preset_with_a_bad_data_dir_is_one_format_error_and_creates_nothing(
        tmp_path, capsys, make):
    data = tmp_path / "typo"
    if make:
        data.mkdir()
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(["preset", "stage-sweep", "--data", str(data),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:") and str(data) in err[0]
    assert sorted(tmp_path.rglob("*")) == before


def test_one_process_runs_several_commands_with_one_parser(tmp_path, capsys, monkeypatch):
    def no_second_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_second_parser)
    cfg_path = write_config(tmp_path, {"stages": 3})
    assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["stages"] == 3
    assert cli.main(["emit-curves", "--metrics", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"series": 0, "warnings": 0}
    assert cli.main(["validate", "--config", str(write_config(tmp_path, {}, "b.json"))]) == 0
    assert json.loads(capsys.readouterr().out)["stages"] == 2


def test_malformed_config_json_is_one_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"lr": 0.1,')
    rc = cli.main(["train", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:config:")
    assert "broken.json:1" in err[0]


def test_eval_missing_checkpoint_is_one_format_error(tmp_path, capsys):
    data = gen_shapes(tmp_path, seed=8)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                   "--data", str(data)])
    assert rc == cli.EXIT_CODES["format"] == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:")


def test_eval_dataset_without_meta_is_one_format_error(tmp_path, capsys):
    data = gen_shapes(tmp_path, seed=9)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, quick_train_blob(data, out))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    (data / "meta.json").unlink()
    rc = cli.main(["eval", "--checkpoint", str(out / "stage1_teacher1.ckpt"),
                   "--data", str(data)])
    assert rc == cli.EXIT_CODES["format"] == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:")
    assert "meta.json" in err[0]


@pytest.mark.parametrize("meta_text", ['{"num_classes": 6,', "[]", "{}"])
def test_eval_malformed_meta_is_one_format_error(tmp_path, capsys, meta_text):
    data = gen_shapes(tmp_path, seed=10)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, build_model("cnn", K=4, C=4, in_channels=3))
    capsys.readouterr()
    (data / "meta.json").write_text(meta_text)
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert rc == cli.EXIT_CODES["format"] == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:")
    assert "meta.json" in err[0]


def test_train_config_directory_is_one_config_error(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    rc = cli.main(["train", "--config", str(cfg_dir)])
    assert rc == cli.EXIT_CODES["config"] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:config:")
    assert "cfgdir" in err[0]


@pytest.mark.parametrize("field, value", [("tau", "0.5"), ("lr", True),
                                          ("iterations", 1000.0)])
def test_wrongly_typed_value_is_one_config_error_on_its_line(tmp_path, capsys, field, value):
    path = write_config(tmp_path, {"seed": 1, field: value, "stages": 1})
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error:config: {path}:3: {field} has the wrong JSON type")


@pytest.mark.parametrize("pair", [["cnn", "rnn"], ["cnn:hidden=32", "cnn"]])
def test_arch_pair_takes_architecture_kinds_only(tmp_path, capsys, pair):
    path = write_config(tmp_path, {"seed": 1, "arch_pair": pair})
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == cli.EXIT_CODES["config"] == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error:config: {path}:3: arch_pair must be")


def test_noisy_run_checkpoints_evaluate_like_the_run(tmp_path, capsys):
    # dropout 0.5 and survival 0.8 (the defaults): an eval forward scales
    # each residual branch of the cnn and the attn by 0.8, so a checkpoint must
    # carry the noise and the params in their dtype to score what the in-run
    # model scored
    data = gen_shapes(tmp_path, seed=11)
    train_set, ev, meta = load_dataset(data)
    k = meta["num_classes"]
    cfg = RmlConfig(variant="rml", arch_pair=("cnn", "attn"), feature_dim=8, iterations=10,
                    stages=1, baseline_iterations=20, eval_interval=10, eval_subset=8,
                    pseudo_subset=8, labeled_fraction=0.25, seed=3, batch_labeled=3,
                    batch_unlabeled=2, dropout_rate=0.5, sd_survival=0.8)
    split = make_split(len(train_set), cfg.labeled_fraction, cfg.seed)
    out = tmp_path / "run"
    result = run_rml(train_set.subset(split.labeled), train_set.subset(split.unlabeled),
                     ev, cfg, k, out_dir=out)
    quad = result.quad
    models = {f"stage1_{role}{i + 1}.ckpt": getattr(quad, role + "s")[i]
              for role in ("teacher", "student") for i in range(2)}
    assert sorted(models) == sorted(p.name for p in out.glob("*.ckpt"))
    capsys.readouterr()
    for name, model in models.items():
        assert model.noise == NoiseConfig(0.5, 0.8)
        for split_name, ds in (("eval", ev), ("train", train_set)):
            assert cli.main(["eval", "--checkpoint", str(out / name), "--data", str(data),
                             "--split", split_name]) == 0
            got = json.loads(capsys.readouterr().out)
            miou, acc = evaluate_model(model, ds, k)
            assert (got["miou"], got["pixel_acc"]) == (miou, acc), (name, split_name)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_checkpoint_with_a_non_finite_param_is_one_format_error(tmp_path, capsys, bad):
    # a one-byte overwrite can make a param NaN or infinite, which no trained
    # model has; its forward would only warn and score garbage
    data = gen_shapes(tmp_path, seed=12)
    model = build_model("mlp", K=4, C=4, in_channels=3)
    model.params["fc2_w"][1, 2] = bad
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error:format: param fc2_w in checkpoint {ckpt} is not finite"]


@pytest.mark.parametrize("k", [4, 9])
def test_eval_of_a_checkpoint_with_another_class_count_is_one_input_error(tmp_path, capsys,
                                                                          monkeypatch, k):
    # on 6-class data a K=4 checkpoint scored, and a K=9 one scored 6 IoUs
    # unless some pixel's argmax passed class 5, which failed in the counting
    data = gen_shapes(tmp_path, seed=12, k=6)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, build_model("cnn", K=k, C=4, in_channels=3))
    forwards = []
    monkeypatch.setattr(netcore, "_forward", lambda *args, **kwargs: forwards.append(args))
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert rc == cli.EXIT_CODES["input"] == 2
    captured = capsys.readouterr()
    assert captured.out == "" and forwards == []
    assert captured.err.splitlines() == [
        f"error:input: checkpoint {ckpt} has K={k} classes, but the dataset has 6"]


def test_eval_checkpoint_with_bad_noise_is_one_format_error(tmp_path, capsys):
    data = gen_shapes(tmp_path, seed=12)
    model = build_model("cnn", K=4, C=4, in_channels=3, noise=NoiseConfig(0.5, 0.8))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    blob = bytearray(ckpt.read_bytes())
    at = blob.index(struct.pack("<d", 0.8))   # the survival field of the header
    blob[at:at + 8] = struct.pack("<d", 1.5)
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert rc == cli.EXIT_CODES["format"] == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:")
    assert "stochastic_depth_survival" in err[0] and "1.5" in err[0]


@pytest.mark.parametrize("field, shift, value, message", [
    (b"cnn:", 0, 0xFF, "descriptor in checkpoint .* is not UTF-8 at offset {at}$"),
    (b"param/block1_w", 1, 0xFF, "tensor name in checkpoint .* is not UTF-8 at offset {at}$"),
    (b"param/block1_w", 13, ord("x"), "has params .*block1_x"),
], ids=["descriptor", "name", "param"])
def test_eval_of_a_bad_checkpoint_is_one_format_error(tmp_path, capsys, field, shift, value,
                                                      message):
    # a descriptor or tensor name that is not UTF-8, and a renamed param,
    # each gave a traceback from rml-lab eval
    data = gen_shapes(tmp_path, seed=12)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, build_model("cnn", K=4, C=4, in_channels=3))
    blob = bytearray(ckpt.read_bytes())
    at = blob.index(field) + shift
    blob[at] = value
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:format:")
    assert re.search(message.format(at=at), err[0]), err[0]


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A data directory and the bytes of a valid checkpoint of a small noisy
    mlp with one f64 extra tensor."""
    root = tmp_path_factory.mktemp("eval_contract")
    data = gen_shapes(root, seed=13, n=4, n_eval=2, size=8, k=3)
    ckpt = root / "model.ckpt"
    model = build_model("mlp", K=3, C=2, in_channels=3, hidden=2, noise=NoiseConfig(0.5, 0.8))
    save_checkpoint(ckpt, model, {"bank/eta": np.ones((3, 2))})
    return data, ckpt, ckpt.read_bytes()


def eval_outcome(ckpt, data, blob: bytes) -> int:
    """``rml-lab eval`` of ``blob`` as a checkpoint: exit 0 with JSON, or
    exactly one ``error:<category>:`` line and that category's exit code."""
    ckpt.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    if rc == 0:
        assert err.getvalue() == ""
        assert set(json.loads(out.getvalue())) == {"iou", "miou", "pixel_acc"}
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        category = re.match(r"error:(\w+): ", lines[0])
        assert category and rc == cli.EXIT_CODES[category[1]], lines
    return rc


def test_eval_of_every_truncated_checkpoint_is_one_error(small_checkpoint):
    data, ckpt, blob = small_checkpoint
    assert eval_outcome(ckpt, data, blob) == 0
    for n in range(len(blob)):
        assert eval_outcome(ckpt, data, blob[:n]) == cli.EXIT_CODES["format"], n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eval_of_any_one_byte_overwrite_is_json_or_one_error(small_checkpoint, draw):
    data, ckpt, blob = small_checkpoint
    at = draw.draw(st.integers(0, len(blob) - 1), label="offset")
    value = draw.draw(st.integers(0, 255).filter(lambda v: v != blob[at]), label="byte")
    eval_outcome(ckpt, data, blob[:at] + bytes([value]) + blob[at + 1:])


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("name, cut", [("labels.idx", lambda a: a[:-1]),
                                       ("eval_labels.idx", lambda a: a[:, :, 1:])],
                         ids=["one-label-short", "label-maps-narrower"])
def test_labels_that_disagree_with_their_images_are_one_format_error(
        small_checkpoint, tmp_path, capsys, command, name, cut):
    data, _, blob = small_checkpoint
    ckpt = tmp_path / "model.ckpt"   # the fixture's file holds whatever a fuzz test left
    ckpt.write_bytes(blob)
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    write_idx(cut(read_idx(bad / name)), bad / name)
    out = tmp_path / "run"
    if command == "train":
        argv = ["train", "--config", str(write_config(tmp_path, quick_train_blob(bad, out)))]
    else:
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(bad)]
    assert cli.main(argv) == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith("error:format:") and str(bad / name) in err[0], err[0]
    assert not out.exists()


@pytest.mark.parametrize("dims", [(65536,) * 4, (0,) + (65536,) * 4],
                         ids=["2**64-entries", "empty-but-too-big"])
def test_idx_dims_past_any_array_are_one_format_error(small_checkpoint, tmp_path, capsys,
                                                      dims):
    # 65536**4 entries are 2**64, 0 in int64 arithmetic, and an empty payload
    # must still fail the size check; an empty one naming such dims has no shape
    data, _, blob = small_checkpoint
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(blob)
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    (bad / "labels.idx").write_bytes(bytes([0, 0, 0x08, len(dims)])
                                     + struct.pack(f">{len(dims)}I", *dims))
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(bad)])
    assert rc == cli.EXIT_CODES["format"] == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith("error:format:") and str(bad / "labels.idx") in err[0], err[0]


IDX_NAMES = ("images.idx", "labels.idx", "eval_images.idx", "eval_labels.idx")


@pytest.mark.parametrize("name", IDX_NAMES)
def test_eval_of_every_truncated_idx_file_is_one_format_error(small_checkpoint, tmp_path,
                                                              name):
    data, ckpt, blob = small_checkpoint
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    for f in IDX_NAMES:   # 2 images of 2x2 pixels keep the truncations few
        write_idx(read_idx(bad / f)[:2, :2, :2], bad / f)
    assert eval_outcome(ckpt, bad, blob) == 0
    whole = (bad / name).read_bytes()
    for n in range(len(whole)):
        (bad / name).write_bytes(whole[:n])
        assert eval_outcome(ckpt, bad, blob) == cli.EXIT_CODES["format"], n
