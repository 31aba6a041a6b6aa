"""Evaluation scores inside its eval chunks (``netcore.eval_chunks``).

Each chunk-local consumer, ``evaluate_model``, ``_pair_tv``, ``rml-lab
eval`` and the stage store, is held bit for bit to the whole-array oracles
of oracles.py: on a one-chunk batch and on 37 images of 16x16, whose chunks
take 16 and 21 images, with the caller alone and with one worker beside it.
An attn model alone takes 64 such images a chunk, so it runs one chunk here;
tests/test_grid.py runs it over several.
"""

import contextlib
import io
import json
import threading

import numpy as np
import pytest

from rml_lab import cli, netcore, trainer
from rml_lab.data import load_dataset
from rml_lab.errors import TrainingError
from rml_lab.metrics import confusion_matrix
from rml_lab.netcore import NoiseConfig, build_model, save_checkpoint
from rml_lab.trainer import RmlConfig, eval_confusion, evaluate_model, init_stage

from oracles import soft_predictions, tv_distance, whole_scores

K = 6
KINDS = ("cnn", "attn", "mlp")
PEER = {"cnn": "attn", "attn": "mlp", "mlp": "cnn"}   # the other model of a pair
NOISY = NoiseConfig(dropout_rate=0.5, stochastic_depth_survival=0.8)
BATCHES = (10, 37)   # one chunk; two, the last of 21 images


@pytest.fixture(params=[0, 1], ids=["caller-alone", "one-worker"])
def spare(request, monkeypatch):
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: request.param)
    return request.param


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    """Per batch size, a shapes directory of 16x16 images whose two splits
    both hold that many."""
    dirs = {}
    for n in BATCHES:
        out = tmp_path_factory.mktemp(f"shapes{n}")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen-data", "--dataset", "shapes", "--out", str(out), "--seed",
                             str(n), "--n", str(n), "--n-eval", str(n), "--size", "16",
                             "--k", str(K)]) == 0
        dirs[n] = out
    return dirs


def model(kind, seed=3):
    """A noisy model, as a baseline or a student is."""
    return build_model(kind, K=K, C=8, noise=NOISY, seed=seed, in_channels=3)


def split(data_dirs, n):
    return load_dataset(data_dirs[n])[1]


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("kind", KINDS)
def test_evaluate_model_is_the_whole_array_score(kind, n, spare, data_dirs):
    m, ds = model(kind), split(data_dirs, n)
    pred = soft_predictions(m, ds.images).argmax(-1)
    np.testing.assert_array_equal(eval_confusion(m, ds, K), confusion_matrix(pred, ds.labels, K))
    _, miou, acc = whole_scores(m, ds.images, ds.labels, K)
    assert repr(evaluate_model(m, ds, K)) == repr((miou, acc))


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("kind", KINDS)
def test_pair_tv_is_the_whole_array_scores(kind, n, spare, data_dirs):
    models = [model(kind), model(PEER[kind], seed=4)]
    ds = split(data_dirs, n)
    want = [whole_scores(m, ds.images, ds.labels, K) for m in models]
    tv = tv_distance(*(soft_predictions(m, ds.images) for m in models))
    assert tv > 0
    got = trainer._pair_tv(models, ds, K, n)
    assert repr(got) == repr(([w[1] for w in want], [w[2] for w in want], tv))


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("kind", KINDS)
def test_cli_eval_json_is_the_whole_array_scores(kind, n, spare, data_dirs, tmp_path, capsys):
    m = model(kind)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, m)
    train, ev, _ = load_dataset(data_dirs[n])
    capsys.readouterr()
    for name, ds in (("eval", ev), ("train", train)):
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dirs[n]),
                         "--split", name]) == 0
        iou, miou, acc = whole_scores(m, ds.images, ds.labels, K)
        want = {"miou": miou, "pixel_acc": acc,
                "iou": [None if np.isnan(v) else float(v) for v in iou]}
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("kind", KINDS)
def test_stage_store_is_the_whole_array_predictions(kind, n, spare, data_dirs):
    # stage 1 of one shared baseline and of a pair stores each model's own
    # predictions; a later stage of a pair stores their average
    unlabeled = split(data_dirs, n)
    pair = (model(kind), model(PEER[kind], seed=4))
    p = [soft_predictions(b, unlabeled.images).astype(np.float64) for b in pair]
    mean = p[0].copy()
    mean += p[1]
    mean *= 0.5
    for baselines, stage, want in (((pair[0], pair[0]), 1, [p[0], p[0]]), (pair, 1, p),
                                   (pair, 2, [mean, mean])):
        cfg = RmlConfig(variant="rml", arch_pair=tuple(b.arch.kind for b in baselines),
                        feature_dim=8, confidence_source="teacher_softmax").validate()
        rngs = [[np.random.default_rng(s) for s in range(3)] for _ in range(2)]
        learners = init_stage(baselines, unlabeled, unlabeled, cfg, K, stage, rngs)
        for learner, w in zip(learners, want):
            assert learner.store.p0.tobytes() == w.tobytes()


def failing_on_a_worker(monkeypatch):
    """Make the chunk scoring's confusion count raise on a worker; the
    caller's own chunk waits until it has. Returns the images each raise
    had."""
    inner = trainer.confusion_matrix
    failed = threading.Event()
    raised = []

    def confusion(pred, gt, k):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(10)
            return inner(pred, gt, k)
        raised.append(len(gt))
        failed.set()
        raise TrainingError("scoring on a worker")

    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 1)
    monkeypatch.setattr(trainer, "confusion_matrix", confusion)
    return raised


def test_scoring_error_on_a_worker_reaches_evaluate_model_once(monkeypatch, data_dirs):
    m, ds = model("cnn"), split(data_dirs, 37)
    raised = failing_on_a_worker(monkeypatch)
    with pytest.raises(TrainingError, match="scoring on a worker"):
        evaluate_model(m, ds, K)
    assert len(raised) == 1
    monkeypatch.undo()
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 1)   # the pool serves the next call
    assert repr(evaluate_model(m, ds, K)) == repr(whole_scores(m, ds.images, ds.labels, K)[1:])


def test_scoring_error_on_a_worker_is_one_cli_error_line(monkeypatch, data_dirs, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model("attn"))
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dirs[37])]
    raised = failing_on_a_worker(monkeypatch)
    monkeypatch.setattr(netcore, "EVAL_CHUNK_ROWS", 1024)   # attn's 37 images in two chunks
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == cli.EXIT_CODES["training"]
    assert len(raised) == 1
    assert out.getvalue() == ""
    assert err.getvalue().splitlines() == ["error:training: scoring on a worker"]
    monkeypatch.undo()
    monkeypatch.setattr(netcore, "_spare_cpus", lambda: 1)
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert set(json.loads(out.getvalue())) == {"iou", "miou", "pixel_acc"}
