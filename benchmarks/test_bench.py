"""Tests of the benchmark's own code: reference scores, reference rectification,
span arithmetic, host-speed scaling, and agreement of the metric lists with
BENCHMARK.json.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from spans import Span, SpanIndex, Tracer, covered, self_times, without_op  # noqa: E402


# -- reference segmentation scores ------------------------------------------


def test_confusion_counts_by_hand():
    gt = np.array([[0, 0, 1], [1, 2, 2]])
    pred = np.array([[0, 1, 1], [1, 2, 0]])
    assert reference.confusion(pred, gt, 3).tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]


def test_miou_by_hand():
    gt = np.array([[0, 0, 1], [1, 2, 2]])
    pred = np.array([[0, 1, 1], [1, 2, 0]])
    # IoU: class 0 = 1/3, class 1 = 2/3, class 2 = 1/2
    miou, acc = reference.miou_and_accuracy(pred, gt, 3)
    assert miou == pytest.approx((1 / 3 + 2 / 3 + 1 / 2) / 3)
    assert acc == pytest.approx(4 / 6)


def test_miou_skips_classes_absent_from_both_maps():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 0])
    miou, _ = reference.miou_and_accuracy(pred, gt, 5)   # classes 2..4 absent
    assert miou == pytest.approx((2 / 3 + 1 / 2) / 2)


def test_miou_counts_a_class_only_predicted():
    gt = np.array([0, 0, 0, 0])
    pred = np.array([0, 0, 0, 3])
    miou, acc = reference.miou_and_accuracy(pred, gt, 4)
    assert miou == pytest.approx((3 / 4 + 0.0) / 2)
    assert acc == pytest.approx(3 / 4)


def test_perfect_prediction_scores_one():
    gt = np.arange(12).reshape(3, 4) % 3
    assert reference.miou_and_accuracy(gt, gt, 3) == (1.0, 1.0)


# -- reference rectification ------------------------------------------------


def test_distance_softmax_by_hand():
    eta = np.array([[0.0, 0.0], [3.0, 4.0], [9.0, 9.0]])
    pi = np.full(3, 1 / 3)
    seen = np.array([True, True, False])
    w = reference.distance_softmax(np.array([[0.0, 0.0]]), eta, pi, seen)
    # distances 0 and 5 to the seen classes; the unseen class gets exactly 0
    assert w[0].tolist() == pytest.approx([1 / (1 + np.exp(-5)), np.exp(-5) / (1 + np.exp(-5)), 0.0])
    assert w[0, 2] == 0.0


def test_distance_softmax_weights_by_prior():
    eta = np.array([[0.0], [2.0]])
    w = reference.distance_softmax(np.array([[1.0]]), eta, np.array([0.75, 0.25]),
                                   np.array([True, True]))
    assert w[0].tolist() == pytest.approx([0.75, 0.25])


def test_rectification_flips_a_label_toward_the_prototype():
    p0 = np.array([[0.6, 0.4]])        # the frozen label says class 0
    omega = np.array([[0.1, 0.9]])     # the features sit near class 1
    labels, gap = reference.rectified_classes(p0, omega)
    assert labels.tolist() == [1]
    assert gap[0] == pytest.approx((0.36 - 0.06) / 0.36)


def test_rectification_falls_back_to_p0_when_the_product_vanishes():
    p0 = np.array([[0.2, 0.8, 0.0]])
    omega = np.array([[0.0, 0.0, 1.0]])
    labels, gap = reference.rectified_classes(p0, omega)
    assert labels.tolist() == [1]
    assert np.isinf(gap[0])


def test_rectification_mismatches_ignore_near_ties_only():
    eta = np.array([[0.0], [2.0]])
    pi = np.full(2, 0.5)
    seen = np.ones(2, dtype=bool)
    feats = np.array([[1.0], [0.0]])          # pixel 0 is equidistant: a tie
    p0 = np.array([[0.5, 0.5], [0.3, 0.7]])
    ref, _ = reference.rectified_classes(p0, reference.distance_softmax(feats, eta, pi, seen))
    assert reference.rectification_mismatches(ref, feats, p0, eta, pi, seen) == 0
    assert reference.rectification_mismatches(1 - ref, feats, p0, eta, pi, seen) == 1


# -- spans ------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(0, 4), (6, 12)], 2, 10) == 6
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        Span("a", 0.0, 10.0, -1, "op"),
        Span("b", 1.0, 4.0, 0, "op"),
        Span("c", 2.0, 3.0, 1, "op"),    # inside b: already covered by b
        Span("d", 5.0, 6.5, 0, "op"),
        Span("e", 11.0, 12.0, -1, "op"),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1.5, 3 - 1, 1, 1.5, 1])


def test_without_op_drops_a_subtree_and_renumbers_parents():
    spans = [
        Span("warm", 0.0, 1.0, -1, "warmup"),
        Span("warm.child", 0.2, 0.4, 0, "warmup"),
        Span("run", 2.0, 5.0, -1, "op0"),
        Span("run.child", 3.0, 4.0, 2, "op0"),
    ]
    kept = without_op(spans, "warmup")
    assert [(s.name, s.parent) for s in kept] == [("run", -1), ("run.child", 0)]
    assert spans[3].parent == 2


def test_span_index_queries():
    spans = [
        Span("run", 0.0, 10.0, -1, "op"),
        Span("step", 1.0, 3.0, 0, "op"),
        Span("forward", 1.5, 2.0, 1, "op", {"images": 4}),
        Span("forward", 4.0, 5.0, 0, "op", {"images": 64}),
    ]
    ix = SpanIndex(spans)
    assert ix.named("forward") == [2, 3]
    assert [i for i in ix.named("forward") if ix.under(i, ("step",))] == [2]
    assert ix.mean_s([2, 3]) == pytest.approx(0.75)
    assert ix.info_sum([2, 3], "images") == 68


def test_tracer_wraps_where_callers_look_functions_up(monkeypatch):
    home = types.ModuleType("pkg.home")
    user = types.ModuleType("pkg.user")
    exec("def leaf(x):\n    return x + 1\n"
         "def _hidden():\n    return 0\n"
         "class Box:\n    def get(self):\n        return leaf(1)\n", home.__dict__)
    user.leaf = home.leaf
    user.TABLE = {"go": home.leaf}
    exec("def caller():\n    return leaf(2) + TABLE['go'](3)\n", user.__dict__)
    pkg = types.ModuleType("pkg")
    for name, mod in (("pkg", pkg), ("pkg.home", home), ("pkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    monkeypatch.setattr("spans.MODULES", ("home", "user"))

    tracer = Tracer()
    tracer.install("pkg")
    try:
        assert user.caller() == 7
        assert home.Box().get() == 2
        assert home._hidden() == 0
    finally:
        tracer.uninstall()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("user.caller", -1), ("home.leaf", 0), ("home.leaf", 0),
                     ("home.Box.get", -1), ("home.leaf", 3)]
    assert user.leaf is home.leaf and user.TABLE["go"] is home.leaf


# -- host-speed scaling -----------------------------------------------------


def test_slowdown_is_one_at_the_reference_and_a_geometric_mean():
    every = tuple(calibrate.REFERENCE_S)
    assert calibrate.slowdown_of(dict(calibrate.REFERENCE_S), every) == pytest.approx(1.0)
    ref = calibrate.REFERENCE_S
    parts = {"step": 2 * ref["step"], "eval": 4 * ref["eval"], "python": ref["python"]}
    assert calibrate.slowdown_of(parts, every) == pytest.approx(2.0)


def test_bursts_are_taken_in_untraced_runs_only():
    import workloads

    bench = workloads.Bench({}, 0)
    bench.calibrate()                             # traced runs take no bursts
    bench.speed = calibrate.Speed()
    bench.calibrate()
    assert len(bench.speed.bursts) == 1
    assert set(bench.speed.bursts[0]) == set(calibrate.REFERENCE_S)


def test_run_slowdown_is_the_median_over_bursts_of_the_chosen_parts():
    ref = calibrate.REFERENCE_S
    speed = calibrate.Speed()
    speed.bursts = [{k: f * v for k, v in ref.items()} for f in (1.0, 3.0, 1.5)]
    speed.bursts[1]["step"] = 100 * ref["step"]       # one wild reading
    assert speed.slowdown(("eval",)) == pytest.approx(1.5)
    assert speed.slowdown(("step",)) == pytest.approx(1.5)
    assert speed.slowdown(tuple(ref)) == pytest.approx(1.5)
    assert speed.slowdown(("eval",), 1) == pytest.approx(2.25)
    assert speed.slowdown(("eval",), 0, 1) == pytest.approx(1.0)


def test_set_up_timings_are_scaled_by_the_set_up_bursts():
    import workloads

    ref = calibrate.REFERENCE_S
    bench = workloads.CkptBench({}, 0)
    bench.speed = calibrate.Speed()
    bench.speed.bursts = [{k: f * v for k, v in ref.items()} for f in (1.0, 1.0, 2.0, 2.0)]
    slow = bench.slowdowns(set_up_bursts=2)
    assert slow["setup_s"] == slow["train_s"] == pytest.approx(1.0)
    assert slow["eval_ms"] == pytest.approx(2.0)    # bursts 1 to 3
    train = workloads.TrainBench({}, 0)
    train.speed = bench.speed
    assert train.slowdowns(set_up_bursts=2)["train_s"] == pytest.approx(2.0)


def test_part_timings_cover_every_reference_part():
    parts = calibrate.part_seconds()
    assert set(parts) == set(calibrate.REFERENCE_S)
    assert all(t > 0 for t in parts.values())


# -- metric lists -----------------------------------------------------------


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    import workloads

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
