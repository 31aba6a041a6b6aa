import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rml_lab.errors import InputError
from rml_lab.metrics import (
    confusion_matrix,
    pseudo_accuracy,
    segmentation_scores,
    tv_rows,
)


def counting_oracle(pred, gt, k):
    """Exhaustive per-pixel confusion/IoU, no vectorization."""
    conf = [[0] * k for _ in range(k)]
    for p, g in zip(np.asarray(pred).ravel(), np.asarray(gt).ravel()):
        conf[int(g)][int(p)] += 1
    ious = []
    for c in range(k):
        tp = conf[c][c]
        fp = sum(conf[r][c] for r in range(k)) - tp
        fn = sum(conf[c][r] for r in range(k)) - tp
        if tp + fp + fn == 0:
            ious.append(None)
        else:
            ious.append(tp / (tp + fp + fn))
    present = [v for v in ious if v is not None]
    miou = sum(present) / len(present) if present else None
    return conf, ious, miou


# ---------------------------------------------------------------------------
# tv distance
# ---------------------------------------------------------------------------


def test_tv_identity():
    p = np.full((2, 1, 1, 4), 0.25)
    assert tv_rows(p, p).tolist() == [[[0.0]], [[0.0]]]


def test_tv_disjoint_onehots():
    p = np.zeros((1, 1, 1, 3))
    q = np.zeros((1, 1, 1, 3))
    p[..., 0] = 1
    q[..., 1] = 1
    assert tv_rows(p, q).tolist() == [[[1.0]]]


def test_tv_half():
    p = np.array([[[[0.5, 0.5]]]])
    q = np.array([[[[1.0, 0.0]]]])
    assert tv_rows(p, q).tolist() == [[[0.5]]]


def test_tv_shape_mismatch():
    with pytest.raises(InputError):
        tv_rows(np.full((1, 1, 1, 2), 0.5), np.full((1, 1, 1, 3), 1 / 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tv_equals_the_float64_copy_formula_bit_for_bit(dtype):
    # the run logs tv_teachers and tv_students, the mean of float32 soft predictions' rows
    rng = np.random.default_rng(11)
    p, q = (rng.random((5, 8, 8, 6)) for _ in range(2))
    p, q = ((a / a.sum(axis=-1, keepdims=True)).astype(dtype) for a in (p, q))
    p64, q64 = p.astype(np.float64), q.astype(np.float64)
    want = float(0.5 * np.abs(p64 - q64).sum(axis=-1).mean())
    assert repr(float(tv_rows(p, q).mean())) == repr(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_tv_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    shape = (2, 3, 3, int(rng.integers(2, 6)))
    p = rng.random(shape) + 1e-6
    q = rng.random(shape) + 1e-6
    p /= p.sum(axis=-1, keepdims=True)
    q /= q.sum(axis=-1, keepdims=True)
    d = tv_rows(p, q)
    assert d.shape == shape[:-1]
    assert ((0.0 <= d) & (d <= 1.0)).all()
    np.testing.assert_allclose(d, tv_rows(q, p), rtol=0, atol=1e-12)
    assert not tv_rows(p, p).any()


# ---------------------------------------------------------------------------
# segmentation scores
# ---------------------------------------------------------------------------


def test_perfect_prediction():
    gt = np.array([[0, 1], [2, 1]])
    iou, miou, acc = segmentation_scores(confusion_matrix(gt, gt, 3))
    assert miou == 1.0 and acc == 1.0
    np.testing.assert_array_equal(iou, [1.0, 1.0, 1.0])


def test_spec_2x2_example():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    iou, miou, _ = segmentation_scores(confusion_matrix(pred, gt, 2))
    assert iou[0] == pytest.approx(1 / 2)
    assert iou[1] == pytest.approx(2 / 3)
    assert miou == pytest.approx(7 / 12)


def test_absent_class_excluded():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    iou, miou, _ = segmentation_scores(confusion_matrix(pred, gt, 3))
    assert np.isnan(iou[2])
    assert miou == 1.0


def test_all_2x2_label_maps_match_oracle():
    k = 3
    maps = [np.array(m).reshape(2, 2) for m in itertools.product(range(k), repeat=4)]
    for gt in maps[::7]:
        for pred in maps[::13]:
            conf = confusion_matrix(pred, gt, k)
            iou, miou, _ = segmentation_scores(conf)
            oc, oi, om = counting_oracle(pred, gt, k)
            np.testing.assert_array_equal(conf, oc)
            for a, b in zip(iou, oi):
                if b is None:
                    assert np.isnan(a)
                else:
                    assert a == pytest.approx(b)
            assert miou == pytest.approx(om)


def test_all_3x3_label_maps_match_oracle():
    # every 3x3 K=3 map appears both as ground truth and as prediction
    k = 3
    maps = [np.array(m).reshape(3, 3) for m in itertools.product(range(k), repeat=9)]
    preds = maps[1:] + maps[:1]
    for gt, pred in zip(maps, preds):
        iou, miou, _ = segmentation_scores(confusion_matrix(pred, gt, k))
        _, oi, om = counting_oracle(pred, gt, k)
        ok = [(np.isnan(a) if b is None else a == pytest.approx(b)) for a, b in zip(iou, oi)]
        assert all(ok)
        assert miou == pytest.approx(om)


def test_label_out_of_range():
    with pytest.raises(InputError):
        confusion_matrix(np.array([0, 3]), np.array([0, 1]), 3)


def test_negative_ground_truth_label_is_an_input_error():
    # not the ValueError np.bincount raises for a negative index
    with pytest.raises(InputError, match="out of range"):
        confusion_matrix([0, 1], [-1, 1], 3)


# ---------------------------------------------------------------------------
# pseudo accuracy
# ---------------------------------------------------------------------------


def test_pseudo_accuracy_perfect():
    gt = np.random.default_rng(0).integers(0, 4, (2, 5, 5))
    assert pseudo_accuracy(gt.copy(), gt, np.ones(gt.shape)) == 1.0


def test_pseudo_accuracy_all_gated_is_none():
    gt = np.zeros((1, 2, 2), dtype=int)
    assert pseudo_accuracy(gt, gt, valid=np.zeros((1, 2, 2))) is None


def test_pseudo_accuracy_respects_valid():
    gt = np.array([[[0, 1]]])
    pseudo = np.array([[[0, 0]]])
    valid = np.array([[[1, 0]]])
    assert pseudo_accuracy(pseudo, gt, valid) == 1.0


def test_pseudo_accuracy_random_binomial():
    k = 4
    n = 40_000
    rng = np.random.default_rng(1)
    gt = rng.integers(0, k, n)
    pseudo = rng.integers(0, k, n)
    acc = pseudo_accuracy(pseudo, gt, np.ones(n))
    sigma = np.sqrt((1 / k) * (1 - 1 / k) / n)
    assert abs(acc - 1 / k) <= 3 * sigma
