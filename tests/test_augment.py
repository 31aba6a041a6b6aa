import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rml_lab.augment import mix_images, mix_label_maps, photometric, sample_rect_mask
from rml_lab.errors import InputError

from oracles import float_mix


def imgs(n=2, h=6, w=6, c=3, seed=0):
    return np.random.default_rng(seed).random((n, h, w, c))


def bounding_box(m):
    """``(top, left, height, width)`` of the nonzero entries of a mask."""
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    return rows[0], cols[0], rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1


# ---------------------------------------------------------------------------
# photometric
# ---------------------------------------------------------------------------


def test_strength_zero_is_identity():
    x = imgs()
    out = photometric(x, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(out, x)


def test_photometric_deterministic_under_seed():
    x = imgs()
    a = photometric(x, 1.0, np.random.default_rng(42))
    b = photometric(x, 1.0, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape", [(3, 5, 4, 3), (3, 1, 1, 12)], ids=["images", "flat"])
@pytest.mark.parametrize("s", [0.2, 1.0])
def test_photometric_matches_replay_oracle(s, shape):
    # replay the documented draws (contrast, brightness, noise) on a copy of
    # the generator: the output must be the documented formula bit for bit
    x = np.random.default_rng(4).random(shape)
    rng = np.random.default_rng(11)
    replay = copy.deepcopy(rng)
    out = photometric(x, s, rng)
    per_image = (shape[0], 1, 1, 1)
    c = replay.uniform(1.0 - 0.5 * s, 1.0 + 0.5 * s, size=per_image)
    b = replay.uniform(-0.25 * s, 0.25 * s, size=per_image)
    eps = replay.normal(0.0, 0.08 * s, size=shape)
    np.testing.assert_array_equal(out, np.clip(0.5 + (x - 0.5) * c + b + eps, 0.0, 1.0))
    assert rng.random() == replay.random()  # and no draw beyond those


def test_photometric_range_and_geometry():
    x = imgs(seed=3)
    out = photometric(x, 1.0, np.random.default_rng(0))
    assert out.shape == x.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# rectangle masks
# ---------------------------------------------------------------------------


def test_mask_area_rule_8x8():
    target = 32
    rng = np.random.default_rng(0)
    sums = {int(sample_rect_mask(8, 8, rng).sum()) for _ in range(500)}
    assert all(abs(s - target) <= 4 for s in sums)  # round(area/h) rounding slack
    assert target in sums


def test_mask_2x2_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = sample_rect_mask(2, 2, rng)
        assert m.sum() == 2


def test_mask_matches_rect_and_is_binary():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = sample_rect_mask(7, 9, rng)
        top, left, h, w = bounding_box(m)
        ref = np.zeros((7, 9))
        ref[top:top + h, left:left + w] = 1
        np.testing.assert_array_equal(m, ref)
        assert 0 < m.sum() < 7 * 9
        np.testing.assert_array_equal(m * m, m)
        np.testing.assert_array_equal(m + (1 - m), np.ones_like(m))


def test_mask_coverage_statistics():
    # Monte-Carlo oracle: a fully-contained half-area rectangle necessarily
    # over-covers the centre, but overall coverage averages to the area rule
    # and the sampler is symmetric under 180-degree rotation of the image.
    rng = np.random.default_rng(3)
    acc = np.zeros((8, 8))
    trials = 10_000
    for _ in range(trials):
        acc += sample_rect_mask(8, 8, rng)
    cov = acc / trials
    assert abs(cov.mean() - 32 / 64) <= 0.01
    np.testing.assert_allclose(cov, cov[::-1, ::-1], atol=0.03)
    assert cov.min() > 0.05  # every pixel reachable


def test_mask_requires_min_size():
    with pytest.raises(InputError):
        sample_rect_mask(1, 8, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


def test_mix_images_all_ones_mask():
    x1, x2 = imgs(seed=1), imgs(seed=2)
    out = mix_images(x1, x2, np.ones((6, 6)))
    np.testing.assert_array_equal(out, x1)


def test_mix_images_complement_symmetry():
    x1, x2 = imgs(seed=1), imgs(seed=2)
    m = sample_rect_mask(6, 6, np.random.default_rng(5))
    np.testing.assert_array_equal(mix_images(x1, x2, m), mix_images(x2, x1, 1 - m))


def test_mix_images_counting_oracle():
    h = w = 8
    x1 = np.zeros((1, h, w, 3))
    x2 = np.ones((1, h, w, 3))
    m = sample_rect_mask(h, w, np.random.default_rng(9))
    out = mix_images(x1, x2, m)
    s = m.sum()
    for ch in range(3):
        assert out[0, :, :, ch].sum() == pytest.approx(h * w - s)


def test_mix_images_shape_mismatch():
    with pytest.raises(InputError):
        mix_images(imgs(), imgs(h=5, w=5), np.ones((6, 6)))


def test_mix_labels_identity_and_idempotence():
    rng = np.random.default_rng(0)
    y1 = rng.integers(0, 3, (2, 4, 4))
    y2 = rng.integers(0, 3, (2, 4, 4))
    np.testing.assert_array_equal(mix_label_maps(y1, y2, np.ones((4, 4))), y1)
    m = sample_rect_mask(4, 4, rng)
    np.testing.assert_array_equal(mix_label_maps(y1, y1, m), y1)


def test_mix_labels_per_pixel_selection():
    rng = np.random.default_rng(1)
    l1 = rng.integers(0, 3, (1, 4, 4))
    l2 = rng.integers(0, 3, (1, 4, 4))
    m = sample_rect_mask(4, 4, rng)
    out = mix_label_maps(l1, l2, m)
    assert out.dtype == l1.dtype
    np.testing.assert_array_equal(out, np.where(m[None].astype(bool), l1, l2))


def test_mix_label_maps_rejects_mismatched_shapes():
    y = np.zeros((2, 4, 4), dtype=np.int64)
    with pytest.raises(InputError, match="map shape"):
        mix_label_maps(y, y[:1], np.ones((4, 4)))
    with pytest.raises(InputError, match="mask shape"):
        mix_label_maps(y, y, np.ones((4, 5)))


def test_mix_valid_masks_selects():
    v1 = np.ones((1, 4, 4))
    v2 = np.zeros((1, 4, 4))
    m = sample_rect_mask(4, 4, np.random.default_rng(2))
    out = mix_label_maps(v1, v2, m)
    np.testing.assert_array_equal(out, m[None])


@pytest.mark.parametrize("seed", range(20))
def test_mix_label_maps_gives_the_bits_of_the_float_mix(seed):
    # integer labels against the float mix of their one-hot forms, and 0/1
    # gates against their float mix, with one mask and with one per image
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 11))
    n, h, w = 3, int(rng.integers(2, 9)), int(rng.integers(2, 9))
    l1, l2 = rng.integers(0, k, (2, n, h, w))
    v1, v2 = (rng.random((2, n, h, w)) < 0.6).astype(np.float64)
    for m in (sample_rect_mask(h, w, rng),
              np.stack([sample_rect_mask(h, w, rng) for _ in range(n)])):
        want = float_mix(np.eye(k)[l1], np.eye(k)[l2], m[..., None])
        assert np.eye(k)[mix_label_maps(l1, l2, m)].tobytes() == want.tobytes()
        assert mix_label_maps(v1, v2, m).tobytes() == float_mix(v1, v2, m).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(2, 12))
def test_mask_invariants_property(seed, h, w):
    m = sample_rect_mask(h, w, np.random.default_rng(seed))
    assert m.shape == (h, w)
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert 0 < m.sum() < h * w
    top, left, hh, ww = bounding_box(m)
    assert 0 <= top and top + hh <= h and 0 <= left and left + ww <= w
    assert abs(hh * ww - round(0.5 * h * w)) <= max(1, hh // 2 + 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mixing_preserves_onehot_and_range(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    y1 = rng.integers(0, k, (1, 6, 6))
    y2 = rng.integers(0, k, (1, 6, 6))
    m = sample_rect_mask(6, 6, rng)
    out = mix_label_maps(y1, y2, m)
    assert np.all((out == y1) | (out == y2))
    assert np.all(np.eye(k)[out].sum(axis=-1) == 1.0)
    x = mix_images(rng.random((1, 6, 6, 3)), rng.random((1, 6, 6, 3)), m)
    assert x.min() >= 0.0 and x.max() <= 1.0
