"""Sampler tests: determinism, moments, sphere uniformity, chi radii."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmc.ensembles import EnsembleSpec, generate
from detmc.estimators import (
    DistributionPair,
    EstimatorConfig,
    _frame_width,
    inv_det_sphere,
    operator_from_matrix,
    sphere_log_weights,
)
import detmc.sampling
from detmc.sampling import (
    RngStream,
    gaussian_directions,
    gaussian_matrix,
    unit_sphere_many,
)


def std_gaussian_log_density(x):
    """log N(0, I) of ``gaussian_q``, I of the dimension of x's last axis."""
    return DistributionPair.gaussian_q(np.shape(x)[-1], 1.0).log_p(x)


def chi_mean(n):
    """Analytic chi(n) mean sqrt(2) Gamma((n+1)/2) / Gamma(n/2)."""
    return math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2)


def test_same_stream_same_sequence():
    a = gaussian_matrix(RngStream(123, 5), 1, 8)
    b = gaussian_matrix(RngStream(123, 5), 1, 8)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = gaussian_matrix(RngStream(123, 0), 1, 8)
    b = gaussian_matrix(RngStream(123, 1), 1, 8)
    assert not np.array_equal(a, b)


def test_batch_matches_sequential_draws():
    block = gaussian_matrix(RngStream(9, 2), 5, 3)
    rng = RngStream(9, 2)
    rows = np.concatenate([gaussian_matrix(rng, 1, 3) for _ in range(5)])
    np.testing.assert_array_equal(block, rows)


def test_gaussian_first_two_moments():
    draws = gaussian_matrix(RngStream(1, 0), 1_000_000, 1).ravel()
    assert abs(draws.mean()) < 4.0 / math.sqrt(draws.size)
    assert draws.var() == pytest.approx(1.0, rel=0.02)


def test_gaussian_covariance_identity():
    x = gaussian_matrix(RngStream(2, 0), 100_000, 3)
    cov = (x.T @ x) / x.shape[0]
    np.testing.assert_allclose(cov, np.eye(3), atol=0.05)


def test_sphere_norm_is_one():
    s = unit_sphere_many(RngStream(3, 0), 2000, 7)
    np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-12)


def test_zero_sphere_is_sign():
    for seed in range(20):
        s = unit_sphere_many(RngStream(seed, 0), 1, 1)
        assert s[0, 0] in (1.0, -1.0)


def test_sphere_outer_product_uniformity():
    s = unit_sphere_many(RngStream(4, 0), 100_000, 4)
    outer = (s.T @ s) / s.shape[0]
    np.testing.assert_allclose(outer, np.eye(4) / 4.0, atol=0.01)


def test_sphere_rotation_invariance():
    q = generate(EnsembleSpec("orthogonal", n=4, seed=17)).data
    s = unit_sphere_many(RngStream(5, 0), 100_000, 4)
    rotated = s @ q.T
    outer = (rotated.T @ rotated) / rotated.shape[0]
    np.testing.assert_allclose(outer, np.eye(4) / 4.0, atol=0.01)


def test_chi_positive():
    # the radius the sphere weight divides out is never zero
    g = gaussian_directions(RngStream(0, 0), 50, 3)
    assert np.all(np.linalg.norm(g, axis=1) > 0.0)


def test_chi_one_matches_half_normal_mean():
    # chi(1) draws via the identical stream consumption of the batched path
    draws = np.abs(gaussian_matrix(RngStream(6, 0), 1_000_000, 1).ravel())
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) < 3.0 * se


def test_chi_ten_matches_gamma_ratio_mean():
    draws = np.linalg.norm(gaussian_matrix(RngStream(7, 0), 1_000_000, 10), axis=1)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - chi_mean(10)) < 3.0 * se


def test_polar_decomposition_identity():
    """A Gaussian vector is its radius times its direction, to the last ulp."""
    for seed in range(30):
        g = gaussian_matrix(RngStream(seed, 0), 1, 6)[0]
        r = np.linalg.norm(g)
        s = g / r
        np.testing.assert_allclose(s * r, g, rtol=1e-14, atol=0.0)


def test_sphere_is_normalized_gaussian_of_same_stream():
    s = unit_sphere_many(RngStream(11, 3), 4, 9)
    g = gaussian_matrix(RngStream(11, 3), 9, 4).T
    np.testing.assert_array_equal(s, g / np.linalg.norm(g, axis=1)[:, np.newaxis])


class TestLogDensity:
    """The Gaussian pair's shared density, N(0, v I), at v = 1 (p) and other v (q)."""

    def test_origin(self):
        assert std_gaussian_log_density(np.zeros(2)) == pytest.approx(
            -math.log(2.0 * math.pi), abs=1e-15
        )

    def test_one_dimensional_point(self):
        got = std_gaussian_log_density(np.array([1.0]))
        assert got == pytest.approx(-0.5 * math.log(2.0 * math.pi) - 0.5, abs=1e-15)

    def test_seeded_vs_direct_formula(self):
        x = gaussian_matrix(RngStream(8, 0), 1, 5)[0]
        direct = -2.5 * math.log(2.0 * math.pi) - 0.5 * sum(v * v for v in x)
        assert std_gaussian_log_density(x) == pytest.approx(direct, rel=1e-14)

    def test_batch_rows(self):
        x = gaussian_matrix(RngStream(9, 0), 4, 3)
        batch = std_gaussian_log_density(x)
        np.testing.assert_allclose(batch, [std_gaussian_log_density(r) for r in x], rtol=1e-15)

    @pytest.mark.parametrize("v", [0.5, 2.0])
    def test_q_density_matches_formula(self, v):
        n = 3
        x = gaussian_matrix(RngStream(10, 0), 5, n)
        direct = [-(n / 2) * math.log(2.0 * math.pi * v) - sum(t * t for t in r) / (2.0 * v)
                  for r in x]
        got = DistributionPair.gaussian_q(n, v).log_q(x)
        np.testing.assert_allclose(got, direct, rtol=1e-14)

    def test_float32_block_is_converted(self):
        x = gaussian_matrix(RngStream(11, 0), 4, 3).astype(np.float32)
        log_p = DistributionPair.gaussian_q(3, 1.0).log_p
        np.testing.assert_array_equal(log_p(x), log_p(x.astype(np.float64)))


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
@settings(deadline=None, max_examples=60)
def test_sphere_norm_property(n, seed):
    s = unit_sphere_many(RngStream(seed, 0), 1, n)[0]
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad_n", [0, -3, True, 3.0, np.float64(3.0)])
def test_positive_dimension_required(bad_n):
    with pytest.raises(ValueError):
        gaussian_matrix(RngStream(0, 0), 1, bad_n)


@pytest.mark.parametrize("draw", [gaussian_matrix, unit_sphere_many])
@pytest.mark.parametrize("k, n", [(-1, 3), (True, 3), (2.0, 3), (2, 0), (2, -3), (2, True),
                                  (2, 3.0)])
def test_draws_take_counts_as_every_count_is_taken(draw, k, n):
    # the one count check of the package: a bool or a float is a ValueError, not numpy's
    # TypeError, and a numpy integer is a count (gaussian_directions: see
    # test_directions_need_a_non_negative_count_and_positive_dimension)
    with pytest.raises(ValueError, match="must be one of the integers"):
        draw(RngStream(0, 0), k, n)
    assert draw(RngStream(0, 0), np.int64(2), np.int32(3)).shape == (2, 3)


@pytest.mark.parametrize("k, n", [(5, 3), (1, 7), (64, 10)])
def test_directions_are_the_columns_of_an_n_by_k_draw(k, n):
    """Row i takes variates i, k + i, 2k + i, ...: the directions are the
    transpose of the (n, k) draw, which ``out`` holds when given."""
    for seed in (0, 13):
        want = gaussian_matrix(RngStream(seed, 0), n, k).T
        np.testing.assert_array_equal(gaussian_directions(RngStream(seed, 0), k, n), want)
        out = np.empty((n, k))
        got = gaussian_directions(RngStream(seed, 0), k, n, out=out)
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(got, out)


@pytest.mark.parametrize("k, n", [(-1, 3), (2, 0), (2, -3), (True, 3), (2.0, 3), (2, False),
                                  (2, 3.0)])
def test_directions_need_a_non_negative_count_and_positive_dimension(k, n):
    with pytest.raises(ValueError):
        gaussian_directions(RngStream(0, 0), k, n)
    assert gaussian_directions(RngStream(0, 0), 0, 3).shape == (0, 3)


def test_degenerate_row_is_redrawn_from_the_same_stream(monkeypatch):
    """An all-zero row becomes the next n variates of the same stream."""
    real = detmc.sampling.gaussian_matrix

    def zero_row_1(rng, n, k, **kwargs):
        g = real(rng, n, k, **kwargs)
        g[:, 1] = 0.0  # row 1 of the (k, n) transpose
        return g

    monkeypatch.setattr(detmc.sampling, "gaussian_matrix", zero_row_1)
    got = gaussian_directions(RngStream(12, 0), 3, 4)
    stream = real(RngStream(12, 0), 1, 16)[0]
    want = stream[:12].reshape(4, 3).T
    np.testing.assert_array_equal(got[[0, 2]], want[[0, 2]])
    np.testing.assert_array_equal(got[1], stream[12:])


@pytest.mark.parametrize("n", [4, 10])
def test_tiny_row_is_kept_and_weighed_like_its_direction(monkeypatch, n):
    """A row 1e-200 g0 has g0's direction: it is kept, not redrawn, and the
    sphere estimator weighs it as it weighs g0, to rounding."""
    real = detmc.sampling.gaussian_matrix
    op = operator_from_matrix(generate(EnsembleSpec("gaussian_iid", n=n, seed=4)))
    cfg = EstimatorConfig(4 * 8, seed=12)
    want = inv_det_sphere(op, cfg)

    def tiny_row_0(rng, n, k, **kwargs):
        g = real(rng, n, k, **kwargs)
        g[:, 0] *= 1e-200  # row 0 of the (k, n) transpose
        return g

    monkeypatch.setattr(detmc.sampling, "gaussian_matrix", tiny_row_0)
    got = gaussian_directions(RngStream(12, 0), 3, n)
    g0 = real(RngStream(12, 0), n, 3).T
    np.testing.assert_array_equal(got[0], 1e-200 * g0[0])
    np.testing.assert_array_equal(got[1:], g0[1:])
    pad = np.zeros((3, _frame_width(n) - 1))  # overwritten by the kernel
    np.testing.assert_allclose(sphere_log_weights(op, np.hstack([pad, got])),
                               sphere_log_weights(op, np.hstack([pad, g0])), rtol=1e-12)
    assert inv_det_sphere(op, cfg).log_mean == pytest.approx(want.log_mean, rel=1e-12)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)


@pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (2.9, 0.7), (2.0, 0), (0, 1.0), ("1", 0),
                                             (True, 0), (False, 0), (0, True), (0, False)])
def test_non_integer_seed_or_stream_rejected(seed, stream_id):
    with pytest.raises(ValueError, match="integers"):
        RngStream(seed, stream_id)
