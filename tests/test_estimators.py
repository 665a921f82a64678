"""Estimator tests: exactness anchors, oracle agreement, stream semantics."""

import math

import numpy as np
import pytest
from mpmath import mp

import detmc.sampling
from detmc.ensembles import EnsembleSpec, generate
from detmc.estimators import (
    _CHUNK,
    DistributionPair,
    EstimateResult,
    EstimatorConfig,
    MatrixFreeOperator,
    SingularDirectionError,
    UnsupportedSampleError,
    det_via_inverse_solves,
    gaussian_ratio_log_weights,
    importance_log_weights,
    inv_det_gaussian_ratio,
    inv_det_importance,
    inv_det_sphere,
    operator_from_matrix,
    solve_operator,
    sphere_log_weights,
)
from detmc.linalg import DenseMatrix, SingularMatrixError, log_abs_det, lu_factorize, lu_solve_many
from detmc.sampling import RngStream, gaussian_directions, gaussian_matrix, unit_sphere_many
from detmc.stats import StreamingAccumulator


def oracle_log_det(m: DenseMatrix) -> float:
    return log_abs_det(lu_factorize(m))


def well_conditioned(n, seed, cond=1.2):
    return generate(EnsembleSpec("ill_conditioned", n=n, seed=seed, cond=cond))


class TestSphereEstimator:
    def test_identity_all_weights_one(self):
        r = inv_det_sphere(
            operator_from_matrix(DenseMatrix(np.eye(4))), EstimatorConfig(100, seed=0)
        )
        assert r.log_mean == pytest.approx(0.0, abs=1e-12)
        assert r.std_error == 0.0
        assert not r.heavy_tail

    def test_scaled_identity_exact(self):
        m = DenseMatrix(2.0 * np.eye(3))
        r = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(100, seed=1))
        assert r.mean == pytest.approx(0.125, abs=1e-14)
        assert r.std_error == 0.0

    def test_orthogonal_exact(self):
        q = generate(EnsembleSpec("orthogonal", n=10, seed=21))
        r = inv_det_sphere(operator_from_matrix(q), EstimatorConfig(100, seed=2))
        assert r.mean == pytest.approx(1.0, abs=1e-9)
        assert r.std_error <= 1e-9

    def test_matches_lu_oracle_on_gaussian_matrix(self):
        m = generate(EnsembleSpec("gaussian_iid", n=5, seed=7))
        r = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(1_000_000, seed=3))
        target = math.exp(-oracle_log_det(m))
        assert abs(r.mean - target) <= 3.0 * r.std_error

    def test_zero_map_raises(self):
        op = MatrixFreeOperator(n=3, apply_batch=lambda x: 0.0 * x)
        with pytest.raises(SingularDirectionError):
            inv_det_sphere(op, EstimatorConfig(10, seed=0))

    def test_tiny_scale_sets_heavy_tail_flag(self):
        m = DenseMatrix(1e-160 * np.eye(2))
        r = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(10, seed=0))
        assert r.heavy_tail
        # |det|^{-1} = 1e320 overflows linear float64; the log is authoritative
        assert r.log_mean == pytest.approx(-2.0 * math.log(1e-160), rel=1e-12)
        assert r.mean == math.inf

    @pytest.mark.parametrize("scale, heavy", [(1e-149, False), (1e-151, True)])
    def test_heavy_tail_threshold_is_image_norm_1e_150(self, scale, heavy):
        m = DenseMatrix(scale * np.eye(3))
        cfg = EstimatorConfig(10, seed=0, num_streams=2)
        assert inv_det_sphere(operator_from_matrix(m), cfg).heavy_tail is heavy
        assert det_via_inverse_solves(DenseMatrix(np.eye(3) / scale), cfg).heavy_tail is heavy
        assert not inv_det_gaussian_ratio(operator_from_matrix(m), cfg).heavy_tail

    def test_zero_draw_is_redrawn_not_singular(self, monkeypatch):
        real = detmc.sampling.gaussian_matrix
        calls = []

        def zero_first_row_of_first_block(rng, k, n):
            g = real(rng, k, n)
            if not calls:
                g[0] = 0.0
            calls.append(k)
            return g

        monkeypatch.setattr(detmc.sampling, "gaussian_matrix", zero_first_row_of_first_block)
        r = inv_det_sphere(operator_from_matrix(DenseMatrix(np.eye(2))), EstimatorConfig(50))
        assert calls == [50]
        assert r.log_mean == 0.0
        assert r.std_error == 0.0


class TestInverseSolveEstimator:
    def test_identity(self):
        r = det_via_inverse_solves(DenseMatrix(np.eye(3)), EstimatorConfig(50, seed=0))
        assert r.mean == pytest.approx(1.0, abs=1e-12)
        assert r.std_error == 0.0

    def test_scaled_identity(self):
        r = det_via_inverse_solves(DenseMatrix(2.0 * np.eye(3)), EstimatorConfig(100, seed=1))
        assert r.mean == pytest.approx(8.0, abs=1e-11)
        assert r.std_error == 0.0

    def test_converges_to_oracle_on_gaussian_10x10(self):
        m = generate(EnsembleSpec("gaussian_iid", n=10, seed=0))
        r = det_via_inverse_solves(m, EstimatorConfig(100_000, seed=0, trace_stride=10))
        oracle = oracle_log_det(m)
        assert abs(r.log_mean - oracle) <= 3.0 * r.std_error / r.mean
        # the trace ends at the final running mean and marches toward the oracle
        assert r.trace[-1][0] == 100_000
        assert r.trace[-1][1] == pytest.approx(r.log_mean, rel=1e-12)
        first_err = abs(r.trace[0][1] - oracle)
        last_err = abs(r.trace[-1][1] - oracle)
        assert last_err <= first_err + 0.5

    def test_singular_matrix_propagates(self):
        with pytest.raises(SingularMatrixError):
            det_via_inverse_solves(
                DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]])), EstimatorConfig(10)
            )


class TestGaussianRatioEstimator:
    def test_identity(self):
        r = inv_det_gaussian_ratio(
            operator_from_matrix(DenseMatrix(np.eye(5))), EstimatorConfig(100, seed=0)
        )
        assert r.mean == pytest.approx(1.0, abs=1e-12)
        assert r.std_error == 0.0

    def test_orthogonal_preserves_norms(self):
        q = generate(EnsembleSpec("orthogonal", n=8, seed=4))
        r = inv_det_gaussian_ratio(operator_from_matrix(q), EstimatorConfig(100, seed=5))
        assert r.mean == pytest.approx(1.0, abs=1e-9)
        assert r.std_error <= 1e-9

    def test_agrees_with_sphere_estimator(self):
        m = well_conditioned(4, seed=42)
        op = operator_from_matrix(m)
        r_sphere = inv_det_sphere(op, EstimatorConfig(1_000_000, seed=6))
        r_ratio = inv_det_gaussian_ratio(op, EstimatorConfig(1_000_000, seed=7))
        gap = abs(r_sphere.log_mean - r_ratio.log_mean)
        combined = math.hypot(
            r_sphere.std_error / r_sphere.mean, r_ratio.std_error / r_ratio.mean
        )
        assert gap <= 3.0 * combined


class TestImportanceEstimator:
    def test_reduces_to_gaussian_ratio_with_standard_pair(self):
        m = generate(EnsembleSpec("gaussian_iid", n=4, seed=9))
        op = operator_from_matrix(m)
        x = gaussian_matrix(RngStream(3, 0), 500, 4)
        direct = gaussian_ratio_log_weights(op, x)
        via_pair = importance_log_weights(op, DistributionPair.gaussian_q(4, 1.0), x)
        np.testing.assert_allclose(via_pair, direct, atol=1e-12)
        cfg = EstimatorConfig(10_000, seed=11)
        r1 = inv_det_importance(op, DistributionPair.gaussian_q(4, 1.0), cfg)
        r2 = inv_det_gaussian_ratio(op, cfg)
        assert r1.log_mean == pytest.approx(r2.log_mean, abs=1e-12)

    def test_identity_any_pair(self):
        op = operator_from_matrix(DenseMatrix(np.eye(3)))
        r = inv_det_importance(
            op, DistributionPair.gaussian_q(3, q_variance=4.0), EstimatorConfig(200, seed=0)
        )
        # with A = I every weight is p(x)/q(x); the mean is unbiased for 1
        assert abs(r.mean - 1.0) <= 4.0 * r.std_error + 1e-12

    def test_wide_q_matches_cofactor_oracle(self):
        m = well_conditioned(2, seed=3, cond=2.0)
        (a, b), (c, d) = m.data
        target = 1.0 / abs(a * d - b * c)
        r = inv_det_importance(
            operator_from_matrix(m),
            DistributionPair.gaussian_q(2, q_variance=4.0),
            EstimatorConfig(1_000_000, seed=12),
        )
        assert abs(r.mean - target) <= 3.0 * r.std_error

    def test_q_without_support_raises(self):
        op = operator_from_matrix(DenseMatrix(np.eye(2)))
        dist = DistributionPair(
            log_p=lambda x: np.zeros(x.shape[0]),
            q_sampler=lambda rng, k: gaussian_matrix(rng, k, 2),
            log_q=lambda x: np.full(x.shape[0], -np.inf),
        )
        with pytest.raises(UnsupportedSampleError):
            inv_det_importance(op, dist, EstimatorConfig(10, seed=0))

    def test_zero_p_density_is_zero_weight(self):
        op = operator_from_matrix(DenseMatrix(np.eye(2)))
        dist = DistributionPair(
            log_p=lambda x: np.full(x.shape[0], -np.inf),
            q_sampler=lambda rng, k: gaussian_matrix(rng, k, 2),
            log_q=lambda x: np.zeros(x.shape[0]),
        )
        r = inv_det_importance(op, dist, EstimatorConfig(10, seed=0))
        assert r.log_mean == -math.inf


class TestInvariants:
    def test_exact_scale_equivariance(self):
        m = generate(EnsembleSpec("gaussian_iid", n=8, seed=31))
        cfg = EstimatorConfig(500, seed=8)
        base = inv_det_sphere(operator_from_matrix(m), cfg)
        for c in (0.5, 3.0):
            scaled = inv_det_sphere(operator_from_matrix(DenseMatrix(c * m.data)), cfg)
            assert scaled.log_mean - base.log_mean == pytest.approx(
                -8 * math.log(c), abs=1e-12
            )

    def test_reciprocity_solve_operator_is_inverse_solve_estimator(self):
        m = generate(EnsembleSpec("gaussian_iid", n=6, seed=17))
        cfg = EstimatorConfig(2000, seed=9)
        direct = det_via_inverse_solves(m, cfg)
        via_operator = inv_det_sphere(solve_operator(m), cfg)
        assert direct == via_operator

    def test_reciprocity_against_dense_inverse(self):
        m = generate(EnsembleSpec("gaussian_iid", n=6, seed=17))
        cfg = EstimatorConfig(2000, seed=9)
        f = lu_factorize(m)
        inverse_rows = lu_solve_many(f, np.eye(6))  # row i solves A x = e_i
        dense_inverse = DenseMatrix(inverse_rows.T)
        s = unit_sphere_many(RngStream(9, 0), 2000, 6)
        w_solve = sphere_log_weights(solve_operator(f), s)
        w_dense = sphere_log_weights(operator_from_matrix(dense_inverse), s)
        np.testing.assert_allclose(w_solve, w_dense, rtol=1e-8)
        assert det_via_inverse_solves(m, cfg).log_mean == pytest.approx(
            inv_det_sphere(operator_from_matrix(dense_inverse), cfg).log_mean, rel=1e-8
        )

    def test_orthogonal_exactness_all_estimators(self):
        q = generate(EnsembleSpec("orthogonal", n=12, seed=2))
        op = operator_from_matrix(q)
        cfg = EstimatorConfig(100, seed=13)
        results = [
            inv_det_sphere(op, cfg),
            inv_det_gaussian_ratio(op, cfg),
            inv_det_importance(op, DistributionPair.gaussian_q(12, 1.0), cfg),
        ]
        for r in results:
            assert r.mean == pytest.approx(1.0, abs=1e-9)
            assert r.std_error <= 1e-9

    def test_unbiased_within_three_se_for_most_seeds(self):
        """Each estimator covers the oracle in >= 17 of 20 seeds at 3 SE."""
        m = well_conditioned(3, seed=11)
        op = operator_from_matrix(m)
        log_det = oracle_log_det(m)
        inv_target, det_target = math.exp(-log_det), math.exp(log_det)
        hits = {"sphere": 0, "ratio": 0, "importance": 0, "inverse_solve": 0}
        for seed in range(20):
            cfg = EstimatorConfig(1_000_000, seed=seed)
            runs = {
                "sphere": (inv_det_sphere(op, cfg), inv_target),
                "ratio": (inv_det_gaussian_ratio(op, cfg), inv_target),
                "importance": (
                    inv_det_importance(op, DistributionPair.gaussian_q(3, 1.0), cfg),
                    inv_target,
                ),
                "inverse_solve": (det_via_inverse_solves(m, cfg), det_target),
            }
            for name, (r, target) in runs.items():
                if abs(r.mean - target) <= 3.0 * r.std_error:
                    hits[name] += 1
        assert all(h >= 17 for h in hits.values()), hits


class TestStreams:
    def test_rerun_is_bit_identical(self):
        m = generate(EnsembleSpec("gaussian_iid", n=5, seed=3))
        cfg = EstimatorConfig(4000, seed=14, num_streams=4, trace_stride=100)
        op = operator_from_matrix(m)
        assert inv_det_sphere(op, cfg) == inv_det_sphere(op, cfg)

    def test_stream_counts_statistically_compatible(self):
        m = generate(EnsembleSpec("gaussian_iid", n=5, seed=3))
        op = operator_from_matrix(m)
        r1 = inv_det_sphere(op, EstimatorConfig(200_000, seed=15, num_streams=1))
        r4 = inv_det_sphere(op, EstimatorConfig(200_000, seed=15, num_streams=4))
        gap = abs(r1.log_mean - r4.log_mean)
        combined = math.hypot(r1.std_error / r1.mean, r4.std_error / r4.mean)
        assert gap <= 3.0 * combined

    def test_trace_covers_stride_grid_across_streams(self):
        m = generate(EnsembleSpec("gaussian_iid", n=3, seed=6))
        r = inv_det_sphere(
            operator_from_matrix(m),
            EstimatorConfig(num_samples=10, seed=0, num_streams=2, trace_stride=3),
        )
        assert [i for i, _ in r.trace] == [3, 6, 9, 10]

    @pytest.mark.parametrize(
        "num_samples, num_streams, stride",
        [(60, 1, 7), (2 * (_CHUNK + 1000), 2, 997)],
        ids=["one_chunk", "chunks_and_streams"],
    )
    def test_trace_running_means_match_recomputation(self, num_samples, num_streams, stride):
        m = generate(EnsembleSpec("gaussian_iid", n=3, seed=6))
        op = operator_from_matrix(m)
        cfg = EstimatorConfig(num_samples, seed=4, num_streams=num_streams, trace_stride=stride)
        r = inv_det_sphere(op, cfg)
        per_stream = num_samples // num_streams
        w = np.concatenate([
            sphere_log_weights(op, gaussian_directions(rng, k, 3))
            for rng, k in chunked_streams(cfg.seed, num_streams, per_stream)
        ])
        want = running_log_means(w)
        grid = list(range(stride, num_samples + 1, stride))
        assert [i for i, _ in r.trace] == grid + [num_samples] * (grid[-1] != num_samples)
        for index, running in r.trace:
            assert running == pytest.approx(want[index - 1], rel=1e-12)

    def test_trace_with_zero_weights(self):
        # p has zero density on the rows whose image has a positive first
        # coordinate, on every row of the first chunk and on the first 1500
        # rows of the second, where trace point 17 * 997 lands
        def pair():
            base = DistributionPair.gaussian_q(3, 1.0)
            calls = []

            def log_p(y):
                calls.append(None)
                out = base.log_p(y)
                out[y[:, 0] > 0.0] = -math.inf
                out[: {1: len(out), 2: 1500}.get(len(calls), 0)] = -math.inf
                return out

            return DistributionPair(log_p=log_p, q_sampler=base.q_sampler, log_q=base.log_q)

        op = operator_from_matrix(generate(EnsembleSpec("gaussian_iid", n=3, seed=6)))
        num_samples = 2 * _CHUNK + 500
        r = inv_det_importance(op, pair(), EstimatorConfig(num_samples, seed=2, trace_stride=997))
        dist = pair()
        w = np.concatenate([
            importance_log_weights(op, dist, dist.q_sampler(rng, k))
            for rng, k in chunked_streams(2, 1, num_samples)
        ])
        want = running_log_means(w)
        first_positive = int(np.argmax(w > -math.inf))
        assert first_positive >= _CHUNK + 1500
        values = np.array([v for _, v in r.trace])
        assert not np.isnan(values).any()
        for index, running in r.trace:
            if index <= first_positive:
                assert running == -math.inf
            else:
                assert running == pytest.approx(want[index - 1], rel=1e-12)
        assert r.trace[-1][1] == pytest.approx(r.log_mean, rel=1e-12)

    def test_trace_with_weights_spanning_thousands_of_nats(self):
        # rows 40 and 120 of the only chunk weigh about e^1000 and e^1900, so
        # the earlier prefix sums vanish beside the chunk maximum
        def pair():
            base = DistributionPair.gaussian_q(3, 1.0)

            def log_p(y):
                out = base.log_p(y)
                out[40] = 1000.0
                out[120] = 1900.0
                return out

            return DistributionPair(log_p=log_p, q_sampler=base.q_sampler, log_q=base.log_q)

        op = operator_from_matrix(generate(EnsembleSpec("gaussian_iid", n=3, seed=6)))
        num_samples = 200
        r = inv_det_importance(op, pair(), EstimatorConfig(num_samples, seed=2, trace_stride=1))
        dist = pair()
        w = importance_log_weights(op, dist, dist.q_sampler(RngStream(2, 0), num_samples))
        want = running_log_means(w)
        assert [i for i, _ in r.trace] == list(range(1, num_samples + 1))
        for index, running in r.trace:
            assert running == pytest.approx(want[index - 1], rel=1e-12)


def chunked_streams(seed, num_streams, per_stream):
    """(rng, k) for each block the driver draws, in stream then chunk order."""
    for j in range(num_streams):
        rng = RngStream(seed, j)
        for done in range(0, per_stream, _CHUNK):
            yield rng, min(_CHUNK, per_stream - done)


def running_log_means(log_weights):
    """log of the mean of the first i weights for every i, in 60-digit arithmetic."""
    out = []
    with mp.workdps(60):
        total = mp.mpf(0)
        for i, v in enumerate(log_weights, start=1):
            total += mp.exp(mp.mpf(float(v)))
            out.append(float(mp.log(total / i)) if total else -math.inf)
    return out


def mp_log_mean(log_weights):
    with mp.workdps(60):
        total = mp.fsum(mp.exp(mp.mpf(float(v))) for v in log_weights)
        return float(mp.log(total / len(log_weights)))


def streaming_log_mean(log_weights):
    acc = StreamingAccumulator()
    acc.update_many(np.asarray(log_weights, dtype=np.float64))
    summary = acc.summarize()
    return summary.log_mean, summary.std_error


class TestStreamingLogMean:
    def test_all_unit_weights(self):
        assert streaming_log_mean([0.0, 0.0, 0.0]) == (0.0, 0.0)

    def test_mean_of_two_and_four(self):
        log_mean, _ = streaming_log_mean([math.log(2), math.log(4)])
        assert log_mean == pytest.approx(math.log(3), abs=1e-15)

    def test_extreme_range_against_high_precision(self):
        rng = np.random.default_rng(123)
        lw = rng.uniform(-700.0, 700.0, size=10_000)
        log_mean, _ = streaming_log_mean(lw)
        assert log_mean == pytest.approx(mp_log_mean(lw), rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            streaming_log_mean([])


class TestConfigAndTypes:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_samples=0),
            dict(num_samples=10, num_streams=0),
            dict(num_samples=10, num_streams=3),
            dict(num_samples=10, trace_stride=-1),
            dict(num_samples=10, seed=-1),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    def test_operator_validation(self):
        with pytest.raises(ValueError):
            MatrixFreeOperator(n=0, apply_batch=lambda x: x)

    def test_result_mean_overflow(self):
        r = EstimateResult(log_mean=800.0, std_error=0.0, n_samples=1)
        assert r.mean == math.inf

    def test_nan_from_operator_is_loud(self):
        op = MatrixFreeOperator(n=2, apply_batch=lambda x: x * np.nan)
        with pytest.raises(ValueError):
            inv_det_gaussian_ratio(op, EstimatorConfig(4, seed=0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_invalid_weight_with_trace_is_loud(self, bad):
        base = DistributionPair.gaussian_q(2, 1.0)

        def log_p(y):
            out = np.zeros(len(y))
            out[3] = bad
            return out

        dist = DistributionPair(log_p=log_p, q_sampler=base.q_sampler, log_q=base.log_q)
        op = MatrixFreeOperator(n=2, apply_batch=lambda x: x)
        with pytest.raises(ValueError):
            inv_det_importance(op, dist, EstimatorConfig(10, seed=0, trace_stride=1))
