"""Estimator tests: exactness anchors, oracle agreement, stream semantics."""

import hashlib
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from numpy.lib.array_utils import byte_bounds

import detmc.estimators
import detmc.sampling
from detmc.ensembles import EnsembleSpec, generate
from detmc.estimators import (
    DistributionPair,
    EstimateResult,
    EstimatorConfig,
    MatrixFreeOperator,
    _chunk_rows,
    _frame_width,
    _sphere_rows,
    default_trace_stride,
    det_via_inverse_solves,
    importance_log_weights,
    inv_det_importance,
    inv_det_sphere,
    operator_from_matrix,
    sphere_log_weights,
)
from detmc.linalg import DenseMatrix, SingularMatrixError, log_abs_det, lu_factorize, lu_solve_many
from detmc.sampling import RngStream, gaussian_directions, gaussian_matrix, unit_sphere_many
from detmc.stats import StreamingAccumulator


def oracle_log_det(m: DenseMatrix) -> float:
    return log_abs_det(lu_factorize(m))


def padded(g):
    """The Gaussian rows g, a (k, n) block, as the last n columns of a
    (k, n + w - 1) block whose first w - 1 the sphere kernel overwrites."""
    h = _frame_width(g.shape[1]) - 1
    return np.hstack([g[:, g.shape[1] - h:], g])


def frame_weights(op, g):
    """sphere_log_weights on the Gaussian rows g, a (k, n) block."""
    return sphere_log_weights(op, padded(g))


def shift(v, s=1):
    """P^s v for the negacyclic shift Pv = (-v[n-1], v[0], ..., v[n-2])."""
    for _ in range(s):
        v = np.concatenate([-v[-1:], v[:-1]])
    return v


def well_conditioned(n, seed, cond=1.2):
    return generate(EnsembleSpec("ill_conditioned", n=n, seed=seed, cond=cond))


class TestSphereEstimator:
    def test_identity_all_weights_one(self):
        r = inv_det_sphere(
            operator_from_matrix(DenseMatrix(np.eye(4))), EstimatorConfig(100, seed=0)
        )
        assert r.log_mean == pytest.approx(0.0, abs=1e-12)
        assert r.std_error == 0.0

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
        with pytest.raises(SingularMatrixError):
            inv_det_sphere(op, EstimatorConfig(10, seed=0))

    @pytest.mark.parametrize("n", [3, 10, 64])
    @pytest.mark.parametrize("kind", ["ill_conditioned", "gaussian_iid"])
    def test_weights_are_at_most_sigma_min_to_the_minus_n(self, kind, n):
        # ||A s|| >= sigma_min(A) for every unit s, so each weight, and each frame
        # mean, is at most sigma_min^-n: every moment is finite.  The block holds
        # the right singular vector of sigma_min, whose frame mean is at least
        # its own weight / w for a frame of w, so the bound is met to within log w
        m = generate(EnsembleSpec(kind, n=n, seed=5,
                                  cond=1e6 if kind == "ill_conditioned" else None))
        _, sv, vt = np.linalg.svd(m.data)
        bound = -n * math.log(sv[-1])
        g = np.vstack([gaussian_directions(RngStream(2, 0), 4096, n), vt[-1]])
        lw = frame_weights(operator_from_matrix(m), g)
        rounding = n * n * np.finfo(float).eps * sv[0] / sv[-1]
        assert lw.max() <= bound + rounding
        assert lw[-1] >= bound - math.log(_frame_width(n)) - rounding

    @pytest.mark.parametrize("n", [1, 3, 10, 17])
    def test_weights_do_not_depend_on_the_layout_of_g(self, n):
        # the kernel reads the (k, n + w - 1) block in place, through any strides,
        # and overwrites only its first w - 1 columns, with the negatives of the
        # last w - 1 coordinates of g; the (k, 2n) block of earlier releases is refused
        op = operator_from_matrix(generate(EnsembleSpec("gaussian_iid", n=n, seed=9)))
        g = gaussian_matrix(RngStream(4, 0), 300, n)
        h = _frame_width(n) - 1
        want = frame_weights(op, g)
        wide = np.zeros((300, 2 * (n + h)))
        wide[:, 1::2] = padded(g)
        for block in (padded(g), np.asfortranarray(padded(g)), wide[:, 1::2]):
            np.testing.assert_allclose(sphere_log_weights(op, block), want, rtol=1e-12)
            np.testing.assert_array_equal(block, np.hstack([-g[:, n - h:], g]))
        with pytest.raises(ValueError, match=r"\(k, %d\) block" % (n + h)):
            sphere_log_weights(op, np.hstack([g, g]))

    def test_tiny_scale_overflows_the_mean_not_the_log(self):
        m = DenseMatrix(1e-160 * np.eye(2))
        r = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(10, seed=0))
        # |det|^{-1} = 1e320 overflows linear float64; the log is authoritative
        assert r.log_mean == pytest.approx(-2.0 * math.log(1e-160), rel=1e-12)
        assert r.mean == math.inf

    @pytest.mark.parametrize("scale", [1e-149, 1e-151])
    def test_exact_on_both_sides_of_image_norm_1e_150(self, scale):
        # images this small once raised a flag that fired on exact results;
        # the weights are all equal, so the spread is a true zero
        m = DenseMatrix(scale * np.eye(3))
        cfg = EstimatorConfig(10, seed=0, num_streams=2)
        for r in (inv_det_sphere(operator_from_matrix(m), cfg),
                  det_via_inverse_solves(DenseMatrix(np.eye(3) / scale), cfg)):
            assert r.log_mean == pytest.approx(-3.0 * math.log(scale), rel=1e-12)
            assert r.std_error == 0.0
            assert not r.low_count
            assert not hasattr(r, "heavy_tail")

    def test_zero_draw_is_redrawn_not_singular(self, monkeypatch):
        real = detmc.sampling.gaussian_matrix
        calls = []

        def zero_first_direction_of_first_block(rng, n, k, **kwargs):
            g = real(rng, n, k, **kwargs)  # (n, k): each direction is a column
            if not calls:
                g[:, 0] = 0.0
            calls.append(k)
            return g

        monkeypatch.setattr(detmc.sampling, "gaussian_matrix", zero_first_direction_of_first_block)
        r = inv_det_sphere(operator_from_matrix(DenseMatrix(np.eye(2))), EstimatorConfig(50))
        assert calls == [25]  # 50 directions, two per drawn row at n = 2
        assert r.log_mean == 0.0
        assert r.std_error == 0.0

    @pytest.mark.parametrize("num_samples, num_streams",
                             [(16, 1), (17, 1), (18, 2), (42, 3), (4096 * 8 * 2 + 9, 3)])
    def test_one_drawn_row_per_frame_of_min_n_8_directions(self, monkeypatch, num_samples,
                                                           num_streams):
        real = detmc.sampling.gaussian_matrix
        drawn, variates = {}, {}

        def counting(rng, n, k, **kwargs):  # an (n, k) draw of k rows
            drawn[rng.stream_id] = drawn.get(rng.stream_id, 0) + k
            variates[rng.stream_id] = variates.get(rng.stream_id, 0) + n * k
            return real(rng, n, k, **kwargs)

        monkeypatch.setattr(detmc.sampling, "gaussian_matrix", counting)
        cfg = EstimatorConfig(num_samples, seed=1, num_streams=num_streams)
        for n in (1, 2, 3, 4, 7, 8, 10):
            # ceil(d / w) rows in all for d directions, w = min(n, 8), at every stream
            # count: chunk c draws the c-th block of at most 4096 of them from stream c
            total, per_chunk = -(-num_samples // min(n, 8)), _sphere_rows(n)
            rows = [min(per_chunk, total - done) for done in range(0, total, per_chunk)]
            m = well_conditioned(n, seed=2, cond=1.2 if n > 1 else 1.0)
            for estimate in (inv_det_sphere, det_via_inverse_solves):
                drawn.clear()
                variates.clear()
                arg = operator_from_matrix(m) if estimate is inv_det_sphere else m
                assert estimate(arg, cfg).n_samples == num_samples
                assert sum(drawn.values()) == total, n
                assert [drawn[c] for c in range(len(rows))] == rows, n
                assert [variates[c] for c in range(len(rows))] == [n * r for r in rows]

    @pytest.mark.parametrize("n", [*range(1, 34), 63, 64, 400])
    def test_frame_is_the_first_shifts_distinct_up_to_sign(self, n):
        # every image of g is a signed permutation of it, so standard normal and
        # exactly uniform in direction; the w maps, w = min(n, 8) below n = 64 and
        # 16 from there, are the powers P^0, ..., P^{w-1} of the negacyclic shift,
        # no two equal up to sign
        width = _frame_width(n)
        assert width == (min(n, 8) if n < 64 else 16)
        blocks = []
        recording = MatrixFreeOperator(n, lambda x: blocks.append(x.copy()) or x.copy())
        # row j of each block is the image of e_j, so the block is its map transposed
        assert np.all(frame_weights(recording, np.eye(n)) == 0.0)
        maps = [b.T for b in blocks]
        assert len(maps) == width
        np.testing.assert_array_equal(maps[0], np.eye(n))
        for s, q in enumerate(maps):
            assert set(np.unique(q)) <= {-1.0, 0.0, 1.0}
            assert np.all(np.abs(q).sum(axis=0) == 1) and np.all(np.abs(q).sum(axis=1) == 1)
            np.testing.assert_array_equal(q, np.stack([shift(e, s) for e in np.eye(n)], 1))
        for a in range(width):
            for b in range(a):
                assert not np.array_equal(maps[a], maps[b])
                assert not np.array_equal(maps[a], -maps[b])
        # the blocks of one row block of Gaussian rows are those maps' images
        blocks.clear()
        g = gaussian_matrix(RngStream(8, 0), 64, n)
        frame_weights(recording, g)
        for block, q in zip(blocks, maps, strict=True):
            np.testing.assert_array_equal(block, g @ q.T)

    @pytest.mark.parametrize("num_streams", [1, 2])
    def test_every_block_is_a_read_only_window_of_one_stream_buffer(self, num_streams):
        # each worker holds one (n + w - 1, rows) buffer for all of its chunks; every
        # block apply_batch gets is a read-only, column-major (k, n) window inside it,
        # at n = 3, 8 and 10
        for n in (3, 8, 10):
            m = well_conditioned(n, seed=4).data
            rows, width = _sphere_rows(n), _frame_width(n)
            seen = []

            def apply_batch(x):
                seen.append((threading.get_ident(), *byte_bounds(x), x.shape,
                             x.flags.f_contiguous, x.flags.writeable))
                return x @ m.T

            # five full chunks and one of a single row, shared by the workers
            cfg = EstimatorConfig(width * (5 * rows + 1), seed=5, num_streams=num_streams)
            inv_det_sphere(MatrixFreeOperator(n, apply_batch), cfg)
            assert len(seen) == width * 6  # every direction of every chunk
            assert sorted(shape for *_, shape, _, _ in seen) == sorted(
                [(rows, n)] * 5 * width + [(1, n)] * width)
            assert all(f_contiguous and not writeable for *_, f_contiguous, writeable in seen)
            threads = {t for t, *_ in seen}
            assert len(threads) == num_streams
            for t in threads:
                lo = min(start for u, start, *_ in seen if u == t)
                hi = max(end for u, _, end, *_ in seen if u == t)
                assert hi - lo <= 8 * (n + width - 1) * rows

    @pytest.mark.parametrize("n, num_streams", [pytest.param(10, 1, id="1"),
                                                pytest.param(10, 2, id="2"),
                                                pytest.param(8, 1, id="n8-1"),
                                                pytest.param(8, 2, id="n8-2"),
                                                pytest.param(3, 1, id="n3-1"),
                                                pytest.param(3, 2, id="n3-2")])
    def test_each_chunk_calls_draw_and_kernel_once_positionally(self, monkeypatch, n,
                                                                num_streams):
        # bench/tracing.py wraps these two module attributes and sizes each call's
        # work from its positional arguments alone: the product of the draw's 2nd
        # and 3rd, (rng, n, k) for k rows, and the kernel's (op, g)
        real_draw, real_weigh = detmc.sampling.gaussian_matrix, detmc.estimators.sphere_log_weights
        draws, weighs = [], []

        def draw(*args, **kwargs):
            draws.append(args)
            return real_draw(*args, **kwargs)

        def weigh(*args, **kwargs):
            weighs.append(args)
            return real_weigh(*args, **kwargs)

        monkeypatch.setattr(detmc.sampling, "gaussian_matrix", draw)
        monkeypatch.setattr(detmc.estimators, "sphere_log_weights", weigh)
        rows = _sphere_rows(n)
        # two full chunks and one of a single row, each from a stream of its own
        cfg = EstimatorConfig(_frame_width(n) * (2 * rows + 1), seed=6, num_streams=num_streams)
        m = well_conditioned(n, seed=4)
        for estimate, arg in ((inv_det_sphere, operator_from_matrix(m)),
                              (det_via_inverse_solves, m)):
            draws.clear()
            weighs.clear()
            estimate(arg, cfg)
            want = [1, rows, rows]
            assert len(draws) == len(weighs) == 3
            assert all(len(a) == 3 and isinstance(a[0], RngStream) and a[1] == n for a in draws)
            assert sorted((a[0].stream_id, a[2]) for a in draws) == [(0, rows), (1, rows), (2, 1)]
            assert sorted(k for _, _, k in draws) == want
            assert sorted(a[1] * a[2] for a in draws) == [n * k for k in want]
            assert all(len(a) == 2 and a[0].n == n for a in weighs)
            assert sorted(len(g) for _, g in weighs) == want

    def test_peak_memory_is_the_frame_block_and_one_image(self):
        # a 1-stream call at n = 10 holds its draw and the negatives of its last
        # w - 1 coordinates, one (n + w - 1, rows) buffer, and one applied image
        # block at a time.  The slack is the (w + 2, rows) norm block, which also
        # holds g's log-norms, the frame maxima and the returned log-sums, and
        # 32 KiB for the fold's one rows-long buffer and interpreter objects: a
        # chunk allocates no other rows-long vector
        n = 10
        rows, width = _sphere_rows(n), _frame_width(n)
        op = operator_from_matrix(well_conditioned(n, seed=3))
        cfg = EstimatorConfig(3 * width * rows, seed=5)
        inv_det_sphere(op, cfg)
        tracemalloc.start()
        try:
            inv_det_sphere(op, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block, image = 8 * (n + width - 1) * rows, 8 * n * rows
        assert peak <= block + image + 8 * (width + 2) * rows + 32 * 1024

    @pytest.mark.parametrize("diag", [[1e170, 1e-170, 1.0, 1.0], [1e-170] * 4,
                                      [1e154, 1.0, 1.0, 1.0], [1e154] + [1.0] * 9,
                                      [1e-160] * 3 + [1.0] * 7],
                             ids=["overflow", "underflow", "mixed", "mixed_n10",
                                  "mixed_underflow_n10"])
    def test_out_of_range_images_match_a_scaled_reference(self, diag):
        # overflow and underflow take every image of every frame out of the float64
        # range; the mixed operators only some of them, the images whose scaled
        # entries exceed 1.34 in size (or, mixed_underflow_n10, whose entries scaled
        # by 1 are all small): each frame with one is recomputed with scaling
        n = len(diag)
        op = operator_from_matrix(DenseMatrix(np.diag(diag)))
        g = gaussian_matrix(RngStream(12, 0), 64, n)
        width = _frame_width(n)
        for row, got in zip(g, frame_weights(op, g)):
            w = [-n * (math.log(math.hypot(*(diag * shift(row, s)))) - math.log(math.hypot(*row)))
                 for s in range(width)]
            top = max(w)
            want = top + math.log(math.fsum(math.exp(x - top) for x in w) / width)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_images_are_applied_again_only_when_some_norm_leaves_the_range(self, n):
        # one chunk: w applies when every squared norm is a normal float64, 2w when
        # one row of one image overflows
        g = gaussian_matrix(RngStream(3, 0), 50, n)
        calls = []

        def counting(scale):
            def apply_batch(x):
                calls.append(len(x))
                return x * scale
            return MatrixFreeOperator(n, apply_batch)

        frame_weights(counting(np.full(n, 2.0)), g)
        assert calls == [50] * _frame_width(n)
        calls.clear()
        got = frame_weights(counting(np.r_[1e160, np.ones(n - 1)]), g)
        assert calls == [50] * 2 * _frame_width(n)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_one_bad_image_in_the_frame_is_loud(self, bad):
        # a zero image is a singular direction and a non-finite one a faulty operator,
        # even when it is one direction of one frame: the image of row 5 whose
        # largest entry comes first, one of the eight shifts of that row
        def apply_batch(x):
            y = np.array(x)
            if np.argmax(np.abs(x[5])) == 0:
                y[5] = bad
            return y

        error = SingularMatrixError if bad == 0.0 else ValueError
        with pytest.raises(error):
            inv_det_sphere(MatrixFreeOperator(8, apply_batch), EstimatorConfig(800))

    @pytest.mark.parametrize("n", [3, 10, 64])
    def test_image_layout_does_not_change_the_estimate(self, n):
        m = generate(EnsembleSpec("gaussian_iid", n=n, seed=2)).data
        cfg = EstimatorConfig(2 * 8 * 5001, seed=11, num_streams=2, trace_stride=997)
        c_order = inv_det_sphere(
            MatrixFreeOperator(n, lambda xs: np.ascontiguousarray(xs @ m.T)), cfg)
        column_major = inv_det_sphere(
            MatrixFreeOperator(n, lambda xs: np.asfortranarray(xs @ m.T)), cfg)
        assert column_major.log_mean == pytest.approx(c_order.log_mean, rel=1e-12)
        assert column_major.std_error == pytest.approx(c_order.std_error, rel=1e-12)
        np.testing.assert_allclose(column_major.trace, c_order.trace, rtol=1e-12)

    @pytest.mark.parametrize("n", [3, 8, 10])
    def test_perfectly_correlated_frames_count_once(self, n):
        # each row is scaled by a function of its sorted absolute entries, which no
        # signed permutation changes: all images of g weigh the same, and the
        # estimate is the mean and standard error of the 2001 drawn directions g alone
        c = np.linspace(0.5, 2.0, n)

        def scale(x):
            s = np.sort(np.abs(x), axis=1)
            return (s @ c) / s.sum(axis=1)

        op = MatrixFreeOperator(n, lambda x: x * scale(x)[:, np.newaxis])
        cfg = EstimatorConfig(_frame_width(n) * 2001 - (_frame_width(n) - 1), seed=7)
        r = inv_det_sphere(op, cfg)
        g = gaussian_directions(RngStream(7, 0), 2001, n)
        w = -n * np.log(scale(g))
        log_mean, std_error = streaming_log_mean(w)
        assert r.log_mean == pytest.approx(log_mean, rel=1e-12)
        assert r.std_error == pytest.approx(std_error, rel=1e-9)


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
        assert abs(r.log_mean - oracle) <= 3.0 * r.rel_std_error
        # the trace ends at the final running mean and marches toward the oracle
        assert r.trace[-1][0] == 100_000
        assert r.trace[-1][1] == pytest.approx(r.log_mean, rel=1e-12)
        first_err = abs(r.trace[0][1] - oracle)
        last_err = abs(r.trace[-1][1] - oracle)
        assert last_err <= first_err + 0.5

    def test_memory_is_bounded_by_the_chunk(self):
        # n = 256 draws 512 Gaussian rows per chunk, a 1.1 MB frame buffer beside
        # A^-1 (0.5 MB) and one 1 MB image; one 8192-row block and its image
        # would take 33.6 MB
        m = generate(EnsembleSpec("gaussian_iid", n=256, seed=0))
        tracemalloc.start()
        try:
            det_via_inverse_solves(m, EstimatorConfig(8192, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_peak_memory_at_n_400_is_the_frame_block_and_one_image(self):
        # the first call leaves A^-1 with the matrix, so a second 1-stream call
        # allocates no n x n array: it holds the stream's (n + w - 1, rows) buffer
        # and one image block.  The slack is the (w + 2, rows) norm block and
        # 32 KiB for the fold's rows-long buffer and interpreter objects
        n = 400
        rows, width = _sphere_rows(n), _frame_width(n)
        m = well_conditioned(n, seed=1, cond=1.1)
        cfg = EstimatorConfig(3 * width * rows, seed=5)
        det_via_inverse_solves(m, cfg)
        tracemalloc.start()
        try:
            det_via_inverse_solves(m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block, image = 8 * (n + width - 1) * rows, 8 * n * rows
        assert peak <= block + image + 8 * (width + 2) * rows + 32 * 1024

    def test_an_estimate_never_computes_the_log_det(self, monkeypatch):
        # the oracle log|det A| is a second LU factorization, made only when read
        real, calls = np.linalg.slogdet, []
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a) or real(a))
        m = well_conditioned(10, seed=2)
        det_via_inverse_solves(m, EstimatorConfig(800, seed=1, num_streams=2))
        assert calls == []
        f = lu_factorize(m)
        assert log_abs_det(f) == log_abs_det(f) == float(real(m.data)[1])
        assert len(calls) == 1

    def test_singular_matrix_propagates(self):
        with pytest.raises(SingularMatrixError):
            det_via_inverse_solves(
                DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]])), EstimatorConfig(10)
            )

    def test_one_inverse_per_matrix(self, monkeypatch):
        # a DenseMatrix keeps its factorization: three estimates and the oracle's
        # lu_factorize invert A once, and a singular A raises on every call
        real, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or real(a))
        m = well_conditioned(10, seed=2)
        for seed in range(3):
            det_via_inverse_solves(m, EstimatorConfig(800, seed=seed, num_streams=2))
        assert lu_factorize(m) is lu_factorize(m)
        assert len(calls) == 1
        singular = DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                det_via_inverse_solves(singular, EstimatorConfig(10))
        assert len(calls) == 3


class TestGaussianRatioEstimator:
    """The importance estimator with q = p = N(0, I): the Gaussian-ratio weight."""

    def test_identity(self):
        r = inv_det_importance(
            operator_from_matrix(DenseMatrix(np.eye(5))),
            DistributionPair.gaussian_q(5, 1.0),
            EstimatorConfig(100, seed=0),
        )
        assert r.mean == pytest.approx(1.0, abs=1e-12)
        assert r.std_error == 0.0


class TestImportanceEstimator:
    def test_reduces_to_gaussian_ratio_with_standard_pair(self):
        m = generate(EnsembleSpec("gaussian_iid", n=4, seed=9))
        op = operator_from_matrix(m)
        x = gaussian_matrix(RngStream(3, 0), 500, 4)
        y = x @ m.data.T
        direct = 0.5 * (np.sum(x * x, axis=1) - np.sum(y * y, axis=1))
        via_pair = importance_log_weights(op, DistributionPair.gaussian_q(4, 1.0), x)
        np.testing.assert_allclose(via_pair, direct, atol=1e-12)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("v", [0.25, 1.0, 6.0])
    def test_radius_integrates_out_to_the_sphere_weight(self, n, v):
        # x ~ N(0, v I) is r s with r = sqrt(v) chi_n, so E[p(Ax)/q(x) | s] = ||A s||^-n
        # for every v: the sphere weight is the Rao-Blackwellised importance weight.
        # Most of these (n, v) have 2 v sigma_min^2 <= 1, where the importance variance
        # is infinite; the conditional mean stays finite.
        m = generate(EnsembleSpec("gaussian_iid", n=n, seed=4))
        op, pair = operator_from_matrix(m), DistributionPair.gaussian_q(n, v)
        s = gaussian_matrix(RngStream(5, 0), 1, n)[0]
        s /= np.linalg.norm(s)

        def integrand(r):
            log_w = importance_log_weights(op, pair, float(r) * s[None, :])[0]
            log_density_r = (
                (n - 1) * mp.log(r) - r * r / (2 * v) - (n / 2 - 1) * mp.log(2)
                - mp.loggamma(mp.mpf(n) / 2) - mp.mpf(n) / 2 * mp.log(v)
            )
            return mp.exp(log_w + log_density_r)

        with mp.workdps(30):
            conditional_mean = mp.quad(integrand, [0, mp.sqrt(v * n), mp.inf])
        want = np.linalg.norm(m.data @ s) ** -n
        assert float(conditional_mean) == pytest.approx(want, rel=1e-12)

    def test_q_without_support_raises(self):
        op = operator_from_matrix(DenseMatrix(np.eye(2)))
        dist = DistributionPair(
            log_p=lambda x: np.zeros(x.shape[0]),
            q_sampler=lambda rng, k: gaussian_matrix(rng, k, 2),
            log_q=lambda x: np.full(x.shape[0], -np.inf),
        )
        with pytest.raises(ValueError, match="q has zero density at one of its own samples"):
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

    def test_image_norms_past_float64_give_zero_weights_without_warning(self):
        # each ||A x||^2 near 1e401 overflows, so log p(A x) is -inf: every weight is
        # exactly zero, and the suite turns an overflow warning into a failure
        op = operator_from_matrix(DenseMatrix(1e200 * np.eye(10)))
        r = inv_det_importance(op, DistributionPair.gaussian_q(10, 2.0),
                               EstimatorConfig(6000, num_streams=2))
        assert r.log_mean == -math.inf
        assert r.low_count


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

    @pytest.mark.parametrize("estimate, c", [
        (lambda m, cfg: inv_det_sphere(operator_from_matrix(m), cfg), 1e-200),
        (det_via_inverse_solves, 1e200),
    ], ids=["sphere", "inverse_solve"])
    def test_relative_std_error_survives_an_overflowed_mean(self, estimate, c):
        # the estimate for c A is 1e800 times that for A, which overflows float64,
        # and with it mean and std_error; their ratio is computed in the shifted
        # domain and does not move
        m = well_conditioned(4, seed=12, cond=1.5)
        cfg = EstimatorConfig(4000, seed=3, num_streams=2)
        base = estimate(m, cfg)
        tiny = estimate(DenseMatrix(c * m.data), cfg)
        assert tiny.mean == tiny.std_error == math.inf
        assert 0.0 < base.rel_std_error == pytest.approx(base.std_error / base.mean, rel=1e-12)
        assert tiny.rel_std_error == pytest.approx(base.rel_std_error, rel=1e-12)

    def test_reciprocity_inverse_solve_estimator_is_sphere_on_solves(self):
        m = generate(EnsembleSpec("gaussian_iid", n=6, seed=17))
        cfg = EstimatorConfig(2000, seed=9)
        f = lu_factorize(m)
        solves = MatrixFreeOperator(6, lambda xs: lu_solve_many(f, xs))
        assert det_via_inverse_solves(m, cfg) == inv_det_sphere(solves, cfg)

    def test_reciprocity_against_dense_inverse(self):
        m = generate(EnsembleSpec("gaussian_iid", n=6, seed=17))
        cfg = EstimatorConfig(2000, seed=9)
        f = lu_factorize(m)
        inverse_rows = lu_solve_many(f, np.eye(6))  # row i solves A x = e_i
        dense_inverse = DenseMatrix(inverse_rows.T)
        s = unit_sphere_many(RngStream(9, 0), 2000, 6)
        w_solve = frame_weights(MatrixFreeOperator(6, lambda xs: lu_solve_many(f, xs)), s)
        w_dense = frame_weights(operator_from_matrix(dense_inverse), s)
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
        hits = {"sphere": 0, "importance": 0, "inverse_solve": 0}
        for seed in range(20):
            cfg = EstimatorConfig(1_000_000, seed=seed)
            runs = {
                "sphere": (inv_det_sphere(op, cfg), inv_target),
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

    @pytest.mark.parametrize(
        "matrix, inverse",
        [
            (DenseMatrix(np.diag([0.7, 1.3, 0.9] * 2)), False),
            (DenseMatrix(np.diag([0.7, 1.3, 0.9] * 2)), True),
            (well_conditioned(10, seed=5, cond=1.5), False),
            (well_conditioned(10, seed=5, cond=1.5), True),
            (DenseMatrix(np.diag([0.7, 1.3] * 4)), False),
            (DenseMatrix(np.diag([0.7, 1.3] * 4)), True),
        ],
        ids=["tiled_n6", "tiled_n6_inverse", "ill_conditioned", "inverse_solve",
             "perfect_fours", "perfect_fours_inverse"],
    )
    def test_std_error_is_calibrated_over_seeds(self, matrix, inverse):
        """z = (mean - target) / std_error over 200 seeds has sd near 1 on frames of
        correlated directions (tiled_n6, ill_conditioned at n = 10), and also when
        the even shifts of g all weigh as g and the odd ones as Pg: counting the
        2 x 8004 directions of perfect_fours (n = 8) as independent would give sd
        of 2 or more."""
        log_det = oracle_log_det(matrix)
        z = []
        for seed in range(200):
            # each stream folds 1001 frames, whatever the frame width
            cfg = EstimatorConfig(2001 * _frame_width(matrix.n), seed=seed, num_streams=2)
            if inverse:
                r, target = det_via_inverse_solves(matrix, cfg), math.exp(log_det)
            else:
                r, target = inv_det_sphere(operator_from_matrix(matrix), cfg), math.exp(-log_det)
            z.append((r.mean - target) / r.std_error)
        assert abs(np.mean(z)) < 0.25
        assert 0.8 < np.std(z, ddof=1) < 1.2


class TestStreams:
    def test_rerun_is_bit_identical(self):
        m = generate(EnsembleSpec("gaussian_iid", n=5, seed=3))
        cfg = EstimatorConfig(4000, seed=14, num_streams=4, trace_stride=100)
        op = operator_from_matrix(m)
        assert inv_det_sphere(op, cfg) == inv_det_sphere(op, cfg)

    @pytest.mark.parametrize("failing", [0, 1, 2, 4])
    def test_error_in_one_stream_is_raised(self, failing, monkeypatch):
        # q tags each row with its chunk's stream id: the operator fails on one of the
        # five chunks only, and the error surfaces after the other workers have run.
        # Worker j of 3 takes chunks j and j + 3, so a failure in chunk 0 or 1 also
        # skips chunk 3 or 4; three CPUs, so that 3 streams are 3 workers on any host
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        base = DistributionPair.gaussian_q(2, 1.0)
        dist = DistributionPair(log_p=base.log_p, log_q=base.log_q,
                                q_sampler=lambda rng, k: np.full((k, 2), float(rng.stream_id)))
        seen = set()

        def apply_batch(x):
            seen.add(int(x[0, 0]))
            if x[0, 0] == failing:
                raise RuntimeError(f"chunk {failing} failed")
            return x

        with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
            inv_det_importance(MatrixFreeOperator(2, apply_batch), dist,
                               EstimatorConfig(4 * _chunk_rows(2) + 1, num_streams=3))
        assert seen == set(range(5)) - set(range(failing + 3, 5, 3))

    def test_streams_beyond_the_chunk_count_start_no_thread(self):
        # a 10-sample call is one chunk: the workers that would have no chunk are
        # not started, so the product runs on the calling thread beside no pool thread
        seen = set()

        def apply_batch(x):
            seen.add((threading.get_ident(), threading.active_count()))
            return 2.0 * x

        op = MatrixFreeOperator(3, apply_batch)
        one = inv_det_sphere(op, EstimatorConfig(10, seed=5, trace_stride=3))
        seven = inv_det_sphere(op, EstimatorConfig(10, seed=5, num_streams=7, trace_stride=3))
        assert seen == {(threading.get_ident(), threading.active_count())}
        assert bits(seven) == bits(one)

    def test_no_more_workers_than_cpus(self, monkeypatch):
        # on two CPUs, 7 streams are two workers: the calling thread folds every other
        # of the five chunks, not chunk 0 alone while one pool thread folds the rest
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = DistributionPair.gaussian_q(2, 1.0)
        folded = []

        def q_sampler(rng, k):
            folded.append((threading.get_ident(), rng.stream_id))
            return base.q_sampler(rng, k)

        dist = DistributionPair(log_p=base.log_p, q_sampler=q_sampler, log_q=base.log_q)
        op = operator_from_matrix(DenseMatrix(np.diag([2.0, 0.5])))
        one = inv_det_importance(op, dist, EstimatorConfig(4 * _chunk_rows(2) + 1, seed=3,
                                                           trace_stride=997))
        folded.clear()
        seven = inv_det_importance(op, dist, EstimatorConfig(4 * _chunk_rows(2) + 1, seed=3,
                                                             num_streams=7, trace_stride=997))
        assert sorted(c for thread, c in folded if thread == threading.get_ident()) == [0, 2, 4]
        assert sorted(c for _, c in folded) == [0, 1, 2, 3, 4]
        assert bits(seven) == bits(one)

    def test_stream_counts_statistically_compatible(self):
        m = generate(EnsembleSpec("gaussian_iid", n=5, seed=3))
        op = operator_from_matrix(m)
        r1 = inv_det_sphere(op, EstimatorConfig(200_000, seed=15, num_streams=1))
        r4 = inv_det_sphere(op, EstimatorConfig(200_000, seed=15, num_streams=4))
        gap = abs(r1.log_mean - r4.log_mean)
        combined = math.hypot(r1.rel_std_error, r4.rel_std_error)
        assert gap <= 3.0 * combined

    @pytest.mark.parametrize(
        "estimator, n, want",
        # a stream per chunk, not per thread, moved every pin and left one per
        # estimator and n; CHANGES.md lists the per-stream-count pins it replaced
        [
            ("sphere", 10, ("-0x1.c910ee973646cp+2", "0x1.6c8997c71b2c0p-14",
                            "-0x1.c910ee973646cp+2",
                            "40cbb24583fc882954fc239bd27b3ef1b30351ff")),
            ("sphere", 16, ("-0x1.19ce1f4dd686bp+4", "0x1.90f42e747c894p-27",
                            "-0x1.19ce1f4dd686cp+4",
                            "32bace9cb6db012b99bf6412c578e2765f2fccdd")),
            ("importance", 10, ("-0x1.aa9a5867033dcp+2", "0x1.203a170ffe858p-11",
                                "-0x1.aa9a5867033dcp+2",
                                "91ec6b580404a90e69d9b689a281707bc7062277")),
            ("inverse", 10, ("0x1.4e07dc425c6fap+2", "0x1.5d8eb7f011b5ap+4",
                             "0x1.4e07dc425c6fap+2",
                             "01dceaa16e553523bd6efdd84dc5afd414658a83")),
        ],
    )
    def test_seeded_bits_pinned_up_to_n_16(self, estimator, n, want):
        # every n <= 16 draws 4096 Gaussian rows per sphere chunk and 16384
        # importance samples (_sphere_rows, _chunk_rows): these bits
        # move only with a release note (n = 16 moved when 4 | n took frames of
        # four, n = 10 when every n did, both at rounding level with the
        # column-major frame, and both with frames of eight, with the
        # column-major draw, with frames of negacyclic shifts and with a stream
        # per chunk).  The budget divides by none of the stream counts
        m = generate(EnsembleSpec("gaussian_iid", n=n, seed=1))
        r, *others = (
            estimate_named(estimator, m, EstimatorConfig(40_001, seed=3, num_streams=num_streams,
                                                         trace_stride=997))
            for num_streams in (1, 2, 3, 4, 7))
        assert all(bits(other) == bits(r) for other in others)
        # the SHA-1 pins every trace point, index and float.hex
        points = hashlib.sha1(" ".join(f"{i}:{v.hex()}" for i, v in r.trace).encode())
        assert (r.log_mean.hex(), r.std_error.hex(), r.trace[-1][1].hex(),
                points.hexdigest()) == want

    @pytest.mark.parametrize("estimator", ["sphere", "inverse", "importance"])
    def test_bits_do_not_depend_on_the_stream_count(self, estimator):
        # at n = 100 the 200,001 directions are 10 sphere chunks and 77 importance
        # ones, so every worker folds several, interleaved with the others'
        m = well_conditioned(100, seed=1, cond=1.5)
        one, *others = (
            bits(estimate_named(estimator, m, EstimatorConfig(
                200_001, seed=7, num_streams=num_streams, trace_stride=499)))
            for num_streams in (1, 2, 3, 4, 7))
        assert all(other == one for other in others)
        assert EstimatorConfig(10, num_streams=3).num_streams == 3

    @pytest.mark.parametrize("num_samples", [1, 10_000, 10_001, 19_999, 2**21])
    def test_default_trace_stride_keeps_at_most_10_4_points(self, num_samples):
        op = operator_from_matrix(DenseMatrix(np.array([[2.0]])))
        cfg = EstimatorConfig(num_samples, trace_stride=default_trace_stride(num_samples))
        assert 1 <= len(inv_det_sphere(op, cfg).trace) <= 10_000

    def test_trace_covers_stride_grid_across_streams(self):
        m = generate(EnsembleSpec("gaussian_iid", n=3, seed=6))
        r = inv_det_sphere(
            operator_from_matrix(m),
            EstimatorConfig(num_samples=10, seed=0, num_streams=2, trace_stride=3),
        )
        assert [i for i, _ in r.trace] == [3, 6, 9, 10]

    @pytest.mark.parametrize(
        "n, num_samples, num_streams, stride",
        [(3, 60, 1, 7), (3, 2 * (_chunk_rows(3) + 1000), 2, 997),
         (64, 16 * (2 * _sphere_rows(64) + 1) - 5, 2, 997), (3, 2 * 1001 + 1, 2, 7),
         (10, 2 * 8 * 4096 + 13, 3, 97)],
        ids=["one_chunk", "chunks_and_streams", "byte_sized_chunks", "odd_streams",
             "three_streams"],
    )
    def test_trace_running_means_match_recomputation(self, n, num_samples, num_streams, stride):
        m = generate(EnsembleSpec("gaussian_iid", n=n, seed=6))
        op = operator_from_matrix(m)
        cfg = EstimatorConfig(num_samples, seed=4, num_streams=num_streams, trace_stride=stride)
        r = inv_det_sphere(op, cfg)
        width = _frame_width(n)
        w = np.concatenate([
            frame_weights(op, gaussian_directions(rng, k, n))
            for rng, k in chunked(cfg.seed, num_samples, _sphere_rows(n), width)
        ])
        want = running_log_means(w)
        grid = list(range(stride, num_samples + 1, stride))
        assert [i for i, _ in r.trace] == grid + [num_samples] * (grid[-1] != num_samples)
        for index, running in r.trace:
            # direction q (0-based) closes frame q // width, whatever the stream count
            assert running == pytest.approx(want[(index - 1) // width], rel=1e-12)
        assert r.trace[-1][1] == pytest.approx(r.log_mean, rel=1e-12)

    def test_trace_with_zero_weights(self):
        # p has zero density on the rows whose image has a positive first
        # coordinate, on every row of chunk 0 and on the first 1500 rows of
        # chunk 1, where trace point 17 * 997 lands
        base = DistributionPair.gaussian_q(3, 1.0)
        weighing = threading.local()  # the chunk this worker thread is weighing

        def q_sampler(rng, k):
            weighing.chunk = rng.stream_id
            return base.q_sampler(rng, k)

        def log_p(y):
            out = base.log_p(y)
            out[y[:, 0] > 0.0] = -math.inf
            out[: {0: len(out), 1: 1500}.get(weighing.chunk, 0)] = -math.inf
            return out

        dist = DistributionPair(log_p=log_p, q_sampler=q_sampler, log_q=base.log_q)
        op = operator_from_matrix(generate(EnsembleSpec("gaussian_iid", n=3, seed=6)))
        num_samples = 2 * _chunk_rows(3) + 500
        w = np.concatenate([
            importance_log_weights(op, dist, dist.q_sampler(rng, k))
            for rng, k in chunked(2, num_samples, _chunk_rows(3))
        ])
        want = running_log_means(w)
        first_positive = int(np.argmax(w > -math.inf))
        assert first_positive >= _chunk_rows(3) + 1500
        for num_streams in (1, 2, 3):
            cfg = EstimatorConfig(num_samples, seed=2, num_streams=num_streams, trace_stride=997)
            r = inv_det_importance(op, dist, cfg)
            values = np.array([v for _, v in r.trace])
            assert not np.isnan(values).any()
            for index, running in r.trace:
                if index <= first_positive:
                    assert running == -math.inf
                else:
                    assert running == pytest.approx(want[index - 1], rel=1e-12)
            assert r.trace[-1][1] == pytest.approx(r.log_mean, rel=1e-12)

    @pytest.mark.parametrize(
        "zero_on, want",
        [
            ("half", ("-0x1.582f0aa394bf4p+0", "0x1.2b61b067f15f7p-7",
                      "0f1158acd17f6b822626f222447f3de1fad5de3a")),
            ("all", ("-inf", "0x0.0p+0", "e4b1d3311d3c571b641aab7bbd89e94623ee3c08")),
        ],
    )
    def test_trace_with_zero_weights_pinned(self, zero_on, want):
        # p has zero density on the rows whose image has a positive first
        # coordinate, or on every row; the SHA-1 pins every trace point, the same
        # at every stream count
        base = DistributionPair.gaussian_q(3, 1.0)

        def log_p(y):
            out = base.log_p(y)
            out[y[:, 0] > 0.0 if zero_on == "half" else slice(None)] = -math.inf
            return out

        dist = DistributionPair(log_p=log_p, q_sampler=base.q_sampler, log_q=base.log_q)
        op = operator_from_matrix(generate(EnsembleSpec("gaussian_iid", n=3, seed=6)))
        for num_streams in (1, 2, 3, 4, 7):
            cfg = EstimatorConfig(40_001, seed=2, num_streams=num_streams, trace_stride=7)
            r = inv_det_importance(op, dist, cfg)
            points = hashlib.sha1(" ".join(f"{i}:{v.hex()}" for i, v in r.trace).encode())
            assert (r.log_mean.hex(), r.std_error.hex(), points.hexdigest()) == want
            # a std_error of 0 over weights that are all zero says nothing about the spread
            assert r.low_count is (zero_on == "all")

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


def estimate_named(estimator, m, cfg):
    """``inv_det_sphere`` ("sphere"), ``det_via_inverse_solves`` ("inverse") or
    ``inv_det_importance`` with ``gaussian_q(n, 2.0)`` ("importance") on m."""
    if estimator == "inverse":
        return det_via_inverse_solves(m, cfg)
    op = operator_from_matrix(m)
    if estimator == "sphere":
        return inv_det_sphere(op, cfg)
    return inv_det_importance(op, DistributionPair.gaussian_q(m.n, 2.0), cfg)


def bits(r):
    """Every float of a traced result as float.hex."""
    return (r.log_mean.hex(), r.std_error.hex(), r.rel_std_error.hex(),
            [(i, v.hex()) for i, v in r.trace])


def chunked(seed, num_samples, rows, width=1):
    """(rng, k) for each chunk of k <= rows weights, ``width`` samples each, that the
    driver draws, in chunk order: chunk c draws from stream c."""
    total = -(-num_samples // width)
    for c, done in enumerate(range(0, total, rows)):
        yield RngStream(seed, c), min(rows, total - done)


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
            dict(num_samples=10, trace_stride=-1),
            dict(num_samples=10, seed=-1),
            # non-integers: a float stride put trace points past the last sample,
            # a float seed silently ran the seed below it
            dict(num_samples=1000, trace_stride=7.5),
            dict(num_samples=1000, seed=1.5),
            dict(num_samples=1000.0),
            dict(num_samples=1000, num_streams=2.0),
            # a bool is not a count: trace_stride=True recorded a trace point per sample
            *({"num_samples": 10, name: flag} for name in
              ("num_samples", "seed", "num_streams", "trace_stride") for flag in (True, False)),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        op = operator_from_matrix(DenseMatrix(2.0 * np.eye(3)))
        cfg = EstimatorConfig(np.int64(16), np.uint32(3), np.int8(2), np.int16(4))
        assert inv_det_sphere(op, cfg) == inv_det_sphere(op, EstimatorConfig(16, 3, 2, 4))
        assert MatrixFreeOperator(np.int32(3), op.apply_batch).n == 3

    def test_operator_validation(self):
        # n = 3.0 failed inside numpy; n = 3.5 gave an importance log_mean of 0.0
        for n in (0, 3.0, 3.5, True, False):
            with pytest.raises(ValueError):
                MatrixFreeOperator(n=n, apply_batch=lambda x: x)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda: inv_det_sphere(MatrixFreeOperator(3, lambda x: 0.0 * x), EstimatorConfig(10)),
            lambda: det_via_inverse_solves(DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]])),
                                           EstimatorConfig(10)),
        ],
        ids=["rank_deficient_operator", "singular_matrix"],
    )
    def test_a_rank_deficient_map_is_one_error(self, estimate):
        # both identities need a full-rank map, whether a zero image or the LU finds it not
        with pytest.raises(SingularMatrixError):
            estimate()

    def test_result_mean_overflow(self):
        r = EstimateResult(log_mean=800.0, std_error=0.0, rel_std_error=0.0, n_samples=1)
        assert r.mean == math.inf

    def test_nan_from_operator_is_loud(self):
        op = MatrixFreeOperator(n=2, apply_batch=lambda x: x * np.nan)
        with pytest.raises(ValueError):
            inv_det_importance(op, DistributionPair.gaussian_q(2, 1.0), EstimatorConfig(4))

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

    @pytest.mark.parametrize("apply_batch", [lambda x: x[:, :2], lambda x: 2.0 * x[:1]],
                             ids=["dropped_column", "broadcast_row"])
    @pytest.mark.parametrize("estimate", [
        inv_det_sphere,
        lambda op, cfg: inv_det_importance(op, DistributionPair.gaussian_q(op.n, 1.0), cfg),
    ], ids=["sphere", "importance"])
    def test_image_of_the_wrong_shape_is_loud(self, apply_batch, estimate):
        op = MatrixFreeOperator(n=3, apply_batch=apply_batch)
        with pytest.raises(ValueError, match="apply_batch mapped"):
            estimate(op, EstimatorConfig(100, seed=0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_image_is_loud_for_sphere(self, bad):
        def apply_batch(x):
            y = np.array(x)
            y[::7] = bad
            return y

        op = MatrixFreeOperator(n=3, apply_batch=apply_batch)
        with pytest.raises(ValueError, match="non-finite image"):
            inv_det_sphere(op, EstimatorConfig(100))

    def test_non_finite_image_is_loud_for_importance(self):
        def apply_batch(x):
            y = x.copy()
            y[::7] = np.inf
            return y

        op = MatrixFreeOperator(n=3, apply_batch=apply_batch)
        with pytest.raises(ValueError, match="non-finite image"):
            inv_det_importance(op, DistributionPair.gaussian_q(3, 1.0), EstimatorConfig(100))

    @pytest.mark.parametrize("estimate", [
        inv_det_sphere,
        lambda op, cfg: inv_det_importance(op, DistributionPair.gaussian_q(op.n, 1.0), cfg),
    ], ids=["sphere", "importance"])
    def test_operator_writing_into_its_block_is_loud(self, estimate):
        # the sphere kernel would build Jg from the scribbled g: log_mean -3.405 with
        # std_error 0 against the exact -4 log 2
        op = MatrixFreeOperator(4, lambda xs: np.multiply(xs, 2.0, out=xs))
        with pytest.raises(ValueError, match="read-only"):
            estimate(op, EstimatorConfig(1000, seed=0))

    @pytest.mark.parametrize("which", ["log_p", "log_q"])
    def test_scalar_log_density_is_loud(self, which):
        # a scalar broadcasts into every weight: unchecked, this config gives log_mean
        # -0.99 (block mean of log_q) or -1.95e5 (block sum of log_p), not -4 log 2
        base = DistributionPair.gaussian_q(4, 2.0)
        fields = dict(log_p=base.log_p, q_sampler=base.q_sampler, log_q=base.log_q)
        scalar = {"log_p": lambda y: np.sum(base.log_p(y)),
                  "log_q": lambda x: np.mean(base.log_q(x))}
        fields[which] = scalar[which]
        op = operator_from_matrix(DenseMatrix(2.0 * np.eye(4)))
        with pytest.raises(ValueError, match=f"{which} must return one value per row"):
            inv_det_importance(op, DistributionPair(**fields), EstimatorConfig(10_000, seed=0))

    def test_kernel_returning_too_few_weights_is_loud(self):
        base = DistributionPair.gaussian_q(2, 1.0)
        dist = DistributionPair(
            log_p=base.log_p, q_sampler=lambda rng, k: base.q_sampler(rng, 1), log_q=base.log_q
        )
        op = MatrixFreeOperator(n=2, apply_batch=lambda x: x)
        with pytest.raises(ValueError, match="log-weights"):
            inv_det_importance(op, dist, EstimatorConfig(1000))

    @pytest.mark.parametrize("q_variance", [0.0, -1.0, math.nan, math.inf])
    def test_q_variance_must_be_positive_and_finite(self, q_variance):
        with pytest.raises(ValueError, match="q_variance"):
            DistributionPair.gaussian_q(3, q_variance)

    @pytest.mark.parametrize("q_dim", [4, 2])
    def test_q_of_the_wrong_dimension_is_loud(self, q_dim):
        # unchecked, a q on R^4 (R^2) gave log_mean -2.798 (-1.470), near -log 16
        # (-log 4), against the exact -log 8 of the 3-d map
        op = MatrixFreeOperator(n=3, apply_batch=lambda x: 2.0 * x)
        with pytest.raises(ValueError, match="q_sampler"):
            inv_det_importance(op, DistributionPair.gaussian_q(q_dim, 2.0), EstimatorConfig(1000))
