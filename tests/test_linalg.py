"""Linear-algebra substrate tests against independent oracles (triple loop, cofactor, mpmath)."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from mpmath import mp

from detmc.ensembles import EnsembleSpec, generate
from detmc.estimators import operator_from_matrix
from detmc.linalg import (
    DenseMatrix,
    MatrixFormatError,
    SingularMatrixError,
    _bands,
    load_matrix,
    log_abs_det,
    lu_factorize,
    lu_solve_many,
    triangular_images,
)
from detmc.sampling import RngStream, unit_sphere_many

EPS = float(np.finfo(np.float64).eps)

# Rank 4: rows 2 and 4 minus row 0 are parallel.  LAPACK's det rounds to
# 1.03e-6 (cond 1.9e17), so a determinant-magnitude guard lets it through.
RANK4_INTEGER = [
    [0, 92, 92, 92, 92],
    [92, 92, 92, 0, 92],
    [-1, 92, 92, 92, 92],
    [92, 92, 0, 92, 92],
    [92, 92, 92, 92, 92],
]


def naive_matvec(a, v):
    """Independent triple-loop-style oracle for the product."""
    n = len(v)
    out = np.zeros(n)
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += a[i][j] * v[j]
        out[i] = s
    return out


def matvec(m, v):
    """A v through the dense forward operator, the package's one product path."""
    return operator_from_matrix(m).apply_batch(np.asarray(v, dtype=np.float64)[np.newaxis, :])[0]


def mp_log_abs_det(a):
    """log|det a| in 60-digit arithmetic on the exact float64 entries."""
    with mp.workdps(60):
        return float(mp.log(abs(mp.det(mp.matrix(a.tolist())))))


def mp_log_solve_norms(a, rhs):
    """log ||a^{-1} b|| in 60-digit arithmetic for each row b of rhs."""
    with mp.workdps(60):
        inverse = mp.matrix(a.tolist()) ** -1
        return np.array([float(mp.log(mp.norm(inverse * mp.matrix(b.tolist())))) for b in rhs])


class TestMatvec:
    def test_identity(self):
        m = DenseMatrix(np.eye(3))
        np.testing.assert_array_equal(matvec(m, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        m = DenseMatrix(np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(matvec(m, np.array([1.0, 1.0])), [2.0, 3.0])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3))
        v = rng.standard_normal(3)
        got = matvec(DenseMatrix(a), v)
        np.testing.assert_allclose(got, naive_matvec(a, v), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec(DenseMatrix(np.eye(3)), np.ones(4))


class TestDenseMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("data", [np.diag([2 + 1j, 3 + 1j]), [[1.0, 0.0], [0.0, 1j]],
                                      np.eye(2, dtype=np.complex64)])
    def test_rejects_complex(self, data):
        # the float64 cast dropped imaginary parts: diag(2+i, 3+i) gave log|det| = log 6,
        # not 1.9560, with only a ComplexWarning
        with pytest.raises(ValueError, match="real"):
            log_abs_det(lu_factorize(DenseMatrix(data)))

    def test_immutable(self):
        m = DenseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_compares_and_hashes_by_identity(self):
        # a matrix keeps its own inverse and R, so equal entries make two matrices,
        # not one
        a, b = DenseMatrix(np.eye(2)), DenseMatrix(np.eye(2))
        assert a == a and a != b
        assert len({a, a, b}) == 2


class TestLUFactorize:
    def test_identity(self):
        f = lu_factorize(DenseMatrix(np.eye(4)))
        assert log_abs_det(f) == 0.0
        np.testing.assert_array_equal(f.inverse, np.eye(4))

    def test_swap_matrix(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = lu_factorize(DenseMatrix(swap))
        np.testing.assert_array_equal(f.inverse, swap)
        assert log_abs_det(f) == pytest.approx(0.0, abs=1e-15)

    def test_seeded_reconstruction(self):
        rng = np.random.default_rng(404)
        m = DenseMatrix(rng.standard_normal((4, 4)))
        f = lu_factorize(m)
        np.testing.assert_allclose(m.data @ f.inverse, np.eye(4), atol=1e-12)

    def test_inverse_is_read_only(self):
        f = lu_factorize(DenseMatrix(np.diag([2.0, 4.0])))
        with pytest.raises(ValueError):
            f.inverse[0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((3, 3)),
            np.array([[1.0, 2.0], [2.0, 4.0]]),  # rank 1
            np.array([[1e-320]]),  # the inverse overflows
            np.array(RANK4_INTEGER, dtype=np.float64),  # no zero pivot, cond 1.9e17
        ],
    )
    def test_singular_rejected(self, bad):
        with pytest.raises(SingularMatrixError):
            lu_factorize(DenseMatrix(bad))

    def test_peak_memory_is_the_inverse_and_one_64_row_block(self):
        # the 1-norm check reduces |A| and |A^-1| 64 rows at a time, so the inverse
        # is the only n x n array made; the slack, 16 KiB, covers the n column
        # sums and interpreter objects.  A matrix is factorized once, so the warm-up
        # factorizes a copy
        n = 400
        data = np.eye(n) + np.random.default_rng(7).standard_normal((n, n)) / n
        lu_factorize(DenseMatrix(data))
        m = DenseMatrix(data)
        tracemalloc.start()
        try:
            lu_factorize(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 8 * 64 * n + 16 * 1024

    def test_a_dropped_matrix_is_freed_with_its_inverse(self):
        # the kept A^-1 refers to nothing: no reference cycle holds a dropped
        # matrix and its A^-1 until the cycle collector runs
        gc.disable()
        try:
            m = DenseMatrix(np.diag([2.0, 4.0]))
            lu_factorize(m)
            ref = weakref.ref(m)
            del m
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("scale", [1e-150, 1e-160])
    def test_tiny_but_well_conditioned_accepted(self, scale):
        f = lu_factorize(DenseMatrix(scale * np.eye(5)))
        assert log_abs_det(f) == pytest.approx(5 * math.log(scale), rel=1e-15)


class TestLUSolve:
    def test_identity(self):
        f = lu_factorize(DenseMatrix(np.eye(2)))
        np.testing.assert_array_equal(lu_solve_many(f, np.array([[5.0, 6.0]])), [[5.0, 6.0]])

    def test_diagonal(self):
        f = lu_factorize(DenseMatrix(np.diag([2.0, 4.0])))
        np.testing.assert_array_equal(lu_solve_many(f, np.array([[2.0, 4.0]])), [[1.0, 1.0]])

    def test_seeded_residual(self):
        rng = np.random.default_rng(55)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((3, 5))
        x = lu_solve_many(lu_factorize(DenseMatrix(a)), b)
        assert np.linalg.norm(x @ a.T - b) / np.linalg.norm(b) < 1e-10

    def test_block_solve_matches_loop(self):
        rng = np.random.default_rng(56)
        a = rng.standard_normal((6, 6))
        rhs = rng.standard_normal((9, 6))
        f = lu_factorize(DenseMatrix(a))
        block = lu_solve_many(f, rhs)
        for i in range(9):
            np.testing.assert_allclose(
                block[i], lu_solve_many(f, rhs[i : i + 1])[0], rtol=1e-12, atol=1e-14
            )

    def test_dimension_mismatch(self):
        f = lu_factorize(DenseMatrix(np.eye(3)))
        with pytest.raises(ValueError):
            lu_solve_many(f, np.ones((1, 2)))
        with pytest.raises(ValueError):
            lu_solve_many(f, np.ones(3))

    @pytest.mark.parametrize(
        "n, cond, bound",
        # bounds are 10x the worst error of the previous hand-written LU
        # (4.1e-10 at cond 1e8, 6.5e-6 at cond 1e12) on the same cases
        [(10, 1e8, 4.1e-9), (10, 1e12, 6.5e-5), (40, 1e8, 4.1e-9), (40, 1e12, 6.5e-5)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    # the solves, and the images under R for A^-1 = QR, which have their norms: R
    # carries the QR's rounding on top of the inverse's, and its worst errors read
    # as the solves' (1.52e-5 for both at n = 10, cond 1e12, seed 1)
    @pytest.mark.parametrize("kernel", ["solves", "triangular"])
    def test_solve_norms_match_mpmath(self, n, cond, bound, seed, kernel):
        m = generate(EnsembleSpec("ill_conditioned", n=n, seed=seed, cond=cond))
        u = np.linalg.svd(m.data)[0]
        # random directions plus the extreme singular directions, where the
        # explicit inverse loses the most relative accuracy
        rhs = np.vstack([unit_sphere_many(RngStream(seed, 0), 32, n), u[:, 0], u[:, -1]])
        f = lu_factorize(m)
        if kernel == "solves":
            images = lu_solve_many(f, rhs)
        else:
            images = triangular_images(f.triangular, rhs)
        got = np.log(np.linalg.norm(images, axis=1))
        assert np.max(np.abs(got - mp_log_solve_norms(m.data, rhs))) <= bound


class TestTriangularImages:
    def test_the_factor_is_read_only_upper_triangular_and_kept(self):
        rng = np.random.default_rng(3)
        f = lu_factorize(DenseMatrix(rng.standard_normal((7, 7))))
        r = f.triangular
        assert r is f.triangular
        np.testing.assert_array_equal(r, np.triu(r))
        # R^T R = A^-T A^-1: the same norms in every direction
        np.testing.assert_allclose(r.T @ r, f.inverse.T @ f.inverse, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            r[0, 0] = 1.0

    def test_factorizing_and_the_oracle_do_not_make_the_factor(self):
        f = lu_factorize(DenseMatrix(np.diag([2.0, 4.0])))
        log_abs_det(f)
        assert "triangular" not in vars(f)

    def test_band_rule(self):
        # bands of about 80 rows, one below n = 120 and at most six
        assert [_bands(n) for n in (1, 10, 119, 120, 199, 200, 400, 439, 440, 4000)] == [
            1, 1, 1, 2, 2, 3, 5, 5, 6, 6]

    @pytest.mark.parametrize("n", [1, 6, 119, 120, 200, 400, 520])
    def test_bands_match_one_product(self, n):
        # on each side of the band splits: the bands together are the whole product,
        # r @ x, summed in another order, so within the dot products' rounding bound
        rng = np.random.default_rng(n)
        r = np.triu(rng.standard_normal((n, n)))
        xs = rng.standard_normal((2 * n + 1, 33)).T[:, n + 1:]  # column-major, as the kernel passes
        got = triangular_images(r, xs)
        assert got.shape == xs.shape
        assert np.all(np.abs(got - xs @ r.T) <= n * EPS * (np.abs(xs) @ np.abs(r).T))

    def test_dimension_mismatch(self):
        r = lu_factorize(DenseMatrix(np.eye(3))).triangular
        with pytest.raises(ValueError):
            triangular_images(r, np.ones((1, 2)))
        with pytest.raises(ValueError):
            triangular_images(r, np.ones(3))


class TestLogAbsDet:
    def test_identity(self):
        assert log_abs_det(lu_factorize(DenseMatrix(np.eye(5)))) == 0.0

    def test_diagonal(self):
        got = log_abs_det(lu_factorize(DenseMatrix(np.diag([2.0, 3.0]))))
        assert got == pytest.approx(math.log(6.0), abs=1e-15)

    def test_seeded_2x2_cofactor(self):
        rng = np.random.default_rng(77)
        a, b, c, d = rng.standard_normal(4)
        got = log_abs_det(lu_factorize(DenseMatrix(np.array([[a, b], [c, d]]))))
        assert got == pytest.approx(math.log(abs(a * d - b * c)), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6))
        base = log_abs_det(lu_factorize(DenseMatrix(a)))
        for seed in range(4):
            p = np.random.default_rng(seed).permutation(6)
            permuted = log_abs_det(lu_factorize(DenseMatrix(a[p])))
            assert permuted == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 3.0, 10.0])
    def test_scaling_law(self, c):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 5))
        base = log_abs_det(lu_factorize(DenseMatrix(a)))
        scaled = log_abs_det(lu_factorize(DenseMatrix(c * a)))
        assert scaled == pytest.approx(5 * math.log(c) + base, abs=1e-10)

    # bounds are 10x the worst error of the previous hand-written LU over
    # seeds 0-4 (9.5e-10 at cond 1e8, 7.2e-6 at cond 1e12)
    @pytest.mark.parametrize("cond, bound", [(1e8, 9.5e-9), (1e12, 7.2e-5)])
    def test_ill_conditioned_matches_mpmath(self, cond, bound):
        for seed in range(5):
            m = generate(EnsembleSpec("ill_conditioned", n=10, seed=seed, cond=cond))
            assert abs(log_abs_det(lu_factorize(m)) - mp_log_abs_det(m.data)) <= bound


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=60)
def test_solve_then_matvec_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    assume(np.linalg.cond(a) < 1e6)
    m = DenseMatrix(a)
    b = rng.standard_normal(n)
    x = lu_solve_many(lu_factorize(m), b[np.newaxis, :])[0]
    assert np.linalg.norm(matvec(m, x) - b) <= 1e-8 * np.linalg.norm(b)


@given(
    arrays(np.float64, (5, 5), elements=st.floats(min_value=-100.0, max_value=100.0)),
)
@settings(deadline=None, max_examples=60)
def test_oracle_and_solve_property(entries):
    # a real full-rank criterion: a determinant-magnitude guard admits
    # exactly singular matrices such as RANK4_INTEGER
    cond = np.linalg.cond(entries)
    assume(cond < 1e12)
    f = lu_factorize(DenseMatrix(entries))
    # first-order perturbation bounds, with slack for the pivot growth of a
    # backward-stable LU: |d log|det A|| <= n cond eps, and the residual of
    # a solve through the inverse is at most n cond eps ||A|| ||x||
    n = entries.shape[0]
    slack = 10.0 * n * cond * EPS
    assert log_abs_det(f) == pytest.approx(mp_log_abs_det(entries), abs=1e-13 + slack)
    rhs = np.random.default_rng(0).standard_normal((4, n))
    x = lu_solve_many(f, rhs)
    residual = np.linalg.norm(x @ entries.T - rhs, axis=1)
    assert np.all(
        residual <= slack * np.linalg.norm(entries, 2) * np.linalg.norm(x, axis=1)
    )


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path, write_matrix):
        # 17 significant digits load back bit-exact
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-8, 8, (4, 4))
        loaded = load_matrix(write_matrix(tmp_path / "m.txt", entries))
        np.testing.assert_array_equal(loaded.data, entries)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x\n1 2\n3 4\n",
            "2\n1 2\n3\n",
            "2\n1 2 3 4 5\n",
            "-1\n",
            "2\n1 2\n3 inf\n",
            "2\n1 x\n3 4\n",
            b"\xef\xbb\xbf2\n1 2\n3 4\n",  # UTF-8 byte order mark
            "2\n1 \u22122\n3 4\n".encode(),  # U+2212 minus sign
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(MatrixFormatError):
            load_matrix(path)
