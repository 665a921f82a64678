"""Matrix family tests: exact determinants, Haar orthogonality, conditioning."""

import math

import numpy as np
import pytest

import detmc
from detmc.ensembles import KINDS, EnsembleSpec, generate, singular_values
from detmc.estimators import (
    EstimatorConfig,
    det_via_inverse_solves,
    inv_det_sphere,
    operator_from_matrix,
)
from detmc.linalg import DenseMatrix, log_abs_det, lu_factorize


def oracle_log_det(m: DenseMatrix) -> float:
    return log_abs_det(lu_factorize(m))


def test_scaled_identity():
    # c I is the diagonal kind with one entry, repeated n times
    m = generate(EnsembleSpec("diagonal", 3, 0, (2.0,)))
    np.testing.assert_array_equal(m.data, 2.0 * np.eye(3))
    assert oracle_log_det(m) == pytest.approx(math.log(8.0), abs=1e-14)


@pytest.mark.parametrize("n", [1, 3, 10, 400])
@pytest.mark.parametrize("c", [2.0, -3.0, 1e-200, 10.0])
def test_one_entry_diagonal_is_c_times_the_identity(c, n):
    # the same matrix, oracle and estimates, bit for bit, as c I built by hand
    spec = generate(EnsembleSpec("diagonal", n, diag=(c,)))
    by_hand = DenseMatrix(c * np.eye(n))
    np.testing.assert_array_equal(spec.data, by_hand.data)
    assert oracle_log_det(spec) == oracle_log_det(by_hand)
    config = EstimatorConfig(4001, seed=5, num_streams=2, trace_stride=97)
    for estimate in (lambda m: inv_det_sphere(operator_from_matrix(m), config),
                     lambda m: det_via_inverse_solves(m, config)):
        assert estimate(spec) == estimate(by_hand)


def test_the_scaled_identity_spellings_are_gone():
    assert "scaled_identity" not in KINDS
    with pytest.raises(TypeError, match="scale"):
        EnsembleSpec("diagonal", 3, scale=2.0)
    for name in ("InvalidEnsembleError", "UnsupportedSampleError"):
        assert name not in detmc.__all__ and not hasattr(detmc, name)


def test_orthogonal_is_orthogonal_with_unit_det():
    q = generate(EnsembleSpec("orthogonal", n=10, seed=123)).data
    np.testing.assert_allclose(q.T @ q, np.eye(10), atol=1e-10)
    assert abs(oracle_log_det(DenseMatrix(q))) < 1e-10


def test_orthogonal_sign_fix_varies_det_sign():
    # Haar measure covers both components of O(n); plain QR would not
    signs = set()
    for seed in range(20):
        q = generate(EnsembleSpec("orthogonal", n=3, seed=seed)).data
        signs.add(np.sign(np.linalg.det(q)))
    assert signs == {-1.0, 1.0}


def test_gaussian_iid_moments():
    m = generate(EnsembleSpec("gaussian_iid", n=10, seed=42)).data
    assert abs(m.mean()) < 4.0 / math.sqrt(m.size)
    assert m.var() == pytest.approx(1.0, rel=0.5)


def test_diagonal():
    spec = EnsembleSpec("diagonal", n=3, seed=0, diag=(2.0, -1.5, 4.0))
    m = generate(spec)
    np.testing.assert_array_equal(m.data, np.diag([2.0, -1.5, 4.0]))
    want = sum(math.log(abs(d)) for d in spec.diag)
    assert oracle_log_det(m) == pytest.approx(want, abs=1e-12)


def test_ill_conditioned_spectrum():
    n, cond = 6, 1e4
    sigma = singular_values(n, cond)
    assert sigma[0] / sigma[-1] == pytest.approx(cond, rel=1e-6)
    m = generate(EnsembleSpec("ill_conditioned", n=n, seed=5, cond=cond))
    # orthogonal factors leave |det| = prod(sigma) untouched
    assert oracle_log_det(m) == pytest.approx(float(np.sum(np.log(sigma))), abs=1e-10)


def test_ill_conditioned_reaches_target_norms():
    m = generate(EnsembleSpec("ill_conditioned", n=4, seed=9, cond=100.0)).data
    # largest singular value 1: operator norm of m is 1 up to rounding
    s = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(s, singular_values(4, 100.0), rtol=1e-10)


def test_generation_is_deterministic():
    spec = EnsembleSpec("gaussian_iid", n=6, seed=77)
    np.testing.assert_array_equal(generate(spec).data, generate(spec).data)
    other = generate(EnsembleSpec("gaussian_iid", n=6, seed=78))
    assert not np.array_equal(generate(spec).data, other.data)


def test_matrix_draws_do_not_consume_estimator_streams():
    from detmc.sampling import RngStream, gaussian_matrix

    m = generate(EnsembleSpec("gaussian_iid", n=4, seed=3)).data
    worker0 = gaussian_matrix(RngStream(3, 0), 4, 4)
    assert not np.array_equal(m, worker0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="unknown", n=3),
        dict(kind="gaussian_iid", n=0),
        dict(kind="scaled_identity", n=3, message="unknown ensemble kind 'scaled_identity'"),
        dict(kind="diagonal", n=3, diag=(1.0, 2.0), message="diagonal needs 1 or n = 3 entries"),
        dict(kind="diagonal", n=3, diag=(1.0, 2.0, 3.0, 4.0), message="needs 1 or n = 3"),
        dict(kind="diagonal", n=3, diag=(), message="needs 1 or n = 3"),
        dict(kind="diagonal", n=3),
        dict(kind="diagonal", n=2, diag=(1.0, 0.0)),
        # one entry is repeated n times, so it is checked as every entry is
        dict(kind="diagonal", n=3, diag=(0.0,), message="must be finite and nonzero"),
        dict(kind="diagonal", n=3, diag=(math.inf,), message="must be finite and nonzero"),
        dict(kind="diagonal", n=1, diag=(math.nan,), message="must be finite and nonzero"),
        dict(kind="ill_conditioned", n=3),
        dict(kind="ill_conditioned", n=3, cond=0.5),
        dict(kind="ill_conditioned", n=1, cond=10.0),
        # a field the kind does not use would be silently ignored
        dict(kind="gaussian_iid", n=3, cond=5.0),
        dict(kind="orthogonal", n=3, diag=(2.0,)),
        dict(kind="gaussian_iid", n=3, diag=(1.0, 2.0, 3.0)),
        dict(kind="diagonal", n=2, diag=(1.0, 2.0), cond=1.0),
        dict(kind="ill_conditioned", n=2, cond=2.0, diag=(1.0,)),
        # a non-integer dimension or seed would be truncated or fail inside numpy
        dict(kind="gaussian_iid", n=2.5),
        dict(kind="gaussian_iid", n=3.0),
        dict(kind="gaussian_iid", n=3, seed=1.5),
        dict(kind="orthogonal", n=3, seed="1"),
        dict(kind="gaussian_iid", n=True),
        dict(kind="gaussian_iid", n=False),
        dict(kind="gaussian_iid", n=3, seed=True),
        dict(kind="gaussian_iid", n=3, seed=False),
        # a negative seed would fail in RngStream with a plain ValueError
        dict(kind="gaussian_iid", n=3, seed=-1),
        # a cond the check must not let through, with the message the CLI prints
        dict(kind="ill_conditioned", n=3, cond=math.inf, message="needs a finite cond >= 1"),
        dict(kind="ill_conditioned", n=3, cond=math.nan, message="needs a finite cond >= 1"),
        # a field of the wrong type raised Python's TypeError from len() or <
        dict(kind="diagonal", n=3, diag=2.0, message="diag must be a sequence of real numbers"),
        dict(kind="diagonal", n=3, diag="2", message="diag must be a sequence of real numbers"),
        dict(kind="diagonal", n=2, diag=(1.0, "2"), message="diag must be a sequence of real"),
        dict(kind="ill_conditioned", n=3, cond="2", message="cond must be a real number"),
        dict(kind="ill_conditioned", n=3, cond=2j, message="cond must be a real number"),
    ],
)
def test_invalid_specs_rejected(kwargs):
    spec = {"seed": 0, **kwargs}
    with pytest.raises(ValueError, match=spec.pop("message", None)):
        EnsembleSpec(**spec)
