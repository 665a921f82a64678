"""Dense linear algebra substrate: matrices, the exact oracle, solves.

Everything here rests on LAPACK's LU through numpy.  ``lu_factorize``
factors A with ``np.linalg.inv``, whose ``A^{-1}`` turns the per-sample
solves of the determinant-from-inverse estimator into one matrix product
per block.  A :class:`DenseMatrix` is immutable, so it keeps its
factorization for its lifetime once made: every later ``lu_factorize`` of
the same matrix, and every estimate on it, reuses the one ``A^{-1}``.
``np.linalg.slogdet`` factors A again for ``log|det A|``, the exact oracle
every Monte Carlo estimate here is validated against, only when it is
first read.  It is kept in log form so the oracle stays finite for
dimensions where the determinant itself over- or underflows float64.

Only dense square matrices are supported here.  Matrix-free callers supply
their own apply function to the estimators module instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DenseMatrix",
    "LUFactorization",
    "SingularMatrixError",
    "MatrixFormatError",
    "lu_factorize",
    "lu_solve_many",
    "log_abs_det",
    "load_matrix",
]

_EPS = float(np.finfo(np.float64).eps)


class SingularMatrixError(ValueError):
    """The matrix, or the map an operator realizes, is singular to working precision."""


class MatrixFormatError(ValueError):
    """A matrix file does not follow the plain-text format."""


def _norm1(a: np.ndarray) -> float:
    """||a||_1, the largest column sum of |a|, summed 64 rows at a time: no n x n temporary."""
    return float(sum(np.abs(a[i: i + 64]).sum(axis=0) for i in range(0, len(a), 64)).max())


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable n-by-n real matrix with finite entries, row-major storage.
    Keeps its factorization once :func:`lu_factorize` has made it."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.data):  # the float64 cast would drop imaginary parts
            raise ValueError("matrix entries must be real, got a complex array")
        a = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must all be finite")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @cached_property
    def _factorization(self) -> LUFactorization:
        """The one factorization of A, made on first use; a singular A raises on
        every use and caches nothing."""
        try:
            inverse = np.linalg.inv(self.data)
        except np.linalg.LinAlgError:
            raise SingularMatrixError("matrix is singular: LU has a zero pivot") from None
        cond = _norm1(self.data) * _norm1(inverse)
        if not cond < 1.0 / _EPS:  # also catches an inverse that overflowed to inf
            raise SingularMatrixError(
                f"matrix is singular to working precision: 1-norm condition number {cond:.3g}"
            )
        inverse.setflags(write=False)
        # A's entries, not A: the memo then forms no reference cycle, and a matrix is
        # freed with its A^-1 as soon as the last reference to it goes
        return LUFactorization(data=self.data, inverse=inverse)


@dataclass(frozen=True)
class LUFactorization:
    """What the estimators need from the LU of A: ``A^{-1}``; ``log|det A|`` on first read.
    ``data`` is A's read-only entries."""

    data: np.ndarray
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.inverse.shape[0]

    @cached_property
    def log_abs_det(self) -> float:
        return float(np.linalg.slogdet(self.data)[1])


def lu_factorize(m: DenseMatrix) -> LUFactorization:
    """A's factorization: ``inv`` on the first call for m, the same object on every
    later one.

    Raises :class:`SingularMatrixError`, on every call, when A has a zero pivot,
    or when ``||A||_1 ||A^{-1}||_1 < 1/eps`` fails: LAPACK's own rule (xGESVX,
    RCOND < eps) for a matrix that is singular to working precision.  The
    estimators in this package assume full-rank inputs.
    """
    return m._factorization


def lu_solve_many(f: LUFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x_i = b_i for a (k, n) block of right-hand-side rows at once.

    One factorization amortized over many solves is what makes the
    determinant-from-inverse estimator O(n^2) per sample; with the inverse
    at hand the whole block is one matrix product.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2 or rhs.shape[1] != f.n:
        raise ValueError(f"expected a (k, {f.n}) block of right-hand sides, got {rhs.shape}")
    return rhs @ f.inverse.T


def log_abs_det(f: LUFactorization) -> float:
    """log |det A|, authoritative where |det A| itself is not representable."""
    return f.log_abs_det


def load_matrix(path) -> DenseMatrix:
    """Read the plain-text matrix format: a line ``n``, then n rows of n floats."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not ASCII text (byte {exc.start})")
    if not tokens:
        raise MatrixFormatError(f"{path}: empty matrix file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(f"{path}: first token must be the dimension, got {tokens[0]!r}")
    if n < 1:
        raise MatrixFormatError(f"{path}: dimension must be positive, got {n}")
    if len(tokens) != 1 + n * n:
        raise MatrixFormatError(
            f"{path}: expected {n * n} entries for n = {n}, found {len(tokens) - 1}"
        )
    try:
        entries = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}")
    if not np.isfinite(entries).all():
        raise MatrixFormatError(f"{path}: matrix entries must be finite")
    return DenseMatrix(entries.reshape(n, n))

