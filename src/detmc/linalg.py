"""Dense linear algebra substrate: matrices, the exact oracle, solves.

Everything here rests on one LAPACK LU through numpy.  ``lu_factorize``
computes ``log|det A|`` (``np.linalg.slogdet``), the exact oracle that every
Monte Carlo estimate in this package is validated against, and ``A^{-1}``
(``np.linalg.inv``), which turns the per-sample solves of the
determinant-from-inverse estimator into one matrix product per block.  The
determinant is kept in log form so the oracle stays finite for dimensions
where the determinant itself over- or underflows float64.

Only dense square matrices are supported here.  Matrix-free callers supply
their own apply function to the estimators module instead.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "save_matrix",
]

_EPS = float(np.finfo(np.float64).eps)


class SingularMatrixError(ValueError):
    """The matrix is singular to working precision."""


class MatrixFormatError(ValueError):
    """A matrix file does not follow the plain-text format."""


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable n-by-n real matrix with finite entries, row-major storage."""

    data: np.ndarray

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class LUFactorization:
    """What the estimators need from the LU of A: ``log|det A|`` and ``A^{-1}``."""

    log_abs_det: float
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.inverse.shape[0]


def lu_factorize(m: DenseMatrix) -> LUFactorization:
    """Factor A once with LAPACK; keep ``log|det A|`` and the read-only inverse.

    Raises :class:`SingularMatrixError` when A has a zero pivot, or when
    ``||A||_1 ||A^{-1}||_1 < 1/eps`` fails: LAPACK's own rule (xGESVX,
    RCOND < eps) for a matrix that is singular to working precision.  The
    estimators in this package assume full-rank inputs.
    """
    sign, logdet = np.linalg.slogdet(m.data)
    if sign == 0.0:
        raise SingularMatrixError("matrix is singular: LU has a zero pivot")
    inverse = np.linalg.inv(m.data)
    cond = np.linalg.norm(m.data, 1) * np.linalg.norm(inverse, 1)
    if not cond < 1.0 / _EPS:  # also catches an inverse that overflowed to inf
        raise SingularMatrixError(
            f"matrix is singular to working precision: 1-norm condition number {cond:.3g}"
        )
    inverse.setflags(write=False)
    return LUFactorization(log_abs_det=float(logdet), inverse=inverse)


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
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
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


def save_matrix(path, m: DenseMatrix) -> None:
    """Write the plain-text format; 17 significant digits round-trip float64."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.n}\n")
        for row in m.data:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
