"""Seeded generators for the matrix families used in validation experiments.

Every family is a pure function of its :class:`EnsembleSpec`.  Generation
draws from a dedicated substream (``stream_id = 2**63``) so that reusing one
seed for both the matrix and the Monte Carlo sampling never reuses random
draws; estimator chunks occupy the low stream ids.

Families:

* ``gaussian_iid``: iid standard normal entries, the ensemble used for the
  convergence experiment.
* ``orthogonal``: Haar-distributed orthogonal matrix, built as QR of a
  Gaussian draw with each column flipped by the sign of the corresponding R
  diagonal (plain QR is not Haar without the sign fix).  Every estimator
  weight is exactly 1 on these, making them zero-variance test anchors.
* ``diagonal``: diag(entries), all entries finite and nonzero; a single
  entry c is repeated n times, which makes c * I.
* ``ill_conditioned``: U diag(sigma) V^T with Haar U, V and sigma
  log-spaced from 1 down to 1/cond.  Small cond values double as
  "well-conditioned matrix with known singular values"; large ones are where
  a short run's standard error can understate its error (README, Caveats).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .linalg import DenseMatrix
from .sampling import RngStream, _count, gaussian_matrix

__all__ = ["EnsembleSpec", "generate", "KINDS", "ENSEMBLE_STREAM_ID"]

ENSEMBLE_STREAM_ID = 2**63


@dataclass(frozen=True)
class EnsembleSpec:
    """One matrix of a family; a malformed spec (unknown kind, bad
    parameters) is a ``ValueError``."""

    kind: str
    n: int
    seed: int = 0
    diag: tuple[float, ...] | None = None
    cond: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        _count("n", self.n, 1)
        _count("seed", self.seed, 0)
        for field, kind in (("diag", "diagonal"), ("cond", "ill_conditioned")):
            if getattr(self, field) is not None and self.kind != kind:
                raise ValueError(f"{field} applies only to the {kind} kind")
        if self.kind == "diagonal":
            if self.diag is not None and not (isinstance(self.diag, Sequence)
                                              and all(isinstance(d, Real) for d in self.diag)):
                raise ValueError(f"diag must be a sequence of real numbers, got {self.diag!r}")
            if not self.diag or len(self.diag) not in (1, self.n):
                raise ValueError(f"diagonal needs 1 or n = {self.n} entries")
            if any(d == 0.0 or not math.isfinite(d) for d in self.diag):
                raise ValueError("diagonal entries must be finite and nonzero")
        if self.kind == "ill_conditioned":
            if self.cond is not None and not isinstance(self.cond, Real):
                raise ValueError(f"cond must be a real number, got {self.cond!r}")
            if self.cond is None or self.cond < 1.0 or not math.isfinite(self.cond):
                raise ValueError("ill_conditioned needs a finite cond >= 1")
            if self.n == 1 and self.cond != 1.0:
                raise ValueError("a 1x1 matrix cannot have cond > 1")


def generate(spec: EnsembleSpec) -> DenseMatrix:
    """Deterministically build the matrix described by ``spec``."""
    return DenseMatrix(_BUILDERS[spec.kind](spec, RngStream(spec.seed, ENSEMBLE_STREAM_ID)))


def singular_values(n: int, cond: float) -> np.ndarray:
    """The log-spaced spectrum [1, ..., 1/cond] of the ill_conditioned family."""
    return np.logspace(0.0, -math.log10(cond), n)


def _haar_orthogonal(rng: RngStream, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


# each kind's (spec, rng) -> entries; ill_conditioned draws U before V
_BUILDERS = {
    "gaussian_iid": lambda spec, rng: gaussian_matrix(rng, spec.n, spec.n),
    "orthogonal": lambda spec, rng: _haar_orthogonal(rng, spec.n),
    "diagonal": lambda spec, rng: np.diag(np.full(spec.n, spec.diag, dtype=np.float64)),
    "ill_conditioned": lambda spec, rng: (
        (_haar_orthogonal(rng, spec.n) * singular_values(spec.n, spec.cond))
        @ _haar_orthogonal(rng, spec.n).T
    ),
}
KINDS = frozenset(_BUILDERS)
