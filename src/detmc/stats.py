"""Streaming log-domain moment accumulation.

Monte Carlo weights in this package routinely span hundreds of orders of
magnitude (a weight ``||A s||^{-n}`` at n = 100 easily under- or overflows
float64), so means are accumulated as log-sum-exp against a running maximum.
The accumulator tracks

    count, max_log, shifted_sum = sum(exp(lw_i - max_log)),
    shifted_sum_sq = sum(exp(2 (lw_i - max_log)))

which is enough to recover the log of the mean weight and the linear-domain
standard error of the mean.  Standard errors use the sample variance with
Bessel correction (count - 1); a single sample reports std_error = 0 with
``low_count`` set.  The standard error can overflow to +inf for extreme
log-ranges; that is reported as-is, never raised.

A log-weight of -inf is accepted and means "weight exactly zero": it bumps
the count without touching the sums.  NaN and +inf are contract violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["StreamingAccumulator", "MomentSummary"]

_EPS = float(np.finfo(np.float64).eps)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class MomentSummary(NamedTuple):
    log_mean: float
    std_error: float
    low_count: bool


@dataclass
class StreamingAccumulator:
    """Single-owner accumulator of log-weights; see module docstring.

    Instances are mutable and not thread-safe.  Parallel use means one
    accumulator per worker, combined afterwards with :meth:`merge` in a
    fixed worker order (merging in a fixed order makes the combined result
    reproducible regardless of which worker finished first).
    """

    count: int = 0
    max_log: float = -math.inf
    shifted_sum: float = 0.0
    shifted_sum_sq: float = 0.0

    def update_many(self, log_weights: np.ndarray) -> None:
        """Absorb a block of log-weights in one vectorized fold.

        The block is reduced against its own maximum first.  The reductions
        avoid BLAS, so the result does not depend on the BLAS thread count.
        """
        lw = np.asarray(log_weights, dtype=np.float64)
        if lw.ndim != 1:
            raise ValueError("expected a 1-D array of log-weights")
        if lw.size == 0:
            return
        if np.isnan(lw).any() or (lw == np.inf).any():
            raise ValueError("log-weights must not contain NaN or +inf")
        m = float(lw.max())
        if m == -math.inf:
            self.count += lw.size
            return
        d = np.exp(lw - m)  # -inf entries become exact zeros
        self._absorb(lw.size, m, float(d.sum()), float(np.einsum("i,i->", d, d)))

    def merge(self, other: "StreamingAccumulator") -> "StreamingAccumulator":
        """Return a new accumulator equal to this one plus ``other``.

        Contributions are combined self-first; callers that need
        reproducible parallel reductions must merge in a fixed order.
        Associative up to floating-point rounding.
        """
        out = StreamingAccumulator(
            self.count, self.max_log, self.shifted_sum, self.shifted_sum_sq
        )
        out._absorb(other.count, other.max_log, other.shifted_sum, other.shifted_sum_sq)
        return out

    def _absorb(self, count: int, max_log: float, s: float, s2: float) -> None:
        if count == 0:
            return
        if max_log == -math.inf:  # block of all-zero weights
            self.count += count
            return
        if max_log > self.max_log:
            c = _exp_or_inf(self.max_log - max_log) if self.count else 0.0
            self.shifted_sum = self.shifted_sum * c + s
            self.shifted_sum_sq = self.shifted_sum_sq * c * c + s2
            self.max_log = max_log
        else:
            c = math.exp(max_log - self.max_log)
            self.shifted_sum += s * c
            self.shifted_sum_sq += s2 * c * c
        self.count += count

    def summarize(self) -> MomentSummary:
        """Log-mean and linear-domain standard error of the mean so far."""
        if self.count == 0:
            raise ValueError("cannot summarize an empty accumulator")
        n = self.count
        if self.shifted_sum == 0.0:  # every weight was zero
            return MomentSummary(-math.inf, 0.0, n == 1)
        log_mean = self.max_log + math.log(self.shifted_sum / n)
        # variance of the shifted weights, computed from raw moments; the
        # subtraction cancels catastrophically once the true variance drops
        # below ~eps * m2, so anything under that floor is indistinguishable
        # from "all weights equal" and reported as exactly zero
        m2 = self.shifted_sum_sq / n
        v = m2 - (self.shifted_sum / n) ** 2
        if v <= 32.0 * _EPS * m2:
            v = 0.0
        if n == 1 or v == 0.0:
            return MomentSummary(log_mean, 0.0, n == 1)
        std_error = _exp_or_inf(self.max_log) * math.sqrt(v / (n - 1))
        return MomentSummary(log_mean, std_error, False)
