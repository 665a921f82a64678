"""Streaming log-domain moment accumulation.

Monte Carlo weights in this package routinely span hundreds of orders of
magnitude (a weight ``||A s||^{-n}`` at n = 100 easily under- or overflows
float64), so means are accumulated as log-sum-exp against a running maximum.
The accumulator tracks

    count, max_log, shifted_sum = sum(exp(lw_i - max_log)),
    shifted_sum_sq = sum(exp(2 (lw_i - max_log)))

which is enough to recover the log of the mean weight and the linear-domain
standard error of the mean.  ``log_total`` is the log of the running sum.
``update_many`` records it after chosen positions of a block, from the shifted
weights it folds, in ``marks``, and ``merge`` offsets a later stream's marks by
the total before it: the estimators' traces.  Standard errors use the sample
variance with Bessel correction (count - 1).  A zero that carries no
information about the spread, from one folded weight or from weights that
are all zero, comes with ``low_count`` set.  The standard error can overflow
to +inf for extreme log-ranges; that is reported as-is, never raised.  The
relative standard error, std_error / mean, is computed from the shifted sums
alone, so it never overflows.  :meth:`StreamingAccumulator.summarize` returns
the estimators' own :class:`EstimateResult`.

A log-weight of -inf is accepted and means "weight exactly zero": it bumps
the count without touching the sums.  NaN and +inf are contract violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["StreamingAccumulator", "EstimateResult"]

_EPS = float(np.finfo(np.float64).eps)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class EstimateResult:
    """Streaming Monte Carlo summary.

    ``log_mean`` is authoritative; ``mean`` is its exponential and may
    overflow to +inf.  ``std_error`` is the linear-domain standard error of
    the mean, advisory only for importance weights of infinite variance (see
    :mod:`detmc.estimators`), and may overflow with it.  ``rel_std_error`` is
    ``std_error / mean`` computed without overflow, the delta-method standard
    error of ``log_mean``.  ``trace`` holds (sample_index, running_log_mean)
    pairs when a trace was requested.  ``low_count`` marks a ``std_error`` of
    0 that says nothing about the spread: one weight folded, or every weight
    zero.
    """

    log_mean: float
    std_error: float
    rel_std_error: float
    n_samples: int
    trace: tuple[tuple[int, float], ...] | None = None
    low_count: bool = False

    @property
    def mean(self) -> float:
        return _exp_or_inf(self.log_mean)


@dataclass
class StreamingAccumulator:
    """Single-owner accumulator of log-weights; see module docstring.

    Instances are mutable and not thread-safe.  Parallel use means one
    accumulator per worker, combined afterwards with :meth:`merge` in a
    fixed worker order (merging in a fixed order makes the combined result
    reproducible regardless of which worker finished first).  ``marks`` holds
    the log-totals recorded at listed positions, one array per block, in fold
    order: state, not a setting, so it takes no constructor argument and
    ``==`` leaves it out.
    """

    count: int = 0
    max_log: float = -math.inf
    shifted_sum: float = 0.0
    shifted_sum_sq: float = 0.0
    marks: list[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def log_total(self) -> float:
        """log of the sum of the weights absorbed so far; -inf while every weight is zero."""
        return self.max_log + math.log(self.shifted_sum) if self.shifted_sum > 0.0 else -math.inf

    def update_many(self, log_weights: np.ndarray, at=()) -> None:
        """Absorb a block of log-weights in one vectorized fold; append to
        :attr:`marks` the :attr:`log_total` as it stood after each block
        position in ``at`` (0-based, ascending), if any are listed.

        The block is reduced against its own maximum first, and the running
        sums at ``at`` come from the same shifted weights; the leading ones
        that underflow there (< 1e-290) are rescanned exactly.  The reductions
        avoid BLAS, so the result does not depend on the BLAS thread count.
        """
        lw = np.asarray(log_weights, dtype=np.float64)
        at = np.asarray(at, dtype=np.int64)
        if lw.ndim != 1:
            raise ValueError("expected a 1-D array of log-weights")
        if at.size and not (0 <= at[0] and at[-1] < lw.size and (np.diff(at) >= 0).all()):
            raise ValueError("positions must be ascending indices into the block")
        before = self.log_total
        m = float(lw.max()) if lw.size else -math.inf  # NaN propagates through max
        if math.isnan(m) or m == math.inf:
            raise ValueError("log-weights must not contain NaN or +inf")
        if m == -math.inf:  # an empty block, or one of zero weights
            self.count += lw.size
            if at.size:
                self.marks.append(np.full(at.size, before))
            return
        d = np.subtract(lw, m)
        np.exp(d, out=d)  # -inf entries become exact zeros
        self._absorb(lw.size, m, float(d.sum()), float(np.einsum("i,i->", d, d)))
        if not at.size:
            return
        sums = np.cumsum(d, out=d)[at]  # d is spent: its running sums overwrite it
        small = int(np.searchsorted(sums, 1e-290))
        head = np.logaddexp.accumulate(lw[: at[small - 1] + 1])[at[:small]] if small else []
        self.marks.append(np.logaddexp(before, np.concatenate([head, m + np.log(sums[small:])])))

    def merge(self, other: "StreamingAccumulator") -> "StreamingAccumulator":
        """Return a new accumulator equal to this one plus ``other``.

        Contributions are combined self-first; ``other``'s marks follow this
        one's, offset by this one's :attr:`log_total`, so they read as running
        totals of the whole sequence.  Callers that need reproducible parallel
        reductions must merge in a fixed order.  Associative up to
        floating-point rounding.
        """
        out = replace(self)
        out.marks = self.marks + [np.logaddexp(self.log_total, v) for v in other.marks]
        out._absorb(other.count, other.max_log, other.shifted_sum, other.shifted_sum_sq)
        return out

    def _absorb(self, count: int, max_log: float, s: float, s2: float) -> None:
        self.count += count
        if max_log == -math.inf:  # no weights, or all of them zero (and -inf - -inf is NaN)
            return
        # rescale both sides to the larger maximum: one factor is exp(0.0) == 1.0
        # exactly, the other is at most 1 (0.0 when this side is empty)
        top = max(self.max_log, max_log)
        a, b = math.exp(self.max_log - top), math.exp(max_log - top)
        self.shifted_sum = self.shifted_sum * a + s * b
        self.shifted_sum_sq = self.shifted_sum_sq * a * a + s2 * b * b
        self.max_log = top

    def summarize(self) -> EstimateResult:
        """Log-mean and linear-domain standard error of the mean of the
        ``n_samples`` weights folded so far."""
        if self.count == 0:
            raise ValueError("cannot summarize an empty accumulator")
        n = self.count
        # the largest weight adds exp(0) = 1 to the shifted sum, so mean >= 1/n
        # unless every weight was zero
        mean = self.shifted_sum / n
        log_mean = self.max_log + math.log(mean) if mean else -math.inf
        # variance of the shifted weights, computed from raw moments; the
        # subtraction cancels catastrophically once the true variance drops
        # below ~eps * m2, so anything under that floor is indistinguishable
        # from "all weights equal" and reported as exactly zero.  One weight
        # has s = s2 = 1.0, so v = 0 exactly and n - 1 is never divided by
        m2 = self.shifted_sum_sq / n
        v = m2 - mean ** 2
        se = math.sqrt(v / (n - 1)) if v > 32.0 * _EPS * m2 else 0.0
        if not se:  # exp(max_log) may overflow, and inf * 0 is NaN
            return EstimateResult(log_mean, 0.0, 0.0, n, low_count=n == 1 or not mean)
        return EstimateResult(log_mean, _exp_or_inf(self.max_log) * se, se / mean, n)
