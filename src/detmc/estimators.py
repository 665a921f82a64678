"""Monte Carlo estimators for absolute determinants and their reciprocals.

Three weight formulas, all unbiased for the reciprocal absolute determinant
of the map an operator realizes:

* sphere:          w = ||A s||^{-n},            s uniform on the unit sphere
* gaussian_ratio:  w = exp((||x||^2 - ||A x||^2) / 2),   x standard normal
* importance:      w = p(A x) / q(x),           x drawn from q

The sphere form is the gaussian_ratio form with the chi-distributed radius
integrated out analytically, so the two cross-validate each other; the
importance form is the general hook for user-supplied (p, q) pairs.  The
sphere weight is homogeneous of degree 0 in s, so it is computed on the
unnormalised Gaussian g = r s as -n (log||A g|| - log||g||): no draw is
normalised first.
Applying the sphere formula to a solve-based operator (A maps to A^{-1})
turns it into an estimator of |det A| itself; that is
:func:`det_via_inverse_solves`.

Everything is accumulated in log domain: for even modest n the weights span
ranges that overflow linear float64.  Reported standard errors come from the
empirical second moment; for ill-conditioned matrices the weights can have
infinite variance, in which case the standard error is advisory only.  The
``heavy_tail`` flag on the result is set when some log-weight exceeds
-n log(1e-150); for the sphere form that means some unit direction's image
norm fell below 1e-150.  Confidence-interval-based checks in this package
therefore stick to well-conditioned ensembles.

Sampling is partitioned evenly across ``num_streams`` independent substreams
(one worker each) and partial accumulators are merged in stream-id order, so
a result is a pure function of its config no matter how workers were
scheduled.  Operators and distribution callables must be safe to call from
concurrent threads, or the estimate must run with ``num_streams = 1``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .linalg import DenseMatrix, LUFactorization, lu_factorize, lu_solve_many
from .sampling import RngStream, log_density_std_gaussian
from .stats import StreamingAccumulator

__all__ = [
    "MatrixFreeOperator",
    "EstimatorConfig",
    "EstimateResult",
    "DistributionPair",
    "SingularDirectionError",
    "UnsupportedSampleError",
    "operator_from_matrix",
    "solve_operator",
    "inv_det_sphere",
    "inv_det_gaussian_ratio",
    "inv_det_importance",
    "det_via_inverse_solves",
    "sphere_log_weights",
    "gaussian_ratio_log_weights",
    "importance_log_weights",
    "default_trace_stride",
]

# samples per vectorized block; fixed so results never depend on scheduling
_CHUNK = 16384

# an image norm of a unit direction below exp(_LOG_HEAVY_TAIL) = 1e-150
# makes the weight > 1e150^n: keep going, but flag the result as heavy-tailed
_LOG_HEAVY_TAIL = math.log(1e-150)

_TINY_NORMAL = float(np.finfo(np.float64).tiny)


class SingularDirectionError(RuntimeError):
    """A drawn direction was mapped to the zero vector: the map is rank-deficient."""


class UnsupportedSampleError(RuntimeError):
    """q produced a sample at which its own density is zero."""


@dataclass(frozen=True)
class MatrixFreeOperator:
    """A linear map exposed only through batched products.

    ``apply_batch`` maps a (k, n) block of row vectors to the (k, n) block
    of their images and must be deterministic.  Estimators may call
    ``apply_batch`` from several threads at once.
    """

    n: int
    apply_batch: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("operator dimension must be positive")


def operator_from_matrix(m: DenseMatrix) -> MatrixFreeOperator:
    """Forward operator v -> A v for a dense matrix."""
    data = m.data
    return MatrixFreeOperator(n=m.n, apply_batch=lambda xs: xs @ data.T)


def solve_operator(m: DenseMatrix | LUFactorization) -> MatrixFreeOperator:
    """Inverse operator v -> A^{-1} v backed by one LU factorization."""
    f = lu_factorize(m) if isinstance(m, DenseMatrix) else m
    return MatrixFreeOperator(n=f.n, apply_batch=lambda xs: lu_solve_many(f, xs))


@dataclass(frozen=True)
class EstimatorConfig:
    """Sample budget, seeding and trace layout shared by all estimators.

    ``trace_stride = 0`` disables the trace; ``k > 0`` records the running
    log-domain mean after every k-th sample (plus the final sample).
    """

    num_samples: int
    seed: int = 0
    num_streams: int = 1
    trace_stride: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if self.num_streams < 1:
            raise ValueError("num_streams must be positive")
        if self.num_samples % self.num_streams != 0:
            raise ValueError(
                f"num_samples ({self.num_samples}) must be divisible by "
                f"num_streams ({self.num_streams})"
            )
        if self.trace_stride < 0:
            raise ValueError("trace_stride must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def default_trace_stride(num_samples: int) -> int:
    """Stride keeping traces at <= 10^4 points regardless of sample count."""
    return 1 if num_samples <= 10_000 else num_samples // 10_000


@dataclass(frozen=True)
class EstimateResult:
    """Streaming Monte Carlo summary.

    ``log_mean`` is authoritative; ``mean`` is its exponential and may
    overflow to +inf.  ``std_error`` is the linear-domain standard error of
    the mean (advisory for heavy-tailed weights).  ``trace`` holds
    (sample_index, running_log_mean) pairs when a trace was requested.
    """

    log_mean: float
    std_error: float
    n_samples: int
    trace: tuple[tuple[int, float], ...] | None = None
    heavy_tail: bool = False
    low_count: bool = False

    @property
    def mean(self) -> float:
        try:
            return math.exp(self.log_mean)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class DistributionPair:
    """The (p, q) pair of the importance estimator.

    ``q_sampler(rng, k)`` draws a (k, n) block from q consuming ``rng``
    deterministically; ``log_p`` / ``log_q`` evaluate log-densities row-wise
    on such blocks.  q must have full support: a drawn sample with
    ``log_q = -inf`` is reported as :class:`UnsupportedSampleError`.  p may
    assign zero density (the weight is then exactly zero).
    """

    log_p: Callable[[np.ndarray], np.ndarray]
    q_sampler: Callable[[RngStream, int], np.ndarray]
    log_q: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def gaussian_q(n: int, q_variance: float) -> "DistributionPair":
        """p = N(0, I), q = N(0, q_variance * I)."""
        if q_variance <= 0.0 or not math.isfinite(q_variance):
            raise ValueError("q_variance must be positive and finite")
        scale = math.sqrt(q_variance)
        log_norm = 0.5 * n * math.log(2.0 * math.pi * q_variance)

        def log_q(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64)
            return -log_norm - np.sum(x * x, axis=-1) / (2.0 * q_variance)

        return DistributionPair(
            log_p=log_density_std_gaussian,
            q_sampler=lambda rng, k: scale * sampling.gaussian_matrix(rng, k, n),
            log_q=log_q,
        )


# ---------------------------------------------------------------------------
# weight kernels


def _row_log_norms(images: np.ndarray) -> np.ndarray:
    """log of each row's Euclidean norm, robust to under/overflowing squares."""
    sq = np.einsum("ij,ij->i", images, images)
    with np.errstate(divide="ignore"):
        out = 0.5 * np.log(sq)
    # rows whose squared norm left the normal float64 range (underflow to a
    # low-precision subnormal or zero, overflow to inf) get a scaled recompute
    for i in np.flatnonzero(~np.isfinite(out) | (sq < _TINY_NORMAL)):
        m = float(np.max(np.abs(images[i])))
        if m == 0.0:
            raise SingularDirectionError(
                "a direction was mapped to the zero vector; the matrix is not full rank"
            )
        if not math.isfinite(m):
            raise ValueError("operator produced a non-finite image")
        scaled = images[i] / m
        out[i] = math.log(m) + 0.5 * math.log(float(scaled @ scaled))
    return out


def sphere_log_weights(op: MatrixFreeOperator, g: np.ndarray) -> np.ndarray:
    """Per-row log-weights -n (log||op(g)|| - log||g||) = -n log||op(g / ||g||)||."""
    return -op.n * (_row_log_norms(op.apply_batch(g)) - _row_log_norms(g))


def gaussian_ratio_log_weights(op: MatrixFreeOperator, x: np.ndarray) -> np.ndarray:
    """Per-sample log-weights (||x||^2 - ||op(x)||^2) / 2."""
    images = op.apply_batch(x)
    return 0.5 * (np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", images, images))


def importance_log_weights(
    op: MatrixFreeOperator, dist: DistributionPair, x: np.ndarray
) -> np.ndarray:
    """Per-sample log-weights log p(op(x)) - log q(x)."""
    log_q = np.asarray(dist.log_q(x), dtype=np.float64)
    if np.any(np.isneginf(log_q)):
        raise UnsupportedSampleError("q has zero density at one of its own samples")
    log_p = np.asarray(dist.log_p(op.apply_batch(x)), dtype=np.float64)
    return log_p - log_q


# ---------------------------------------------------------------------------
# streaming driver


def _stride_points(stream_id: int, per_stream: int, stride: int, is_last: bool) -> np.ndarray:
    """Local 1-based sample indices of this stream that land on the trace grid."""
    offset = stream_id * per_stream
    first = stride - offset % stride
    points = np.arange(first, per_stream + 1, stride, dtype=np.int64)
    if is_last and (points.size == 0 or points[-1] != per_stream):
        points = np.append(points, per_stream)
    return points


def _log_total(acc: StreamingAccumulator) -> float:
    """log of the sum of the weights ``acc`` holds; -inf when every weight is zero."""
    return acc.max_log + math.log(acc.shifted_sum) if acc.shifted_sum > 0.0 else -math.inf


def _log_prefix_sums(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """log of sum(exp(w[:i + 1])) for each i in ``idx``, against the block maximum;
    the leading prefixes that underflow there (< 1e-290) are rescanned exactly."""
    m = float(w.max())
    if m == -math.inf:
        return np.full(idx.size, -math.inf)
    sums = np.cumsum(np.exp(w - m))[idx]
    small = int(np.searchsorted(sums, 1e-290))
    head = np.logaddexp.accumulate(w[: idx[small - 1] + 1])[idx[:small]] if small else []
    return np.concatenate([head, m + np.log(sums[small:])])


def _run_stream(weigh, config: EstimatorConfig, stream_id: int, per_stream: int):
    """Consume one substream: its accumulator, trace points and log prefix sums there."""
    rng = RngStream(config.seed, stream_id)
    acc = StreamingAccumulator()
    stride, is_last = config.trace_stride, stream_id == config.num_streams - 1
    points = _stride_points(stream_id, per_stream, stride, is_last) if stride else np.empty(0, int)
    values = np.empty(points.size)
    done = 0
    while done < per_stream:
        k = min(_CHUNK, per_stream - done)
        w = weigh(rng, k)
        lo, hi = np.searchsorted(points, (done, done + k), side="right")
        offset = _log_total(acc)
        acc.update_many(w)  # rejects NaN and +inf before the prefix sums see them
        if hi > lo:
            values[lo:hi] = np.logaddexp(offset, _log_prefix_sums(w, points[lo:hi] - done - 1))
        done += k
    return acc, points, values


def _run(weigh, n: int, config: EstimatorConfig) -> EstimateResult:
    per_stream = config.num_samples // config.num_streams
    ids = range(config.num_streams)
    if config.num_streams == 1:
        results = [_run_stream(weigh, config, 0, per_stream)]
    else:
        workers = min(config.num_streams, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda j: _run_stream(weigh, config, j, per_stream), ids)
            )
    # merge in stream-id order: reproducible regardless of worker scheduling;
    # stream j's trace offset is the log-total of the streams before it
    merged = StreamingAccumulator()
    offsets = []
    for acc, _, _ in results:
        offsets.append(_log_total(merged))
        merged = merged.merge(acc)
    trace = None
    if config.trace_stride:
        index = np.concatenate([j * per_stream + p for j, (_, p, _) in enumerate(results)])
        values = np.concatenate([v for _, _, v in results])
        offsets = np.repeat(offsets, [p.size for _, p, _ in results])
        running = np.logaddexp(offsets, values) - np.log(index)
        trace = tuple(zip(index.tolist(), running.tolist()))
    summary = merged.summarize()
    return EstimateResult(
        log_mean=summary.log_mean,
        std_error=summary.std_error,
        n_samples=config.num_samples,
        trace=trace,
        heavy_tail=merged.max_log > -n * _LOG_HEAVY_TAIL,
        low_count=summary.low_count,
    )


# ---------------------------------------------------------------------------
# estimator entry points


def inv_det_sphere(op: MatrixFreeOperator, config: EstimatorConfig) -> EstimateResult:
    """Estimate the reciprocal absolute determinant of the map ``op`` realizes.

    Averages ||op(s)||^{-n} over uniform unit-sphere directions.  Unbiased;
    zero-variance on orthogonal maps.
    """

    def weigh(rng: RngStream, k: int):
        return sphere_log_weights(op, sampling.gaussian_directions(rng, k, op.n))

    return _run(weigh, op.n, config)


def inv_det_gaussian_ratio(op: MatrixFreeOperator, config: EstimatorConfig) -> EstimateResult:
    """Reciprocal-determinant estimate by the Gaussian density ratio.

    This is the sphere estimator without the radial integration carried out:
    higher variance, kept as an independent cross-check of the sphere form.
    """

    def weigh(rng: RngStream, k: int):
        return gaussian_ratio_log_weights(op, sampling.gaussian_matrix(rng, k, op.n))

    return _run(weigh, op.n, config)


def inv_det_importance(
    op: MatrixFreeOperator, dist: DistributionPair, config: EstimatorConfig
) -> EstimateResult:
    """Reciprocal-determinant estimate averaging p(op(x))/q(x) over x ~ q."""

    def weigh(rng: RngStream, k: int):
        return importance_log_weights(op, dist, dist.q_sampler(rng, k))

    return _run(weigh, op.n, config)


def det_via_inverse_solves(
    m: DenseMatrix | LUFactorization, config: EstimatorConfig
) -> EstimateResult:
    """Estimate |det A| itself by averaging ||A^{-1} s||^{-n}.

    Factorizes once (or reuses the given factorization), then each sample
    costs one product with the inverse.  Raises
    :class:`~detmc.linalg.SingularMatrixError` for rank-deficient input.
    """
    return inv_det_sphere(solve_operator(m), config)

