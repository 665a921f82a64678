"""Monte Carlo estimators for absolute determinants and their reciprocals.

Three weight formulas, all unbiased for the reciprocal absolute determinant
of the map an operator realizes:

* sphere:          w = ||A s||^{-n},            s uniform on the unit sphere
* gaussian_ratio:  w = exp((||x||^2 - ||A x||^2) / 2),   x standard normal
* importance:      w = p(A x) / q(x),           x drawn from q

The sphere form is the gaussian_ratio form with the chi-distributed radius
integrated out analytically, so the two cross-validate each other; the
importance form is the general hook for user-supplied (p, q) pairs.
Applying the sphere formula to a solve-based operator (A maps to A^{-1})
turns it into an estimator of |det A| itself; that is
:func:`det_via_inverse_solves`.

Everything is accumulated in log domain: for even modest n the weights span
ranges that overflow linear float64.  Reported standard errors come from the
empirical second moment; for ill-conditioned matrices the weights can have
infinite variance, in which case the standard error (and the ``heavy_tail``
flag on the result) is advisory only.  Confidence-interval-based checks in
this package therefore stick to well-conditioned ensembles.

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
from typing import Callable, Sequence

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
    "streaming_log_mean",
    "sphere_log_weights",
    "gaussian_ratio_log_weights",
    "importance_log_weights",
    "default_trace_stride",
]

# samples per vectorized block; fixed so results never depend on scheduling
_CHUNK = 16384

# an image norm below exp(_LOG_HEAVY_TAIL) = 1e-150 makes the weight
# ~1e150^n: keep going, but flag the result as heavy-tailed
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
    of their images and must be deterministic; ``kind`` records whether the
    map realizes a matrix itself ("forward") or its inverse ("inverse").
    Estimators may call ``apply_batch`` from several threads at once.
    """

    n: int
    kind: str  # "forward" | "inverse"
    apply_batch: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("operator dimension must be positive")
        if self.kind not in ("forward", "inverse"):
            raise ValueError(f"kind must be 'forward' or 'inverse', got {self.kind!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.apply_batch(x[np.newaxis, :])[0]
        return self.apply_batch(x)


def operator_from_matrix(m: DenseMatrix) -> MatrixFreeOperator:
    """Forward operator v -> A v for a dense matrix."""
    data = m.data
    return MatrixFreeOperator(n=m.n, kind="forward", apply_batch=lambda xs: xs @ data.T)


def solve_operator(m: DenseMatrix | LUFactorization) -> MatrixFreeOperator:
    """Inverse operator v -> A^{-1} v backed by one LU factorization."""
    f = lu_factorize(m) if isinstance(m, DenseMatrix) else m
    return MatrixFreeOperator(n=f.n, kind="inverse", apply_batch=lambda xs: lu_solve_many(f, xs))


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
    def standard_gaussian(n: int) -> "DistributionPair":
        """p = q = N(0, I): reduces the importance weights to the Gaussian ratio."""
        return DistributionPair(
            log_p=log_density_std_gaussian,
            q_sampler=lambda rng, k: sampling.gaussian_matrix(rng, k, n),
            log_q=log_density_std_gaussian,
        )

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
                "a unit direction was mapped to the zero vector; the matrix is not full rank"
            )
        if not math.isfinite(m):
            raise ValueError("operator produced a non-finite image")
        scaled = images[i] / m
        out[i] = math.log(m) + 0.5 * math.log(float(scaled @ scaled))
    return out


def sphere_log_weights(op: MatrixFreeOperator, directions: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-direction log-weights -n log||op(s)||, plus a heavy-tail flag."""
    log_norms = _row_log_norms(op.apply_batch(directions))
    return -op.n * log_norms, bool(np.any(log_norms < _LOG_HEAVY_TAIL))


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


def _run_stream(weigh, config: EstimatorConfig, stream_id: int, per_stream: int):
    """Consume one substream: fold weights, record within-stream prefixes."""
    rng = RngStream(config.seed, stream_id)
    acc = StreamingAccumulator()
    heavy = False
    stride = config.trace_stride
    points = (
        _stride_points(stream_id, per_stream, stride, stream_id == config.num_streams - 1)
        if stride
        else None
    )
    prefixes: list[tuple[int, float]] = []
    run_log_sum = -math.inf
    done = 0
    while done < per_stream:
        k = min(_CHUNK, per_stream - done)
        w, hv = weigh(rng, k)
        heavy = heavy or hv
        acc.update_many(w)
        if stride:
            in_chunk = points[(points > done) & (points <= done + k)]
            if in_chunk.size:
                prefix = np.logaddexp.accumulate(w)
                values = np.logaddexp(run_log_sum, prefix[in_chunk - done - 1])
                prefixes.extend(zip(in_chunk.tolist(), values.tolist()))
                run_log_sum = float(np.logaddexp(run_log_sum, prefix[-1]))
            else:
                run_log_sum = float(np.logaddexp(run_log_sum, _log_sum(w)))
        done += k
    return acc, heavy, prefixes


def _log_sum(w: np.ndarray) -> float:
    m = float(w.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.exp(w - m).sum()))


def _run(weigh, config: EstimatorConfig) -> EstimateResult:
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
    # merge in stream-id order: reproducible regardless of worker scheduling
    merged = StreamingAccumulator()
    heavy = False
    for acc, hv, _ in results:
        merged = merged.merge(acc)
        heavy = heavy or hv
    trace = None
    if config.trace_stride:
        trace_pts: list[tuple[int, float]] = []
        cum = -math.inf
        for j, (acc, _, prefixes) in enumerate(results):
            for i, pv in prefixes:
                g = j * per_stream + i
                trace_pts.append((g, float(np.logaddexp(cum, pv)) - math.log(g)))
            stream_total = (
                acc.max_log + math.log(acc.shifted_sum) if acc.shifted_sum > 0.0 else -math.inf
            )
            cum = float(np.logaddexp(cum, stream_total))
        trace = tuple(trace_pts)
    summary = merged.summarize()
    return EstimateResult(
        log_mean=summary.log_mean,
        std_error=summary.std_error,
        n_samples=config.num_samples,
        trace=trace,
        heavy_tail=heavy,
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
        return sphere_log_weights(op, sampling.unit_sphere_many(rng, k, op.n))

    return _run(weigh, config)


def inv_det_gaussian_ratio(op: MatrixFreeOperator, config: EstimatorConfig) -> EstimateResult:
    """Reciprocal-determinant estimate by the Gaussian density ratio.

    This is the sphere estimator without the radial integration carried out:
    higher variance, kept as an independent cross-check of the sphere form.
    """

    def weigh(rng: RngStream, k: int):
        return gaussian_ratio_log_weights(op, sampling.gaussian_matrix(rng, k, op.n)), False

    return _run(weigh, config)


def inv_det_importance(
    op: MatrixFreeOperator, dist: DistributionPair, config: EstimatorConfig
) -> EstimateResult:
    """Reciprocal-determinant estimate averaging p(op(x))/q(x) over x ~ q."""

    def weigh(rng: RngStream, k: int):
        return importance_log_weights(op, dist, dist.q_sampler(rng, k)), False

    return _run(weigh, config)


def det_via_inverse_solves(m: DenseMatrix, config: EstimatorConfig) -> EstimateResult:
    """Estimate |det A| itself by averaging ||A^{-1} s||^{-n}.

    Factorizes once, then each sample costs one product with the inverse.
    Raises :class:`~detmc.linalg.SingularMatrixError` for rank-deficient input.
    """
    return inv_det_sphere(solve_operator(m), config)


def streaming_log_mean(log_weights: Sequence[float]) -> tuple[float, float]:
    """Log-domain mean and linear standard error of a finished weight sequence."""
    acc = StreamingAccumulator()
    acc.update_many(np.asarray(log_weights, dtype=np.float64))
    if acc.count == 0:
        raise ValueError("log_weights must be non-empty")
    summary = acc.summarize()
    return summary.log_mean, summary.std_error
