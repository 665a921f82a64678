"""Monte Carlo estimators for absolute determinants and their reciprocals.

Two weight formulas, both unbiased for the reciprocal absolute determinant
of the map an operator realizes:

* sphere:      w = ||A s||^{-n},     s uniform on the unit sphere
* importance:  w = p(A x) / q(x),    x drawn from q

The importance form is the general hook for user-supplied (p, q) pairs.
With q = p = N(0, I) the normalising constants cancel and the weight is the
Gaussian ratio exp((||x||^2 - ||A x||^2) / 2).  For any radial pair (p and
q depend on ||x|| only) conditioning on s = x / ||x|| integrates the radius
out exactly, E[p(A x) / q(x) | s] = ||A s||^{-n}, so the sphere weight is the
Rao-Blackwellised importance weight and its variance is no larger for every
A.  The sphere weight is homogeneous of degree 0 in s, so it is computed on
the unnormalised Gaussian g = r s as -n (log||A g|| - log||g||): no draw is
normalised first.
Applying the sphere formula to a solve-based operator (A maps to A^{-1})
turns it into an estimator of |det A| itself; that is
:func:`det_via_inverse_solves`.

The sphere form gets a frame of w directions from each Gaussian row g,
w = min(n, 8) below n = 64 and 16 from there (:func:`_frame_width`):
g, Pg, ..., P^{w-1} g, the first powers of the negacyclic shift
Pg = (-g[n-1], g[0], ..., g[n-2]).  P is a signed permutation, so every image
is standard normal and each direction is exactly uniform on the sphere,
which is all unbiasedness needs.  P^n = -I, so the w directions are distinct
up to sign at every n.  A direction costs one product, 2 n^2 flops,
and n / w drawn variates, so the draw shrinks beside the product as w
grows.  The kernel returns the log of the frame's mean
weight and the driver folds it as one sample, so the standard error is
computed over independent frames whatever the correlation inside a frame.
``num_samples`` still counts directions: a call of d directions draws
ceil(d / w) rows and weighs the whole frame of its last row, up to w - 1
directions more than d.  The trace point at direction p is the running mean
of the first ceil(p / w) frames, so the last point is ``log_mean``.  The
buffer a frame is read from is laid out in :func:`sphere_log_weights` and
README's "Memory layout".

Everything is accumulated in log domain: for even modest n the weights span
ranges that overflow linear float64.  Reported standard errors come from the
empirical second moment.  For full-rank A, ||A s||^{-n} <= sigma_min(A)^{-n}:
the sphere and inverse-solve weights have every moment finite, and their
variance, however huge on ill-conditioned input, is never infinite.  Only
the importance weight can have infinite variance (with ``gaussian_q(n, v)``,
when 2 v sigma_min^2 <= 1).  Confidence-interval-based checks in this
package stick to well-conditioned ensembles.

Sampling is cut into chunks that depend only on ``num_samples`` and n, and
chunk c draws from its own substream ``RngStream(seed, c)``.  S workers
share the chunks, S = ``num_streams`` but no more than the CPU count or the
chunk count (worker 0 on the calling thread, one pool thread per further
worker, so no more workers than CPUs are started), and the chunks'
accumulators are merged in chunk order, so a result is a pure function of
``num_samples``, ``seed`` and ``trace_stride``, the same bits for every
``num_streams`` and however the threads were scheduled.  Operators and
distribution callables must be safe to call from concurrent threads, or the
estimate must run with ``num_streams = 1``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

import numpy as np

from . import sampling
# bench/tracing.py patches lu_factorize and lu_solve_many by name in this module, so
# both stay bound, though nothing here calls either: dropping one breaks
# ``bench/run.py --trace 1``
from .linalg import (DenseMatrix, SingularMatrixError, lu_factorize, lu_solve_many,  # noqa: F401
                     triangular_images)
from .sampling import RngStream, _count
from .stats import EstimateResult, StreamingAccumulator

__all__ = [
    "MatrixFreeOperator",
    "EstimatorConfig",
    "EstimateResult",
    "DistributionPair",
    "operator_from_matrix",
    "inv_det_sphere",
    "inv_det_importance",
    "det_via_inverse_solves",
    "sphere_log_weights",
    "importance_log_weights",
    "default_trace_stride",
]


_TINY_NORMAL = float(np.finfo(np.float64).tiny)


def _frame_width(n: int) -> int:
    """Directions the sphere kernel weighs per Gaussian row x: x, Px, ..., P^{w-1} x.
    The negacyclic shift P has P^n = -I, so at most n of them differ up to sign.

    A direction costs n / w drawn variates, about 15 ns each, beside one
    application of the operator, 2 n^2 flops for a dense one.  From n = 64
    frames of 16 halve the draw that frames of 8 leave, and the relative
    variance per direction holds (median over 30 seeds at n = 400, cond 1.1:
    0.814 with frames of 8, 0.828 with 16).  Below n = 64 the width stays
    min(n, 8)."""
    return min(n, 8) if n < 64 else 16


@dataclass(frozen=True)
class MatrixFreeOperator:
    """A linear map exposed only through batched products.

    ``apply_batch`` maps a (k, n) block of row vectors to the (k, n) block
    of their images, in any memory layout, and must be deterministic; an
    image block of any other shape is a ``ValueError``.  Estimators pass
    blocks of at most ``min(16384, max(1, 2**18 // n))`` rows and may call
    ``apply_batch`` from several threads at once.  The block is a read-only
    view of a buffer the estimator refills on its next chunk.  In the sphere
    estimators every block is a column-major window of one buffer per worker
    that holds the draw and the negatives of its last w - 1 coordinates, one
    window per direction of the frame of w, and the same window may be
    applied a second time in a chunk, when the kernel recomputes out-of-range
    norms.  ``apply_batch`` must not write to the block (numpy raises
    ``ValueError``) or keep a reference to it.
    """

    n: int
    apply_batch: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        _count("n", self.n, 1)


def operator_from_matrix(m: DenseMatrix) -> MatrixFreeOperator:
    """Forward operator v -> A v for a dense matrix."""
    data = m.data
    # one GEMM whose images come back column-major, as the sphere kernel stores its blocks
    return MatrixFreeOperator(n=m.n, apply_batch=lambda xs: (data @ xs.T).T)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sample budget, seeding and trace layout shared by all estimators.

    ``num_streams`` is the number of threads that share the work, capped at
    the CPU count (no more workers than CPUs are started) and at the number
    of chunks; it does not change the result.  ``trace_stride = 0`` disables
    the trace; ``k > 0`` records the running log-domain mean after every k-th
    sample (plus the final sample).
    """

    num_samples: int
    seed: int = 0
    num_streams: int = 1
    trace_stride: int = 0

    def __post_init__(self) -> None:
        for name, lowest in (("num_samples", 1), ("seed", 0), ("num_streams", 1),
                             ("trace_stride", 0)):
            _count(name, getattr(self, name), lowest)


def default_trace_stride(num_samples: int) -> int:
    """Stride keeping traces at <= 10^4 points regardless of sample count."""
    return (num_samples + 9_999) // 10_000


@dataclass(frozen=True)
class DistributionPair:
    """The (p, q) pair of the importance estimator.

    ``q_sampler(rng, k)`` draws a (k, n) block from q consuming ``rng``
    deterministically, n the operator's dimension; ``log_p`` / ``log_q``
    evaluate log-densities row-wise on such blocks, one value per row: a
    block or a set of values of any other shape, a scalar included, is a
    ``ValueError``.  q must have full support: a drawn sample with
    ``log_q = -inf`` is a ``ValueError`` too.  p may assign zero density (the
    weight is then exactly zero).
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

        def log_density(v: float) -> Callable[[np.ndarray], np.ndarray]:
            """Row-wise log-density of N(0, v I) on the last axis of its input."""
            log_norm = 0.5 * n * math.log(2.0 * math.pi * v)

            def log_pdf(x: np.ndarray) -> np.ndarray:
                x = np.asarray(x, dtype=np.float64)
                with np.errstate(over="ignore"):  # a square past float64 has log-density -inf
                    return -log_norm - np.sum(x * x, axis=-1) / (2.0 * v)

            return log_pdf

        return DistributionPair(
            log_p=log_density(1.0),
            q_sampler=lambda rng, k: scale * sampling.gaussian_matrix(rng, k, n),
            log_q=log_density(q_variance),
        )


# ---------------------------------------------------------------------------
# weight kernels


def _normal(sq: np.ndarray) -> bool:
    """Every squared norm in ``sq`` is a normal float64: none underflowed to a
    low-precision subnormal or zero, overflowed to inf, or is NaN."""
    return sq.min() >= _TINY_NORMAL and sq.max() < math.inf  # False on any NaN


def _row_log_norms(images: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log of each row's Euclidean norm, written into ``out`` when given.  A block
    with a squared norm outside the normal float64 range is recomputed with each
    row scaled by its largest entry."""
    sq = np.einsum("ij,ij->i", images, images, out=out)
    if _normal(sq):
        return np.multiply(np.log(sq, out=sq), 0.5, out=sq)
    m = np.max(np.abs(images), axis=1)
    if not np.isfinite(m).all():
        raise ValueError("operator produced a non-finite image")
    if not m.all():
        raise SingularMatrixError(
            "a direction was mapped to the zero vector; the matrix is not full rank"
        )
    scaled = images / m[:, np.newaxis]
    sq = np.einsum("ij,ij->i", scaled, scaled, out=sq)
    return np.add(np.log(m), 0.5 * np.log(sq), out=sq)


def _apply(op: MatrixFreeOperator, x: np.ndarray) -> np.ndarray:
    """``op.apply_batch`` on a read-only view of ``x``, checked to return a
    block of the same shape: an operator cannot scribble on a block that is
    still to be weighed, or that the next chunk reuses."""
    view = x.view()
    view.flags.writeable = False
    images = op.apply_batch(view)
    if np.shape(images) != x.shape:
        raise ValueError(f"apply_batch mapped a {x.shape} block to {np.shape(images)}")
    return images


def sphere_log_weights(op: MatrixFreeOperator, g: np.ndarray, *,
                       norms: np.ndarray | None = None) -> np.ndarray:
    """Per-row log of the frame mean of the sphere weight
    w(x) = ||op(x / ||x||)||^{-n} = exp(-n (log||op(x)|| - log||x||)).

    g is a (k, n + w - 1) block, w = ``_frame_width(n)``, in any layout, whose
    last n columns hold k Gaussian rows x; the kernel overwrites its first w - 1
    with -x[:, n - w + 1:].  The frame of x is its first w images under the
    negacyclic shift Px = (-x[n-1], x[0], ..., x[n-2]): P^s x is columns
    w - 1 - s to w - 2 - s + n of g, applied in place.  ``norms``, (w + 2, k), is
    overwritten, and its last row returned.  The images' squared norms pass one
    range check together; if any is out of range, every image is applied again
    and reduced on its own, with scaling and the checks of :func:`_row_log_norms`.
    """
    n, k, width = op.n, len(g), _frame_width(op.n)
    h = width - 1
    if np.shape(g) != (k, n + h):
        raise ValueError(f"sphere_log_weights needs a (k, {n + h}) block; got {np.shape(g)}")
    norms = np.empty((width + 2, k)) if norms is None else norms
    lw, top, log_sum = norms[:width], norms[width], norms[width + 1]
    np.negative(g[:, n:], out=g[:, :h])
    shifts = [g[:, h - s: h - s + n] for s in range(width)]
    _row_log_norms(shifts[0], top)  # P is orthogonal: one norm serves every direction
    for x, sq in zip(shifts, lw):
        image = _apply(op, x)
        np.einsum("ij,ij->i", image, image, out=sq)
        del image  # one image block alive at a time
    if _normal(lw):
        np.multiply(np.log(lw, out=lw), 0.5, out=lw)
    else:  # the operator is deterministic: the images come back as they were
        for x, row in zip(shifts, lw):
            _row_log_norms(_apply(op, x), row)
    lw -= top
    lw *= -n
    np.max(lw, axis=0, out=top)  # the log of the frame mean, exactly, against its largest weight
    lw -= top
    np.log(np.sum(np.exp(lw, out=lw), axis=0, out=log_sum), out=log_sum)
    return np.subtract(np.add(top, log_sum, out=log_sum), math.log(width), out=log_sum)


def importance_log_weights(
    op: MatrixFreeOperator, dist: DistributionPair, x: np.ndarray
) -> np.ndarray:
    """Per-sample log-weights log p(op(x)) - log q(x)."""
    log_q = _row_values("log_q", dist.log_q(x), len(x))
    if np.any(np.isneginf(log_q)):
        raise ValueError("q has zero density at one of its own samples")
    images = _apply(op, x)
    if not np.isfinite(images).all():
        raise ValueError("operator produced a non-finite image")
    return _row_values("log_p", dist.log_p(images), len(x)) - log_q


def _row_values(name: str, values, k: int) -> np.ndarray:
    """``values`` as float64, checked to hold one value per row of a k-row block
    (a scalar would broadcast into every weight)."""
    out = np.asarray(values, dtype=np.float64)
    if out.shape != (k,):
        raise ValueError(f"{name} must return one value per row, shape ({k},); got {out.shape}")
    return out


# ---------------------------------------------------------------------------
# streaming driver


def _chunk_rows(n: int) -> int:
    """Importance samples per chunk: at most 16384 and 2**18 variates (2 MiB of
    float64), so memory does not grow with n.  A pure function of n, so
    results never depend on scheduling."""
    return min(16384, max(1, 2**18 // n))


def _sphere_rows(n: int) -> int:
    """Gaussian rows per sphere chunk, each weighed in w = ``_frame_width(n)``
    directions from n + w - 1 stored values: at most 4096 rows and 2**17 drawn
    variates.

    A row's products cost 2 n^2 w flops against its n draws, so at large n the
    products dominate and each is one GEMM of the chunk's rows: 327 at n = 400.
    The buffer and one applied image hold about 2 MiB per worker there, and a
    2**15-direction call is 7 chunks.  Every n <= 16 takes 4096 rows."""
    return max(1, min(4096, 2**17 // n))


def _run(new_weigh, config: EstimatorConfig, rows: int, width: int = 1) -> EstimateResult:
    """Fold ceil(num_samples / width) log-weights, each the mean over ``width``
    samples, in chunks: chunk c is the c-th block of at most ``rows`` of them,
    drawn by ``weigh(rng, k)`` from ``RngStream(config.seed, c)`` and folded into
    an accumulator of its own.  Worker j of S = min(``config.num_streams``,
    chunks, CPUs) folds chunks j, j + S, j + 2S, ... with its own
    ``weigh = new_weigh(r)``, r = min(rows, the weights), so the blocks a
    ``weigh`` refills belong to one worker of one call.  The chunk records are
    merged in chunk order, so the result does not depend on S."""
    total, stride = config.num_samples, config.trace_stride
    weights = (total + width - 1) // width
    rows = min(rows, weights)
    chunks = (weights + rows - 1) // rows
    # a worker with no chunk would only start a thread, and one past the CPU count
    # would only wait for a CPU
    streams = min(config.num_streams, chunks, os.cpu_count() or 1)
    # the trace plan: 1-based sample indices, every stride-th and the last (the range
    # stops below the last, so it is listed once), and the weight each closes, 1-based
    grid = np.append(np.arange(stride, total, stride), total) if stride else np.empty(0, int)
    ends = (grid - 1) // width + 1

    def run(j: int) -> list[StreamingAccumulator]:
        """Fold worker j's chunks, marking the log-total of each chunk's weights
        up to each of the ``ends`` it holds."""
        weigh = new_weigh(rows)  # owned by this worker for this call only
        accs = []
        for c in range(j, chunks, streams):
            done = c * rows
            k = min(rows, weights - done)
            lo, hi = np.searchsorted(ends, (done, done + k), side="right")
            acc = StreamingAccumulator()
            acc.update_many(weigh(RngStream(config.seed, c), k), at=ends[lo:hi] - done - 1)
            accs.append(acc)
        return accs

    # worker 0 on this thread, so a 1-stream call starts no thread; an exception
    # in any worker is raised once the pool has finished every other worker
    with ThreadPoolExecutor(max_workers=max(1, streams - 1)) as pool:
        futures = [pool.submit(run, j) for j in range(1, streams)]
        folded = [run(0), *(future.result() for future in futures)]
    # chunk c is entry c // S of worker c % S: merged in chunk order whatever the scheduling
    merged = reduce(StreamingAccumulator.merge,
                    (folded[c % streams][c // streams] for c in range(chunks)))
    # the merged marks are the log-totals at the grid points: a point averages the
    # first ``ends`` weights
    marks = np.concatenate(merged.marks or [np.empty(0)])  # a call without a trace marks none
    trace = tuple(zip(grid.tolist(), (marks - np.log(ends)).tolist())) if stride else None
    return replace(merged.summarize(), n_samples=config.num_samples, trace=trace)


# ---------------------------------------------------------------------------
# estimator entry points


def inv_det_sphere(op: MatrixFreeOperator, config: EstimatorConfig) -> EstimateResult:
    """Estimate the reciprocal absolute determinant of the map ``op`` realizes.

    Averages ||op(s)||^{-n} over uniform unit-sphere directions, a frame of
    ``_frame_width(n)`` per Gaussian draw (see the module docstring).
    Unbiased; zero-variance on orthogonal maps.
    """
    n, width = op.n, _frame_width(op.n)

    def new_weigh(rows: int):
        # this worker's draw with the negatives of its last w - 1 coordinates, and
        # its norms, refilled by every chunk; glibc keeps the large allocation in the heap
        signed, norms = np.empty((n + width - 1) * rows), np.empty((width + 2, rows))

        def weigh(rng: RngStream, k: int):
            block = signed[: (n + width - 1) * k].reshape(n + width - 1, k)
            sampling.gaussian_directions(rng, k, n, out=block[width - 1:])
            return sphere_log_weights(op, block.T, norms=norms[:, :k])

        return weigh

    return _run(new_weigh, config, _sphere_rows(n), width=width)


def inv_det_importance(
    op: MatrixFreeOperator, dist: DistributionPair, config: EstimatorConfig
) -> EstimateResult:
    """Reciprocal-determinant estimate averaging p(op(x))/q(x) over x ~ q."""

    def weigh(rng: RngStream, k: int):
        x = dist.q_sampler(rng, k)
        if np.shape(x) != (k, op.n):
            raise ValueError(f"q_sampler must return a ({k}, {op.n}) block for {k} log-weights; "
                             f"got shape {np.shape(x)}")
        return importance_log_weights(op, dist, x)

    return _run(lambda rows: weigh, config, _chunk_rows(op.n))


def det_via_inverse_solves(m: DenseMatrix, config: EstimatorConfig) -> EstimateResult:
    """Estimate |det A| itself by averaging ||A^{-1} s||^{-n}.

    Uses the triangular R of A^{-1} = QR that m keeps
    (:attr:`~detmc.linalg.DenseMatrix.triangular`, made on the first call for
    m): ||A^{-1} s|| = ||R s||, so each sample costs one
    banded triangular product (:func:`~detmc.linalg.triangular_images`), about
    3/5 of a product with the inverse at n = 400.  The weights equal those of
    the solves to rounding, not bit for bit.
    Raises :class:`~detmc.linalg.SingularMatrixError` for rank-deficient input.
    """
    r = m.triangular  # made on this thread, before any worker starts
    return inv_det_sphere(MatrixFreeOperator(m.n, lambda xs: triangular_images(r, xs)), config)

