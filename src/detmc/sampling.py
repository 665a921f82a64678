"""Seeded random sources: Gaussian blocks and unit-sphere directions.
The Gaussian log-densities of the importance estimator live in
:meth:`detmc.DistributionPair.gaussian_q`.

Reproducibility contract: every draw is a pure function of ``(seed,
stream_id)``.  The generator is numpy's PCG64 keyed by
``SeedSequence(entropy=seed, spawn_key=(stream_id,))``; distinct stream ids
give statistically independent substreams, which is how the estimators hand
one stream to each parallel worker.  Gaussian variates come from numpy's
ziggurat (``Generator.standard_normal``); both choices are fixed for this
release, since changing either silently changes every seeded result.

Uniform sphere directions are normalized Gaussian vectors: the polar
decomposition g = r s (chi-distributed radius times direction).  The sphere
estimator's weight is invariant to the radius, so it weighs the unnormalised
Gaussian rows of :func:`gaussian_directions` directly; :func:`unit_sphere_many`
divides the same rows by their norms.  They are the contiguous columns of a
C-ordered (n, k) draw, as the sphere kernel reads them.  Only an all-zero
row is degenerate, having no direction; any other row is kept.  A nonzero
ziggurat variate is an integer multiple of a fixed layer width, far above
1e-150.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "RngStream",
    "gaussian_matrix",
    "gaussian_directions",
    "unit_sphere_many",
]


def _count(name: str, value, lowest: int, error: type[Exception] = ValueError) -> int:
    """``value`` as an int if it is an integer of at least ``lowest``; else raise
    ``error``.  Every count and seed of the package passes this one check: a
    numpy integer is accepted, a bool is not (True would count as 1)."""
    # type() first: an isinstance test against numbers.Integral costs about 0.5 us
    integral = type(value) is int or (isinstance(value, numbers.Integral)
                                      and not isinstance(value, bool))
    if not integral or value < lowest:
        raise error(f"{name} must be one of the integers {lowest}, {lowest + 1}, ...; "
                    f"got {value!r}")
    return int(value)


class RngStream:
    """Single-owner random stream identified by (seed, stream_id).

    May be handed between threads but never shared concurrently; create one
    stream per worker with distinct ``stream_id`` values instead.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _count("seed", seed, 0)
        self.stream_id = _count("stream_id", stream_id, 0)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def gaussian_matrix(rng: RngStream, k: int, n: int, *, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """(k, n) block of iid standard normals, written into ``out`` when given.

    Row i equals the i-th of k consecutive one-row draws, so batched and
    per-row callers consume the stream identically.  ``out`` must be a
    C-contiguous float64 array of shape (k, n); filling it draws the same
    bits as a fresh block.
    """
    return rng.generator.standard_normal((_count("k", k, 0), _count("n", n, 1)), out=out)


def gaussian_directions(rng: RngStream, k: int, n: int, *, out: np.ndarray | None = None
                        ) -> np.ndarray:
    """(k, n) Gaussian block with no all-zero row: the transpose of an (n, k)
    :func:`gaussian_matrix` draw, written into ``out``, a C-contiguous (n, k)
    array, when given.  Row i takes variates i, k + i, 2k + i, ... of the draw.

    The ziggurat can return an exact 0.0, so at n = 1 a zero row is
    possible: each zero row is redrawn in place, in row order, from the same
    stream.  Every other row is kept, however short.
    """
    k, n = _count("k", k, 0), _count("n", n, 1)
    g = gaussian_matrix(rng, n, k, out=out).T if k else np.empty((0, n))
    while not g.all() and (zero := np.flatnonzero(~g.any(axis=1))).size:
        for i in zero:
            g[i] = rng.generator.standard_normal(n)
    return g


def unit_sphere_many(rng: RngStream, k: int, n: int) -> np.ndarray:
    """(k, n) block of independent uniform unit-sphere samples."""
    g = gaussian_directions(rng, k, n)
    return g / np.linalg.norm(g, axis=1)[:, np.newaxis]
