"""The benchmark's workloads: one estimator on one problem shape each.

This module imports no numpy, so ``run.py`` can pin the BLAS thread count
of a workload before numpy loads.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

# thread-count variables pinned to ``Workload.blas_threads`` before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """An ``ill_conditioned`` matrix of dimension ``n`` and one estimator on it.

    Every estimate call draws ``samples`` Monte Carlo samples over
    ``streams`` substreams; call ``i`` of a run with seed ``s`` uses
    estimator seed ``s + i``, and the matrix comes from ensemble seed ``s``.
    """

    name: str
    estimator: str  # "sphere" | "inverse" | "importance"
    n: int
    cond: float
    streams: int
    samples: int
    blas_threads: int
    running_trace: bool = False  # record the running estimate at the default stride
    q_var: float | None = None  # variance of q for the importance estimator


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere_n10_trace", "sphere", n=10, cond=2.0, streams=2, samples=2**21,
                 blas_threads=1, running_trace=True),
        Workload("inverse_n400", "inverse", n=400, cond=1.1, streams=1, samples=2**15,
                 blas_threads=2),
        Workload("importance_n100", "importance", n=100, cond=1.5, streams=1, samples=2**18,
                 blas_threads=1, q_var=2.0),
    )
}
