"""Spans around calls into detmc's layers, and the per-layer metrics derived from them.

The library is not edited: :func:`installed` swaps traced wrappers in for
the public functions at each layer boundary (the module attributes that the
library looks up at call time) and restores the originals afterwards.  The
operator's ``apply_batch`` and the ``DistributionPair`` callables are
fields of frozen dataclasses, so the harness wraps them by building traced
copies with :meth:`Tracer.wrap`.

A span records (id, name, start, end, parent, thread, work).  Its parent is
the enclosing span of the same thread; spans opened by a stream worker
with no enclosing span get the current root (the ``estimate`` call) as
parent.  ``work`` is the amount of work the call did: variates drawn, rows
solved or applied, weights folded.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

import detmc.estimators
import detmc.sampling
from detmc.stats import StreamingAccumulator


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    work: int


class Tracer:
    """Collects spans in memory; :meth:`wrap` returns a traced version of a callable."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0

    def wrap(self, name: str, fn: Callable, work: Callable | None = None, root: bool = False):
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else self._root
            if root:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = 0
                amount = work(*args) if work is not None else 1
                spans.append(Span(sid, name, start, end, parent, threading.get_ident(), amount))

        return traced


# (module or class, attribute, span name, work done by one call)
_PATCHES = (
    (detmc.sampling, "gaussian_matrix", "sampling.gaussian_matrix", lambda rng, k, n: k * n),
    (detmc.sampling, "unit_sphere_many", "sampling.unit_sphere_many", lambda rng, k, n: k),
    (detmc.estimators, "sphere_log_weights", "estimators.sphere_log_weights",
     lambda op, s: len(s)),
    (detmc.estimators, "importance_log_weights", "estimators.importance_log_weights",
     lambda op, dist, x: len(x)),
    # the names the estimators module calls for det_via_inverse_solves
    (detmc.estimators, "lu_factorize", "linalg.lu_factorize", None),
    (detmc.estimators, "lu_solve_many", "linalg.lu_solve_many", lambda f, rhs: len(rhs)),
    (StreamingAccumulator, "update_many", "stats.update_many", lambda acc, lw: len(lw)),
    (StreamingAccumulator, "merge", "stats.merge", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Route detmc's layer-boundary functions through ``tracer`` while active."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _PATCHES]
    try:
        for (owner, attr, name, work), (_, _, original) in zip(_PATCHES, saved):
            setattr(owner, attr, tracer.wrap(name, original, work))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# the per-layer time each span's self time is charged to
LAYER_OF_SPAN = {
    "sampling.gaussian_matrix": "sampling.draw_s",
    "sampling.q_sampler": "sampling.draw_s",  # scaling a Gaussian draw to q
    "sampling.unit_sphere_many": "sampling.normalise_s",
    "linalg.lu_solve_many": "linalg.solve_s",
    "linalg.lu_factorize": "linalg.factorize_s",
    "estimators.apply_batch": "estimators.apply_s",
    "estimators.log_p": "estimators.density_s",
    "estimators.log_q": "estimators.density_s",
    "estimators.sphere_log_weights": "estimators.weights_self_s",
    "estimators.importance_log_weights": "estimators.weights_self_s",
    "stats.update_many": "stats.fold_s",
    "stats.merge": "stats.merge_s",
}
CALL_TIMES = sorted(set(LAYER_OF_SPAN.values())) + ["estimators.driver_self_s"]
WEIGHT_KERNELS = ("estimators.sphere_log_weights", "estimators.importance_log_weights")


def call_profile(spans: list[Span], streams: int) -> dict[str, float]:
    """Layer times and counts of one traced estimate call, from its spans.

    Times are summed over streams, so with ``streams`` workers they add up
    to ``streams`` times the call's wall time (the ``budget_s`` entry):
    whatever no layer span covers is ``estimators.driver_self_s``.
    """
    (root,) = (s for s in spans if s.parent == 0)
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent:
            parent = by_id[s.parent]
            if s.start < parent.start or s.end > parent.end:
                raise RuntimeError(f"span {s.name} lies outside its parent {parent.name}")
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    wall = root.end - root.start
    out = dict.fromkeys(CALL_TIMES, 0.0)
    for s in spans:
        if s is root:
            continue
        self_time = s.end - s.start - child_time.get(s.id, 0.0)
        if self_time < -1e-6:
            raise RuntimeError(f"span {s.name} has negative self time {self_time}")
        out[LAYER_OF_SPAN[s.name]] += self_time
    budget = streams * wall
    out["estimators.driver_self_s"] = budget - child_time.get(root.id, 0.0)
    if out["estimators.driver_self_s"] < -1e-6:
        raise RuntimeError("layer spans cover more than streams x wall")

    # a stream is busy from its first to its last top-level span; the merge
    # runs on the calling thread after the streams finish
    first: dict[int, float] = {}
    last: dict[int, float] = {}
    for s in spans:
        if s.parent == root.id and s.name != "stats.merge":
            first[s.thread] = min(first.get(s.thread, s.start), s.start)
            last[s.thread] = max(last.get(s.thread, s.end), s.end)
    busy = sum(last[t] - first[t] for t in first)

    def total_work(name: str) -> int:
        return sum(s.work for s in spans if s.name == name)

    out.update(
        budget_s=budget,
        busy_s=busy,
        draw_only_s=sum(s.end - s.start for s in spans if s.name == "sampling.gaussian_matrix"),
        variates=total_work("sampling.gaussian_matrix"),
        solve_rows=total_work("linalg.lu_solve_many"),
        apply_rows=total_work("estimators.apply_batch"),
        factorize_calls=sum(s.name == "linalg.lu_factorize" for s in spans),
        chunks=sum(s.name in WEIGHT_KERNELS for s in spans),
        fold_calls=sum(s.name == "stats.update_many" for s in spans),
    )
    return out


def layer_metrics(profiles: list[dict[str, float]], n: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per estimate call, over the profiles of several traced calls.

    Each ``*_s`` is the mean per call, summed over streams; its ``_share``
    is the fraction of the streams x wall budget.  Rates are computed from
    flop counts (2 n^2 per solved or applied row), not measured counters.
    """
    calls = len(profiles)
    total = {key: sum(p[key] for p in profiles) for key in profiles[0]}
    budget = total["budget_s"]

    def rate(flop_rows: str, seconds: str) -> float:
        return 2.0 * n * n * total[flop_rows] / total[seconds] / 1e9 if total[seconds] else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in CALL_TIMES:
        out[name] = (total[name] / calls, "s")
        out[name + "_share"] = (total[name] / budget, "ratio")
    out.update({
        "sampling.variates": (total["variates"] / calls, "count"),
        "sampling.ns_per_variate": (
            1e9 * total["draw_only_s"] / total["variates"] if total["variates"] else 0.0, "ns"),
        "linalg.solve_gflops": (rate("solve_rows", "linalg.solve_s"), "GFLOP/s"),
        "linalg.factorize_calls": (total["factorize_calls"] / calls, "count"),
        "estimators.apply_gflops": (rate("apply_rows", "estimators.apply_s"), "GFLOP/s"),
        "estimators.chunks": (total["chunks"] / calls, "count"),
        "estimators.parallel_eff": (total["busy_s"] / budget, "ratio"),
        "stats.fold_calls": (total["fold_calls"] / calls, "count"),
    })
    return out
