"""Time detmc's public estimators on one workload and check each result.

:func:`run` is called by ``run.py`` once the BLAS thread variables are
pinned.  Every estimate call is checked against the LU oracle, and some are
recomputed from the same config to check that they reproduce bit for bit.
The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record of the run, with the environment,
every call and (when traced) every span, goes to ``.bench_out/``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from detmc import (
    DenseMatrix,
    DistributionPair,
    EnsembleSpec,
    EstimateResult,
    EstimatorConfig,
    MatrixFreeOperator,
    det_via_inverse_solves,
    generate,
    inv_det_importance,
    inv_det_sphere,
    log_abs_det,
    lu_factorize,
    operator_from_matrix,
)
from detmc.estimators import default_trace_stride

import tracing
from workloads import THREAD_VARS, Workload

Z_GATE = 5.0  # a call passes when |log_mean - oracle| <= Z_GATE * std_error / mean
TARGET_RSE = 0.01  # time_to_target_s projects the time for std_error / mean to reach this
# the first calls pay for page faults, thread start-up and BLAS set-up, so
# they are checked but not timed
WARMUP_CALLS = 2
TAIL_BEYOND = 10  # estimate_s_tail: the highest percentile with this many calls beyond it
# set-up is repeated at least SETUP_REPS times and for SETUP_MIN_S seconds
SETUP_REPS = 11
SETUP_MIN_S = 1.0


class PreconditionError(RuntimeError):
    """The workload's problem is outside the regime the workload is meant to measure."""


@dataclass(frozen=True)
class Problem:
    """One workload's matrix, oracle target and the inputs its estimator takes."""

    workload: Workload
    seed: int
    matrix: DenseMatrix
    target: float  # oracle log of the quantity the estimator estimates
    op: MatrixFreeOperator | None
    dist: DistributionPair | None

    def config(self, index: int, streams: int) -> EstimatorConfig:
        wl = self.workload
        return EstimatorConfig(
            num_samples=wl.samples,
            seed=self.seed + index,
            num_streams=streams,
            trace_stride=default_trace_stride(wl.samples) if wl.running_trace else 0,
        )

    def estimate(self, config: EstimatorConfig) -> EstimateResult:
        kind = self.workload.estimator
        if kind == "sphere":
            return inv_det_sphere(self.op, config)
        if kind == "importance":
            return inv_det_importance(self.op, self.dist, config)
        return det_via_inverse_solves(self.matrix, config)


def set_up(wl: Workload, seed: int) -> tuple[Problem, dict[str, float]]:
    """Build the matrix, its LU oracle and the estimator inputs; time each part."""
    t0 = time.perf_counter()
    m = generate(EnsembleSpec("ill_conditioned", wl.n, seed=seed, cond=wl.cond))
    t1 = time.perf_counter()
    log_det = log_abs_det(lu_factorize(m))
    t2 = time.perf_counter()
    op = None if wl.estimator == "inverse" else operator_from_matrix(m)
    dist = DistributionPair.gaussian_q(wl.n, wl.q_var) if wl.estimator == "importance" else None
    t3 = time.perf_counter()
    target = log_det if wl.estimator == "inverse" else -log_det
    parts = {"generate_s": t1 - t0, "oracle_s": t2 - t1, "operator_s": t3 - t2, "total_s": t3 - t0}
    return Problem(wl, seed, m, target, op, dist), parts


def timed_set_up(wl: Workload, seed: int) -> tuple[Problem, dict[str, float], dict]:
    """Set up repeatedly; return the problem, the fastest time of each part and a summary.

    At n = 10 set-up takes a fraction of a millisecond, mostly interpreter
    overhead, and other load on a shared host swings the median of a run
    twofold for minutes at a time.  The fastest repetition stays steady.
    """
    samples: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(samples) < SETUP_REPS or time.perf_counter() - start < SETUP_MIN_S:
        problem, parts = set_up(wl, seed)
        samples.append(parts)
    fastest = {key: min(s[key] for s in samples) for key in samples[0]}
    summary = {
        "fastest": fastest,
        "median_total_s": statistics.median(s["total_s"] for s in samples),
        "reps": len(samples),
    }
    return problem, fastest, summary


def check_finite_variance(p: Problem) -> dict[str, float]:
    """The importance weights have finite variance iff sigma_min(A)^2 > 1 / (2 q_var).

    E_q[w^2] is proportional to the integral of exp(-x^T (A^T A - I / (2 q_var)) x).
    Without it the standard error, and every metric derived from it, is meaningless.
    """
    sigma_min_sq = float(np.linalg.svd(p.matrix.data, compute_uv=False)[-1] ** 2)
    bound = 1.0 / (2.0 * p.workload.q_var)
    if not sigma_min_sq > bound:
        raise PreconditionError(
            f"sigma_min(A)^2 = {sigma_min_sq:.4g} <= 1/(2 q_var) = {bound:.4g}: "
            "the importance weights have infinite variance"
        )
    return {"sigma_min_sq": sigma_min_sq, "infinite_variance_at_or_below": bound}


@dataclass
class Call:
    """One estimate call: its wall time, result bits and, if it failed, why."""

    phase: str
    index: int
    streams: int
    wall_s: float
    log_mean: str = ""  # float.hex of the result; "" when the call raised
    std_error: str = ""
    rel_var: float = math.nan  # samples * (std_error / mean)^2
    error: str = ""  # why the call failed; "" when it passed


def checked_call(
    p: Problem, phase: str, index: int, streams: int,
    estimate: Callable[[EstimatorConfig], EstimateResult],
) -> Call:
    """Run call ``index`` and check it against the oracle."""
    config = p.config(index, streams)
    start = time.perf_counter()
    try:
        r = estimate(config)
        wall = time.perf_counter() - start
        rse = r.std_error / r.mean
    except Exception as exc:  # a call that raises is counted as failed; the run goes on
        return Call(phase, index, streams, time.perf_counter() - start, error=f"raised {exc!r}")
    call = Call(phase, index, streams, wall, r.log_mean.hex(), r.std_error.hex(),
                config.num_samples * rse * rse)
    miss = abs(r.log_mean - p.target)
    if not miss <= Z_GATE * rse:
        call.error = (f"|log_mean - oracle| = {miss:.4g} > "
                      f"{Z_GATE:g} std_error/mean = {Z_GATE * rse:.4g}")
    return call


def check_same_bits(call: Call, reference: Call) -> None:
    """Fail ``call`` unless it reproduced ``reference`` (same config) bit for bit."""
    if call.error:
        return
    if (call.log_mean, call.std_error) != (reference.log_mean, reference.std_error):
        call.error = (
            f"not reproducible: (log_mean, std_error) = ({call.log_mean}, {call.std_error}), "
            f"first run gave ({reference.log_mean}, {reference.std_error})"
        )


def calls_for(p: Problem, phase: str, first: int, seconds: float, streams: int,
              estimate: Callable[[EstimatorConfig], EstimateResult]) -> list[Call]:
    """Consecutive calls from index ``first`` until ``seconds`` have passed (at least one)."""
    calls: list[Call] = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        calls.append(checked_call(p, phase, first + len(calls), streams, estimate))
    return calls


def samples_per_s(p: Problem, calls: list[Call]) -> float:
    return p.workload.samples * len(calls) / sum(c.wall_s for c in calls)


def traced_problem(p: Problem, tracer: tracing.Tracer) -> Problem:
    """A copy of ``p`` whose operator and distribution callables record spans."""
    op, dist = p.op, p.dist
    if op is not None:
        op = replace(op, apply_batch=tracer.wrap("estimators.apply_batch", op.apply_batch, len))
    if dist is not None:
        dist = replace(
            dist,
            log_p=tracer.wrap("estimators.log_p", dist.log_p),
            log_q=tracer.wrap("estimators.log_q", dist.log_q),
            q_sampler=tracer.wrap("sampling.q_sampler", dist.q_sampler),
        )
    return replace(p, op=op, dist=dist)


def run_end_to_end(p: Problem, setup: dict[str, float], seconds: float, record: dict):
    """Timed calls, then one call recomputed under tracemalloc; the end-to-end metrics."""
    n, streams = p.workload.samples, p.workload.streams
    timed = calls_for(p, "timed", WARMUP_CALLS, seconds, streams, p.estimate)
    # peak memory in a pass of its own, which also recomputes warm-up call 0
    tracemalloc.start()
    try:
        rerun = checked_call(p, "rerun", 0, streams, p.estimate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_same_bits(rerun, record["calls"][0])
    record["calls"] += [*timed, rerun]

    rate = samples_per_s(p, timed)
    # relative variance per sample, the median over calls: a rare large weight
    # inflates one call's estimate many times over.  ESS = N / (1 + (N-1) rse^2)
    rel_var = statistics.median(c.rel_var for c in timed)
    ess_frac = 1.0 / (1.0 + rel_var * (n - 1) / n)
    walls = sorted(c.wall_s for c in timed)
    k = len(walls) - TAIL_BEYOND - 1 if len(walls) > TAIL_BEYOND else len(walls) - 1
    metrics = {
        "samples_per_s": (rate, "1/s"),
        "ess_per_s": (rate * ess_frac, "1/s"),
        "time_to_target_s": (rel_var / TARGET_RSE**2 / rate, "s"),
        "estimate_s_p50": (statistics.median(walls), "s"),
        "estimate_s_tail": (walls[k], "s"),
        "setup_s": (setup["total_s"], "s"),
        "peak_mem_mb": (peak / 1e6, "MB"),
    }
    details = {
        "ess_frac": (ess_frac, "ratio"),
        "tail_percentile": (100.0 * (k + 1) / len(walls), "%"),
        "timed_calls": (len(walls), "count"),
    }
    return metrics, details


def run_traced(p: Problem, setup: dict[str, float], seconds: float, record: dict):
    """Untraced calls, the same calls traced, and (for several streams) one stream.

    The run's ``seconds`` are split evenly between those phases.  Traced
    calls must reproduce their untraced twins bit for bit.
    """
    streams = p.workload.streams
    share = seconds / (3 if streams > 1 else 2)
    untraced = calls_for(p, "untraced", WARMUP_CALLS, share, streams, p.estimate)

    tracer = tracing.Tracer()
    estimate = tracer.wrap("estimate", traced_problem(p, tracer).estimate, root=True)
    traced: list[Call] = []
    profiles = []
    deadline = time.perf_counter() + share
    with tracing.installed(tracer):
        for twin in untraced:
            mark = len(tracer.spans)
            call = checked_call(p, "traced", twin.index, streams, estimate)
            check_same_bits(call, twin)
            traced.append(call)
            profiles.append(tracing.call_profile(tracer.spans[mark:], streams))
            if time.perf_counter() >= deadline:
                break
    one_stream = []
    if streams > 1:
        one_stream = calls_for(p, "one_stream", WARMUP_CALLS, share, 1, p.estimate)
    record["calls"] += [*untraced, *traced, *one_stream]

    metrics = tracing.layer_metrics(profiles, p.workload.n)
    base = samples_per_s(p, untraced)
    metrics.update({
        "linalg.oracle_s": (setup["oracle_s"], "s"),
        "ensembles.generate_s": (setup["generate_s"], "s"),
        # samples_per_s at the workload's stream count over one stream; 1 by
        # definition for one-stream workloads
        "estimators.stream_scaling": (base / samples_per_s(p, one_stream) if one_stream else 1.0,
                                      "ratio"),
        "trace.overhead": (samples_per_s(p, traced) / base - 1.0, "ratio"),
    })
    threads: dict[int, int] = {}
    record["spans"] = [
        [s.id, s.name, s.start, s.end, s.parent, threads.setdefault(s.thread, len(threads)), s.work]
        for s in tracer.spans
    ]
    record["profiles"] = profiles
    return dict(sorted(metrics.items())), {"traced_calls": (len(traced), "count")}


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> int:
    """Run one workload; print the summary and the result line; return the exit code."""
    problem, setup, setup_summary = timed_set_up(wl, seed)
    record: dict = {
        "workload": asdict(wl),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(root),
        "setup": setup_summary,
    }
    if wl.estimator == "importance":
        record["precondition"] = check_finite_variance(problem)
    record["calls"] = [checked_call(problem, "warmup", i, wl.streams, problem.estimate)
                       for i in range(WARMUP_CALLS)]
    runner = run_traced if trace else run_end_to_end
    metrics, details = runner(problem, setup, seconds, record)

    calls: list[Call] = record["calls"]
    failed = [c for c in calls if c.error]
    details["failed_frac"] = (len(failed) / len(calls), "ratio")
    record.update(metrics=metrics, details=details, calls=[asdict(c) for c in calls])
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record))

    print(f"detmc benchmark: {wl.name}, seed {seed}, {wl.streams} stream(s), "
          f"{wl.samples} samples per call, BLAS threads {wl.blas_threads}, "
          f"{'traced' if trace else 'untraced'}")
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"  {name:32s} {value:12.6g} {unit}")
    print(f"  {len(failed)} of {len(calls)} calls failed")
    for c in failed:
        print(f"  FAILED {c.phase} call {c.index}: {c.error}")
    print(f"  record: {out_path.relative_to(root)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def environment(root: Path) -> dict:
    """What the timings depend on besides the code: threads, BLAS, CPU, commit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(root),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata)"
