"""Desk-scale property suite behind the ``validate`` CLI command.

Each property re-checks one structural guarantee of the estimators or
samplers at small fixed budgets.  Stochastic bounds use 5 standard errors so
the suite stays seed-robust (a sweep over seeds should essentially never
trip them on a healthy build); the exactness properties use the same hard
tolerances as the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ensembles, estimators, sampling
from .linalg import DenseMatrix

__all__ = ["PropertyResult", "run_property_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str


def run_property_suite(seed: int) -> list[PropertyResult]:
    return [
        _orthogonal_exactness(seed),
        _scale_equivariance(seed),
        _cross_estimator_agreement(seed),
        _sphere_sampler_moments(seed),
    ]


def _orthogonal_exactness(seed: int) -> PropertyResult:
    q = ensembles.generate(ensembles.EnsembleSpec("orthogonal", n=10, seed=seed))
    cfg = estimators.EstimatorConfig(num_samples=100, seed=seed)
    op = estimators.operator_from_matrix(q)
    results = {
        "sphere": estimators.inv_det_sphere(op, cfg),
        "gaussian_ratio": estimators.inv_det_gaussian_ratio(op, cfg),
        "importance": estimators.inv_det_importance(
            op, estimators.DistributionPair.gaussian_q(q.n, 1.0), cfg
        ),
        "inverse_solve": estimators.det_via_inverse_solves(q, cfg),
    }
    worst = max(
        max(abs(r.mean - 1.0), r.std_error) for r in results.values()
    )
    return PropertyResult(
        "orthogonal_exactness",
        worst <= 1e-9,
        f"worst |mean-1| / std_error over 4 estimators: {worst:.3e} (bound 1e-9)",
    )


def _scale_equivariance(seed: int) -> PropertyResult:
    a = ensembles.generate(ensembles.EnsembleSpec("gaussian_iid", n=8, seed=seed))
    cfg = estimators.EstimatorConfig(num_samples=200, seed=seed)
    base = estimators.inv_det_sphere(estimators.operator_from_matrix(a), cfg)
    worst = 0.0
    for c in (0.5, 3.0):
        scaled = estimators.inv_det_sphere(
            estimators.operator_from_matrix(DenseMatrix(c * a.data)), cfg
        )
        worst = max(worst, abs(scaled.log_mean - (base.log_mean - a.n * math.log(c))))
    return PropertyResult(
        "scale_equivariance",
        worst <= 1e-12,
        f"worst |log-mean shift - (-n log c)|: {worst:.3e} (bound 1e-12)",
    )


def _cross_estimator_agreement(seed: int) -> PropertyResult:
    a = ensembles.generate(ensembles.EnsembleSpec("ill_conditioned", n=4, seed=seed, cond=1.25))
    op = estimators.operator_from_matrix(a)
    cfg = estimators.EstimatorConfig(num_samples=100_000, seed=seed)
    r1 = estimators.inv_det_sphere(op, cfg)
    r2 = estimators.inv_det_gaussian_ratio(op, cfg)
    gap = abs(r1.log_mean - r2.log_mean)
    combined = math.hypot(r1.std_error / r1.mean, r2.std_error / r2.mean)
    return PropertyResult(
        "cross_estimator_agreement",
        gap <= 5.0 * combined,
        f"|log-estimate gap| = {gap:.3e} vs 5 combined SE = {5 * combined:.3e}",
    )


def _sphere_sampler_moments(seed: int) -> PropertyResult:
    rng = sampling.RngStream(seed, 0)
    s = sampling.unit_sphere_many(rng, 100_000, 4)
    norm_err = float(np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)))
    outer = (s.T @ s) / s.shape[0]
    cov_err = float(np.max(np.abs(outer - np.eye(4) / 4.0)))
    ok = norm_err <= 1e-12 and cov_err <= 0.01
    return PropertyResult(
        "sphere_sampler_moments",
        ok,
        f"max |norm-1| = {norm_err:.3e} (bound 1e-12), "
        f"max |E[ss^T] - I/4| = {cov_err:.3e} (bound 0.01)",
    )

