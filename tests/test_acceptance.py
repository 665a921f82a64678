"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion as it executes.
"""

import math
import time

import numpy as np

from detmc.cli import main as cli_main
from detmc.ensembles import EnsembleSpec, generate
from detmc.estimators import (
    DistributionPair,
    EstimatorConfig,
    det_via_inverse_solves,
    inv_det_importance,
    inv_det_sphere,
    operator_from_matrix,
)
from detmc.linalg import DenseMatrix, log_abs_det, lu_factorize
from detmc.sampling import RngStream, gaussian_matrix, unit_sphere_many


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def oracle_log_det(m):
    return log_abs_det(lu_factorize(m))


def test_criterion_1_convergence_reproduction(tmp_path):
    """10x10 iid Gaussian matrix, inverse-solve convergence, 17/20 seeds in band."""
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        m = generate(EnsembleSpec("gaussian_iid", n=10, seed=seed))
        r = det_via_inverse_solves(m, EstimatorConfig(100_000, seed=seed, trace_stride=10))
        final_log = r.trace[-1][1]
        band = 3.0 * r.rel_std_error  # delta-method SE of the log estimate
        if abs(final_log - oracle_log_det(m)) <= band:
            hits += 1
    # one seed exercises the actual CLI trace pipeline end to end
    out = tmp_path / "fig.csv"
    code = cli_main([
        "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
        "--n", "10", "--samples", "100000", "--seed", "3", "--trace", str(out),
    ])
    last = out.read_text().splitlines()[-1].split(",")
    r3 = det_via_inverse_solves(
        generate(EnsembleSpec("gaussian_iid", n=10, seed=3)), EstimatorConfig(100_000, seed=3)
    )
    cli_ok = code == 0 and abs(float(last[1]) - r3.log_mean) <= 1e-12 * abs(r3.log_mean)
    elapsed = time.perf_counter() - t0
    report(
        "C1 convergence-reproduction",
        hits >= 17 and cli_ok,
        f"{hits}/20 seeds within 3 SE, CLI trace consistent, {elapsed:.1f}s",
    )


def test_criterion_2_orthogonal_exactness():
    """Both reciprocal estimators exact on Haar orthogonal matrices."""
    worst = 0.0
    for n in (2, 10, 50):
        for seed in range(5):
            q = generate(EnsembleSpec("orthogonal", n=n, seed=100 + seed))
            op = operator_from_matrix(q)
            cfg = EstimatorConfig(100, seed=seed)
            for r in (
                inv_det_sphere(op, cfg),
                inv_det_importance(op, DistributionPair.gaussian_q(n, 1.0), cfg),
            ):
                worst = max(worst, abs(r.mean - 1.0), r.std_error)
    report("C2 orthogonal-exactness", worst <= 1e-9, f"worst deviation {worst:.2e} <= 1e-9")


def test_criterion_3_scaled_identity_exactness():
    m = DenseMatrix(2.0 * np.eye(5))
    sphere = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(1000, seed=0))
    solve = det_via_inverse_solves(m, EstimatorConfig(1000, seed=0))
    errs = (
        abs(sphere.mean - 0.03125),
        sphere.std_error,
        abs(solve.mean - 32.0),
        solve.std_error,
    )
    report(
        "C3 scaled-identity-exactness",
        max(errs) <= 1e-12,
        f"sphere {sphere.mean}, solve {solve.mean}, worst err {max(errs):.2e} <= 1e-12",
    )


def test_criterion_4_exact_scale_equivariance():
    m = generate(EnsembleSpec("gaussian_iid", n=8, seed=2024))
    cfg = EstimatorConfig(1000, seed=1)
    base = inv_det_sphere(operator_from_matrix(m), cfg)
    worst = 0.0
    for c in (0.5, 3.0):
        scaled = inv_det_sphere(operator_from_matrix(DenseMatrix(c * m.data)), cfg)
        worst = max(worst, abs((scaled.log_mean - base.log_mean) + 8 * math.log(c)))
    report("C4 scale-equivariance", worst <= 1e-12, f"worst log-shift error {worst:.2e} <= 1e-12")


def test_criterion_5_cross_estimator_agreement():
    m = generate(EnsembleSpec("ill_conditioned", n=4, seed=42, cond=1.2))
    op = operator_from_matrix(m)
    r1 = inv_det_sphere(op, EstimatorConfig(1_000_000, seed=5))
    r2 = inv_det_importance(
        op, DistributionPair.gaussian_q(4, 1.0), EstimatorConfig(1_000_000, seed=6)
    )
    gap = abs(r1.log_mean - r2.log_mean)
    band = 3.0 * math.hypot(r1.rel_std_error, r2.rel_std_error)
    report("C5 cross-estimator-agreement", gap <= band, f"log gap {gap:.2e} <= {band:.2e}")


def test_criterion_6_importance_generality():
    m = generate(EnsembleSpec("ill_conditioned", n=2, seed=3, cond=2.0))
    (a, b), (c, d) = m.data
    target = 1.0 / abs(a * d - b * c)  # cofactor oracle, independent of LU
    r = inv_det_importance(
        operator_from_matrix(m),
        DistributionPair.gaussian_q(2, q_variance=4.0),
        EstimatorConfig(1_000_000, seed=8),
    )
    gap = abs(r.mean - target)
    report("C6 importance-generality", gap <= 3.0 * r.std_error,
           f"|estimate - 1/|det|| = {gap:.2e} <= {3.0 * r.std_error:.2e}")


def test_criterion_7_sampler_correctness():
    norm_err = 0.0
    for n in (3, 17):
        s = unit_sphere_many(RngStream(1, 0), 2000, n)
        norm_err = max(norm_err, float(np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0))))
    s4 = unit_sphere_many(RngStream(2, 0), 100_000, 4)
    cov_err = float(np.max(np.abs(s4.T @ s4 / s4.shape[0] - np.eye(4) / 4.0)))
    chi = np.linalg.norm(gaussian_matrix(RngStream(3, 0), 1_000_000, 10), axis=1)
    expected = math.sqrt(2.0) * math.gamma(5.5) / math.gamma(5.0)
    chi_gap = abs(float(chi.mean()) - expected)
    chi_band = 3.0 * float(chi.std(ddof=1)) / math.sqrt(chi.size)
    ok = norm_err <= 1e-12 and cov_err <= 0.01 and chi_gap <= chi_band
    report(
        "C7 sampler-correctness",
        ok,
        f"norm err {norm_err:.2e} <= 1e-12, cov err {cov_err:.3f} <= 0.01, "
        f"chi mean gap {chi_gap:.2e} <= {chi_band:.2e}",
    )


def test_criterion_8_determinism_and_streams(tmp_path):
    argv = [
        "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
        "--n", "6", "--samples", "20000", "--seed", "11", "--streams", "4",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--trace", str(a)]) == 0
    assert cli_main(argv + ["--trace", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    m = generate(EnsembleSpec("ill_conditioned", n=6, seed=11, cond=1.5))
    op = operator_from_matrix(m)
    r1 = inv_det_sphere(op, EstimatorConfig(100_000, seed=11, num_streams=1))
    r4 = inv_det_sphere(op, EstimatorConfig(100_000, seed=11, num_streams=4))
    report(
        "C8 determinism-and-streams",
        identical and r1 == r4,
        f"CSV byte-identical: {identical}, 1 and 4 streams bit-identical: {r1 == r4}",
    )


def test_criterion_9_oracle_integrity():
    worst_cof = 0.0
    for seed in range(100):
        m = generate(EnsembleSpec("gaussian_iid", n=2, seed=seed))
        (a, b), (c, d) = m.data
        worst_cof = max(worst_cof, abs(oracle_log_det(m) - math.log(abs(a * d - b * c))))
    worst_diag = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        entries = tuple(float(v) for v in rng.uniform(0.5, 4.0, 5) * rng.choice([-1, 1], 5))
        m = generate(EnsembleSpec("diagonal", n=5, seed=seed, diag=entries))
        want = sum(math.log(abs(v)) for v in entries)
        worst_diag = max(worst_diag, abs(oracle_log_det(m) - want))
    ok = worst_cof <= 1e-12 and worst_diag <= 1e-12
    report(
        "C9 oracle-integrity",
        ok,
        f"cofactor err {worst_cof:.2e} <= 1e-12, diagonal err {worst_diag:.2e} <= 1e-12",
    )
