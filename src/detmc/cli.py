"""Command-line front end: estimate, convergence traces, validation suite.

Exit codes: 0 success, 1 validation failure, 2 I/O or file-format problem,
3 singular matrix, 64 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .ensembles import KINDS, EnsembleSpec, InvalidEnsembleError, generate
from .estimators import (
    DistributionPair,
    EstimatorConfig,
    default_trace_stride,
    det_via_inverse_solves,
    inv_det_gaussian_ratio,
    inv_det_importance,
    inv_det_sphere,
    operator_from_matrix,
)
from .linalg import (
    DenseMatrix,
    LUFactorization,
    MatrixFormatError,
    SingularMatrixError,
    load_matrix,
    log_abs_det,
    lu_factorize,
)
from .validation import run_property_suite

__all__ = ["main", "RunSpec", "run_estimate", "run_convergence", "run_validate"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_SINGULAR = 3
EXIT_USAGE = 64

ESTIMATOR_NAMES = (
    "sphere_invdet",
    "inverse_solve_det",
    "gaussian_ratio_invdet",
    "importance_invdet",
)

# estimators whose target is |det A| rather than its reciprocal
_TARGETS_DET = frozenset({"inverse_solve_det"})


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved CLI invocation."""

    command: str
    estimator: str = "sphere_invdet"
    matrix_path: str | None = None
    ensemble: EnsembleSpec | None = None
    samples: int = 1000
    seed: int = 0
    streams: int = 1
    trace_stride: int = 0
    out: str | None = None
    q_var: float = 1.0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float17(x: float) -> str:
    return f"{x:.17g}"


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
    p.add_argument("--matrix", help="path to a plain-text matrix file")
    p.add_argument("--ensemble", choices=sorted(KINDS))
    p.add_argument("--n", type=int, help="ensemble dimension")
    p.add_argument("--scale", type=float, help="scaled_identity factor")
    p.add_argument("--cond", type=float, help="ill_conditioned target condition number")
    p.add_argument("--diag", help="diagonal entries, comma separated")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--trace-stride", type=int, default=0, dest="trace_stride")
    p.add_argument("--q-var", type=float, default=1.0, dest="q_var",
                   help="variance of the isotropic Gaussian q (importance_invdet only)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="detmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run one estimator, print a summary")
    _add_run_flags(p_est)

    p_conv = sub.add_parser("convergence", help="write a running-estimate CSV trace")
    _add_run_flags(p_conv)
    p_conv.add_argument("--out", required=True, help="CSV output path")

    p_val = sub.add_parser("validate", help="run the property suite")
    p_val.add_argument("--seed", type=int, default=0)
    return parser


def _resolve_ensemble(args) -> EnsembleSpec:
    kind = args.ensemble
    diag = None
    if args.diag is not None:
        try:
            diag = tuple(float(t) for t in args.diag.split(","))
        except ValueError:
            raise _UsageError(f"--diag must be comma-separated floats, got {args.diag!r}")
    n = args.n
    if n is None and diag is not None:
        n = len(diag)
    if n is None:
        raise _UsageError("--ensemble requires --n (or --diag for the diagonal kind)")
    try:
        return EnsembleSpec(kind=kind, n=n, seed=args.seed, scale=args.scale, diag=diag, cond=args.cond)
    except InvalidEnsembleError as exc:
        raise _UsageError(str(exc))


def _spec_from_args(args) -> RunSpec:
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    if args.command == "validate":
        return RunSpec(command="validate", seed=args.seed)
    if (args.matrix is None) == (args.ensemble is None):
        raise _UsageError("exactly one of --matrix and --ensemble is required")
    if args.samples < 1:
        raise _UsageError("--samples must be positive")
    if args.streams < 1:
        raise _UsageError("--streams must be positive")
    if args.samples % args.streams != 0:
        raise _UsageError("--samples must be divisible by --streams")
    if args.trace_stride < 0:
        raise _UsageError("--trace-stride must be non-negative")
    if not (args.q_var > 0.0 and math.isfinite(args.q_var)):
        raise _UsageError("--q-var must be positive and finite")
    return RunSpec(
        command=args.command,
        estimator=args.estimator,
        matrix_path=args.matrix,
        ensemble=_resolve_ensemble(args) if args.ensemble else None,
        samples=args.samples,
        seed=args.seed,
        streams=args.streams,
        trace_stride=args.trace_stride,
        out=getattr(args, "out", None),
        q_var=args.q_var,
    )


def _load_or_generate(spec: RunSpec) -> DenseMatrix:
    if spec.matrix_path is not None:
        return load_matrix(spec.matrix_path)
    return generate(spec.ensemble)


def _run_estimator(spec: RunSpec, matrix: DenseMatrix, f: LUFactorization, trace_stride: int):
    config = EstimatorConfig(
        num_samples=spec.samples,
        seed=spec.seed,
        num_streams=spec.streams,
        trace_stride=trace_stride,
    )
    if spec.estimator == "inverse_solve_det":
        return det_via_inverse_solves(f, config)
    op = operator_from_matrix(matrix)
    if spec.estimator == "sphere_invdet":
        return inv_det_sphere(op, config)
    if spec.estimator == "gaussian_ratio_invdet":
        return inv_det_gaussian_ratio(op, config)
    if spec.estimator == "importance_invdet":
        return inv_det_importance(op, DistributionPair.gaussian_q(matrix.n, spec.q_var), config)
    raise _UsageError(f"unknown estimator {spec.estimator!r}")


def run_estimate(spec: RunSpec) -> int:
    matrix = _load_or_generate(spec)
    f = lu_factorize(matrix)
    oracle = log_abs_det(f)
    result = _run_estimator(spec, matrix, f, spec.trace_stride)
    target_log = oracle if spec.estimator in _TARGETS_DET else -oracle
    try:
        estimate = _float17(math.exp(result.log_mean))
    except OverflowError:
        estimate = "overflow"
    lines = [
        f"estimator: {spec.estimator}",
        f"target: {'abs_det' if spec.estimator in _TARGETS_DET else 'inverse_abs_det'}",
        f"n: {matrix.n}",
        f"samples: {result.n_samples}",
        f"log_estimate: {_float17(result.log_mean)}",
        f"estimate: {estimate}",
        f"std_error: {_float17(result.std_error)}",
        f"oracle_log_abs_det: {_float17(oracle)}",
        f"abs_log_error_vs_oracle: {_float17(abs(result.log_mean - target_log))}",
        f"heavy_tail: {'true' if result.heavy_tail else 'false'}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def run_convergence(spec: RunSpec) -> int:
    matrix = _load_or_generate(spec)
    f = lu_factorize(matrix)
    oracle = log_abs_det(f)
    stride = spec.trace_stride or default_trace_stride(spec.samples)
    result = _run_estimator(spec, matrix, f, stride)
    oracle_txt = _float17(oracle)
    rows = ["sample_index,running_log_estimate,running_estimate,oracle_log_abs_det"]
    for index, running_log in result.trace:
        try:
            running = _float17(math.exp(running_log))
        except OverflowError:
            running = "overflow"
        rows.append(f"{index},{_float17(running_log)},{running},{oracle_txt}")
    with open(spec.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def run_validate(spec: RunSpec) -> int:
    results = run_property_suite(spec.seed)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failures = [r.name for r in results if not r.ok]
    if failures:
        print(f"{len(failures)} propert{'y' if len(failures) == 1 else 'ies'} failed: "
              + ", ".join(failures))
        return EXIT_VALIDATION
    print(f"all {len(results)} properties passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _spec_from_args(args)
    except SystemExit as exc:  # argparse --help or flag error
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"detmc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if spec.command == "estimate":
            return run_estimate(spec)
        if spec.command == "convergence":
            return run_convergence(spec)
        return run_validate(spec)
    except (MatrixFormatError, OSError) as exc:
        print(f"detmc: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SingularMatrixError as exc:
        print(f"detmc: error: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except _UsageError as exc:
        print(f"detmc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
