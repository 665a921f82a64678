"""Command-line front end: ``estimate`` prints one estimate, ``convergence``
writes its running-estimate trace as CSV.

Exit codes: 0 success, 2 I/O or file-format problem, 3 singular matrix,
64 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .ensembles import KINDS, EnsembleSpec, InvalidEnsembleError, generate
from .estimators import (
    EstimatorConfig,
    default_trace_stride,
    det_via_inverse_solves,
    inv_det_sphere,
    operator_from_matrix,
)
from .linalg import (
    MatrixFormatError,
    SingularMatrixError,
    load_matrix,
    log_abs_det,
    lu_factorize,
)
from .sampling import _count
from .stats import _exp_or_inf

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 2
EXIT_SINGULAR = 3
EXIT_USAGE = 64

# each estimator's target, the sign of log|det A| in the target's log, and its run on
# (matrix, factorization, config)
ESTIMATORS = {
    "sphere_invdet": ("inverse_abs_det", -1,
                      lambda m, f, config: inv_det_sphere(operator_from_matrix(m), config)),
    "inverse_solve_det": ("abs_det", 1, lambda m, f, config: det_via_inverse_solves(f, config)),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float17(x: float) -> str:
    return f"{x:.17g}"


def _exp17(log_x: float) -> str:
    x = _exp_or_inf(log_x)
    return "overflow" if x == math.inf else _float17(x)


def _count_flag(lowest: int):
    """argparse ``type=`` for a count flag, refused as a library count is."""
    def count(text: str) -> int:  # argparse words a non-integer as "invalid count value"
        return _count("value", int(text), lowest, argparse.ArgumentTypeError)
    return count


def _floats(text: str) -> tuple[float, ...]:
    """argparse ``type=`` for ``--diag``: comma-separated floats."""
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated floats, got {text!r}")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="path to a plain-text matrix file")
    source.add_argument("--ensemble", choices=sorted(KINDS))
    p.add_argument("--n", type=_count_flag(1), help="ensemble dimension")
    p.add_argument("--scale", type=float, help="scaled_identity factor")
    p.add_argument("--cond", type=float, help="ill_conditioned target condition number")
    p.add_argument("--diag", type=_floats, help="diagonal entries, comma separated")
    p.add_argument("--samples", type=_count_flag(1), default=1000)
    p.add_argument("--seed", type=_count_flag(0), default=0)
    p.add_argument("--streams", type=_count_flag(1), default=1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="detmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run one estimator, print a summary")
    _add_run_flags(p_est)

    p_conv = sub.add_parser("convergence", help="write a running-estimate CSV trace")
    _add_run_flags(p_conv)
    p_conv.add_argument("--out", required=True, help="CSV output path")
    p_conv.add_argument("--trace-stride", type=_count_flag(0), default=0, dest="trace_stride")
    return parser


def _check_args(args) -> None:
    """Usage errors argparse cannot word, raised before any file is read."""
    if args.matrix is not None:
        for flag in ("n", "scale", "cond", "diag"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag} is an --ensemble flag; it does not apply to --matrix")
    if args.samples % args.streams != 0:
        raise _UsageError("--samples must be divisible by --streams")


def _resolve_ensemble(args) -> EnsembleSpec:
    n = args.n
    if n is None and args.diag is not None:
        n = len(args.diag)
    if n is None:
        raise _UsageError("--ensemble requires --n (or --diag for the diagonal kind)")
    return EnsembleSpec(
        kind=args.ensemble, n=n, seed=args.seed, scale=args.scale, diag=args.diag, cond=args.cond
    )


def _run(args, trace_stride: int):
    """Build or load the matrix, factorise it once for both the oracle and
    ``inverse_solve_det``, and run the estimator: (matrix, oracle, result)."""
    if args.matrix is not None:
        matrix = load_matrix(args.matrix)
    else:
        matrix = generate(_resolve_ensemble(args))
    f = lu_factorize(matrix)
    config = EstimatorConfig(args.samples, args.seed, args.streams, trace_stride)
    return matrix, log_abs_det(f), ESTIMATORS[args.estimator][2](matrix, f, config)


def _estimate(args) -> int:
    matrix, oracle, result = _run(args, 0)
    target, sign, _ = ESTIMATORS[args.estimator]
    lines = [
        f"estimator: {args.estimator}",
        f"target: {target}",
        f"n: {matrix.n}",
        f"samples: {result.n_samples}",
        f"log_estimate: {_float17(result.log_mean)}",
        f"estimate: {_exp17(result.log_mean)}",
        f"std_error: {_float17(result.std_error)}",
        f"oracle_log_abs_det: {_float17(oracle)}",
        f"abs_log_error_vs_oracle: {_float17(abs(result.log_mean - sign * oracle))}",
        f"heavy_tail: {'true' if result.heavy_tail else 'false'}",
        f"low_count: {'true' if result.low_count else 'false'}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _convergence(args) -> int:
    _, oracle, result = _run(args, args.trace_stride or default_trace_stride(args.samples))
    oracle_txt = _float17(oracle)
    rows = ["sample_index,running_log_estimate,running_estimate,oracle_log_abs_det"]
    for index, running_log in result.trace:
        rows.append(f"{index},{_float17(running_log)},{_exp17(running_log)},{oracle_txt}")
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help or flag error
        return int(exc.code or 0)
    try:
        _check_args(args)
        if args.command == "estimate":
            return _estimate(args)
        return _convergence(args)
    except (_UsageError, InvalidEnsembleError) as exc:
        print(f"detmc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixFormatError, OSError) as exc:
        print(f"detmc: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SingularMatrixError as exc:
        print(f"detmc: error: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
