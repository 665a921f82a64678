"""Command-line front end: ``detmc --estimator E (--matrix F | --ensemble K ...)``
prints one estimate; with ``--trace PATH`` it first writes the running-estimate
trace to PATH as CSV.

Exit codes: 0 success, 2 I/O or file-format problem, 3 singular matrix,
64 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .ensembles import KINDS, EnsembleSpec, generate
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
# (matrix, config)
ESTIMATORS = {
    "sphere_invdet": ("inverse_abs_det", -1,
                      lambda m, config: inv_det_sphere(operator_from_matrix(m), config)),
    "inverse_solve_det": ("abs_det", 1, det_via_inverse_solves),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float17(x: float) -> str:
    return f"{x:.17g}"


def _exp17(log_x: float) -> str:
    x = _exp_or_inf(log_x)
    if x == math.inf:
        return "overflow"
    return "underflow" if x == 0.0 and log_x != -math.inf else _float17(x)


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


def _build_parser() -> _Parser:
    p = _Parser(prog="detmc", description=__doc__)
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="path to a plain-text matrix file")
    source.add_argument("--ensemble", choices=sorted(KINDS))
    p.add_argument("--n", type=_count_flag(1), help="ensemble dimension")
    p.add_argument("--cond", type=float, help="ill_conditioned target condition number")
    p.add_argument("--diag", type=_floats,
                   help="diagonal entries, comma separated; one entry is repeated --n times")
    p.add_argument("--samples", type=_count_flag(1), default=1000)
    p.add_argument("--seed", type=_count_flag(0), default=0)
    p.add_argument("--streams", type=_count_flag(1), default=1)
    p.add_argument("--trace", metavar="PATH", help="also write the running-estimate CSV here")
    return p


def _inputs(parser: _Parser, args) -> tuple[EstimatorConfig, EnsembleSpec | None]:
    """The run's config and ensemble spec (``None`` for ``--matrix``), built before
    any file is read; every usage error exits through ``parser.error``."""
    for flag in ("n", "cond", "diag"):
        if args.matrix is not None and getattr(args, flag) is not None:
            parser.error(f"--{flag} is an --ensemble flag; it does not apply to --matrix")
    stride = default_trace_stride(args.samples) if args.trace is not None else 0
    try:
        config = EstimatorConfig(args.samples, args.seed, args.streams, stride)
        if args.matrix is not None:
            return config, None
        n = len(args.diag) if args.n is None and args.diag is not None else args.n
        if n is None:
            parser.error("--ensemble requires --n (or --diag for the diagonal kind)")
        return config, EnsembleSpec(args.ensemble, n, args.seed, diag=args.diag, cond=args.cond)
    except ValueError as exc:  # EstimatorConfig's or EnsembleSpec's refusal
        parser.error(str(exc))


def _print_estimate(args, matrix, oracle: float, result) -> None:
    target, sign, _ = ESTIMATORS[args.estimator]
    lines = [
        f"estimator: {args.estimator}",
        f"target: {target}",
        f"n: {matrix.n}",
        f"samples: {result.n_samples}",
        f"log_estimate: {_float17(result.log_mean)}",
        f"estimate: {_exp17(result.log_mean)}",
        f"std_error: {_float17(result.std_error)}",
        f"rel_std_error: {_float17(result.rel_std_error)}",
        f"oracle_log_abs_det: {_float17(oracle)}",
        f"abs_log_error_vs_oracle: {_float17(abs(result.log_mean - sign * oracle))}",
        f"low_count: {'true' if result.low_count else 'false'}",
    ]
    print("\n".join(lines))


def _write_trace(path: str, oracle: float, result) -> None:
    oracle_txt = _float17(oracle)
    rows = ["sample_index,running_log_estimate,running_estimate,oracle_log_abs_det"]
    for index, running_log in result.trace:
        rows.append(f"{index},{_float17(running_log)},{_exp17(running_log)},{oracle_txt}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config, spec = _inputs(parser, args)
    except SystemExit as exc:  # --help or a usage error
        return int(exc.code or 0)
    try:
        matrix = load_matrix(args.matrix) if spec is None else generate(spec)
        f = lu_factorize(matrix)  # the matrix keeps it for inverse_solve_det
        result = ESTIMATORS[args.estimator][2](matrix, config)
        oracle = log_abs_det(f)
        if args.trace is not None:  # first, so an unwritable path prints no summary
            _write_trace(args.trace, oracle, result)
        _print_estimate(args, matrix, oracle, result)
        return EXIT_OK
    except (MatrixFormatError, OSError) as exc:
        print(f"detmc: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SingularMatrixError as exc:
        print(f"detmc: error: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
