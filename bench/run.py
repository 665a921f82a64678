"""Benchmark detmc's estimators: time to accuracy, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sphere_n10_trace --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every estimate call passed its
checks.  ``--workload all`` runs every workload, each in a process of its
own.  See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import THREAD_VARS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# a workload must finish within this many seconds, a first cold run included
WORKLOAD_TIMEOUT_S = 900


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so its thread pinning precedes numpy's import."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        results[name] = json.loads(lines[-1])
    if len(results) < len(WORKLOADS):
        return code or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value
                    for name, r in results.items() for metric, value in r["metrics"].items()},
    }))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / "detmc" / "__init__.py").is_file():
        print(f"bench: no detmc sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(wl.blas_threads)
    sys.path.insert(0, str(src))
    import harness  # loads numpy, so only after the thread variables are pinned

    try:
        return harness.run(wl, args.seed, args.seconds, bool(args.trace), ROOT)
    except harness.PreconditionError as exc:
        print(f"bench: {wl.name}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
