"""CLI tests: summary fields, CSV traces, exit codes, fault injection."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detmc.cli
from detmc import EnsembleSpec, EstimatorConfig, generate, inv_det_sphere, operator_from_matrix
from detmc.cli import main


def run_cli(*argv):
    return main(list(argv))


def parse_summary(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def parse_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEstimate:
    def test_scaled_identity_sphere(self, capsys):
        code = run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "diagonal",
            "--diag", "2", "--n", "3", "--samples", "100", "--seed", "1",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["estimate"]) == pytest.approx(0.125, abs=1e-12)
        assert float(s["std_error"]) == 0.0
        assert s["target"] == "inverse_abs_det"
        assert s["low_count"] == "false"

    @pytest.mark.parametrize("n, samples", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 4), (7, 7),
                                            (8, 8), (10, 8)])
    def test_single_folded_weight_is_low_count(self, capsys, n, samples):
        # up to min(n, 8) directions are one frame, and fold a single weight:
        # its std_error of 0 says nothing about the spread, so the flag is printed
        code = run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", str(n), "--samples", str(samples), "--seed", "1",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["std_error"]) == 0.0
        assert s["low_count"] == "true"

    def test_orthogonal_inverse_solve(self, capsys):
        code = run_cli(
            "--estimator", "inverse_solve_det", "--ensemble", "orthogonal",
            "--n", "10", "--samples", "100", "--seed", "7",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["estimate"]) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_iid_within_delta_method_band(self, capsys):
        code = run_cli(
            "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
            "--n", "10", "--samples", "100000", "--seed", "3",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        band = 3.0 * float(s["rel_std_error"])
        assert float(s["abs_log_error_vs_oracle"]) <= band

    def test_estimate_exp_consistency(self, capsys):
        code = run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "4", "--samples", "1000", "--seed", "9",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["estimate"]) == math.exp(float(s["log_estimate"]))

    def test_overflow_token(self, capsys):
        code = run_cli(
            "--estimator", "inverse_solve_det", "--ensemble", "diagonal",
            "--diag", "10", "--n", "400", "--samples", "4", "--seed", "0",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert s["estimate"] == "overflow"
        assert float(s["log_estimate"]) == pytest.approx(400 * math.log(10.0), rel=1e-9)

    def test_underflow_token(self, tmp_path, capsys):
        # |det A| = e^-921 is a finite log whose exponential is below the least subnormal
        trace = tmp_path / "t.csv"
        code = run_cli(
            "--estimator", "inverse_solve_det", "--ensemble", "diagonal",
            "--diag", "1e-200", "--n", "2", "--samples", "10", "--trace", str(trace),
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert s["estimate"] == "underflow"
        assert float(s["log_estimate"]) == pytest.approx(2 * math.log(1e-200), rel=1e-12)
        _, rows = parse_csv(trace)
        assert [row[2] for row in rows] == ["underflow"] * 10
        # a log of -inf, every weight zero, is an exact 0
        assert detmc.cli._exp17(-math.inf) == "0"

    def test_overflowed_std_error_keeps_a_finite_rel_std_error(self, capsys):
        argv = ["--estimator", "sphere_invdet", "--ensemble", "ill_conditioned", "--n", "400",
                "--cond", "1e6", "--samples", "64", "--seed", "0"]
        assert run_cli(*argv) == 0
        s = parse_summary(capsys.readouterr().out)
        assert s["std_error"] == "inf"
        # not pinned: n = 400 products change bits with the BLAS thread count, so
        # the same run through the API in this process is the reference
        m = generate(EnsembleSpec("ill_conditioned", n=400, seed=0, cond=1e6))
        r = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(64, seed=0))
        assert math.isfinite(float(s["rel_std_error"]))
        assert float(s["rel_std_error"]) == r.rel_std_error

    def test_matrix_file_source(self, tmp_path, capsys, write_matrix):
        path = write_matrix(tmp_path / "m.txt", np.diag([2.0, 4.0]))
        code = run_cli(
            "--estimator", "sphere_invdet", "--matrix", str(path),
            "--samples", "100", "--seed", "0",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert s["n"] == "2"
        assert float(s["oracle_log_abs_det"]) == pytest.approx(math.log(8.0), abs=1e-12)

    @pytest.mark.parametrize("diag, n", [("2,-1.5,4", "3"), ("-3", "1")])
    def test_diag_flag_infers_dimension(self, diag, n, capsys):
        code = run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "diagonal",
            "--diag", diag, "--samples", "100", "--seed", "0",
        )
        assert code == 0
        assert parse_summary(capsys.readouterr().out)["n"] == n


    @pytest.mark.parametrize("traced", [False, True])
    def test_inverse_solve_factorizes_once(self, traced, tmp_path, monkeypatch):
        # the oracle's factorization is the one the estimate uses: one inverse
        real, calls = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or real(a))
        trace = ["--trace", str(tmp_path / "t.csv")] if traced else []
        assert run_cli(
            "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
            "--n", "5", "--samples", "100", *trace,
        ) == 0
        assert len(calls) == 1


class TestConvergence:
    def test_scaled_identity_flat_line(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "diagonal",
            "--diag", "2", "--n", "3", "--samples", "500", "--seed", "1", "--trace", str(out),
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "sample_index", "running_log_estimate", "running_estimate", "oracle_log_abs_det",
        ]
        assert len(rows) == 500  # default stride 1 at this budget
        for row in rows:
            assert float(row[2]) == pytest.approx(0.125, abs=1e-12)
            assert float(row[3]) == pytest.approx(math.log(8.0), abs=1e-12)

    def test_gaussian_trace_reaches_oracle(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
            "--n", "10", "--samples", "100000", "--seed", "3", "--trace", str(out),
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 10_000  # stride 100000/10^4 = 10
        assert int(rows[-1][0]) == 100_000
        # compare the final row against the oracle column using the
        # delta-method band from the matching API invocation
        final_log, oracle = float(rows[-1][1]), float(rows[-1][3])
        from detmc.ensembles import EnsembleSpec, generate
        from detmc.estimators import EstimatorConfig, det_via_inverse_solves

        r = det_via_inverse_solves(
            generate(EnsembleSpec("gaussian_iid", n=10, seed=3)),
            EstimatorConfig(100_000, seed=3),
        )
        assert final_log == pytest.approx(r.log_mean, abs=1e-12)
        assert abs(final_log - oracle) <= 3.0 * r.rel_std_error

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "6", "--samples", "2000", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*argv, "--trace", str(a)) == 0
        assert run_cli(*argv, "--trace", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multistream_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "--estimator", "sphere_invdet", "--ensemble",
            "gaussian_iid", "--n", "4", "--samples", "4000", "--seed", "2",
            "--streams", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*argv, "--trace", str(a)) == 0
        assert run_cli(*argv, "--trace", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("samples", ["10", "40001"])  # one chunk, and four at n = 3
    def test_trace_file_is_the_same_for_every_stream_count(self, samples, tmp_path):
        # a chunk, not a thread, owns each random stream, so --streams changes no trace
        # point, also on a budget that the stream count does not divide
        argv = ["--estimator", "sphere_invdet", "--ensemble", "gaussian_iid", "--n", "3",
                "--samples", samples, "--seed", "2"]
        one = tmp_path / "one.csv"
        assert run_cli(*argv, "--streams", "1", "--trace", str(one)) == 0
        for streams in ("2", "3", "7"):
            out = tmp_path / f"{streams}.csv"
            assert run_cli(*argv, "--streams", streams, "--trace", str(out)) == 0
            assert out.read_bytes() == one.read_bytes()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        code = run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--seed", "0",
            "--trace", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert code == 2
        assert capsys.readouterr().out == ""  # the trace is written before the summary

    @pytest.mark.parametrize("argv", [
        ["--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid", "--n", "10",
         "--samples", "20000", "--seed", "3", "--streams", "2"],
        ["--estimator", "sphere_invdet", "--ensemble", "ill_conditioned", "--n", "6",
         "--cond", "3", "--samples", "3000", "--seed", "4", "--streams", "3"],
    ])
    def test_traced_run_prints_the_untraced_summary(self, argv, tmp_path, capsys):
        assert run_cli(*argv) == 0
        untraced = capsys.readouterr().out
        assert run_cli(*argv, "--trace", str(tmp_path / "t.csv")) == 0
        assert capsys.readouterr().out == untraced


class TestExitCodes:
    def test_missing_matrix_file(self):
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", "/nonexistent/m.txt",
            "--samples", "10",
        ) == 2

    def test_malformed_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 2\n")
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", str(bad),
            "--samples", "10",
        ) == 2

    def test_non_ascii_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("2\n1 \u22122\n3 4\n".encode())
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", str(bad),
            "--samples", "10",
        ) == 2

    def test_singular_matrix_file(self, tmp_path):
        singular = tmp_path / "s.txt"
        singular.write_text("2\n1 2\n2 4\n")
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", str(singular),
            "--samples", "10",
        ) == 3

    def test_rank_deficient_integer_matrix_file(self, tmp_path):
        # rank 4, although LAPACK's det rounds to 1.03e-6
        rows = ["0 92 92 92 92", "92 92 92 0 92", "-1 92 92 92 92", "92 92 0 92 92",
                "92 92 92 92 92"]
        singular = tmp_path / "rank4.txt"
        singular.write_text("5\n" + "\n".join(rows) + "\n")
        assert run_cli(
            "--estimator", "inverse_solve_det", "--matrix", str(singular),
            "--samples", "10",
        ) == 3

    def test_both_sources_is_usage_error(self, tmp_path, write_matrix):
        path = write_matrix(tmp_path / "m.txt", np.eye(2))
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", str(path),
            "--ensemble", "orthogonal", "--n", "2", "--samples", "10",
        ) == 64

    def test_no_source_is_usage_error(self):
        assert run_cli("--estimator", "sphere_invdet", "--samples", "10") == 64

    @pytest.mark.parametrize("samples", ["10", "40001"])  # one chunk, and four at n = 3
    def test_indivisible_budget_prints_the_one_stream_summary(self, samples, capsys):
        # --streams sets only how many threads share the work: a budget that 3 does not
        # divide runs, and prints what one stream prints
        argv = ["--estimator", "sphere_invdet", "--ensemble", "gaussian_iid", "--n", "3",
                "--samples", samples]
        assert run_cli(*argv, "--streams", "1") == 0
        one = capsys.readouterr().out
        assert run_cli(*argv, "--streams", "3") == 0
        assert capsys.readouterr().out == one

    def test_unknown_estimator_usage_error(self, capsys):
        for name in ("nonsense", "gaussian_ratio_invdet", "importance_invdet"):  # removed
            assert run_cli(
                "--estimator", name, "--ensemble", "gaussian_iid",
                "--n", "3", "--samples", "10",
            ) == 64
        capsys.readouterr()

    @pytest.mark.parametrize("old", [["validate"], ["estimate"], ["convergence", "--out", "P"]])
    def test_removed_subcommands_usage_error(self, old, tmp_path, monkeypatch, capsys):
        # one command per run: the old subcommand words and --out are refused, not run
        monkeypatch.chdir(tmp_path)
        assert run_cli(
            old[0], "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", *old[1:],
        ) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(old)}" in err
        assert list(tmp_path.iterdir()) == []

    def test_trace_without_a_path_usage_error(self, capsys):
        assert run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--trace",
        ) == 64
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize("diag, n", [("1,2,3", "2"), ("1,2", "3"), ("1,2,3", "1")])
    def test_diag_dimension_mismatch_usage_error(self, diag, n, capsys):
        # one entry is repeated --n times; any other length must be --n
        assert run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "diagonal",
            "--diag", diag, "--n", n, "--samples", "10",
        ) == 64
        assert f"diagonal needs 1 or n = {n} entries" in capsys.readouterr().err

    def test_matrix_file_with_a_token_that_is_not_a_float(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 x\n0 1\n")
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", str(bad),
            "--samples", "10",
        ) == 2
        assert "could not convert string to float: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--ensemble", "diagonal", "--diag", "1,x"], "--diag"),
            (["--ensemble", "gaussian_iid"], "--n"),
        ],
    )
    def test_ensemble_flag_usage_error(self, flags, named, capsys):
        assert run_cli("--estimator", "sphere_invdet", "--samples", "10", *flags) == 64
        assert named in capsys.readouterr().err

    def test_negative_seed_usage_error(self, capsys):
        assert run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--seed", "-1",
        ) == 64
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("q_var", ["-1", "0", "nan", "inf", "2"])
    def test_bad_q_var_usage_error(self, q_var, capsys):
        # the flag went with importance_invdet: every value, valid before or not, exits 64
        assert run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--q-var", q_var,
        ) == 64
        assert "--q-var" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--matrix", "/nonexistent/m.txt", "--scale", "2"], "unrecognized arguments: --scale"),
            (["--ensemble", "gaussian_iid", "--n", "3", "--scale", "2"],
             "unrecognized arguments: --scale"),
            (["--ensemble", "scaled_identity", "--n", "3"], "invalid choice: 'scaled_identity'"),
            (["--matrix", "/nonexistent/m.txt", "--ensemble", "scaled_identity"],
             "invalid choice: 'scaled_identity'"),
        ],
    )
    def test_scaled_identity_spellings_usage_error(self, flags, named, capsys):
        # c I is --ensemble diagonal --diag c --n N; a missing file would exit 2 if the
        # matrix were read first
        assert run_cli("--estimator", "sphere_invdet", "--samples", "10", *flags) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err

    def test_usage_checked_before_loading_the_matrix(self, capsys):
        # a missing file would exit 2 if the matrix were read first
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", "/nonexistent/m.txt",
            "--samples", "10", "--seed", "-1",
        ) == 64
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "traced, flags, named",
        [
            (False, ["--samples", "0"], "--samples"),
            (False, ["--streams", "0"], "--streams"),
            (False, ["--streams", "-1"], "--streams"),
            (True, ["--samples", "0"], "--samples"),
            (True, ["--streams", "0"], "--streams"),
        ],
    )
    def test_bad_count_refused_before_loading_the_matrix(self, traced, flags, named, tmp_path,
                                                         capsys):
        # a missing file would exit 2 if the matrix were read first
        trace = ["--trace", str(tmp_path / "t.csv")] if traced else []
        assert run_cli(
            "--estimator", "sphere_invdet", "--matrix", "/nonexistent/m.txt", *trace, *flags,
        ) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: detmc ")
        assert named in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--ensemble", "gaussian_iid", "--n", "3", "--cond", "5"], "cond"),
            (["--ensemble", "orthogonal", "--n", "3", "--diag", "1,2,3"], "diag"),
            (["--ensemble", "ill_conditioned", "--n", "3", "--cond", "2", "--diag", "2"], "diag"),
            (["--matrix", "MATRIX", "--n", "7", "--cond", "3"], "--n"),
            (["--matrix", "MATRIX", "--cond", "3"], "--cond"),
            (["--matrix", "MATRIX", "--diag", "2"], "--diag"),
            (["--matrix", "/nonexistent/m.txt", "--diag", "1,2"], "--diag"),
        ],
    )
    def test_flag_the_matrix_source_does_not_use(self, flags, named, tmp_path, capsys,
                                                write_matrix):
        # ignoring the flag would run on a matrix other than the one it describes
        path = write_matrix(tmp_path / "m.txt", np.diag([2.0, 4.0]))
        flags = [str(path) if f == "MATRIX" else f for f in flags]
        assert run_cli("--estimator", "sphere_invdet", "--samples", "10", *flags) == 64
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("traced", [False, True])
    def test_trace_stride_flag_is_refused(self, traced, tmp_path, capsys):
        # --trace always uses the default stride and an untraced run writes no trace,
        # so a stride given on the command line would be silently ignored
        trace = ["--trace", str(tmp_path / "t.csv")] if traced else []
        assert run_cli(
            "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", *trace, "--trace-stride", "1",
        ) == 64
        assert "--trace-stride" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        capsys.readouterr()


RUNTIME_SCRIPT = """
import sys
import numpy
top = lambda names: {name.partition(".")[0] for name in names}
baseline = top(sys.modules)
from detmc.cli import main
common = ["--ensemble", "orthogonal", "--n", "4", "--samples", "64"]
codes = [main(["--estimator", "sphere_invdet", *common]),
         main(["--estimator", "inverse_solve_det", *common, "--streams", "2",
               "--trace", sys.argv[1]]),
         main(["--estimator", "sphere_invdet", "--ensemble", "diagonal", "--diag", "2",
               "--n", "3", "--samples", "64"]),
         main(["--estimator", "inverse_solve_det", "--ensemble", "ill_conditioned",
               "--cond", "1.1", "--n", "400", "--samples", "32768", "--streams", "2"]),
         main(["--estimator", "sphere_invdet", "--n", "3", "--matrix", "missing.txt"]),
         main(["convergence", "--estimator", "inverse_solve_det", *common,
               "--out", sys.argv[2]]),
         main(["--estimator", "sphere_invdet", "--ensemble", "diagonal", "--diag", "2",
               "--n", "3", "--scale", "2"]),
         *(main(["--estimator", estimator, "--matrix", sys.argv[3], "--samples", "64"])
           for estimator in ("sphere_invdet", "inverse_solve_det"))]
# numpy.random's Cython extensions register two in-memory modules when they load
cython = {name for name in sys.modules if name == "cython_runtime" or name.startswith("_cython_")}
print(codes)
print(sorted(top(sys.modules) - baseline - set(sys.stdlib_module_names) - {"detmc"} - cython))
"""


def test_the_runtime_needs_only_numpy(tmp_path):
    # against what the interpreter and numpy had already loaded, not an allow-list: site
    # set-up may load other packages before any of detmc is imported.  The traced run
    # folds with a trace, which the first does not; the third estimates 2 I as a one-entry
    # diagonal; the fourth runs the n = 400 inverse-solve path, frames of 16 in 327-row
    # chunks, on two streams, and must pass the bench's gate, |log error| <= 5 rel SE;
    # the fifth call's --n, an --ensemble flag, is refused (64) before its missing file
    # is read (2), the removed subcommand is refused (64) without writing its --out
    # file, and so is the removed --scale flag (64); a singular --matrix file is
    # refused (3) under both estimators
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    trace, old, singular = tmp_path / "trace.csv", tmp_path / "old.csv", tmp_path / "singular.txt"
    singular.write_text("2\n1 2\n2 4\n", encoding="ascii")
    args = [str(trace), str(old), str(singular)]
    proc = subprocess.run([sys.executable, "-c", RUNTIME_SCRIPT, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 64, 64, 64, 3, 3]", "[]"]
    summaries = []  # one dict of "key: value" lines per printed estimate
    for line in proc.stdout.splitlines():
        key, sep, value = line.partition(": ")
        if key == "estimator":
            summaries.append({})
        if sep and summaries:
            summaries[-1][key] = value
    (n400,) = (s for s in summaries if s.get("n") == "400")
    assert float(n400["abs_log_error_vs_oracle"]) <= 5 * float(n400["rel_std_error"])
    assert len(trace.read_text().splitlines()) == 65  # a header and one line per sample
    assert not old.exists()
