"""CLI tests: summary fields, CSV traces, exit codes, fault injection."""

import math

import numpy as np
import pytest

import detmc.cli
import detmc.estimators
import detmc.sampling
from detmc.cli import main
from detmc.linalg import DenseMatrix, save_matrix


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
            "estimate", "--estimator", "sphere_invdet", "--ensemble", "scaled_identity",
            "--scale", "2", "--n", "3", "--samples", "100", "--seed", "1",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["estimate"]) == pytest.approx(0.125, abs=1e-12)
        assert float(s["std_error"]) == 0.0
        assert s["target"] == "inverse_abs_det"
        assert s["heavy_tail"] == "false"

    def test_orthogonal_inverse_solve(self, capsys):
        code = run_cli(
            "estimate", "--estimator", "inverse_solve_det", "--ensemble", "orthogonal",
            "--n", "10", "--samples", "100", "--seed", "7",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["estimate"]) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_iid_within_delta_method_band(self, capsys):
        code = run_cli(
            "estimate", "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
            "--n", "10", "--samples", "100000", "--seed", "3",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        band = 3.0 * float(s["std_error"]) / float(s["estimate"])
        assert float(s["abs_log_error_vs_oracle"]) <= band

    def test_estimate_exp_consistency(self, capsys):
        code = run_cli(
            "estimate", "--estimator", "gaussian_ratio_invdet", "--ensemble", "gaussian_iid",
            "--n", "4", "--samples", "1000", "--seed", "9",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert float(s["estimate"]) == math.exp(float(s["log_estimate"]))

    def test_overflow_token(self, capsys):
        code = run_cli(
            "estimate", "--estimator", "inverse_solve_det", "--ensemble", "scaled_identity",
            "--scale", "10", "--n", "400", "--samples", "4", "--seed", "0",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert s["estimate"] == "overflow"
        assert float(s["log_estimate"]) == pytest.approx(400 * math.log(10.0), rel=1e-9)

    def test_importance_with_wide_q(self, capsys):
        code = run_cli(
            "estimate", "--estimator", "importance_invdet", "--ensemble", "ill_conditioned",
            "--cond", "2", "--n", "2", "--samples", "50000", "--seed", "4", "--q-var", "4.0",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        band = 4.0 * float(s["std_error"]) / float(s["estimate"])
        assert float(s["abs_log_error_vs_oracle"]) <= band

    def test_matrix_file_source(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        save_matrix(path, DenseMatrix(np.diag([2.0, 4.0])))
        code = run_cli(
            "estimate", "--estimator", "sphere_invdet", "--matrix", str(path),
            "--samples", "100", "--seed", "0",
        )
        assert code == 0
        s = parse_summary(capsys.readouterr().out)
        assert s["n"] == "2"
        assert float(s["oracle_log_abs_det"]) == pytest.approx(math.log(8.0), abs=1e-12)

    def test_diag_flag_infers_dimension(self, capsys):
        code = run_cli(
            "estimate", "--estimator", "sphere_invdet", "--ensemble", "diagonal",
            "--diag", "2,-1.5,4", "--samples", "100", "--seed", "0",
        )
        assert code == 0
        assert parse_summary(capsys.readouterr().out)["n"] == "3"


    @pytest.mark.parametrize("command", ["estimate", "convergence"])
    def test_inverse_solve_factorizes_once(self, command, tmp_path, monkeypatch):
        calls = []

        def counted(m, real=detmc.cli.lu_factorize):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(detmc.cli, "lu_factorize", counted)
        monkeypatch.setattr(detmc.estimators, "lu_factorize", counted)
        out = ["--out", str(tmp_path / "t.csv")] if command == "convergence" else []
        assert run_cli(
            command, "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
            "--n", "5", "--samples", "100", *out,
        ) == 0
        assert len(calls) == 1


class TestConvergence:
    def test_scaled_identity_flat_line(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "convergence", "--estimator", "sphere_invdet", "--ensemble", "scaled_identity",
            "--scale", "2", "--n", "3", "--samples", "500", "--seed", "1", "--out", str(out),
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
            "convergence", "--estimator", "inverse_solve_det", "--ensemble", "gaussian_iid",
            "--n", "10", "--samples", "100000", "--seed", "3", "--out", str(out),
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
        assert abs(final_log - oracle) <= 3.0 * r.std_error / r.mean

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "convergence", "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "6", "--samples", "2000", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multistream_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "convergence", "--estimator", "gaussian_ratio_invdet", "--ensemble",
            "gaussian_iid", "--n", "4", "--samples", "4000", "--seed", "2",
            "--streams", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = run_cli(
            "convergence", "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--seed", "0",
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert code == 2


class TestValidate:
    def test_healthy_build_passes(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 4

    def test_alternate_seed_passes(self):
        assert run_cli("validate", "--seed", "99") == 0

    def test_unnormalized_sphere_sampler_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            detmc.sampling,
            "unit_sphere_many",
            lambda rng, k, n: detmc.sampling.gaussian_matrix(rng, k, n),
        )
        assert run_cli("validate") == 1
        out = capsys.readouterr().out
        assert "FAIL sphere_sampler_moments" in out


class TestExitCodes:
    def test_missing_matrix_file(self):
        assert run_cli(
            "estimate", "--estimator", "sphere_invdet", "--matrix", "/nonexistent/m.txt",
            "--samples", "10",
        ) == 2

    def test_malformed_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 2\n")
        assert run_cli(
            "estimate", "--estimator", "sphere_invdet", "--matrix", str(bad),
            "--samples", "10",
        ) == 2

    def test_singular_matrix_file(self, tmp_path):
        singular = tmp_path / "s.txt"
        singular.write_text("2\n1 2\n2 4\n")
        assert run_cli(
            "estimate", "--estimator", "sphere_invdet", "--matrix", str(singular),
            "--samples", "10",
        ) == 3

    def test_rank_deficient_integer_matrix_file(self, tmp_path):
        # rank 4, although LAPACK's det rounds to 1.03e-6
        rows = ["0 92 92 92 92", "92 92 92 0 92", "-1 92 92 92 92", "92 92 0 92 92",
                "92 92 92 92 92"]
        singular = tmp_path / "rank4.txt"
        singular.write_text("5\n" + "\n".join(rows) + "\n")
        assert run_cli(
            "estimate", "--estimator", "inverse_solve_det", "--matrix", str(singular),
            "--samples", "10",
        ) == 3

    def test_both_sources_is_usage_error(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(path, DenseMatrix(np.eye(2)))
        assert run_cli(
            "estimate", "--estimator", "sphere_invdet", "--matrix", str(path),
            "--ensemble", "orthogonal", "--n", "2", "--samples", "10",
        ) == 64

    def test_no_source_is_usage_error(self):
        assert run_cli("estimate", "--estimator", "sphere_invdet", "--samples", "10") == 64

    def test_indivisible_streams_usage_error(self):
        assert run_cli(
            "estimate", "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--streams", "3",
        ) == 64

    def test_unknown_estimator_usage_error(self, capsys):
        assert run_cli(
            "estimate", "--estimator", "nonsense", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10",
        ) == 64
        capsys.readouterr()

    def test_missing_out_usage_error(self, capsys):
        assert run_cli(
            "convergence", "--estimator", "sphere_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10",
        ) == 64
        capsys.readouterr()

    def test_diag_dimension_mismatch_usage_error(self):
        assert run_cli(
            "estimate", "--estimator", "sphere_invdet", "--ensemble", "diagonal",
            "--diag", "1,2,3", "--n", "2", "--samples", "10",
        ) == 64

    def test_negative_seed_usage_error(self, capsys):
        assert run_cli("validate", "--seed", "-1") == 64
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("q_var", ["-1", "0", "nan", "inf"])
    def test_bad_q_var_usage_error(self, q_var, capsys):
        assert run_cli(
            "estimate", "--estimator", "importance_invdet", "--ensemble", "gaussian_iid",
            "--n", "3", "--samples", "10", "--q-var", q_var,
        ) == 64
        assert "--q-var" in capsys.readouterr().err

    def test_bad_q_var_rejected_before_loading_the_matrix(self):
        # a missing file would exit 2 if the matrix were read first
        assert run_cli(
            "estimate", "--estimator", "importance_invdet", "--matrix", "/nonexistent/m.txt",
            "--samples", "10", "--q-var", "-1",
        ) == 64

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        capsys.readouterr()
