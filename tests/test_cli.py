import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nqkr.cli import main, parse_range, rerun_manifest
from nqkr.fileio import read_series_csv


@pytest.fixture
def runner():
    return CliRunner()


def only_run_dir(outdir: Path) -> Path:
    dirs = [p for p in Path(outdir).iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestParseRange:
    def test_inclusive_endpoints(self):
        vals = parse_range("0:5:11")
        assert vals[0] == 0.0 and vals[-1] == 5.0 and len(vals) == 11

    def test_bad_syntax_rejected(self):
        import click

        with pytest.raises(click.BadParameter):
            parse_range("0-5-11")


class TestEvolveCommand:
    def test_zero_potential_series_is_zero(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["evolve", "--K", "0", "--lambda", "0", "--kicks", "10",
             "--lattice", "32", "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        series = read_series_csv(run_dir / "otoc_series.csv")
        assert np.all(np.abs(series.c_exact) < 1e-15)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema"] == "nqkr.run-manifest/1"
        assert "otoc_series.csv" in manifest["outputs"]
        assert manifest["config"]["derived"]["kappa"] == 1.3247179572447460

    def test_snapshots_written(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["evolve", "--K", "3", "--lambda", "0.5", "--kicks", "20",
             "--lattice", "128", "--snapshot-times", "10,20",
             "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        assert (run_dir / "momentum_t10.csv").exists()
        assert (run_dir / "momentum_t20.csv").exists()

    def test_reruns_byte_identical(self, runner, tmp_path):
        args = ["evolve", "--K", "4", "--lambda", "1.0", "--kicks", "30",
                "--lattice", "128"]
        r1 = runner.invoke(main, args + ["--outdir", str(tmp_path / "a")])
        r2 = runner.invoke(main, args + ["--outdir", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        csv_a = (only_run_dir(tmp_path / "a") / "otoc_series.csv").read_bytes()
        csv_b = (only_run_dir(tmp_path / "b") / "otoc_series.csv").read_bytes()
        assert csv_a == csv_b

    def test_manifest_round_trip(self, runner, tmp_path):
        args = ["evolve", "--K", "5", "--lambda", "0.7", "--kicks", "25",
                "--lattice", "128", "--snapshot-times", "25",
                "--outdir", str(tmp_path / "orig")]
        assert runner.invoke(main, args).exit_code == 0
        orig = only_run_dir(tmp_path / "orig")
        rerun_dir = rerun_manifest(orig / "manifest.json", str(tmp_path / "again"))
        for name in ("otoc_series.csv", "momentum_t25.csv"):
            assert (orig / name).read_bytes() == (rerun_dir / name).read_bytes()

    def test_missing_required_flag_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["evolve", "--K", "1", "--kicks", "5"])
        assert result.exit_code == 2

    def test_odd_lattice_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["evolve", "--K", "1", "--lambda", "0", "--kicks", "5",
             "--lattice", "33", "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 2


class TestSpectrumCommand:
    def test_unitary_spectrum_output(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["spectrum", "--K", "10", "--lambda", "0", "--t", "1",
             "--dim", "32", "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        data = np.loadtxt(run_dir / "spectrum.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1])) < 1e-10
        summary = json.loads((run_dir / "summary.json").read_text())
        assert abs(summary["max_eps_i"]) < 1e-10

    def test_with_fidelity_outputs(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["spectrum", "--K", "8", "--lambda", "2", "--t", "30",
             "--dim", "128", "--with-fidelity", "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        for name in ("fidelity.json", "evolved_state.csv", "best_eigenstate.csv"):
            assert (run_dir / name).exists()

    def test_odd_dim_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["spectrum", "--K", "10", "--lambda", "0", "--t", "1", "--dim", "7"],
        )
        assert result.exit_code == 2


PHASE_DIAGRAM_ARGS = ["phase-diagram", "--plane", "lambda-K", "--lambda-range", "0:3:2",
                      "--k-range", "4:8:2", "--kicks", "500", "--lattice", "1024"]


class TestPhaseDiagramCommand:
    def test_tiny_grid_runs(self, runner, tmp_path):
        result = runner.invoke(
            main, PHASE_DIAGRAM_ARGS + ["--jobs", "1", "--gnuplot", "--outdir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        for name in ("phase_diagram.csv", "phase_diagram.json",
                     "phase_diagram.matrix"):
            assert (run_dir / name).exists()
        data = np.loadtxt(run_dir / "phase_diagram.csv", delimiter=",", skiprows=1)
        assert data.shape == (4, 3)
        assert np.all((data[:, 2] >= 0) & (data[:, 2] <= 1))

    def test_one_by_one_grid_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["phase-diagram", "--plane", "eta-K", "--eta-range", "0.5:0.5:1",
             "--k-range", "1:10:10", "--kicks", "500"],
        )
        assert result.exit_code == 2

    def test_non_integer_jobs_env_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["phase-diagram", "--plane", "lambda-K", "--lambda-range", "0:3:2",
             "--k-range", "4:8:2", "--kicks", "500", "--lattice", "64",
             "--outdir", str(tmp_path)],
            env={"NQKR_JOBS": "two"},
        )
        assert result.exit_code == 2
        assert "NQKR_JOBS" in result.output and "'two'" in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_usage_error(self, runner, tmp_path, jobs):
        result = runner.invoke(
            main, PHASE_DIAGRAM_ARGS + ["--jobs", jobs, "--outdir", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert not list(tmp_path.iterdir())

    def test_manifest_reruns_byte_identical(self, runner, tmp_path):
        args = PHASE_DIAGRAM_ARGS + ["--jobs", "2", "--gnuplot"]
        result = runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")])
        assert result.exit_code == 0, result.output
        orig = only_run_dir(tmp_path / "orig")
        # a manifest written before the worker count left params still reruns
        old = json.loads((orig / "manifest.json").read_text())
        old["params"]["jobs"] = 2
        (tmp_path / "old.json").write_text(json.dumps(old))
        for manifest, outdir in ((orig / "manifest.json", "again"), (tmp_path / "old.json", "old")):
            again = rerun_manifest(manifest, str(tmp_path / outdir))
            for name in ("phase_diagram.csv", "phase_diagram.json", "phase_diagram.matrix"):
                assert (orig / name).read_bytes() == (again / name).read_bytes()


NORM_SCAN_ARGS = ["norm-scan", "--K", "5", "--lambda-list", "0.3,0,0.1",
                  "--hbar-list", "2.89,1.5", "--kicks", "40", "--lattice", "256"]


class TestNormScanCommand:
    def test_unitary_point_reports_unity(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["norm-scan", "--K", "5", "--lambda-list", "0,0.4",
             "--kicks", "80", "--lattice", "256", "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        data = json.loads((run_dir / "norm_scan.json").read_text())
        lam0 = [r for r in data["rows"] if r["lambda"] == 0.0][0]
        assert abs(np.expm1(lam0["log_mean_norm"])) < 1e-8
        assert data["lambda_c"]["2.89"] == 0.4
        assert (run_dir / "norm_scan.csv").exists()

    def test_requires_lambda_specification(self, runner, tmp_path):
        result = runner.invoke(
            main, ["norm-scan", "--K", "5", "--kicks", "50"]
        )
        assert result.exit_code == 2

    def test_csv_matches_json_rows(self, runner, tmp_path):
        result = runner.invoke(main, NORM_SCAN_ARGS + ["--outdir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        rows = json.loads((run_dir / "norm_scan.json").read_text())["rows"]
        expected = "hbar,lambda,mu,r_squared,log_mean_norm\n" + "".join(
            f"{r['hbar']:.15g},{r['lambda']:.15g},{r['fit']['mu']:.15g},"
            f"{r['fit']['r_squared']:.15g},{r['log_mean_norm']:.15g}\n"
            for r in rows
        )
        assert len(rows) == 6
        assert (run_dir / "norm_scan.csv").read_bytes() == expected.encode()

    def test_manifest_reruns_byte_identical(self, runner, tmp_path):
        result = runner.invoke(main, NORM_SCAN_ARGS + ["--outdir", str(tmp_path / "orig")])
        assert result.exit_code == 0, result.output
        orig = only_run_dir(tmp_path / "orig")
        again = rerun_manifest(orig / "manifest.json", str(tmp_path / "again"))
        for name in ("norm_scan.csv", "norm_scan.json"):
            assert (orig / name).read_bytes() == (again / name).read_bytes()
        params = [json.loads((d / "manifest.json").read_text())["params"] for d in (orig, again)]
        assert params[0] == params[1]


# The manifest params of each command: rerun_manifest feeds them back to the
# runner, so a changed key set would stop existing manifests from rerunning.
MANIFEST_PARAM_KEYS = [
    (["evolve", "--K", "3", "--lambda", "0.5", "--kicks", "5", "--lattice", "32",
      "--snapshot-times", "5"],
     {"K", "lam", "kicks", "eta", "hbar", "epsilon", "lattice", "kick_divisor",
      "snapshot_times"}),
    (["spectrum", "--K", "3", "--lambda", "0.5", "--t", "2", "--dim", "16"],
     {"K", "lam", "t", "dim", "with_fidelity", "eta", "hbar", "epsilon", "kick_divisor"}),
    (["norm-scan", "--K", "3", "--lambda-list", "0,0.2", "--kicks", "20", "--lattice", "64"],
     {"K", "lambdas", "hbars", "kicks", "tolerance", "eta", "hbar", "epsilon", "lattice",
      "kick_divisor"}),
    (PHASE_DIAGRAM_ARGS + ["--jobs", "1"],
     {"axis1_name", "axis1_values", "axis2_name", "axis2_values", "kicks", "gnuplot", "K",
      "lam", "eta", "hbar", "epsilon", "lattice", "kick_divisor"}),
]


@pytest.mark.parametrize(
    "args,keys", MANIFEST_PARAM_KEYS, ids=[args[0] for args, _ in MANIFEST_PARAM_KEYS]
)
def test_manifest_param_keys(runner, tmp_path, args, keys):
    result = runner.invoke(main, args + ["--outdir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((only_run_dir(tmp_path) / "manifest.json").read_text())
    assert set(manifest["params"]) == keys


class TestReproduceCommand:
    def test_unknown_figure_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "fig9z"])
        assert result.exit_code == 2
