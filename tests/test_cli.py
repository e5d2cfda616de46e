import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nqkr import KickSchedule, MomentumLattice, SimConfig, WrapAroundWarning, spectrum_at
from nqkr import _blas, cli, phases, propagator
from nqkr.cli import main, parse_range, rerun_manifest
from nqkr.fileio import read_series_csv


@pytest.fixture
def runner():
    return CliRunner()


SPECTRUM_FILES = ("spectrum.csv", "summary.json", "fidelity.json", "evolved_state.csv",
                  "best_eigenstate.csv")


def only_run_dir(outdir: Path) -> Path:
    dirs = [p for p in Path(outdir).iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def checkout_env(**extra) -> dict:
    """This process's environment, with the checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra}


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

    def test_manifest_config_records_every_field(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["evolve", "--K", "3", "--lambda", "0.5", "--kicks", "5", "--lattice", "32",
             "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((only_run_dir(tmp_path) / "manifest.json").read_text())
        config = cli._build_config(manifest["params"])
        recorded = manifest["config"]

        def assert_recorded(obj, block, extra=()):
            names = [f.name for f in dataclasses.fields(obj)]
            assert set(block) == set(names) | set(extra)
            for name in names:
                value = getattr(obj, name)
                if dataclasses.is_dataclass(value):
                    assert_recorded(value, block[name])
                else:
                    assert block[name] == value

        assert_recorded(config, recorded, extra=("derived",))

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

    @pytest.mark.parametrize("times,message", [
        ("x", "cannot parse list 'x'"),
        ("9", "snapshot times [9] lie outside the kick times 1..5"),
        ("0,5", "snapshot times [0] lie outside the kick times 1..5"),
    ])
    def test_bad_snapshot_times_exit_2_without_run_dir(self, runner, tmp_path, times, message):
        result = runner.invoke(
            main,
            ["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--lattice", "32",
             "--snapshot-times", times, "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not list(tmp_path.iterdir())

    def test_odd_lattice_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["evolve", "--K", "1", "--lambda", "0", "--kicks", "5",
             "--lattice", "33", "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("outdir,reason", [
        ("file", "Not a directory"),
        ("file/sub", "Not a directory"),
        # `new` is made before the over-long name fails, and must be removed
        ("new/" + "x" * 300, "File name too long"),
        # a symlink to a missing directory, such as an unmounted disk
        ("dangling", "File exists"),
        ("dangling/sub", "File exists"),
    ])
    def test_unusable_outdir_exits_2_without_run_dir(self, runner, tmp_path, outdir, reason):
        (tmp_path / "file").write_text("")
        (tmp_path / "dangling").symlink_to(tmp_path / "missing")
        result = runner.invoke(
            main,
            ["evolve", "--K", "1", "--lambda", "0", "--kicks", "3", "--lattice", "32",
             "--outdir", str(tmp_path / outdir)],
        )
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == (
            f"Error: cannot make a run directory in {tmp_path / outdir}: {reason}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "file"]

    def test_a_name_taken_by_a_concurrent_run_is_skipped(self, runner, tmp_path, monkeypatch):
        # another run makes the same <stamp>-evolve directory just before this one does
        raced = []
        mkdir = Path.mkdir

        def racing_mkdir(path, *args, **kwargs):
            if path.name.endswith("-evolve") and not raced:
                raced.append(path)
                mkdir(path, parents=True)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        result = runner.invoke(
            main,
            ["evolve", "--K", "1", "--lambda", "0", "--kicks", "3", "--lattice", "32",
             "--outdir", str(tmp_path / "new")],
        )
        assert result.exit_code == 0, result.output
        assert sorted((tmp_path / "new").iterdir()) == [raced[0], Path(f"{raced[0]}-1")]
        assert not any(raced[0].iterdir())
        assert (Path(f"{raced[0]}-1") / "otoc_series.csv").exists()

    def test_a_failed_run_keeps_a_parent_a_concurrent_run_writes_into(
            self, runner, tmp_path, monkeypatch):
        # the concurrent run makes its directory in `new` after this run made `new`
        mkdir = Path.mkdir
        other = tmp_path / "new" / "other-run"

        def racing_mkdir(path, *args, **kwargs):
            mkdir(path, *args, **kwargs)
            if path.name.endswith("-evolve") and not other.exists():
                mkdir(other)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        monkeypatch.setattr(propagator, "_free_phases",
                            lambda size, hbar: np.full(size, np.nan, dtype=complex))
        result = runner.invoke(
            main,
            ["evolve", "--K", "1", "--lambda", "0", "--kicks", "3", "--lattice", "32",
             "--outdir", str(tmp_path / "new")],
        )
        assert result.exit_code == 1, result.output
        assert "numerical failure: state norm is not finite" in result.output
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["other-run"]


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

    @pytest.mark.parametrize("with_fidelity", [False, True])
    def test_summary_keys_and_health_counts(self, runner, tmp_path, with_fidelity):
        args = ["spectrum", "--K", "8", "--lambda", "2", "--t", "30", "--dim", "128",
                "--outdir", str(tmp_path)]
        result = runner.invoke(main, args + ["--with-fidelity"] * with_fidelity)
        assert result.exit_code == 0, result.output
        run_dir = only_run_dir(tmp_path)
        summary = json.loads((run_dir / "summary.json").read_text())
        keys = {"t", "dim", "max_eps_i", "max_eps_i_tail_weight", "max_valid_eps_i",
                "max_residual", "tail_safe_states", "flagged_states"}
        if with_fidelity:
            keys |= {"best_fidelity", "best_fidelity_eps_i"}
        assert set(summary) == keys
        spec = spectrum_at(
            SimConfig(MomentumLattice(128, 2.89), KickSchedule(K=8.0, lam=2.0), 30), 30, 128
        )
        assert summary["tail_safe_states"] == int(np.count_nonzero(spec.valid_mask()))
        assert summary["flagged_states"] == int(np.count_nonzero(spec.flagged_mask()))
        header = (run_dir / "spectrum.csv").read_text().splitlines()[0]
        assert header == "eps_r,eps_i,residual"


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
    def test_non_positive_jobs_env_is_usage_error(self, runner, tmp_path, jobs):
        result = runner.invoke(
            main, PHASE_DIAGRAM_ARGS + ["--outdir", str(tmp_path)], env={"NQKR_JOBS": jobs}
        )
        assert result.exit_code == 2
        assert "NQKR_JOBS" in result.output and f"'{jobs}'" in result.output
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

    def test_manifest_with_one_field_on_both_axes_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, PHASE_DIAGRAM_ARGS + ["--outdir", str(tmp_path / "orig")])
        assert result.exit_code == 0, result.output
        manifest = json.loads((only_run_dir(tmp_path / "orig") / "manifest.json").read_text())
        manifest["params"]["axis2_name"] = "lambda"
        (tmp_path / "edited.json").write_text(json.dumps(manifest))
        result = runner.invoke(
            main, ["rerun", str(tmp_path / "edited.json"), "--outdir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "both sweep axes set lambda" in result.output
        assert not (tmp_path / "out").exists()


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

    def test_lambda_c_keeps_hbars_that_print_alike(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["norm-scan", "--K", "10", "--lambda-list", "0,0.1",
             "--hbar-list", "1.0000001,1.0000002", "--kicks", "20", "--lattice", "512",
             "--outdir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        data = json.loads((only_run_dir(tmp_path) / "norm_scan.json").read_text())
        assert list(data["lambda_c"]) == ["1.0000001", "1.0000002"]

    def test_requires_lambda_specification(self, runner, tmp_path):
        result = runner.invoke(
            main, ["norm-scan", "--K", "5", "--kicks", "50"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("lists", [["--lambda-list", ","],
                                       ["--lambda-list", "0", "--hbar-list", ","]])
    def test_empty_scan_list_is_usage_error(self, runner, tmp_path, lists):
        result = runner.invoke(
            main, ["norm-scan", "--K", "10", *lists, "--kicks", "20", "--lattice", "64",
                   "--outdir", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        assert "at least one lambda and one hbar" in result.output
        assert not list(tmp_path.iterdir())

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
     {"K", "lam", "kicks", "eta", "hbar", "epsilon", "lattice", "snapshot_times"}),
    (["spectrum", "--K", "3", "--lambda", "0.5", "--t", "2", "--dim", "16"],
     {"K", "lam", "t", "dim", "with_fidelity", "eta", "hbar"}),
    (["norm-scan", "--K", "3", "--lambda-list", "0,0.2", "--kicks", "20", "--lattice", "64"],
     {"K", "lambdas", "hbars", "kicks", "tolerance", "eta", "lattice"}),
    (PHASE_DIAGRAM_ARGS + ["--jobs", "1"],
     {"axis1_name", "axis1_values", "axis2_name", "axis2_values", "kicks", "gnuplot", "K",
      "lam", "eta", "hbar", "epsilon", "lattice"}),
]


@pytest.mark.parametrize(
    "args,keys", MANIFEST_PARAM_KEYS, ids=[args[0] for args, _ in MANIFEST_PARAM_KEYS]
)
def test_manifest_param_keys(runner, tmp_path, args, keys):
    result = runner.invoke(main, args + ["--outdir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((only_run_dir(tmp_path) / "manifest.json").read_text())
    assert set(manifest["params"]) == keys
    assert set(cli._COMMANDS[args[0]][1]) == keys
    # a sweep runs many configs, so no one config stands in for it
    assert (manifest["config"] is None) == (args[0] in ("norm-scan", "phase-diagram"))


class TestRerunCommand:
    def rerun(self, runner, manifest, outdir):
        result = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(outdir)])
        assert result.exit_code == 0, result.output
        return only_run_dir(outdir)

    def test_spectrum_with_fidelity_reruns_byte_identical(self, runner, tmp_path):
        args = ["spectrum", "--K", "8", "--lambda", "2", "--t", "30", "--dim", "128",
                "--with-fidelity", "--outdir", str(tmp_path / "orig")]
        assert runner.invoke(main, args).exit_code == 0
        orig = only_run_dir(tmp_path / "orig")
        again = self.rerun(runner, orig / "manifest.json", tmp_path / "again")
        for name in SPECTRUM_FILES:
            assert (orig / name).read_bytes() == (again / name).read_bytes()

    def test_reproduce_reruns_byte_identical(self, runner, tmp_path):
        args = ["reproduce", "fig1b", "--outdir", str(tmp_path / "orig")]
        assert runner.invoke(main, args).exit_code == 0
        orig = only_run_dir(tmp_path / "orig")
        again = self.rerun(runner, orig / "manifest.json", tmp_path / "again")
        assert again.name.endswith("-reproduce-fig1b")
        for name in ("profile_K4_t1000.csv", "profile_K10_t1000.csv", "checks.txt"):
            assert (orig / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("text,message", [
        (json.dumps({"schema": "nqkr.run-manifest/1", "command": "teleport", "params": {}}),
         "unknown manifest command 'teleport'"),
        (json.dumps({"schema": "nqkr.run-manifest/0", "command": "evolve", "params": {}}),
         "unsupported manifest schema 'nqkr.run-manifest/0'"),
        ("not json {", "Expecting value"),
        ("[1, 2]", "manifest must be a JSON object, got list"),
        (json.dumps({"schema": "nqkr.run-manifest/1", "command": "evolve"}),
         "manifest has no params object"),
        (json.dumps({"schema": "nqkr.run-manifest/1", "command": "spectrum",
                     "params": {"K": 1.0, "lam": 0.0, "t": 1}}),
         "manifest params lack 'dim', 'eta', 'hbar'"),
        (json.dumps({"schema": "nqkr.run-manifest/1", "command": "reproduce",
                     "params": {"figure_id": "fig9z"}}),
         "unknown figure id 'fig9z'"),
        (json.dumps({"schema": "nqkr.run-manifest/1", "command": ["evolve"], "params": {}}),
         "unknown manifest command ['evolve']"),
        (json.dumps({"schema": "nqkr.run-manifest/1", "command": {"a": 1}, "params": {}}),
         "unknown manifest command {'a': 1}"),
    ], ids=["unknown-command", "wrong-schema", "not-json", "not-object", "no-params",
            "partial-params", "unknown-figure", "list-command", "object-command"])
    def test_malformed_manifest_exits_2_without_run_dir(self, runner, tmp_path, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        result = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_misspelt_key_exits_2_without_run_dir(self, runner, tmp_path):
        args = ["spectrum", "--K", "3", "--lambda", "0.5", "--t", "2", "--dim", "16",
                "--with-fidelity", "--outdir", str(tmp_path / "orig")]
        assert runner.invoke(main, args).exit_code == 0
        manifest = json.loads((only_run_dir(tmp_path / "orig") / "manifest.json").read_text())
        params = manifest["params"]
        params["with_fidelty"] = params.pop("with_fidelity")
        params["banana"] = 7
        (tmp_path / "edited.json").write_text(json.dumps(manifest))
        result = runner.invoke(
            main, ["rerun", str(tmp_path / "edited.json"), "--outdir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert ("manifest params hold keys spectrum does not read: 'banana', 'with_fidelty'"
                in result.output)
        assert not (tmp_path / "out").exists()


# A key no run reads, on every command's manifest (a reproduce run is its
# figure id alone), and the worker count, which only phase-diagram ever wrote.
MANIFEST_ARGS = [args for args, _ in MANIFEST_PARAM_KEYS] + [["reproduce", "fig1b"]]
UNREAD_PARAMS = [(args, "bogus") for args in MANIFEST_ARGS] + [
    (args, "jobs") for args in MANIFEST_ARGS if args[0] != "phase-diagram"]


@pytest.mark.parametrize(
    "args,key", UNREAD_PARAMS, ids=[f"{args[0]}-{key}" for args, key in UNREAD_PARAMS])
def test_unread_manifest_param_exits_2_without_run_dir(runner, tmp_path, args, key):
    if args[0] == "reproduce":
        manifest = {"schema": cli.MANIFEST_SCHEMA, "command": "reproduce",
                    "params": {"figure_id": args[1]}}
    else:
        assert runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")]).exit_code == 0
        manifest = json.loads((only_run_dir(tmp_path / "orig") / "manifest.json").read_text())
    manifest["params"][key] = 1
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    result = runner.invoke(
        main, ["rerun", str(tmp_path / "edited.json"), "--outdir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"manifest params hold keys {args[0]} does not read: '{key}'" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", MANIFEST_ARGS, ids=[args[0] for args in MANIFEST_ARGS])
def test_rerun_prints_what_its_command_printed(runner, tmp_path, monkeypatch, args):
    # the rerun's phase diagram takes its worker count from NQKR_JOBS; one keeps it serial
    monkeypatch.setenv("NQKR_JOBS", "1")
    first = runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")])
    assert first.exit_code == 0, first.output
    manifest = only_run_dir(tmp_path / "orig") / "manifest.json"
    again = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(tmp_path / "again")])
    assert again.exit_code == 0, again.output
    printed = [[line for line in result.output.splitlines() if not line.startswith("wrote ")]
               for result in (first, again)]
    assert printed[0] == printed[1]


SEED_MANIFESTS = sorted((Path(__file__).parent / "data").glob("seed-*-manifest.json"))


@pytest.mark.parametrize("path", SEED_MANIFESTS, ids=[p.name for p in SEED_MANIFESTS])
def test_seed_manifest_reruns(runner, tmp_path, path):
    # written by the first release, which recorded kick_divisor, phase-diagram's jobs,
    # an epsilon that no spectrum or norm-scan file reads, and norm-scan's hbar,
    # which its hbars replace
    result = runner.invoke(main, ["rerun", str(path), "--outdir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    # the first release recorded no environment, so rerun has nothing to compare
    assert "note:" not in result.stderr
    seed = json.loads(path.read_text())
    legacy = {"kick_divisor", "jobs"}
    if seed["command"] in ("spectrum", "norm-scan"):
        legacy.add("epsilon")
    if seed["command"] == "norm-scan":
        legacy.add("hbar")
    params = json.loads((only_run_dir(tmp_path) / "manifest.json").read_text())["params"]
    assert params == {k: v for k, v in seed["params"].items() if k not in legacy}


def test_seed_manifests_cover_four_commands():
    assert {json.loads(p.read_text())["command"] for p in SEED_MANIFESTS} == {
        "evolve", "spectrum", "norm-scan", "phase-diagram"}


@pytest.mark.parametrize("args", [args for args, _ in MANIFEST_PARAM_KEYS[1:3]],
                         ids=["spectrum", "norm-scan"])
def test_rerun_drops_an_unread_epsilon_whatever_its_value(runner, tmp_path, args):
    assert runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")]).exit_code == 0
    orig = only_run_dir(tmp_path / "orig")
    manifest = json.loads((orig / "manifest.json").read_text())
    manifest["params"]["epsilon"] = 3e-3
    (tmp_path / "legacy.json").write_text(json.dumps(manifest))
    result = runner.invoke(
        main, ["rerun", str(tmp_path / "legacy.json"), "--outdir", str(tmp_path / "again")])
    assert result.exit_code == 0, result.output
    again = only_run_dir(tmp_path / "again")
    assert "epsilon" not in json.loads((again / "manifest.json").read_text())["params"]
    for name in manifest["outputs"]:
        if name != "manifest.json":
            assert (orig / name).read_bytes() == (again / name).read_bytes(), name


def test_rerun_into_an_unusable_outdir_exits_2(runner, tmp_path):
    args = ["evolve", "--K", "1", "--lambda", "0", "--kicks", "3", "--lattice", "32"]
    assert runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")]).exit_code == 0
    manifest = only_run_dir(tmp_path / "orig") / "manifest.json"
    (tmp_path / "file").write_text("")
    result = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(tmp_path / "file")])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == (
        f"Error: cannot make a run directory in {tmp_path / 'file'}: Not a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "orig"]


def test_norm_scan_rerun_drops_a_recorded_hbar(runner, tmp_path):
    # older norm-scan manifests recorded the --hbar default beside the hbars they ran
    args = ["norm-scan", "--K", "3", "--lambda-list", "0,0.2", "--hbar-list", "0.5",
            "--kicks", "20", "--lattice", "256"]
    assert runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")]).exit_code == 0
    orig = only_run_dir(tmp_path / "orig")
    manifest = json.loads((orig / "manifest.json").read_text())
    assert "hbar" not in manifest["params"]
    (tmp_path / "legacy.json").write_text(
        json.dumps({**manifest, "params": {**manifest["params"], "hbar": 2.89}}))
    result = runner.invoke(
        main, ["rerun", str(tmp_path / "legacy.json"), "--outdir", str(tmp_path / "again")])
    assert result.exit_code == 0, result.output
    again = only_run_dir(tmp_path / "again")
    assert json.loads((again / "manifest.json").read_text())["params"] == manifest["params"]
    for name in manifest["outputs"]:
        if name != "manifest.json":
            assert (orig / name).read_bytes() == (again / name).read_bytes(), name


def evolve_manifest(**params):
    """A hand-written evolve manifest; params override its defaults."""
    return {"schema": cli.MANIFEST_SCHEMA, "command": "evolve", "params": {
        "K": 3.0, "lam": 0.5, "kicks": 5, "eta": 0.75, "hbar": 2.89, "epsilon": 1e-5,
        "lattice": 32, "snapshot_times": [5], **params}}


@pytest.mark.parametrize(
    "args", [args for args, _ in MANIFEST_PARAM_KEYS],
    ids=[args[0] for args, _ in MANIFEST_PARAM_KEYS],
)
def test_legacy_kick_divisor(runner, tmp_path, args):
    # older manifests carry kick_divisor: 1 is the same run, and the key is
    # dropped; 2 is the run with K and lambda halved, which rerun refuses
    assert runner.invoke(main, args + ["--outdir", str(tmp_path / "orig")]).exit_code == 0
    orig = only_run_dir(tmp_path / "orig")
    manifest = json.loads((orig / "manifest.json").read_text())

    def rerun_with(divisor):
        legacy = tmp_path / f"legacy{divisor:g}.json"
        legacy.write_text(json.dumps(
            {**manifest, "params": {**manifest["params"], "kick_divisor": divisor}}))
        outdir = tmp_path / f"again{divisor:g}"
        return runner.invoke(main, ["rerun", str(legacy), "--outdir", str(outdir)]), outdir

    result, outdir = rerun_with(1.0)
    assert result.exit_code == 0, result.output
    again = only_run_dir(outdir)
    assert json.loads((again / "manifest.json").read_text())["params"] == manifest["params"]
    for name in manifest["outputs"]:
        assert (orig / name).read_bytes() == (again / name).read_bytes(), name

    result, outdir = rerun_with(2.0)
    assert result.exit_code == 2, result.output
    assert "manifest kick_divisor 2.0 is no longer supported" in result.output
    assert "--K and --lambda (or their lists and ranges) divided by 2.0" in result.output
    assert not outdir.exists()


class TestEnvironment:
    def spectrum_run(self, runner, outdir):
        args = ["spectrum", "--K", "3", "--lambda", "0.5", "--t", "2", "--dim", "16",
                "--with-fidelity", "--outdir", str(outdir)]
        assert runner.invoke(main, args).exit_code == 0
        return only_run_dir(outdir)

    def test_manifest_records_the_environment(self, runner, tmp_path):
        manifest = json.loads((self.spectrum_run(runner, tmp_path) / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"],
            "blas_threads": _blas.thread_count(), "cpu_count": os.cpu_count()}
        keys = list(manifest)
        assert keys.index("environment") == keys.index("tool_version") + 1

    def test_rerun_in_the_same_environment_prints_no_note(self, runner, tmp_path):
        orig = self.spectrum_run(runner, tmp_path / "orig")
        result = runner.invoke(
            main, ["rerun", str(orig / "manifest.json"), "--outdir", str(tmp_path / "again")])
        assert result.exit_code == 0, result.output
        assert "note:" not in result.stderr

    def test_rerun_names_each_differing_field_and_runs(self, runner, tmp_path):
        orig = self.spectrum_run(runner, tmp_path / "orig")
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["environment"].update(blas_threads=64, cpu_count=128)
        del manifest["environment"]["numpy"]
        (tmp_path / "edited.json").write_text(json.dumps(manifest))
        result = runner.invoke(
            main, ["rerun", str(tmp_path / "edited.json"), "--outdir", str(tmp_path / "again")])
        assert result.exit_code == 0, result.output
        notes = [line for line in result.stderr.splitlines() if line.startswith("note:")]
        assert notes == [
            "note: this process differs from the manifest's environment in "
            f"numpy null -> {json.dumps(np.__version__)}, "
            f"blas_threads 64 -> {json.dumps(_blas.thread_count())}, "
            f"cpu_count 128 -> {os.cpu_count()}; the last digits may differ"]
        again = only_run_dir(tmp_path / "again")
        for name in SPECTRUM_FILES:
            assert (orig / name).read_bytes() == (again / name).read_bytes(), name


def test_manifest_lattice_over_budget_exits_2_without_run_dir(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(evolve_manifest(lattice=17179869184)))
    result = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "lattice size 17179869184 exceeds the budget 4194304" in result.output
    assert not (tmp_path / "out").exists()


def test_hand_written_manifest_reruns(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(evolve_manifest()))
    result = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output


# Each wrong JSON type in an otherwise valid manifest: rerun checks the types
# before it builds a config, so none ends in a TypeError or a coerced run.
WRONG_TYPED_PARAMS = [
    ("K", "x", "a number"),
    ("K", [1, 2], "a number"),
    ("K", True, "a number"),
    ("hbar", None, "a number"),
    ("kicks", 2.5, "an integer"),
    ("kicks", "5", "an integer"),
    ("kicks", True, "an integer"),
    ("lattice", "abc", "an integer"),
    ("lattice", 32.0, "an integer"),
    ("snapshot_times", "5", "a list of integers"),
]


@pytest.mark.parametrize(
    "key,value,kind", WRONG_TYPED_PARAMS,
    ids=[f"{key}-{json.dumps(value)}" for key, value, _ in WRONG_TYPED_PARAMS],
)
def test_wrong_typed_manifest_param_exits_2_without_run_dir(runner, tmp_path, key, value, kind):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(evolve_manifest(**{key: value})))
    result = runner.invoke(main, ["rerun", str(manifest), "--outdir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"manifest param {key!r} must be {kind}, got {json.dumps(value)}" in result.output
    assert not (tmp_path / "out").exists()


# One bad argument per command: the library validator's message reaches the
# user as a usage error (exit 2), and no run directory is left behind.
INVALID_INPUTS = [
    (["phase-diagram", "--plane", "eta-K", "--eta-range", "0.1:1:2", "--k-range", "1:10:2",
      "--kicks", "500", "--lattice", "33"], "lattice size must be even and >= 2, got 33"),
    (["phase-diagram", "--plane", "eta-K", "--eta-range", "0.1:1:2", "--k-range", "1:10:2",
      "--kicks", "100", "--lattice", "64"], "phase diagrams need at least 500 kicks"),
    (["norm-scan", "--K", "5", "--lambda-list", "0.1", "--kicks", "50", "--lattice", "31"],
     "lattice size must be even and >= 2, got 31"),
    (["norm-scan", "--K", "5", "--lambda-list", "0.1", "--kicks", "5", "--lattice", "64"],
     "holds fewer than 10 kicks"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "-1", "--lattice", "32"],
     "kick_count must be >= 0, got -1"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--eta", "2"],
     "eta must lie in [0, 1], got 2.0"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--hbar", "0"],
     "hbar_eff must be positive, got 0.0"),
    # the half-phase run is the one with K and lambda halved; no option sets it
    (["spectrum", "--K", "1", "--lambda", "0", "--t", "1", "--dim", "16",
      "--kick-divisor", "2"], "--kick-divisor"),
    (["spectrum", "--K", "1", "--lambda", "0", "--t", "-1", "--dim", "16"],
     "kick_count must be >= 0, got -1"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--lattice", "32",
      "--epsilon", "0.5"], "epsilon_shift must be a small positive number, got 0.5"),
    (["evolve", "--K", "nan", "--lambda", "0", "--kicks", "5", "--lattice", "32"],
     "K must be finite and >= 0, got nan"),
    (["evolve", "--K", "inf", "--lambda", "0", "--kicks", "5", "--lattice", "32"],
     "K must be finite and >= 0, got inf"),
    (["evolve", "--K", "1", "--lambda", "nan", "--kicks", "5", "--lattice", "32"],
     "lam must be finite and >= 0, got nan"),
    (["evolve", "--K", "1", "--lambda", "inf", "--kicks", "5", "--lattice", "32"],
     "lam must be finite and >= 0, got inf"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--lattice", "32",
      "--hbar", "inf"], "hbar_eff must be finite, got inf"),
    (["spectrum", "--K", "1", "--lambda", "0", "--t", "1", "--dim", "4096"],
     "dimension 4096 exceeds the dense eigensolver budget 2048"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--lattice", "32",
      "--hbar", "1e308"], "hbar_eff 1e+308 overflows p^2 = (n*hbar)^2 on 32 sites"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--lattice", "32",
      "--hbar", "1e200"], "hbar_eff 1e+200 overflows p^2 = (n*hbar)^2 on 32 sites"),
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "5", "--lattice", "32",
      "--hbar", "1e-310"], "kick exponent (1+eta)*max(K, lam)/hbar = inf is not finite"),
    (["norm-scan", "--K", "5", "--lambda-list", "0.1", "--kicks", "20", "--lattice", "32",
      "--tolerance", "nan"], "tolerance must be finite and >= 0, got nan"),
    (["norm-scan", "--K", "5", "--lambda-list", "0.1", "--kicks", "20", "--lattice", "32",
      "--tolerance", "-2"], "tolerance must be finite and >= 0, got -2.0"),
    (["norm-scan", "--K", "5", "--lambda-list", "0", "--lambda-range", "0:0.1:3",
      "--kicks", "20", "--lattice", "32"], "give --lambda-list or --lambda-range, not both"),
    # 256 GiB of amplitudes: refused before anything is allocated
    (["evolve", "--K", "1", "--lambda", "0", "--kicks", "1", "--lattice", "17179869184"],
     "lattice size 17179869184 exceeds the budget 4194304"),
    # flags that the run would ignore
    (["phase-diagram", "--plane", "eta-K", "--lambda-range", "0:1:2", "--kicks", "500",
      "--lattice", "64"], "--plane eta-K does not read --lambda-range"),
    (["phase-diagram", "--plane", "eta-K", "--eta", "0.3", "--kicks", "500",
      "--lattice", "64"], "--plane eta-K does not read --eta"),
    (["phase-diagram", "--plane", "lambda-K", "--eta-range", "0.1:1:2", "--kicks", "500",
      "--lattice", "64"], "--plane lambda-K does not read --eta-range"),
    (["norm-scan", "--K", "5", "--lambda-list", "0.1", "--hbar", "1", "--hbar-list", "0.5",
      "--kicks", "20", "--lattice", "32"], "give --hbar or --hbar-list, not both"),
    # a repeated value would only run the same point again
    (["phase-diagram", "--plane", "lambda-K", "--lambda-range", "0:3:2", "--k-range", "5:5:3",
      "--kicks", "500", "--lattice", "64"], "axis K values repeat: 5.0, 5.0, 5.0"),
    (["phase-diagram", "--plane", "eta-K", "--eta-range", "0.5:0.5:2", "--kicks", "500",
      "--lattice", "64"], "axis eta values repeat: 0.5, 0.5"),
    (["norm-scan", "--K", "3", "--lambda-list", "0,0", "--hbar-list", "2.89,2.89",
      "--kicks", "20", "--lattice", "64"], "lambda values repeat: 0.0, 0.0"),
    (["norm-scan", "--K", "3", "--lambda-list", "0,0.2", "--hbar-list", "2.89,2.89",
      "--kicks", "20", "--lattice", "64"], "hbar values repeat: 2.89, 2.89"),
]


@pytest.mark.parametrize(
    "args,message", INVALID_INPUTS,
    ids=[f"{args[0]}-{i}" for i, (args, _) in enumerate(INVALID_INPUTS)],
)
def test_invalid_input_exits_2_without_run_dir(runner, tmp_path, args, message):
    result = runner.invoke(main, args + ["--outdir", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not list(tmp_path.iterdir())


def test_short_norm_scan_exits_2_before_any_point_runs(runner, tmp_path, monkeypatch):
    runs = []
    record_series = phases.record_series
    monkeypatch.setattr(phases, "record_series",
                        lambda *args: runs.append(args) or record_series(*args))
    result = runner.invoke(main, ["norm-scan", "--K", "3", "--lambda-list", "0", "--kicks", "5",
                                  "--lattice", "64", "--outdir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "Error: norm-growth window (2.5, 5.0) holds fewer than 10 kicks" in result.output
    assert not (tmp_path / "out").exists()
    assert runs == []


def test_numerical_failure_exits_1_without_run_dir(runner, tmp_path, monkeypatch):
    # a nan free phase, which the observer's norm check catches
    monkeypatch.setattr(propagator, "_free_phases",
                        lambda size, hbar: np.full(size, np.nan, dtype=complex))
    result = runner.invoke(
        main,
        ["evolve", "--K", "1", "--lambda", "0", "--kicks", "5",
         "--lattice", "32", "--outdir", str(tmp_path)],
    )
    assert result.exit_code == 1, result.output
    assert "numerical failure: state norm is not finite" in result.output
    assert "(at kick t=1)" in result.output
    assert not list(tmp_path.iterdir())


def test_log_norm_overflow_exits_1_without_run_dir(runner, tmp_path):
    # log_norm grows by ~1e308 a kick and overflows at t=3; the lattice wraps at t=1
    with pytest.warns(WrapAroundWarning):
        result = runner.invoke(
            main,
            ["evolve", "--K", "0", "--lambda", "5e307", "--hbar", "1",
             "--kicks", "3", "--lattice", "32", "--outdir", str(tmp_path)],
        )
    assert result.exit_code == 1, result.output
    assert "numerical failure: accumulated log-norm inf is not finite" in result.output
    assert "(at kick t=3)" in result.output
    assert not list(tmp_path.iterdir())


def test_residual_overflow_exits_1_without_run_dir(runner, tmp_path):
    # U(1) reaches ~1e210, so the squares in the residual norms overflow
    result = runner.invoke(
        main,
        ["spectrum", "--K", "10", "--lambda", "5", "--hbar", "0.01", "--t", "1",
         "--dim", "64", "--outdir", str(tmp_path)],
    )
    assert result.exit_code == 1, result.output
    assert "numerical failure: eigenpair residuals overflow" in result.output
    assert not list(tmp_path.iterdir())


def test_every_command_is_rerunnable():
    assert set(main.commands) - {"rerun"} == set(cli._COMMANDS)


class TestReproduceCommand:
    def test_unknown_figure_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "fig9z"])
        assert result.exit_code == 2


def test_python_m_nqkr_runs_from_checkout():
    result = subprocess.run([sys.executable, "-m", "nqkr", "--help"],
                            capture_output=True, text=True, env=checkout_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Usage: python -m nqkr" in result.stdout
    assert "spectrum" in result.stdout


def test_spectrum_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # eig runs on one OpenBLAS thread whatever the process default, so the
    # files of a frozen operator agree byte for byte between 1 and 2 threads
    runs = {}
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "nqkr", "spectrum", "--K", "10", "--lambda", "5",
             "--t", "200", "--dim", "256", "--with-fidelity", "--outdir", str(tmp_path / threads)],
            capture_output=True, text=True, env=checkout_env(OPENBLAS_NUM_THREADS=threads),
            timeout=300)
        assert result.returncode == 0, result.stderr
        runs[threads] = only_run_dir(tmp_path / threads)
    for name in SPECTRUM_FILES:
        assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name


# What the runtime-dependencies CI job runs after `pip install .` without extras
RUNTIME_COMMANDS = [
    ["evolve", "--K", "3", "--lambda", "0.5", "--kicks", "5", "--lattice", "32"],
    ["spectrum", "--K", "3", "--lambda", "0.5", "--t", "2", "--dim", "16", "--with-fidelity"],
    ["norm-scan", "--K", "3", "--lambda-list", "0,0.2", "--kicks", "20", "--lattice", "64"],
    PHASE_DIAGRAM_ARGS + ["--jobs", "2"],
    ["reproduce", "fig1b"],
]


def test_commands_load_no_test_only_dependency(tmp_path):
    # scipy, hypothesis and pytest are test extras, so no command may import them
    script = (
        "import json, sys\n"
        "from nqkr.cli import main\n"
        f"for args in {RUNTIME_COMMANDS!r}:\n"
        f"    main(args + ['--outdir', {str(tmp_path)!r}], standalone_mode=False)\n"
        "extras = ('scipy', 'hypothesis', 'pytest')\n"
        "print(json.dumps(sorted(m for m in extras if m in sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=checkout_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == len(RUNTIME_COMMANDS)
    assert result.stdout.splitlines()[-1] == "[]"


def test_only_a_pooled_sweep_loads_multiprocessing(tmp_path):
    # a serial sweep runs in-process, so only phase-diagram --jobs 2 starts a pool
    pool_modules = ["multiprocessing", "concurrent.futures.process"]
    serial = [args for args in RUNTIME_COMMANDS if args[0] != "phase-diagram"]
    script = (
        "import json, sys\n"
        "from nqkr.cli import main\n"
        f"for args in {serial + [PHASE_DIAGRAM_ARGS + ['--jobs', '2']]!r}:\n"
        f"    main(args + ['--outdir', {str(tmp_path)!r}], standalone_mode=False)\n"
        f"    print('loaded', json.dumps([m for m in {pool_modules!r} if m in sys.modules]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=checkout_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    loaded = [json.loads(line.split(" ", 1)[1]) for line in result.stdout.splitlines()
              if line.startswith("loaded ")]
    assert loaded == [[]] * len(serial) + [pool_modules]
