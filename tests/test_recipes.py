import ast
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import nqkr.cli
import nqkr.recipes
from nqkr import WrapAroundWarning, record_series
from nqkr.cli import main
from nqkr.phases import norm_scan
from nqkr.recipes import FIGURE_IDS, RECIPES, run_recipe


def test_every_figure_has_a_recipe():
    assert FIGURE_IDS == tuple(RECIPES)
    assert RECIPES["fig4a"] is RECIPES["fig4b"]


def only_run_dir(outdir):
    (run_dir,) = [p for p in outdir.iterdir() if p.is_dir()]
    return run_dir


def invoke(args, outdir):
    result = CliRunner().invoke(main, args + ["--outdir", str(outdir)])
    assert result.exit_code == 0, result.output
    return only_run_dir(outdir)


DATA_FILE = r"[\w.]+\.(?:csv|json)"


def named_files(source):
    """The data file names a plot script spells out, with f-strings expanded over their loop.

    A name such as f'otoc_K{K}.csv' inside `for K in (1, 4):` counts once per value.
    """
    names = re.findall(rf"""['"]({DATA_FILE})['"]""", source)
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name):
            values = ast.literal_eval(loop.iter)
            for node in ast.walk(loop):
                if isinstance(node, ast.JoinedStr):
                    code = compile(ast.Expression(node), "<plot>", "eval")
                    names += [name for name in (eval(code, {loop.target.id: v}) for v in values)
                              if re.fullmatch(DATA_FILE, name)]
    return names


def assert_plot_reads_run_files(script):
    """The plot script compiles, and every data file it names is in its directory."""
    source = script.read_text()
    compile(source, str(script), "exec")
    names = named_files(source)
    assert names
    for name in names:
        assert (script.parent / name).exists(), name


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(KeyError):
        run_recipe("fig0x", tmp_path)


def test_fig1b_recipe_products(tmp_path):
    checks = run_recipe("fig1b", tmp_path)
    assert [c.passed for c in checks] == [True, True]
    assert (tmp_path / "profile_K4_t1000.csv").exists()
    assert (tmp_path / "profile_K10_t1000.csv").exists()
    script = (tmp_path / "plot_fig1b.py").read_text()
    assert "matplotlib" in script and "profile_K" in script
    data = np.loadtxt(tmp_path / "profile_K10_t1000.csv", delimiter=",", skiprows=1)
    assert abs(data[:, 1].sum() - 1.0) < 1e-12


# fig3a's docstring documents that its flatness check reads FAIL: the norm
# grows slowly at any nonzero lambda
KNOWN_FAILURES = {"fig3a": {"mu < 1e-4 for lambda <= 0.5"}}


@pytest.mark.parametrize("figure_id", ["fig1a", "fig1b", "fig1d", "fig2a", "fig2b", "fig3a"])
def test_series_recipe_checks_and_plot_script(tmp_path, figure_id):
    checks = run_recipe(figure_id, tmp_path)
    assert checks
    assert {c.name for c in checks if not c.passed} == KNOWN_FAILURES.get(figure_id, set())
    assert_plot_reads_run_files(tmp_path / f"plot_{figure_id}.py")


def test_plot_script_names_expand_over_their_loop():
    source = ("for K in (4, 10):\n"
              "    d = np.loadtxt(f'profile_K{K}_t1000.csv')\n"
              "    plt.plot(d, label=f'K={K}')\n"
              "d = np.loadtxt('d_vs_k.csv')\n")
    assert sorted(named_files(source)) == [
        "d_vs_k.csv", "profile_K10_t1000.csv", "profile_K4_t1000.csv"]


def test_reproduce_cli_prints_verdicts(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["reproduce", "fig1b", "--outdir", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert "[PASS]" in result.output
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    assert (run_dir / "checks.txt").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["params"] == {"figure_id": "fig1b"}
    assert manifest["config"] is None


def test_fig3c_norm_scan_lattice_holds_hbar_half(monkeypatch, tmp_path):
    """The recipe's own scan lattice keeps hbar=0.5 tail-safe at both lambda ends."""
    captured = {}

    class Captured(Exception):
        pass

    def capture(base, lambdas, hbars, **kwargs):
        captured.update(base=base, lambdas=lambdas, hbars=hbars)
        raise Captured

    monkeypatch.setattr(nqkr.cli, "norm_scan", capture)
    with pytest.raises(Captured):
        run_recipe("fig3c", tmp_path)
    base = captured["base"]
    assert 0.5 in captured["hbars"]
    for lam in (min(captured["lambdas"]), max(captured["lambdas"])):
        config = replace(
            base,
            lattice=replace(base.lattice, hbar_eff=0.5),
            schedule=replace(base.schedule, lam=float(lam)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", WrapAroundWarning)
            record_series(config)


FIG4_FILES = ("spectrum.csv", "fidelity.json", "evolved_state.csv",
              "best_eigenstate.csv", "summary.json")


def test_fig4_writes_the_spectrum_command_files(tmp_path):
    recipe_dir = invoke(["reproduce", "fig4a"], tmp_path / "recipe")
    cli_dir = invoke(["spectrum", "--K", "10", "--lambda", "5", "--t", "200",
                      "--dim", "1024", "--with-fidelity"], tmp_path / "cli")
    for name in FIG4_FILES:
        assert (recipe_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name
    lines = (recipe_dir / "checks.txt").read_text().splitlines()
    assert len(lines) == 5 and all(line.startswith("[PASS]") for line in lines)
    assert_plot_reads_run_files(recipe_dir / "plot_fig4.py")


def test_fig4_without_tail_safe_state_is_a_numerical_failure(monkeypatch, tmp_path):
    real_spectrum_at = nqkr.cli.spectrum_at

    def edge_bound_spectrum(config, t, dim):
        spec = real_spectrum_at(config, t, dim)
        spec.tail_weights = np.ones_like(spec.tail_weights)
        return spec

    monkeypatch.setattr(nqkr.recipes, "SPECTRUM_DIM_DEFAULT", 256)
    monkeypatch.setattr(nqkr.cli, "spectrum_at", edge_bound_spectrum)
    result = CliRunner().invoke(main, ["reproduce", "fig4b", "--outdir", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert "no tail-safe eigenstates" in result.output
    summary = json.loads((only_run_dir(tmp_path) / "summary.json").read_text())
    assert summary["max_valid_eps_i"] is None


def test_fig3c_writes_the_norm_scan_command_files(monkeypatch, tmp_path):
    """The recipe's scan, shrunk to a small tail-safe base, against `nqkr norm-scan`."""
    lambdas = [0.0, 0.075, 0.15]

    def small_scan(base, _lambdas, hbars, **kwargs):
        base = replace(base, lattice=replace(base.lattice, size=1024), kick_count=20)
        return norm_scan(base, lambdas, hbars, **kwargs)

    cli_dir = invoke(["norm-scan", "--K", "10", "--lambda-list", "0,0.075,0.15",
                      "--hbar-list", "0.5,1.5,2.89", "--kicks", "20", "--lattice", "1024"],
                     tmp_path / "cli")
    # patched after the command ran, so only the recipe's scan is shrunk
    monkeypatch.setattr(nqkr.cli, "norm_scan", small_scan)
    recipe_dir = invoke(["reproduce", "fig3c"], tmp_path / "recipe")
    for name in ("norm_scan.csv", "norm_scan.json"):
        assert (recipe_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name
    assert_plot_reads_run_files(recipe_dir / "plot_fig3c.py")


@pytest.mark.parametrize("first,second",
                         [("nqkr.recipes", "nqkr.cli"), ("nqkr.cli", "nqkr.recipes")])
def test_recipes_and_cli_import_in_either_order(first, second):
    # cli imports recipes at module level, so recipes must reach cli only at call time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", f"import {first}; import {second}"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
