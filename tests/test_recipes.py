import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import nqkr.recipes
from nqkr import WrapAroundWarning, record_series
from nqkr.cli import main
from nqkr.recipes import FIGURE_IDS, RECIPES, run_recipe


def test_every_figure_has_a_recipe():
    assert set(FIGURE_IDS) == set(RECIPES)


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

    monkeypatch.setattr(nqkr.recipes, "norm_scan", capture)
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
