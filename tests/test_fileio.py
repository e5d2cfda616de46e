import json

import numpy as np
import pytest

from nqkr import (
    AxisSpec,
    Features,
    MomentumDistribution,
    NormGrowthFit,
    OtocSeries,
    ProfileFit,
)
from nqkr.fileio import (
    _fmt,
    _write_table,
    norm_growth_fit_dict,
    profile_fit_dict,
    read_distribution_csv,
    read_json,
    read_series_csv,
    write_diagram_csv,
    write_diagram_gnuplot,
    write_diagram_json,
    write_distribution_csv,
    write_fidelity_json,
    write_json,
    write_series_csv,
    write_spectrum_csv,
)
from nqkr.phases import PhaseDiagram, PhasePoint
from nqkr.spectrum import FidelityRecord, QuasiSpectrum
from nqkr.lattice import MomentumLattice


def sample_series(n=20, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1)
    return OtocSeries(
        t,
        np.abs(rng.standard_normal(n)) * 1e-9,
        np.abs(rng.standard_normal(n)) * 1e-9,
        rng.standard_normal(n),
        rng.standard_normal(n),
        np.abs(rng.standard_normal(n)) * 100,
    )


class TestCsvRoundTrips:
    def test_distribution(self, tmp_path):
        rng = np.random.default_rng(1)
        prob = rng.random(32)
        prob /= prob.sum()
        dist = MomentumDistribution(np.arange(-16, 16) * 2.89, prob)
        path = tmp_path / "dist.csv"
        write_distribution_csv(path, dist)
        header = path.read_text().splitlines()[0]
        assert header == "p,prob"
        back = read_distribution_csv(path)
        # 15 significant digits survive the round trip to ~1 ulp
        assert np.allclose(back.p, dist.p, rtol=1e-14, atol=0)
        assert np.allclose(back.prob, dist.prob, rtol=1e-14, atol=0)

    def test_series(self, tmp_path):
        series = sample_series()
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        header = path.read_text().splitlines()[0]
        assert header == "t,c_exact,c_approx,log_norm,mean_p,mean_p2"
        back = read_series_csv(path)
        assert np.array_equal(back.t, series.t)
        for name in ("c_exact", "c_approx", "norm_log", "mean_p", "mean_p2"):
            assert np.allclose(
                getattr(back, name), getattr(series, name), rtol=1e-14, atol=1e-300
            )

    def test_spectrum(self, tmp_path):
        eps = np.array([0.3 + 0.2j, -0.1 - 0.4j])
        vecs = np.eye(2, dtype=complex)
        spec = QuasiSpectrum(
            5, MomentumLattice(2, 1.0), eps, vecs,
            np.array([1e-14, 2e-14]), np.array([0.0, 0.0]),
        )
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        lines = path.read_text().splitlines()
        assert lines[0] == "eps_r,eps_i,residual"
        row = lines[1].split(",")
        assert float(row[0]) == pytest.approx(0.3)
        assert float(row[1]) == pytest.approx(0.2)


def row_loop_table(path, header, columns):
    """The cell-by-cell writer that _write_table must reproduce byte for byte."""
    rows = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(float(col[i])) for col in columns) + "\n")


class TestTableBytes:
    def test_edge_values_match_row_loop(self, tmp_path):
        t = np.arange(1, 7, dtype=np.int64)
        values = np.array([1e-300, -0.0, 1e15 + 1, np.nan, 0.1 + 0.2, -2.5e-17])
        columns = [t, values, values[::-1].copy()]
        header = ["t", "x", "y"]
        _write_table(tmp_path / "new.csv", header, columns)
        row_loop_table(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_distribution_matches_row_loop(self, tmp_path):
        rng = np.random.default_rng(3)
        prob = rng.random(4096) ** 40
        prob /= prob.sum()
        p = np.arange(-2048, 2048) * 2.89
        _write_table(tmp_path / "new.csv", ["p", "prob"], [p, prob])
        row_loop_table(tmp_path / "old.csv", ["p", "prob"], [p, prob])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_table_is_header_only(self, tmp_path):
        _write_table(tmp_path / "e.csv", ["a", "b"], [np.array([]), np.array([])])
        assert (tmp_path / "e.csv").read_text() == "a,b\n"


class TestJsonPayloads:
    def test_fit_dicts(self):
        fit = ProfileFit("exponential", 4.5, 0.99, (0.0, 100.0))
        d = profile_fit_dict(fit)
        assert d == {
            "kind": "exponential",
            "xi_or_sigma": 4.5,
            "r_squared": 0.99,
            "fit_window": (0.0, 100.0),
        }
        nd = norm_growth_fit_dict(NormGrowthFit(0.3, -0.1, (500.0, 1000.0), 1.0))
        assert nd["mu"] == 0.3

    def test_fidelity_json(self, tmp_path):
        record = FidelityRecord(
            7, np.array([0.5, -0.2]), np.array([0.9, 0.1]), 0
        )
        path = tmp_path / "fid.json"
        write_fidelity_json(path, record)
        data = read_json(path)
        assert data["t"] == 7
        assert data["best"]["fidelity"] == pytest.approx(0.9)
        assert len(data["overlaps"]) == 2

    def test_write_read_json(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": 1, "b": [1.5, None]})
        assert read_json(path) == {"a": 1, "b": [1.5, None]}


def sample_diagram():
    feats = Features(0.001, 2.0, 0.8)
    axis1 = AxisSpec("eta", np.array([0.1, 0.5]))
    axis2 = AxisSpec("K", np.array([2.0, 4.0, 6.0]))
    points = [
        [PhasePoint((v1, v2), 0.1 * i + 0.2 * j, feats)
         for j, v2 in enumerate(axis2.values)]
        for i, v1 in enumerate(axis1.values)
    ]
    return PhaseDiagram(axis1, axis2, points, [(2.0, 0.3), (4.0, None), (6.0, 0.25)])


class TestDiagramFormats:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagram_csv(path, sample_diagram())
        lines = path.read_text().splitlines()
        assert lines[0] == "axis1,axis2,rho"
        assert len(lines) == 1 + 6  # row-major complete grid
        first = lines[1].split(",")
        assert float(first[0]) == 0.1 and float(first[1]) == 2.0

    def test_json_bundle(self, tmp_path):
        path = tmp_path / "d.json"
        write_diagram_json(path, sample_diagram())
        data = json.loads(path.read_text())
        assert data["axis1"]["name"] == "eta"
        assert data["points"][1][2]["rho"] == pytest.approx(0.5)
        assert data["points"][0][0]["features"]["doubling_ratio"] == 2.0
        assert data["boundary"][1]["axis1_crossing"] is None

    def test_gnuplot_matrix(self, tmp_path):
        path = tmp_path / "d.matrix"
        write_diagram_gnuplot(path, sample_diagram())
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["3", "2", "4", "6"]
        assert len(lines) == 3
        assert lines[1].split()[0] == "0.1"
