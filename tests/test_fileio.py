import json
from pathlib import Path

import numpy as np
import pytest

from nqkr import (
    AxisSpec,
    Features,
    MomentumDistribution,
    NormGrowthFit,
    OtocSeries,
)
from nqkr.fileio import (
    _fmt,
    _write_table,
    norm_scan_dict,
    read_distribution_csv,
    read_json,
    read_series_csv,
    write_diagram_csv,
    write_diagram_gnuplot,
    write_diagram_json,
    write_distribution_csv,
    write_fidelity_json,
    write_json,
    write_norm_scan_csv,
    write_series_csv,
    write_spectrum_csv,
)
from nqkr.phases import NormScanResult, NormScanRow, PhaseDiagram
from nqkr.spectrum import FidelityRecord, QuasiSpectrum
from nqkr.lattice import MomentumLattice

DATA = Path(__file__).parent / "data"


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
    def test_fit_dicts(self, tmp_path):
        fit = NormGrowthFit(0.3, -0.1, (500.0, 1000.0), 1.0)
        result = NormScanResult([NormScanRow(2.89, 0.5, fit, 0.2)], 0.05)
        path = tmp_path / "scan.json"
        write_json(path, norm_scan_dict(result))
        assert read_json(path)["rows"][0]["fit"] == {
            "mu": 0.3,
            "intercept": -0.1,
            "fit_window": [500.0, 1000.0],
            "r_squared": 1.0,
        }

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
    # the K=4 and K=6 columns cross rho = 0.5 between the two eta rows; K=2 never does
    axis1 = AxisSpec("eta", np.array([0.1, 0.5]))
    axis2 = AxisSpec("K", np.array([2.0, 4.0, 6.0]))
    rho = np.array([[0.0, 0.1 + 0.2, 0.25], [0.1, 0.9, 0.75]])
    features = [
        [Features(1e-3 * (3 * i + j), 1.0 + 0.5 * j, 0.8 - 0.1 * i) for j in range(3)]
        for i in range(2)
    ]
    return PhaseDiagram(axis1, axis2, rho, features)


def sample_norm_scan():
    # hbar 2.89 passes log(1.05) at lambda 0.2; hbar 0.5 never does
    window = (250.0, 500.0)
    return NormScanResult([
        NormScanRow(2.89, 0.0, NormGrowthFit(0.001, -0.02, window, 0.5), 0.01),
        NormScanRow(2.89, 0.2, NormGrowthFit(0.1 + 0.2, 1.5, window, 0.999), 0.3),
        NormScanRow(0.5, 0.0, NormGrowthFit(-1e-5, 0.0, window, 0.0), -0.02),
        NormScanRow(0.5, 0.2, NormGrowthFit(2e-4, 0.01, window, 0.25), 0.04),
    ], 0.05)


class TestDiagramFormats:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagram_csv(path, sample_diagram())
        assert path.read_bytes() == (
            b"axis1,axis2,rho\n0.1,2,0\n0.1,4,0.3\n0.1,6,0.25\n"
            b"0.5,2,0.1\n0.5,4,0.9\n0.5,6,0.75\n"
        )

    def test_json_bundle(self, tmp_path):
        path = tmp_path / "d.json"
        write_diagram_json(path, sample_diagram())
        assert path.read_bytes() == (DATA / "sample-phase-diagram.json").read_bytes()
        data = json.loads(path.read_text())
        assert data["points"][1][2]["params"] == [0.5, 6.0]
        assert data["boundary"][0]["axis1_crossing"] is None
        assert data["boundary"][2]["axis1_crossing"] == pytest.approx(0.3)

    def test_gnuplot_matrix(self, tmp_path):
        path = tmp_path / "d.matrix"
        write_diagram_gnuplot(path, sample_diagram())
        assert path.read_bytes() == b"3 2 4 6\n0.1 0 0.3 0.25\n0.5 0.1 0.9 0.75\n"


class TestNormScanFormats:
    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "n.csv"
        write_norm_scan_csv(path, sample_norm_scan())
        assert path.read_bytes() == (
            b"hbar,lambda,mu,r_squared,log_mean_norm\n2.89,0,0.001,0.5,0.01\n"
            b"2.89,0.2,0.3,0.999,0.3\n0.5,0,-1e-05,0,-0.02\n0.5,0.2,0.0002,0.25,0.04\n"
        )

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "n.json"
        write_json(path, norm_scan_dict(sample_norm_scan()))
        assert path.read_bytes() == (DATA / "sample-norm-scan.json").read_bytes()
        assert read_json(path)["lambda_c"] == {"2.89": 0.2, "0.5": None}
