import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqkr import (
    AxisSpec,
    Features,
    KickSchedule,
    MomentumLattice,
    OtocSeries,
    SimConfig,
    classify,
    extract_features,
    phase_diagram,
    record_series,
)
import nqkr.phases
from nqkr.phases import PhaseDiagram, default_jobs, norm_scan, sweep

HBAR = 2.89


def series_from_c(c, t=None):
    c = np.asarray(c, dtype=float)
    if t is None:
        t = np.arange(1, len(c) + 1)
    z = np.zeros_like(c)
    return OtocSeries(t, c, c.copy(), z, z, z)


class TestExtractFeatures:
    def test_constant_series(self):
        f = extract_features(series_from_c(np.full(1000, 3.3e-9)))
        assert f.late_slope_normalized == pytest.approx(0.0, abs=1e-12)
        assert f.doubling_ratio == pytest.approx(1.0, rel=1e-12)
        assert f.saturation_r2 == pytest.approx(1.0, abs=1e-12)

    def test_linear_series_ratio_is_seven_thirds(self):
        t = np.arange(1, 1001)
        f = extract_features(series_from_c(4.2e-9 * t, t))
        assert f.doubling_ratio == pytest.approx(7.0 / 3.0, rel=1e-9)

    def test_all_zero_convention(self):
        f = extract_features(series_from_c(np.zeros(500)))
        assert f == Features(0.0, 1.0, 1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extract_features(series_from_c(np.ones(150)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        c = np.abs(1e-9 * np.cumsum(rng.standard_normal(800)) + 1e-8)
        a = extract_features(series_from_c(c))
        b = extract_features(series_from_c(c * 1e6))
        assert a.late_slope_normalized == pytest.approx(
            b.late_slope_normalized, rel=1e-12, abs=1e-15
        )
        assert a.doubling_ratio == pytest.approx(b.doubling_ratio, rel=1e-12)
        assert a.saturation_r2 == pytest.approx(b.saturation_r2, rel=1e-12)

    def test_features_finite_even_for_spiky_series(self):
        c = np.zeros(600)
        c[550:] = 1.0  # silent early window, loud late window
        f = extract_features(series_from_c(c))
        assert np.isfinite(f).all()


class TestClassify:
    def test_deep_freezing(self):
        assert classify(Features(0.0, 1.0, 1.0)) < 0.05

    def test_deep_scrambling(self):
        t = np.arange(1, 1001)
        f = extract_features(series_from_c(5e-9 * t, t))
        assert classify(f) > 0.95

    def test_ratio_calibration_anchors(self):
        assert classify(Features(0.0, 1.0, 0.5)) < 0.1
        assert classify(Features(0.0, 2.0, 0.5)) > 0.9

    @given(
        slope=st.floats(-0.01, 0.01),
        ratio=st.floats(0.0, 5.0),
        sat=st.floats(0.0, 1.0),
        bump=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_feature(self, slope, ratio, sat, bump):
        base = classify(Features(slope, ratio, sat))
        assert classify(Features(slope + bump, ratio, sat)) >= base
        assert classify(Features(slope, ratio + bump, sat)) >= base
        if sat + bump <= 1.0:
            assert classify(Features(slope, ratio, sat + bump)) <= base

    @given(
        slope=st.floats(0.0, 0.01),
        ratio=st.floats(2.0, 100.0),
        sat=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_ratio_two_or_more_scrambles(self, slope, ratio, sat):
        assert classify(Features(slope, ratio, sat)) > 0.9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            classify(Features(float("nan"), 1.0, 1.0))


class TestProductionAnchors:
    def test_k10_grows_k1_freezes(self, record_k10_l0):
        f10 = extract_features(record_k10_l0.series)
        assert f10.doubling_ratio > 1.8
        assert classify(f10) > 0.9
        cfg = SimConfig(
            MomentumLattice(1024, HBAR), KickSchedule(K=1.0, lam=0.0), 2000
        )
        f1 = extract_features(record_series(cfg).series)
        assert f1.doubling_ratio < 1.2
        assert classify(f1) < 0.2

    def test_strong_gain_freezes(self, record_k10_l5):
        f = extract_features(record_k10_l5.series)
        assert classify(f) < 0.1


def tiny_config(m=512, kicks=500):
    return SimConfig(
        MomentumLattice(m, HBAR), KickSchedule(K=5.0, lam=0.0), kicks
    )


class TestPhaseDiagram:
    def test_corner_ordering(self):
        diagram = phase_diagram(
            AxisSpec("eta", np.array([0.1, 1.0])),
            AxisSpec("K", np.array([1.0, 10.0])),
            tiny_config(m=2048, kicks=1000),
        )
        # rho[i, j] sits at (eta[i], K[j])
        assert diagram.rho[0, 0] < 0.5 < diagram.rho[1, 1]

    def test_parallel_matches_serial(self):
        axis1 = AxisSpec("lambda", np.array([0.0, 3.0]))
        axis2 = AxisSpec("K", np.array([4.0, 8.0]))
        serial = phase_diagram(axis1, axis2, tiny_config(m=1024), jobs=1)
        parallel = phase_diagram(axis1, axis2, tiny_config(m=1024), jobs=2)
        assert parallel.rho.shape == (2, 2)
        np.testing.assert_array_equal(parallel.rho, serial.rho)
        assert parallel.features == serial.features
        assert parallel.boundary == serial.boundary

    def test_grid_and_kick_validation(self):
        one = AxisSpec("eta", np.array([0.5]))
        two = AxisSpec("K", np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            phase_diagram(one, two, tiny_config())
        with pytest.raises(ValueError):
            phase_diagram(
                AxisSpec("eta", np.array([0.1, 0.9])), two, tiny_config(kicks=100)
            )
        with pytest.raises(ValueError):
            phase_diagram(AxisSpec("volume", np.array([0.1, 0.9])), two, tiny_config())

    def test_same_field_on_both_axes_rejected_before_any_point(self, monkeypatch):
        def no_point(config):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(nqkr.phases, "_evaluate_point", no_point)
        with pytest.raises(ValueError, match="both sweep axes set lambda"):
            phase_diagram(AxisSpec("lambda", np.array([0.0, 1.0])),
                          AxisSpec("lambda", np.array([2.0, 3.0])), tiny_config())

    def test_boundary_interpolation(self):
        # hand-built rho columns over eta = (0.2, 0.4, 0.6):
        # K=1 falls from 0.8 to 0.2 -> linear interpolation at 0.3;
        # K=2 never reaches 0.5; K=3 reaches it exactly at the last eta;
        # K=4 reaches it exactly at the middle eta
        axis1 = AxisSpec("eta", np.array([0.2, 0.4, 0.6]))
        axis2 = AxisSpec("K", np.array([1.0, 2.0, 3.0, 4.0]))
        rho = np.array([[0.8, 0.2, 0.2, 0.2],
                        [0.2, 0.1, 0.4, 0.5],
                        [0.1, 0.3, 0.5, 0.7]])
        features = [[Features(0.0, 1.0, 1.0)] * 4 for _ in range(3)]
        boundary = PhaseDiagram(axis1, axis2, rho, features).boundary
        assert [v2 for v2, _ in boundary] == [1.0, 2.0, 3.0, 4.0]
        assert boundary[0][1] == pytest.approx(0.3)
        assert boundary[1][1] is None
        assert boundary[2][1] == 0.6
        assert boundary[3][1] == 0.4


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_keeps_task_order_and_reports_progress(jobs):
    calls = []
    results = sweep(abs, [-3, 1, -2], jobs=jobs, progress=lambda *a: calls.append(a))
    assert results == [3, 1, 2]
    assert calls == [(1, 3), (2, 3), (3, 3)]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,tasks,pools", [
    (64, [-3, 1], [2]), (64, [-3], []), (3, [-3, 1, -2, 4, -5], [3]), (64, [], []),
])
def test_sweep_starts_no_more_workers_than_tasks(monkeypatch, jobs, tasks, pools):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    assert sweep(abs, tasks, jobs=jobs) == [abs(t) for t in tasks]
    assert RecordingPool.created == pools


@pytest.mark.parametrize("lambdas,hbars", [([], None), ([], [2.89]), ([0.1], [])])
def test_norm_scan_rejects_an_empty_list(lambdas, hbars):
    base = SimConfig(MomentumLattice(64, HBAR), KickSchedule(K=5.0, lam=0.0), 20)
    with pytest.raises(ValueError, match="at least one lambda and one hbar"):
        norm_scan(base, lambdas=lambdas, hbars=hbars)


def test_norm_scan_rows_are_hbar_major_with_lambda_ascending():
    # M=512: at M=256 the hbar=1.5 runs wrap around at t=65-71
    base = SimConfig(MomentumLattice(512, HBAR), KickSchedule(K=5.0, lam=0.0), 120)
    result = norm_scan(base, lambdas=[0.5, 0.0, 0.2], hbars=(2.89, 1.5))
    assert [(r.hbar, r.lam) for r in result.rows] == [
        (2.89, 0.0), (2.89, 0.2), (2.89, 0.5), (1.5, 0.0), (1.5, 0.2), (1.5, 0.5)
    ]
    assert list(result.lambda_c) == [2.89, 1.5]
    for hbar, crossing in result.lambda_c.items():
        above = [r.lam for r in result.rows
                 if r.hbar == hbar and r.log_mean_norm > math.log1p(result.tolerance)]
        assert crossing == (above[0] if above else None)
    assert result.lambda_c[2.89] == 0.2


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("NQKR_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.delenv("NQKR_JOBS")
    assert default_jobs() >= 1


def test_default_jobs_names_a_bad_env_value(monkeypatch):
    monkeypatch.setenv("NQKR_JOBS", "two")
    with pytest.raises(ValueError, match="NQKR_JOBS"):
        default_jobs()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_default_jobs_rejects_a_non_positive_env_value(monkeypatch, value):
    monkeypatch.setenv("NQKR_JOBS", value)
    with pytest.raises(ValueError, match="NQKR_JOBS must be a positive integer"):
        default_jobs()
