import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from nqkr import (
    FitError,
    KickSchedule,
    MomentumDistribution,
    MomentumLattice,
    OtocSeries,
    SimConfig,
    WaveFunction,
    expectation_p,
    expectation_p2,
    fit_exponential_profile,
    fit_gaussian_profile,
    fit_norm_growth,
    log_mean_norm,
    momentum_distribution,
    norm_scan,
    otoc_approx,
    otoc_exact,
    record_series,
    scrambling_rate,
)
from nqkr.lattice import ground_state
from nqkr.observables import FIT_WINDOW_PROB, _default_window, _linear_fit, compare_profiles

HBAR = 2.89


def make_state(amps, hbar=HBAR, log_norm=0.0):
    amps = np.asarray(amps, dtype=complex)
    return WaveFunction(MomentumLattice(len(amps), hbar), amps, log_norm)


def synthetic_series(t, c, log_norm=None):
    t = np.asarray(t)
    z = np.zeros_like(t, dtype=float)
    return OtocSeries(
        t, np.asarray(c, dtype=float), np.asarray(c, dtype=float),
        z if log_norm is None else np.asarray(log_norm, dtype=float), z, z,
    )


class TestOtocExact:
    def test_zero_shift_is_zero(self):
        rng = np.random.default_rng(0)
        psi = make_state(rng.normal(size=16) + 1j * rng.normal(size=16))
        assert otoc_exact(psi, 0.0) == 0.0

    def test_ground_state_is_zero_for_any_shift(self):
        psi = ground_state(MomentumLattice(16, HBAR))
        for eps in (1e-5, 0.1, 1.0):
            assert otoc_exact(psi, eps) == pytest.approx(0.0, abs=1e-15)

    def test_two_site_closed_form(self):
        amps = np.zeros(8, dtype=complex)
        amps[4] = amps[5] = 1 / math.sqrt(2)  # n = 0 and n = 1
        psi = make_state(amps)
        expected = 1 - abs((1 + np.exp(-1j * 0.1 * HBAR)) / 2) ** 2
        assert otoc_exact(psi, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_phase_and_scale(self):
        rng = np.random.default_rng(1)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        a = otoc_exact(make_state(amps), 1e-3)
        b = otoc_exact(make_state(amps * (1e3 * np.exp(1j * 0.7))), 1e-3)
        assert abs(a - b) <= 1e-12 * max(a, 1e-30)

    def test_log_norm_does_not_matter(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert otoc_exact(make_state(amps), 1e-4) == otoc_exact(
            make_state(amps, log_norm=500.0), 1e-4
        )


def otoc_longdouble(psi, eps):
    """2a - a^2 - b^2 with the sums a, b taken in np.longdouble."""
    ld = np.longdouble
    prob = psi.amps.real.astype(ld) ** 2 + psi.amps.imag.astype(ld) ** 2
    w = prob / prob.sum()
    n = np.arange(-psi.lattice.size // 2, psi.lattice.size // 2)
    p = n.astype(ld) * ld(psi.lattice.hbar_eff)
    a = np.sum(w * 2 * np.sin(ld(eps) * p / 2) ** 2)
    b = np.sum(w * np.sin(ld(eps) * p))
    return 2 * a - a * a - b * b


class TestOtocPrecision:
    """The frozen state's C ~ 2e-9: 1 - |overlap|^2 in doubles keeps ~7 digits."""

    def test_early_frozen_state_matches_longdouble(self):
        cfg = SimConfig(MomentumLattice(4096, HBAR), KickSchedule(K=10.0, lam=5.0), 3)
        final = record_series(cfg).final
        c = otoc_exact(final, 1e-5)
        assert c == pytest.approx(1.7e-9, rel=0.05)
        assert abs(c - otoc_longdouble(final, 1e-5)) <= 1e-12 * c

    def test_late_frozen_state_matches_longdouble(self, record_k10_l5):
        c = otoc_exact(record_k10_l5.final, 1e-5)
        assert c == pytest.approx(1.9e-9, rel=0.05)
        assert abs(c - otoc_longdouble(record_k10_l5.final, 1e-5)) <= 1e-12 * c

    def test_series_records_otoc_exact(self, record_k10_l5):
        c = otoc_exact(record_k10_l5.final, 1e-5)
        assert abs(record_k10_l5.series.c_exact[-1] - c) <= 1e-14 * c


def moments_longdouble(psi, eps):
    """c_approx, <p> and <p^2> with the sums taken in np.longdouble."""
    ld = np.longdouble
    prob = psi.amps.real.astype(ld) ** 2 + psi.amps.imag.astype(ld) ** 2
    w = prob / prob.sum()
    n = np.arange(-psi.lattice.size // 2, psi.lattice.size // 2)
    p = n.astype(ld) * ld(psi.lattice.hbar_eff)
    mp = np.sum(w * p)
    mp2 = np.sum(w * p * p)
    return ld(eps) ** 2 * (mp2 - mp * mp), mp, mp2


class TestObserverPrecision:
    """The recorded moments keep their digits however the observer orders its sums."""

    # bounds fixed beforehand: a few ulp of summation error over 4096 sites
    @pytest.mark.parametrize("name", ["record_k10_l0", "record_k10_l5"])
    def test_final_moments_match_longdouble(self, name, request):
        record = request.getfixturevalue(name)
        c_approx, mp, mp2 = moments_longdouble(record.final, 1e-5)
        series = record.series
        assert abs(series.mean_p2[-1] - mp2) <= 1e-12 * mp2
        assert abs(series.c_approx[-1] - c_approx) <= 1e-12 * c_approx
        assert abs(series.mean_p[-1] - mp) <= 1e-12 * np.sqrt(mp2)


class TestOtocApprox:
    def test_ground_state_zero(self):
        psi = ground_state(MomentumLattice(16, HBAR))
        assert otoc_approx(psi, 1e-5) == 0.0

    def test_symmetric_pair_value(self):
        amps = np.zeros(8)
        amps[3] = amps[5] = 1 / math.sqrt(2)  # n = -1, +1
        psi = make_state(amps)
        assert otoc_approx(psi, 1e-5) == pytest.approx(8.3521e-10, rel=1e-12)

    def test_agrees_with_exact_on_gaussian(self):
        m, sigma = 1024, 100.0
        lattice = MomentumLattice(m, HBAR)
        amps = np.exp(-(lattice.momenta**2) / (2 * sigma)).astype(complex)
        psi = WaveFunction(lattice, amps)
        exact = otoc_exact(psi, 1e-5)
        approx = otoc_approx(psi, 1e-5)
        assert approx == pytest.approx(exact, rel=1e-4)

    def test_agreement_invariant_when_shift_is_small(self):
        # eps * max significant |p| < 0.01 forces exact/approx to 1e-3
        rng = np.random.default_rng(3)
        m = 256
        lattice = MomentumLattice(m, HBAR)
        amps = rng.normal(size=m) * np.exp(-np.abs(lattice.momenta) / 30.0)
        psi = WaveFunction(lattice, amps.astype(complex))
        p_signif = np.abs(lattice.momenta)[np.abs(amps) ** 2 > 1e-12].max()
        eps = 0.009 / p_signif
        assert otoc_approx(psi, eps) == pytest.approx(
            otoc_exact(psi, eps), rel=1e-3
        )


def synthetic_profile(m, shape, scale, noise=0.0, seed=0):
    lattice = MomentumLattice(m, HBAR)
    p = lattice.momenta
    if shape == "exponential":
        prob = np.exp(-np.abs(p) / scale)
    else:
        prob = np.exp(-(p**2) / scale)
    if noise:
        rng = np.random.default_rng(seed)
        prob = prob * (1.0 + noise * rng.standard_normal(m))
        prob = np.clip(prob, 1e-300, None)
    prob /= prob.sum()
    return MomentumDistribution(p, prob)


class TestProfileFits:
    def test_recovers_exponential_xi(self):
        dist = synthetic_profile(512, "exponential", 4.5)
        fit = fit_exponential_profile(dist)
        assert fit.kind == "exponential"
        assert fit.xi_or_sigma == pytest.approx(4.5, rel=0.01)
        assert fit.r_squared > 0.999

    def test_recovers_gaussian_sigma(self):
        dist = synthetic_profile(512, "gaussian", 200.0)
        fit = fit_gaussian_profile(dist, _default_window(dist))
        assert fit.xi_or_sigma == pytest.approx(200.0, rel=0.01)

    def test_model_selection_on_gaussian_data(self):
        dist = synthetic_profile(512, "gaussian", 300.0)
        exp_fit, gauss_fit, winner = compare_profiles(dist)
        assert winner == "gaussian"
        assert exp_fit.r_squared < gauss_fit.r_squared

    def test_model_selection_on_exponential_data(self):
        dist = synthetic_profile(512, "exponential", 10.0)
        exp_fit, gauss_fit, winner = compare_profiles(dist)
        assert winner == "exponential"
        assert gauss_fit.r_squared < exp_fit.r_squared

    def test_noisy_exponential_within_5_percent(self):
        dist = synthetic_profile(1024, "exponential", 14.0, noise=0.01, seed=12)
        fit = fit_exponential_profile(dist)
        assert fit.xi_or_sigma == pytest.approx(14.0, rel=0.05)

    def test_flat_distribution_fails(self):
        m = 64
        lattice = MomentumLattice(m, HBAR)
        dist = MomentumDistribution(lattice.momenta, np.full(m, 1.0 / m))
        with pytest.raises(FitError):
            fit_exponential_profile(dist)
        with pytest.raises(FitError):
            fit_gaussian_profile(dist, _default_window(dist))

    def test_too_few_points_fails(self):
        lattice = MomentumLattice(8, HBAR)
        prob = np.exp(-np.abs(lattice.momenta) / 5.0)
        dist = MomentumDistribution(lattice.momenta, prob / prob.sum())
        with pytest.raises(FitError):
            fit_exponential_profile(dist)

    def test_one_site_distribution_fails(self):
        dist = MomentumDistribution(np.array([0.0]), np.array([1.0]))
        with pytest.raises(FitError, match="^distribution has fewer than 2 momentum sites$"):
            fit_exponential_profile(dist)

    def test_scale_invariance(self):
        # same window => same points; the constant goes into the intercept
        dist = synthetic_profile(512, "exponential", 7.0, noise=0.02, seed=4)
        scaled = MomentumDistribution(dist.p, dist.prob * 3.7e4)
        window = (0.0, 150.0)
        a = fit_exponential_profile(dist, window)
        b = fit_exponential_profile(scaled, window)
        assert abs(a.xi_or_sigma - b.xi_or_sigma) < 1e-10
        g1 = fit_gaussian_profile(dist, window)
        g2 = fit_gaussian_profile(scaled, window)
        assert abs(g1.xi_or_sigma - g2.xi_or_sigma) < 1e-10


def walk_window(dist):
    """Reference fit window: walk out from the peak both ways, stopping after 8 dips in a row."""
    above = dist.prob > FIT_WINDOW_PROB
    if not np.any(above):
        raise FitError("no probabilities above the fit-window threshold")
    peak = int(np.argmax(dist.prob))
    edge = 0.0
    for direction in (1, -1):
        gap, i = 0, peak
        while 0 <= i < len(dist.prob) and gap <= 8:
            if above[i]:
                gap = 0
                edge = max(edge, abs(float(dist.p[i])))
            else:
                gap += 1
            i += direction
    return (0.0, edge)


def random_window_case(rng):
    """Sites above or below the fit-window threshold at a random density, some
    at the threshold itself, with a dip of exactly 8 or 9 sites planted, on
    momenta that are shuffled half the time."""
    m = 2 * int(rng.integers(1, 100))
    above = rng.random(m) < rng.uniform(0.02, 0.98)
    start = int(rng.integers(0, m))
    above[start:start + int(rng.integers(8, 10))] = False
    prob = np.where(above, 10.0 ** rng.uniform(-24.9, 0.0, m),
                    10.0 ** rng.uniform(-40.0, -25.0, m))
    prob[~above & (rng.random(m) < 0.1)] = FIT_WINDOW_PROB
    p = MomentumLattice(m, HBAR).momenta
    return MomentumDistribution(rng.permutation(p) if rng.random() < 0.5 else p, prob)


class TestDefaultWindow:
    def test_equals_the_walk_on_random_distributions(self):
        rng = np.random.default_rng(20)
        for _ in range(4000):
            dist = random_window_case(rng)
            if not np.any(dist.prob > FIT_WINDOW_PROB):
                with pytest.raises(FitError):
                    walk_window(dist)
                with pytest.raises(FitError):
                    _default_window(dist)
            else:
                assert _default_window(dist) == walk_window(dist)

    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("gap,bridged", [(8, True), (9, False)])
    def test_bridges_a_dip_of_8_sites_not_9(self, side, gap, bridged):
        # the peak at n = 0 and its neighbours, the dip, then one site above
        m = 64
        p = MomentumLattice(m, HBAR).momenta
        prob = np.full(m, 1e-30)
        prob[m // 2 - 2:m // 2 + 3] = 1e-3
        prob[m // 2] = 1.0
        far = m // 2 + side * (3 + gap)
        prob[far] = 1e-20
        expected = abs(p[far]) if bridged else 2 * HBAR
        dist = MomentumDistribution(p, prob)
        assert _default_window(dist) == walk_window(dist) == (0.0, expected)

    def test_nothing_above_the_threshold_fails(self):
        p = MomentumLattice(16, HBAR).momenta
        dist = MomentumDistribution(p, np.full(16, FIT_WINDOW_PROB))
        with pytest.raises(FitError, match="no probabilities above the fit-window threshold"):
            _default_window(dist)
        with pytest.raises(FitError):
            walk_window(dist)


class TestNormGrowthFit:
    def test_exact_linear_input(self):
        t = np.arange(1, 101)
        series = synthetic_series(t, np.zeros(100), log_norm=0.3 * t)
        fit = fit_norm_growth(series)
        assert fit.mu == pytest.approx(0.3, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_unitary_run_is_flat(self):
        cfg = SimConfig(
            MomentumLattice(256, HBAR), KickSchedule(K=5.0, lam=0.0), 100
        )
        series = record_series(cfg).series
        assert abs(fit_norm_growth(series).mu) < 1e-8

    def test_production_ordering_in_lambda(self):
        mus = []
        for lam in (1.0, 1.5, 2.0):
            cfg = SimConfig(
                MomentumLattice(1024, HBAR), KickSchedule(K=10.0, lam=lam), 400
            )
            mus.append(fit_norm_growth(record_series(cfg).series).mu)
        assert mus[0] < mus[1] < mus[2]

    def test_constant_data_fits_exactly(self):
        # y has no variance to explain, so a fit with no residual has r^2 = 1,
        # also where the fit's roundoff leaves y.mean() off y (0.3, 0.1)
        slope, intercept, r2 = _linear_fit(np.arange(1.0, 52.0), np.full(51, 2.5))
        assert abs(slope) < 1e-15
        assert intercept == pytest.approx(2.5, rel=1e-15)
        assert r2 == 1.0
        assert _linear_fit(np.arange(1.0, 51.0), np.full(50, 0.3))[2] == 1.0
        assert _linear_fit(np.arange(1.0, 52.0), np.full(51, 0.1))[2] == 1.0

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200])
    def test_r2_does_not_depend_on_the_scale_of_y(self, scale):
        # the squares of these y under- or overflow; r^2 = 3/11 at every scale
        x, y = np.arange(1.0, 11.0), np.array([0.0] * 9 + [1.0])
        assert _linear_fit(x, scale * y)[2] == pytest.approx(_linear_fit(x, y)[2], rel=1e-14)

    def test_window_too_small_fails(self):
        # the second half, t in [8.5, 17], holds 9 kicks
        series = synthetic_series(np.arange(1, 18), np.zeros(17))
        with pytest.raises(FitError):
            fit_norm_growth(series)


class TestScramblingRate:
    def test_exact_linear_series(self):
        t = np.arange(1, 201)
        series = synthetic_series(t, 7e-9 * t)
        assert scrambling_rate(series, (100.0, 200.0)) == pytest.approx(7e-9, rel=1e-12)

    def test_frozen_series_is_flat(self):
        t = np.arange(1, 201)
        series = synthetic_series(t, np.full(200, 4.2e-9))
        assert abs(scrambling_rate(series, (100.0, 200.0))) < 1e-20


class TestLogMeanNorm:
    def test_matches_logsumexp(self):
        t = np.arange(1, 51)
        logs = 0.17 * t
        series = synthetic_series(t, np.zeros(50), log_norm=logs)
        expected = logsumexp(logs) - np.log(50)
        assert log_mean_norm(series) == pytest.approx(expected, rel=1e-13)

    def test_zero_kick_run_averages_to_unit_norm(self):
        cfg = SimConfig(MomentumLattice(64, HBAR), KickSchedule(K=3.0, lam=1.0), 0)
        assert log_mean_norm(record_series(cfg).series) == 0.0

    def test_survives_huge_exponents(self):
        t = np.arange(1, 11)
        series = synthetic_series(t, np.zeros(10), log_norm=400.0 * t)
        assert log_mean_norm(series) == pytest.approx(
            logsumexp(400.0 * t) - np.log(10), rel=1e-13
        )


class TestNormScan:
    def test_threshold_detection_and_rows(self):
        base = SimConfig(
            MomentumLattice(256, HBAR), KickSchedule(K=5.0, lam=0.0), 120
        )
        result = norm_scan(base, lambdas=[0.0, 0.2, 0.5], hbars=[HBAR])
        assert len(result.rows) == 3
        assert result.rows[0].log_mean_norm == pytest.approx(0.0, abs=1e-8)
        assert result.lambda_c[HBAR] == 0.2

    def test_unitary_scan_has_no_threshold(self):
        base = SimConfig(
            MomentumLattice(128, HBAR), KickSchedule(K=3.0, lam=0.0), 60
        )
        result = norm_scan(base, lambdas=[0.0], hbars=[HBAR])
        assert result.lambda_c[HBAR] is None


SERIES_FIELDS = [field.name for field in dataclasses.fields(OtocSeries)]


class TestSeriesValidation:
    @pytest.mark.parametrize("t,named", [([1.5, 2.7], "[1.5, 2.7]"), ([1.0, np.nan], "[nan]"),
                                         ([np.inf, 2.0], "[inf]")])
    def test_non_integer_kick_times_refused(self, t, named):
        z = np.zeros(2)
        with pytest.raises(ValueError, match=re.escape(f"kick times must be integers, got {named}")):
            OtocSeries(np.array(t), z, z, z, z, z)

    @pytest.mark.parametrize("name", SERIES_FIELDS[1:])
    def test_length_mismatch_names_its_field(self, name):
        columns = {field: np.zeros(3) for field in SERIES_FIELDS}
        columns[name] = np.zeros(2)
        with pytest.raises(ValueError, match=f"^{name} length does not match t$"):
            OtocSeries(**columns)


class TestSeriesRecording:
    def test_series_columns_consistent(self):
        cfg = SimConfig(
            MomentumLattice(128, HBAR), KickSchedule(K=3.0, lam=0.5), 50,
        )
        record = record_series(cfg, snapshot_times=(25, 50))
        series = record.series
        assert list(series.t[:3]) == [1, 2, 3]
        assert len(series) == 50
        assert np.all(series.c_exact >= 0) and np.all(series.c_exact <= 1)
        assert np.all(series.c_approx >= 0)
        assert set(record.snapshots) == {25, 50}
        # c_exact tracks c_approx in the small-shift regime
        assert np.allclose(series.c_exact, series.c_approx, rtol=1e-3)

    @pytest.mark.parametrize(
        "fixture", ["record_k10_l0", "record_k10_l2", "record_k10_l5", "record_k4_l0"]
    )
    def test_last_record_is_the_final_state_observed(self, request, fixture):
        """The per-kick observer and the per-state functions are one computation."""
        record = request.getfixturevalue(fixture)
        series, final = record.series, record.final
        assert series.c_exact[-1] == otoc_exact(final, 1e-5)
        assert series.c_approx[-1] == otoc_approx(final, 1e-5)
        snapshot, dist = record.snapshots[1000], momentum_distribution(final)
        assert np.array_equal(snapshot.prob, dist.prob)
        assert np.array_equal(snapshot.p, dist.p)
        assert series.mean_p[-1] == expectation_p(final)
        assert series.mean_p2[-1] == expectation_p2(final)

    @pytest.mark.parametrize("t", [[1, 3, 2], [1, 2, 2], [3, 2, 1]])
    def test_strict_ordering_enforced(self, t):
        with pytest.raises(ValueError, match="^records must be strictly ordered in t$"):
            synthetic_series(t, [0.0, 0.0, 0.0])

    def test_zero_kicks_gives_empty_series(self):
        cfg = SimConfig(
            MomentumLattice(64, HBAR), KickSchedule(K=3.0, lam=0.0), 0
        )
        record = record_series(cfg)
        assert len(record.series) == 0
        assert record.series.t.dtype == np.int64
        for name in SERIES_FIELDS:
            assert getattr(record.series, name).shape == (0,), name

    # before the first kick, after the last, and one of two times outside
    @pytest.mark.parametrize("times,kicks", [((0,), 1), ((2,), 1), ((1, 2), 1), ((5,), 4)])
    def test_snapshot_outside_the_run_rejected(self, times, kicks):
        cfg = SimConfig(MomentumLattice(64, HBAR), KickSchedule(K=3.0, lam=0.0), kicks)
        outside = [t for t in times if t not in range(1, kicks + 1)]
        message = f"snapshot times {outside} lie outside the kick times 1..{kicks}"
        with pytest.raises(ValueError, match=re.escape(message)):
            record_series(cfg, snapshot_times=times)

    def test_snapshot_at_first_and_last_kick_recorded(self):
        cfg = SimConfig(MomentumLattice(64, HBAR), KickSchedule(K=3.0, lam=0.0), 5)
        assert set(record_series(cfg, snapshot_times=(1, 5)).snapshots) == {1, 5}
