import itertools
import math
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from nqkr import (
    OMEGA1,
    OMEGA2,
    KickSchedule,
    MomentumLattice,
    NormCollapseError,
    SimConfig,
    WaveFunction,
    WrapAroundWarning,
    apply_free,
    apply_kick,
    build_floquet_matrix,
    evolve,
    ground_state,
    modulation_factor,
    record_series,
    step,
)
from nqkr import propagator
from nqkr.lattice import LATTICE_SIZE_BUDGET
from nqkr.observables import OtocSeries
from nqkr.propagator import apply_floquet
from nqkr.spectrum import spectrum_at

HBAR = 2.89
PLASTIC = 1.3247179572447460


def config(K, lam, kicks, m=64, hbar=HBAR, eta=0.75):
    return SimConfig(
        lattice=MomentumLattice(m, hbar),
        schedule=KickSchedule(K=K, lam=lam, eta=eta),
        kick_count=kicks,
    )


def true_vector(psi: WaveFunction) -> np.ndarray:
    """Undo the renormalization bookkeeping: the raw linear-operator image."""
    return psi.amps * math.exp(psi.log_norm / 2.0)


class TestModulationFactor:
    def test_t_zero_is_one_plus_eta(self):
        assert modulation_factor(KickSchedule(1, 0, eta=0.75), 0) == 1.75

    def test_eta_zero_is_flat(self):
        sched = KickSchedule(1, 0, eta=0.0)
        assert all(modulation_factor(sched, t) == 1.0 for t in range(50))

    def test_t_one_against_scalar_formula(self):
        # independent evaluation from the defining constants
        expected = 1 + 0.75 * math.cos(2 * math.pi / PLASTIC) * math.cos(
            2 * math.pi / PLASTIC**2
        )
        sched = KickSchedule(1, 0, eta=0.75)
        assert modulation_factor(sched, 1) == pytest.approx(expected, abs=1e-15)

    def test_bounds(self):
        sched = KickSchedule(1, 0, eta=0.75)
        vals = [modulation_factor(sched, t) for t in range(2000)]
        assert min(vals) >= 0.25 - 1e-12
        assert max(vals) <= 1.75 + 1e-12


def shifted_kick(psi, schedule, t, theta_origin=0.0):
    """Kick with explicit shifts, sqrt(M) scaling and a shifted angle origin.

    Returns the renormalized amplitudes and log-norm without touching psi:
    the reference formulation that apply_kick must reproduce. theta_origin
    conjugates the kick by e^(i*theta_origin*n), a gauge choice.
    """
    m = psi.lattice.size
    n = np.arange(-m // 2, m // 2)
    theta = 2.0 * np.pi * np.arange(m) / m
    a = modulation_factor(schedule, t) / psi.lattice.hbar_eff
    gain_shift = schedule.lam * a
    amps = psi.amps * np.exp(1j * theta_origin * n)
    angle = np.fft.ifft(np.fft.ifftshift(amps)) * math.sqrt(m)
    angle *= np.exp(
        (schedule.lam - 1j * schedule.K) * (a * np.cos(theta + theta_origin)) - gain_shift
    )
    amps = np.fft.fftshift(np.fft.fft(angle)) / math.sqrt(m)
    amps *= np.exp(-1j * theta_origin * n)
    norm_sq = float(np.vdot(amps, amps).real)
    return amps / math.sqrt(norm_sq), psi.log_norm + math.log(norm_sq) + 2.0 * gain_shift


# K=10 at lam 0, 2 and 5, and the same strengths halved (the paper's literal
# half-phase reading of each)
SHIFTED_STRENGTHS = [(10.0, 0.0), (10.0, 2.0), (10.0, 5.0), (5.0, 0.0), (5.0, 1.0), (5.0, 2.5)]


class TestApplyKick:
    def test_zero_potential_is_identity(self):
        psi = ground_state(MomentumLattice(32, HBAR))
        rng = np.random.default_rng(0)
        psi.amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi.amps /= np.linalg.norm(psi.amps)
        before = psi.amps.copy()
        apply_kick(psi, KickSchedule(0.0, 0.0, eta=0.75), t=3)
        assert np.max(np.abs(psi.amps - before)) < 1e-12
        assert abs(psi.log_norm) < 1e-12

    def test_hermitian_kick_preserves_norm(self):
        psi = ground_state(MomentumLattice(128, HBAR))
        for t in range(1, 20):
            apply_kick(psi, KickSchedule(7.0, 0.0), t=t)
        assert abs(psi.log_norm) < 1e-10

    def test_bessel_norm_oracle(self):
        # one kick from the flat state multiplies the squared norm by
        # (1/2pi) int exp(2*lam*f*cos(theta)/hbar) dtheta; the quadrature
        # value below is the frozen oracle for lam=1, f=1.75, hbar=2.89.
        oracle, err = quad(
            lambda th: math.exp(2 * 1.0 * 1.75 * math.cos(th) / HBAR) / (2 * math.pi),
            0.0,
            2 * math.pi,
        )
        assert err < 1e-10
        assert oracle == pytest.approx(1.401688025803, abs=1e-9)
        psi = ground_state(MomentumLattice(64, HBAR))
        apply_kick(psi, KickSchedule(0.0, 1.0, eta=0.75), t=0)  # f(0) = 1.75
        assert math.exp(psi.log_norm) == pytest.approx(oracle, abs=1e-8)

    def test_gauge_shift_leaves_magnitudes(self):
        # exact invariances: a 2*pi origin shift (cos periodicity) and a
        # whole-grid-step shift (same sample points, relabeled); arbitrary
        # shifts change the aliasing of the non-band-limited kick factor
        rng = np.random.default_rng(5)
        sched = KickSchedule(4.0, 0.7)
        for origin in (2 * math.pi, 3 * (2 * math.pi / 16), -2 * math.pi):
            psi = ground_state(MomentumLattice(16, HBAR))
            psi.amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi.amps /= np.linalg.norm(psi.amps)
            shifted, shifted_log_norm = shifted_kick(psi, sched, 2, theta_origin=origin)
            apply_kick(psi, sched, t=2)
            assert np.max(np.abs(np.abs(psi.amps) - np.abs(shifted))) < 1e-12
            assert psi.log_norm == pytest.approx(shifted_log_norm, abs=1e-12)

    # bounds set beforehand from complex128 roundoff over one FFT pair
    # on unit-norm amplitudes; M in {2, 6, 10, 14} has M = 2 mod 4
    @pytest.mark.parametrize("m", [2, 6, 10, 14, 16, 64, 4096])
    @pytest.mark.parametrize("K,lam", SHIFTED_STRENGTHS)
    @pytest.mark.parametrize("t", [1, 7, 200])
    def test_matches_shifted_formulation(self, m, K, lam, t):
        self.check_against_shifted(m, HBAR, K, lam, t)

    @pytest.mark.parametrize("m", [2, 6, 10, 14, 16, 64, 4096])
    @pytest.mark.parametrize("K,lam", SHIFTED_STRENGTHS)
    @pytest.mark.parametrize("t", [1, 7, 200])
    def test_matches_shifted_formulation_small_hbar(self, m, K, lam, t):
        self.check_against_shifted(m, 0.5, K, lam, t)

    @staticmethod
    def check_against_shifted(m, hbar, K, lam, t):
        rng = np.random.default_rng(m + t)
        psi = ground_state(MomentumLattice(m, hbar))
        psi.amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        psi.amps /= np.linalg.norm(psi.amps)
        sched = KickSchedule(K, lam)
        expected, expected_log_norm = shifted_kick(psi, sched, t)
        apply_kick(psi, sched, t)
        assert np.max(np.abs(psi.amps - expected)) <= 1e-13
        assert abs(psi.log_norm - expected_log_norm) <= 1e-12

    def test_nonfinite_amplitudes_raise(self):
        psi = ground_state(MomentumLattice(8, HBAR))
        psi.amps[0] = np.inf
        # numpy's fft warns about the inf before the norm check raises
        with pytest.warns(RuntimeWarning), pytest.raises(NormCollapseError, match="not finite"):
            apply_kick(psi, KickSchedule(1.0, 0.0), t=1)


def direct_kick_factor(m, lam_a, k_a):
    """Reference kick factor: exp((lam_a - i*k_a)*cos(theta_m) - lam_a) on all M angles."""
    theta = 2.0 * np.pi * np.arange(m) / m
    return np.exp((lam_a - 1j * k_a) * np.cos(theta) - lam_a)


def table_args(m, hbar, schedule, t):
    """`_kick_table`'s arguments for the table that holds the kick at time t."""
    rows = propagator._table_rows(m)
    return m, hbar, schedule, t - t % rows, rows


def direct_kick_table(m, hbar, schedule, t0, rows):
    """Reference table: gains and direct_kick_factor rows of the kicks t0..t0+rows-1."""
    a = [modulation_factor(schedule, t) / hbar for t in range(t0, t0 + rows)]
    gains = tuple(schedule.lam * a_t for a_t in a)
    return gains, np.array([direct_kick_factor(m, g, schedule.K * a_t) for g, a_t in zip(gains, a)])


class TestKickFactor:
    # bounds fixed beforehand: roundoff of one complex exponential relative
    # to the largest factor; M = 2 and both residues mod 4 are covered. Every
    # kick of the table that holds t is checked, and at M = 4096 the factor
    # built alone
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 14, 64, 1024, 4096])
    @pytest.mark.parametrize("hbar", [0.5, HBAR])
    def test_matches_direct_formula(self, m, hbar):
        mirror = (m - np.arange(m)) % m
        lattice = MomentumLattice(m, hbar)
        rows = propagator._table_rows(m)
        # each (lam, K) and its halves
        strengths = [*itertools.product((0.0, 2.0, 5.0), (0.0, 4.0, 10.0)),
                     *itertools.product((0.0, 1.0, 2.5), (0.0, 2.0, 5.0))]
        for (lam, K), t in itertools.product(strengths, (1, 7, 200)):
            sched = KickSchedule(K, lam)
            for s in range(t - t % rows, t - t % rows + rows):
                gain, factor = propagator._kick_row(lattice, sched, s)
                a = modulation_factor(sched, s) / hbar
                assert gain == sched.lam * a
                direct = direct_kick_factor(m, sched.lam * a, sched.K * a)
                peak = np.max(np.abs(factor))
                assert np.max(np.abs(factor - direct)) <= 1e-13 * peak
                assert np.array_equal(factor, factor[mirror])
                # |e^(-i*phi)| = hypot(cos, sin) rounds to at most one ulp above 1
                assert peak <= 1.0 + np.finfo(float).eps

    # same bounds; at lam*a = 1e4 all but the angles next to theta = 0
    # underflow to 0. The factor built alone, and every row of a 16-row
    # table, where eta = 0 and hbar = 1 make a = 1
    @pytest.mark.parametrize("m", [2, 6, 8, 1024, 4096])
    @pytest.mark.parametrize("lam_a", np.geomspace(1.0, 1e4, 9))
    @pytest.mark.parametrize("k_a", [0.0, 3.5])
    def test_extreme_gain(self, m, lam_a, k_a):
        mirror = (m - np.arange(m)) % m
        gains, table = propagator._kick_table(m, 1.0, KickSchedule(k_a, lam_a, eta=0.0), 0, 16)
        direct = direct_kick_factor(m, lam_a, k_a)
        assert gains == (lam_a,) * 16
        for factor in (propagator._kick_factor(m, lam_a, k_a), *table):
            assert np.all(np.isfinite(factor))
            assert np.max(np.abs(factor)) <= 1.0 + np.finfo(float).eps
            assert np.array_equal(factor, factor[mirror])
            assert np.max(np.abs(factor - direct)) <= 1e-13 * np.max(np.abs(factor))

    @pytest.mark.parametrize("m", [2, 6, 64, 1024, 2048, 4096])
    @pytest.mark.parametrize("hbar", [0.5, HBAR])
    def test_each_row_equals_a_one_row_build(self, m, hbar):
        # every kick time from two before a block edge to two after it, at
        # t = 0 and at the first positive edge
        sched = KickSchedule(10.0, 2.0)
        lattice = MomentumLattice(m, hbar)
        rows = propagator._table_rows(m)
        for t in [*range(-2, 3), *range(rows - 2, rows + 3)]:
            gain, factor = propagator._kick_row(lattice, sched, t)
            a = modulation_factor(sched, t) / hbar
            assert gain == sched.lam * a, t
            alone = propagator._kick_factor.__wrapped__(m, sched.lam * a, sched.K * a)
            assert factor.tobytes() == alone.tobytes(), t

    def test_table_size_is_bounded(self):
        # the size rule for every lattice the budget allows, no table built:
        # a table's factors take at most 512 KiB (16 rows of M = 2048) or one
        # row, the factor a kick needs anyway. From M = 4096 on, where more
        # rows made a kick slower, a table is that one row
        cap = 2**19
        row_bytes = np.dtype(complex).itemsize
        for m in range(2, LATTICE_SIZE_BUDGET + 1, 2):
            rows = propagator._table_rows(m)
            assert rows >= 1 and rows * m * row_bytes <= max(cap, m * row_bytes), m
            assert rows == 1 or m < 4096, m


def kick_caches():
    """Cleared `_kick_factor` and `_kick_table` caches, by name."""
    caches = {"_kick_factor": propagator._kick_factor, "_kick_table": propagator._kick_table}
    for cache in caches.values():
        cache.cache_clear()
    return caches


class TestKickFactorCache:
    @pytest.mark.parametrize("m", [2, 4, 6, 64, 4096])
    def test_cached_factor_is_read_only_and_unchanged(self, m):
        sched = KickSchedule(10.0, 5.0)
        for t in (1, 7, 200):
            a = modulation_factor(sched, t) / HBAR
            args = (m, sched.lam * a, sched.K * a)
            factor = propagator._kick_factor(*args)
            assert not factor.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 0.0
            assert np.array_equal(factor, propagator._kick_factor.__wrapped__(*args))
            assert propagator._kick_factor(*args) is factor

    @pytest.mark.parametrize("m", [2, 4, 6, 64])
    def test_cached_table_is_read_only_and_unchanged(self, m):
        sched = KickSchedule(10.0, 5.0)
        lattice = MomentumLattice(m, HBAR)
        for t in (1, 7, 200):
            args = table_args(m, HBAR, sched, t)
            entry = propagator._kick_table(*args)
            gains, table = entry
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
            _, factor = propagator._kick_row(lattice, sched, t)
            assert not factor.flags.writeable
            fresh_gains, fresh = propagator._kick_table.__wrapped__(*args)
            assert gains == fresh_gains and np.array_equal(table, fresh)
            assert propagator._kick_table(*args) is entry

    # a modulated operator reads a table, an unmodulated one its one factor
    @pytest.mark.parametrize("eta,built,unused", [(0.75, "_kick_table", "_kick_factor"),
                                                  (0.0, "_kick_factor", "_kick_table")])
    def test_matrix_assembly_builds_one_table(self, eta, built, unused):
        caches = kick_caches()
        build_floquet_matrix(config(10.0, 5.0, 1, eta=eta), t=3, m_spec=64)
        info = caches[built].cache_info()
        assert (info.misses, info.hits) == (1, 63)
        assert caches[unused].cache_info().currsize == 0

    # 40 modulated kicks read 16-row tables from t0 = 0, 16 and 32 at
    # M = 64, and build each factor alone at M = 4096
    @pytest.mark.parametrize("m,built,misses", [(64, "_kick_table", 3), (4096, "_kick_factor", 40)])
    def test_evolution_builds_one_table_per_block(self, m, built, misses):
        caches = kick_caches()
        evolve(config(3.0, 1.0, 40, m=m))
        info = caches[built].cache_info()
        assert (info.misses, info.hits) == (misses, 40 - misses)

    # eta = 0 gives every kick the factor of f = 1, on any lattice
    @pytest.mark.parametrize("m", [64, 4096])
    def test_unmodulated_evolution_builds_one_factor(self, m):
        caches = kick_caches()
        evolve(config(3.0, 1.0, 40, m=m, eta=0.0))
        info = caches["_kick_factor"].cache_info()
        assert (info.misses, info.hits) == (1, 39)
        assert caches["_kick_table"].cache_info().currsize == 0

    def test_a_spectrum_leaves_no_factor_behind(self):
        # U(200) built and applied first must not change a later evolution's
        # bytes: its table starts at t0 = 192 and the evolution's at t0 = 0
        cfg = config(4.0, 2.0, 200)
        kick_caches()
        fresh = record_series(cfg)
        spectrum_at(cfg, t=200, m_spec=cfg.lattice.size)
        after = record_series(cfg)
        assert after.final.amps.tobytes() == fresh.final.amps.tobytes()
        for field in fields(OtocSeries):
            new, old = getattr(after.series, field.name), getattr(fresh.series, field.name)
            assert new.tobytes() == old.tobytes(), field.name


class TestFloquetMatrixAtAnyTime:
    # build_floquet_matrix accepts any integer t, though a spectrum reads t as
    # a kick_count, which is >= 0; t <= 0 falls in a table that starts at a
    # multiple of the row count at or below t. Bound as TestStep's oracle
    @pytest.mark.parametrize("t", [0, -1, -17])
    def test_matches_the_dense_oracle(self, t):
        cfg = config(5.0, 1.2, 1, m=16)
        matrix = build_floquet_matrix(cfg, t=t, m_spec=16)
        oracle = dense_step_matrix(16, HBAR, 5.0, 1.2, 0.75, t)
        assert np.max(np.abs(matrix - oracle)) < 1e-12 * np.max(np.abs(oracle))


class TestEvolutionAgainstDirectKick:
    # bounds fixed beforehand: per-kick roundoff accumulated over 200 kicks
    @pytest.mark.parametrize("K,lam", [(10.0, 0.0), (10.0, 5.0), (5.0, 0.0), (5.0, 2.5)])
    def test_record_series_matches(self, monkeypatch, K, lam):
        cfg = config(K, lam, 200, m=1024)
        series = record_series(cfg).series
        monkeypatch.setattr(propagator, "_kick_table", direct_kick_table)
        reference = record_series(cfg).series
        for name in ("c_exact", "mean_p2"):
            new, ref = getattr(series, name), getattr(reference, name)
            assert np.all(np.abs(new - ref) <= 1e-12 * np.abs(ref)), name
        assert np.max(np.abs(series.log_norm - reference.log_norm)) <= 1e-11


class TestApplyFree:
    def test_zero_momentum_unchanged(self):
        psi = ground_state(MomentumLattice(8, HBAR))
        apply_free(psi)
        assert psi.amps[4] == 1.0 + 0.0j

    def test_plus_minus_one_share_phase(self):
        amps = np.zeros(8, dtype=complex)
        amps[3] = amps[5] = 1 / math.sqrt(2)
        psi = WaveFunction(MomentumLattice(8, HBAR), amps)
        apply_free(psi)
        assert psi.amps[3] == pytest.approx(psi.amps[5], abs=1e-15)
        assert psi.amps[3] == pytest.approx(
            math.sqrt(0.5) * np.exp(-0.5j * HBAR), abs=1e-15
        )

    def test_n_two_phase_against_scalar(self):
        amps = np.zeros(8, dtype=complex)
        amps[6] = 1.0  # n = 2
        psi = WaveFunction(MomentumLattice(8, HBAR), amps)
        apply_free(psi)
        # exp(-i n^2 hbar / 2) = exp(-i * 5.78) for n=2, hbar=2.89
        assert psi.amps[6] == pytest.approx(np.exp(-1j * 5.78), abs=1e-14)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi = WaveFunction(MomentumLattice(64, HBAR), amps)
        before = psi.stored_norm_sq()
        apply_free(psi)
        assert psi.stored_norm_sq() == pytest.approx(before, rel=1e-14)

    # n^2 up to the lattice budget's edge, (2**21)**2
    @pytest.mark.parametrize("hbar", [HBAR, 0.5, 1e-3, 7.3, 8e152])
    def test_phase_argument_splits_exactly(self, hbar):
        n = np.array([1, 3, 2047, -2048, 2**20 + 1, -(2**21)], dtype=float)
        hi, lo = propagator._two_product(0.5 * hbar, n * n)
        for h, l, k in zip(hi, lo, n):
            assert Fraction(h) + Fraction(l) == Fraction(0.5 * hbar) * int(k) ** 2

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than double on this platform")
    def test_phases_match_an_extended_precision_argument(self):
        # hbar*n^2/2 rounded in one product errs by up to 8.1e-10 rad at the
        # M = 4096 edge; the longdouble argument itself is rounded by ~2.3e-13
        n = np.arange(-2048, 2048).astype(np.longdouble)
        arg = np.longdouble(HBAR) * n * n / 2
        ref = np.cos(arg) - 1j * np.sin(arg)
        assert np.max(np.abs(propagator._free_phases(4096, HBAR) - ref)) < 1e-12

    def test_phases_keep_unit_modulus_where_the_low_part_is_not_small(self):
        # at the M = 65536 edge the low part reaches 1.9e-7 rad, where 1 - i*lo
        # would be 1.8e-14 too long
        phases = propagator._free_phases(65536, 7.3)
        assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-15


def dense_step_matrix(m, hbar, K, lam, eta, t):
    """Explicit-loop dense oracle for one step, independent of any FFT."""
    f = 1 + eta * math.cos(OMEGA1 * t) * math.cos(OMEGA2 * t)
    fwd = np.zeros((m, m), dtype=complex)   # momentum -> angle
    back = np.zeros((m, m), dtype=complex)  # angle -> momentum
    ns = list(range(-m // 2, m // 2))
    for row in range(m):
        theta = 2 * math.pi * row / m
        for col, n in enumerate(ns):
            fwd[row, col] = np.exp(1j * n * theta) / math.sqrt(m)
    for row, n in enumerate(ns):
        for col in range(m):
            theta = 2 * math.pi * col / m
            back[row, col] = np.exp(-1j * n * theta) / math.sqrt(m)
    kick = np.zeros((m, m), dtype=complex)
    for row in range(m):
        theta = 2 * math.pi * row / m
        kick[row, row] = np.exp(
            (lam - 1j * K) * f * math.cos(theta) / hbar
        )
    free = np.zeros((m, m), dtype=complex)
    for row, n in enumerate(ns):
        free[row, row] = np.exp(-0.5j * hbar * n * n)
    return free @ back @ kick @ fwd


class TestStep:
    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("K,lam", [(3.0, 0.0), (5.0, 1.2), (0.0, 0.8)])
    def test_dense_matrix_oracle(self, m, K, lam):
        rng = np.random.default_rng(42)
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        amps /= np.linalg.norm(amps)
        cfg = config(K, lam, 1, m=m)
        psi = WaveFunction(cfg.lattice, amps.copy())
        step(psi, cfg, t=1)
        oracle = dense_step_matrix(m, HBAR, K, lam, 0.75, 1) @ amps
        assert np.max(np.abs(true_vector(psi) - oracle)) < 1e-12

    def test_zero_potential_magnitudes_unchanged(self):
        cfg = config(0.0, 0.0, 1, m=16)
        rng = np.random.default_rng(9)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        psi = WaveFunction(cfg.lattice, amps.copy())
        step(psi, cfg, t=1)
        assert np.max(np.abs(np.abs(psi.amps) - np.abs(amps))) < 1e-12

    def test_unitary_run_keeps_norm(self):
        # M=2048 keeps the K=10 state tail-safe to t=1000 (M=512 wraps at t=215)
        cfg = config(10.0, 0.0, 1000, m=2048)
        with warnings.catch_warnings():
            warnings.simplefilter("error", WrapAroundWarning)
            final = evolve(cfg)
        assert abs(math.exp(final.log_norm) - 1.0) < 1e-10


class TestApplyFloquet:
    """U(t) @ V for a block of columns, by one FFT pair, with no renormalization."""

    @staticmethod
    def columns(m, count=5):
        rng = np.random.default_rng(17)
        block = rng.normal(size=(m, count)) + 1j * rng.normal(size=(m, count))
        return block / np.linalg.norm(block, axis=0)

    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("K,lam", [(3.0, 0.0), (5.0, 1.2), (0.0, 0.8)])
    def test_dense_matrix_oracle(self, m, K, lam):
        cfg = config(K, lam, 1, m=m)
        block = self.columns(m)
        image = apply_floquet(block, cfg.lattice, cfg.schedule, 4)
        oracle = dense_step_matrix(m, HBAR, K, lam, 0.75, 4) @ block
        assert np.max(np.abs(image - oracle)) < 1e-12 * np.max(np.abs(oracle))

    # t = 15 and 16 are the last row of one factor table and the first of the next
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("t", [7, 15, 16])
    def test_matches_the_assembled_matrix(self, order, t):
        cfg = config(10.0, 5.0, 1, m=64, hbar=0.5)
        matrix = build_floquet_matrix(cfg, t=t, m_spec=64)
        block = np.asarray(self.columns(64, 9), order=order)
        before = block.copy()
        image = apply_floquet(block, cfg.lattice, cfg.schedule, t)
        assert np.array_equal(block, before)
        # the bound of the spectrum's residuals, for unit columns
        assert np.max(np.abs(image - matrix @ block)) <= 1e-14 * max(1.0, np.abs(matrix).max())

    def test_runs_no_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("apply_floquet went through a single step")

        for name in ("step", "apply_kick", "apply_free"):
            monkeypatch.setattr(propagator, name, refuse)
        cfg = config(10.0, 2.0, 1)
        apply_floquet(self.columns(64), cfg.lattice, cfg.schedule, 3)

    def test_gain_beyond_double_range_is_not_finite(self):
        # lam*a = 710.9 at t = 1: U(1) itself stays finite, e^(lam*a) does not
        cfg = config(1.0, 726.0, 1, hbar=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            image = apply_floquet(self.columns(64), cfg.lattice, cfg.schedule, 1)
        assert not np.all(np.isfinite(image))


class TestEvolve:
    def test_zero_kicks_returns_ground_state(self):
        cfg = config(5.0, 0.5, 0)
        final = evolve(cfg)
        assert np.array_equal(final.amps, ground_state(cfg.lattice).amps)

    def test_single_kick_matches_step(self):
        cfg = config(5.0, 0.5, 1)
        via_evolve = evolve(cfg)
        psi = ground_state(cfg.lattice)
        step(psi, cfg, t=1)
        assert np.array_equal(via_evolve.amps, psi.amps)
        assert via_evolve.log_norm == psi.log_norm

    def test_bit_identical_reruns(self):
        cfg = config(8.0, 1.5, 50, m=256)
        a = evolve(cfg)
        b = evolve(cfg)
        assert np.array_equal(a.amps, b.amps)
        assert a.log_norm == b.log_norm

    def test_observer_sees_every_kick(self):
        seen = []
        cfg = config(2.0, 0.0, 7)
        evolve(cfg, observers=[lambda t, psi: seen.append(t)])
        assert seen == [1, 2, 3, 4, 5, 6, 7]

    def test_observer_error_carries_kick_index(self):
        def boom(t, psi):
            if t == 3:
                raise ValueError("boom")

        with pytest.raises(RuntimeError, match="t=3"):
            evolve(config(2.0, 0.0, 7), observers=[boom])

    def test_wraparound_warning_on_small_lattice(self):
        cfg = config(10.0, 0.0, 80, m=32)
        with pytest.warns(WrapAroundWarning):
            evolve(cfg)

    def test_tail_at_the_limit_warns(self, monkeypatch):
        monkeypatch.setattr(propagator, "tail_probability",
                            lambda amps: propagator.TAIL_PROBABILITY_LIMIT)
        with pytest.warns(WrapAroundWarning, match=r"exceeded 1e-10 at kick t=1;"):
            evolve(config(2.0, 0.0, 3))

    def test_tail_below_the_limit_does_not_warn(self, monkeypatch):
        below = np.nextafter(propagator.TAIL_PROBABILITY_LIMIT, 0.0)
        monkeypatch.setattr(propagator, "tail_probability", lambda amps: below)
        evolve(config(2.0, 0.0, 3))  # a WrapAroundWarning fails every test here

    def test_wraparound_kick_of_the_sweep_norm_scan(self):
        # the benchmark sweep's norm scan at hbar=0.5 and its largest lambda on
        # 1024 sites; the tail check reads the unit-norm amplitudes as stored
        cfg = config(10.0, 0.15, 39, m=1024, hbar=0.5)
        with pytest.warns(WrapAroundWarning, match=r"at kick t=39;"):
            evolve(cfg)

    def test_log_norm_overflow_raises_at_its_kick(self):
        # each kick adds 2*lam*a ~ 1e308 to log_norm, which reaches inf at
        # t=3; the state spreads past the 32-site lattice's edge at t=1
        cfg = config(0.0, 5e307, 3, m=32, hbar=1.0)
        with pytest.warns(WrapAroundWarning), pytest.raises(
            NormCollapseError, match=r"log-norm inf is not finite \(at kick t=3\)"
        ):
            evolve(cfg)

    def test_log_norm_overflow_leaves_the_state(self):
        psi = ground_state(MomentumLattice(32, 1.0))
        psi.log_norm = 1.7e308
        amps = psi.amps.copy()
        with pytest.raises(NormCollapseError, match="log-norm"):
            apply_kick(psi, KickSchedule(0.0, 5e307), t=1)
        assert np.array_equal(psi.amps, amps)
        assert psi.log_norm == 1.7e308


class TestValidation:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            KickSchedule(-1.0, 0.0)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            KickSchedule(1.0, -0.1)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            KickSchedule(1.0, 0.0, eta=1.5)

    def test_negative_kicks_rejected(self):
        with pytest.raises(ValueError):
            config(1.0, 0.0, -1)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(
                lattice=MomentumLattice(8, HBAR),
                schedule=KickSchedule(1.0, 0.0),
                kick_count=1,
                epsilon_shift=0.5,
            )

    @pytest.mark.parametrize("K,lam,hbar", [
        (1.0, 0.0, 1e-310),  # (1 + eta) / hbar overflows
        (0.0, 0.0, 1e-310),  # so does 0 * inf, which is nan
        (0.0, 1e308, 0.5),
        (5e307, 0.0, 0.25),
    ])
    def test_overflowing_kick_exponent_rejected(self, K, lam, hbar):
        with pytest.raises(ValueError, match="kick exponent"):
            config(K, lam, 1, hbar=hbar)

    def test_near_limit_kick_exponent_gives_a_finite_kick(self):
        # (1 + 0.75) * 5e307 is finite, and so is every factor of the kick
        cfg = config(5e307, 5e307, 1, hbar=1.0)
        psi = step(ground_state(cfg.lattice), cfg, 1)
        assert np.all(np.isfinite(psi.amps))
        assert math.isfinite(psi.log_norm)
