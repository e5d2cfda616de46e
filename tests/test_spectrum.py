import functools
import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import nqkr.spectrum
from nqkr import _blas
from nqkr import (
    KickSchedule,
    MomentumLattice,
    SimConfig,
    SpectrumError,
    WaveFunction,
    WrapAroundWarning,
    build_floquet_matrix,
    evolve,
    fidelity_profile,
    ground_state,
    quasi_spectrum,
    spectrum_at,
    step,
)
from nqkr.lattice import TAIL_PROBABILITY_LIMIT, _runs, edge_sites, tail_probability
from nqkr.propagator import modulation_factor

HBAR = 2.89


def config(K, lam, m=64, eta=0.75):
    return SimConfig(
        lattice=MomentumLattice(m, HBAR),
        schedule=KickSchedule(K=K, lam=lam, eta=eta),
        kick_count=1,
    )


class TestBuildFloquetMatrix:
    def test_unitary_when_hermitian(self):
        mat = build_floquet_matrix(config(10.0, 0.0), t=1, m_spec=64)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram - np.eye(64))) < 1e-10

    def test_free_only_is_diagonal(self):
        mat = build_floquet_matrix(config(0.0, 0.0), t=1, m_spec=8)
        n = np.arange(-4, 4)
        expected = np.diag(np.exp(-0.5j * HBAR * n * n))
        assert np.max(np.abs(mat - expected)) < 1e-12

    def test_matches_fft_step_on_random_state(self):
        cfg = config(6.0, 1.1, m=8)
        mat = build_floquet_matrix(cfg, t=3, m_spec=8)
        rng = np.random.default_rng(8)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        psi = WaveFunction(MomentumLattice(8, HBAR), amps.copy())
        step(psi, cfg, t=3)
        direct = psi.amps * math.exp(psi.log_norm / 2.0)
        assert np.max(np.abs(mat @ amps - direct)) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_floquet_matrix(config(1.0, 0.0), t=1, m_spec=7)

    def test_overflowing_column_is_a_numerical_failure(self):
        # lam*a = 710.9 at lam 726 leaves U(1) finite, max|U| 9.1e306; at
        # lam 727, lam*a = 711.9 and every column's gain overflows
        def cfg(lam):
            return SimConfig(MomentumLattice(64, 1.0), KickSchedule(K=1.0, lam=lam), 1)

        assert np.all(np.isfinite(build_floquet_matrix(cfg(726.0), 1, 64)))
        for build in (build_floquet_matrix, spectrum_at):
            with pytest.raises(SpectrumError, match=r"U\(t\) overflows double range"):
                build(cfg(727.0), 1, 64)

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            build_floquet_matrix(config(1.0, 0.0), t=1, m_spec=4096)


class TestQuasiSpectrum:
    def test_unitary_spectrum_unimodular(self):
        spec = spectrum_at(config(10.0, 0.0), t=1, m_spec=64)
        assert np.max(np.abs(spec.eps_i)) < 1e-10

    def test_diagonal_test_matrix(self):
        spec = quasi_spectrum(np.diag([2.0 + 0j, 0.5 + 0j]))
        assert spec.eps_i == pytest.approx([math.log(2), -math.log(2)])
        # eps sorted by descending imaginary part
        assert spec.eps_i[0] > spec.eps_i[1]

    def test_eps_r_branch(self):
        # u = -1 => eps_r = -arg(u) = -pi, folded to +pi
        spec = quasi_spectrum(np.diag([-1.0 + 0j, 1j]))
        assert sorted(spec.eps_r) == pytest.approx([-np.pi / 2, np.pi], abs=1e-14)
        assert np.all(spec.eps_r > -np.pi)
        assert np.all(spec.eps_r <= np.pi)

    def test_determinant_identity(self):
        cfg = config(7.0, 2.3, m=8)
        mat = build_floquet_matrix(cfg, t=2, m_spec=8)
        spec = quasi_spectrum(mat)
        product = float(np.prod(np.exp(spec.eps_i)))
        _, logabsdet = np.linalg.slogdet(mat)  # LU-based, independent of eig
        assert product == pytest.approx(math.exp(logabsdet), rel=1e-10)

    def test_residuals_small(self):
        spec = spectrum_at(config(9.0, 1.7), t=5, m_spec=128)
        assert float(spec.residuals.max()) < 1e-8

    def test_unitary_eigenvectors_orthogonal(self):
        spec = spectrum_at(config(10.0, 0.0), t=1, m_spec=64)
        gram = spec.eigenstates.conj().T @ spec.eigenstates
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8

    def test_phase_fixing_deterministic(self):
        mat = build_floquet_matrix(config(5.0, 0.9), t=4, m_spec=32)
        a = quasi_spectrum(mat)
        b = quasi_spectrum(mat.copy())
        assert np.array_equal(a.eigenstates, b.eigenstates)
        lead = np.argmax(np.abs(a.eigenstates), axis=0)
        lead_vals = a.eigenstates[lead, np.arange(32)]
        assert np.max(np.abs(lead_vals.imag)) < 1e-12
        assert np.all(lead_vals.real > 0)

    @pytest.mark.parametrize("matrix,message", [
        (np.diag([np.nan, 1, 1, 1]), "matrix has non-finite entries"),
        (np.ones((4, 3)), "matrix must be square, got (4, 3)"),
    ], ids=["nonfinite", "non-square"])
    def test_nonfinite_matrix_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            quasi_spectrum(matrix)

    def test_a_config_names_u_at_its_kick_count(self):
        # spectrum_at is that call; the bare matrix gives the same stack and
        # eig, so the same eps and eigenvectors, with dense residuals
        cfg = replace(config(10.0, 2.0, m=128), kick_count=5)
        spec = quasi_spectrum(cfg)
        at = spectrum_at(cfg, cfg.kick_count, cfg.lattice.size)
        for name in ("quasienergies", "eigenstates", "residuals", "tail_weights"):
            assert getattr(spec, name).tobytes() == getattr(at, name).tobytes(), name
        assert (spec.t, spec.lattice, spec.residual_scale) == (at.t, at.lattice, at.residual_scale)
        assert (spec.t, spec.lattice) == (5, cfg.lattice)
        bare = quasi_spectrum(build_floquet_matrix(cfg, 5, 128))
        assert spec.quasienergies.tobytes() == bare.quasienergies.tobytes()
        assert spec.eigenstates.tobytes() == bare.eigenstates.tobytes()
        assert (bare.t, bare.lattice) == (0, MomentumLattice(128, 1.0))

    def test_a_negative_time_is_the_configs_error(self):
        # build_floquet_matrix takes any t; a spectrum reads t as a kick_count
        cfg = config(10.0, 2.0, m=16)
        assert np.all(np.isfinite(build_floquet_matrix(cfg, -1, 16)))
        with pytest.raises(ValueError, match=re.escape("kick_count must be >= 0, got -1")):
            spectrum_at(cfg, -1, 16)

    def test_eigenstates_are_column_major(self):
        assert spectrum_at(config(10.0, 2.0), t=5, m_spec=64).eigenstates.flags.f_contiguous

    def test_only_spectrum_at_applies_u_by_fft(self, monkeypatch):
        applied = nqkr.spectrum.apply_floquet
        blocks = []

        def recorded(columns, **kwargs):
            blocks.append((columns.shape, columns.flags.f_contiguous))
            return applied(columns, **kwargs)

        monkeypatch.setattr(nqkr.spectrum, "apply_floquet", recorded)
        cfg = config(10.0, 2.0, m=128)
        spectrum_at(cfg, t=5, m_spec=128)
        assert blocks == [((128, nqkr.spectrum._BLOCK), True)] * (128 // nqkr.spectrum._BLOCK)
        blocks.clear()
        quasi_spectrum(build_floquet_matrix(cfg, 5, 128))
        assert blocks == []


class TestMeanAbsImag:
    def test_unitary_is_zero(self):
        spec = spectrum_at(config(10.0, 0.0), t=1, m_spec=32)
        assert np.mean(np.abs(spec.eps_i)) < 1e-10

    def test_symmetric_gain_loss_pair(self):
        spec = quasi_spectrum(np.diag([math.e + 0j, 1.0 / math.e + 0j]))
        assert np.mean(np.abs(spec.eps_i)) == pytest.approx(1.0, rel=1e-12)

    def test_saturation_level_grows_with_lambda(self):
        # sampled instantaneous operators; the time-averaged level must
        # order with the non-Hermitian strength
        levels = {}
        for lam in (1.5, 2.0):
            vals = [
                np.mean(np.abs(spectrum_at(config(10.0, lam, m=256), t=t, m_spec=256).eps_i))
                for t in range(10, 101, 10)
            ]
            levels[lam] = np.mean(vals)
        assert levels[2.0] > levels[1.5] > 0.0


class TestFidelityProfile:
    def test_self_overlap_is_one(self):
        spec = spectrum_at(config(8.0, 1.3), t=2, m_spec=32)
        psi = spec.state(5)
        record = fidelity_profile(psi, spec)
        assert record.best_index == 5
        assert record.fidelity[5] == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states_give_zero(self):
        # unitary case: eigenbasis of a normal operator is orthonormal
        spec = spectrum_at(config(10.0, 0.0), t=1, m_spec=32)
        psi = spec.state(3)
        record = fidelity_profile(psi, spec)
        others = np.delete(record.fidelity, 3)
        assert np.max(others) < 1e-6

    def test_dimension_mismatch_rejected(self):
        spec = spectrum_at(config(8.0, 1.3), t=2, m_spec=32)
        psi = ground_state(MomentumLattice(64, HBAR))
        with pytest.raises(ValueError):
            fidelity_profile(psi, spec)

    def test_fidelity_in_unit_interval(self):
        spec = spectrum_at(config(8.0, 1.3), t=2, m_spec=32)
        rng = np.random.default_rng(3)
        psi = WaveFunction(
            MomentumLattice(32, HBAR),
            rng.normal(size=32) + 1j * rng.normal(size=32),
        )
        record = fidelity_profile(psi, spec)
        assert np.all(record.fidelity >= 0)
        assert np.all(record.fidelity <= 1 + 1e-12)


class TestWrapArtifactHandling:
    def test_seam_state_flagged_at_high_gain(self, fidelity_setup):
        _, _, spec = fidelity_setup
        literal_top = int(np.argmax(spec.eps_i))
        assert spec.tail_weights[literal_top] > 1e-3
        assert not spec.valid_mask()[literal_top]
        top_valid = spec.top_valid_index()
        assert spec.valid_mask()[top_valid]
        assert spec.eps_i[top_valid] < spec.eps_i[literal_top]

    def test_matrix_build_consistency_512_vs_1024(self, fidelity_setup):
        # truncation stability: the top eigenvalue among states that are
        # tail-safe at the smaller truncation must reappear in the larger
        # build to 1e-6 (near-edge multiplet members are excluded by the
        # tail condition, since their eigenvalues are truncation-affected)
        config_1024, _, spec_1024 = fidelity_setup
        spec_512 = spectrum_at(config_1024, 200, 512)
        safe = np.flatnonzero(spec_512.tail_weights < 1e-12)
        top_512 = int(safe[np.argmax(spec_512.eps_i[safe])])
        assert spec_512.tail_weights[top_512] < 1e-12
        closest = np.min(np.abs(spec_1024.eps_i - spec_512.eps_i[top_512]))
        assert closest < 1e-6


class TestTailSafetyRule:
    """The spectrum applies the tail weight and limit of evolution's wrap-around check."""

    def test_tail_weights_are_each_columns_tail_probability(self):
        spec = spectrum_at(config(10.0, 2.0), t=5, m_spec=64)
        columns = [tail_probability(spec.eigenstates[:, j]) for j in range(64)]
        assert np.array_equal(columns, spec.tail_weights)

    def test_a_weight_at_the_limit_is_not_tail_safe(self):
        spec = spectrum_at(config(10.0, 2.0), t=5, m_spec=64)
        spec.tail_weights = np.array([TAIL_PROBABILITY_LIMIT, np.nextafter(
            TAIL_PROBABILITY_LIMIT, 0.0)] * 32)
        assert spec.valid_mask().tolist() == [False, True] * 32


class TestConvergenceMechanism:
    def test_evolved_state_tracks_top_eigenstate(self):
        # F stays converged (>= 0.9) and does not ratchet down between
        # samples whose operators both carry healthy modulation gain
        m = 512
        cfg = SimConfig(
            lattice=MomentumLattice(m, HBAR),
            schedule=KickSchedule(K=10.0, lam=5.0),
            kick_count=300,
        )
        samples = {}
        psi = ground_state(cfg.lattice)
        for t in range(1, 301):
            step(psi, cfg, t)
            if t >= 100 and t % 10 == 0:
                spec = spectrum_at(cfg, t, m)
                record = fidelity_profile(psi, spec)
                samples[t] = (record.best[1], modulation_factor(cfg.schedule, t))
        fs = [samples[t][0] for t in sorted(samples)]
        assert all(f >= 0.9 for f in fs)
        ts = sorted(samples)
        for a, b in zip(ts, ts[1:]):
            f_a, mod_a = samples[a]
            f_b, mod_b = samples[b]
            if f_a > 0.9 and mod_a >= 0.6 and mod_b >= 0.6:
                assert f_b >= f_a - 0.02, f"fidelity dropped {f_a}->{f_b} at t={b}"


def parity_split(vecs):
    """Columns of vecs that are exactly even and exactly odd in n, to 1e-13.

    Storage row j is n = j - M/2: rows M/2+1.. hold n = 1..M/2-1, rows
    M/2-1..1 their partners -n, and rows 0 and M/2 the fixed points n = -M/2
    and n = 0, where an odd state must vanish.
    """
    h = vecs.shape[0] // 2
    plus, minus = vecs[h + 1:], vecs[h - 1:0:-1]
    fixed = np.abs(vecs[[0, h]]).max(axis=0)
    even = np.abs(plus - minus).max(axis=0, initial=0.0) <= 1e-13
    odd = (np.abs(plus + minus).max(axis=0, initial=0.0) <= 1e-13) & (fixed <= 1e-13)
    return even, odd


REFERENCE_T = 200
# K=10 at lam 0, 0.9 and 5, and the same strengths halved (the paper's
# literal half-phase reading of each)
REFERENCE_STRENGTHS = [(10.0, 0.0), (10.0, 0.9), (10.0, 5.0), (5.0, 0.0), (5.0, 0.45), (5.0, 2.5)]
REFERENCE_CASES = [(dim, K, lam, hbar) for dim, (K, lam), hbar
                   in itertools.product((2, 8, 64, 256), REFERENCE_STRENGTHS, (2.89, 0.5))]


def reference_id(case):
    dim, K, lam, hbar = case
    return f"dim{dim}-K{K:g}-lam{lam:g}-hbar{hbar:g}"


REFERENCE_PARAMS = [pytest.param(*case, id=reference_id(case)) for case in REFERENCE_CASES]


def reference_config(dim, K, lam, hbar):
    return SimConfig(
        lattice=MomentumLattice(dim, hbar),
        schedule=KickSchedule(K=K, lam=lam),
        kick_count=REFERENCE_T,
    )


@functools.lru_cache(maxsize=None)
def reference_case(dim, K, lam, hbar):
    """U(200) on dim sites, its quasi_spectrum, the warnings that call
    raised, and the state evolved from |0> to t=200."""
    cfg = reference_config(dim, K, lam, hbar)
    matrix = build_floquet_matrix(cfg, REFERENCE_T, dim)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = quasi_spectrum(matrix)
    with warnings.catch_warnings():
        # most of these lattices are far too small for 200 kicks; the state
        # only serves as a vector to take fidelities against
        warnings.simplefilter("ignore", WrapAroundWarning)
        psi = evolve(cfg)
    return matrix, spec, caught, psi


def residual_param(case):
    dim, K, lam, hbar = case
    marks = ()
    if (K, lam, hbar) == (10.0, 5.0, 0.5) and dim > 2:
        marks = pytest.mark.xfail(
            strict=True,
            reason="max|U| ~ e^(lam*f(200)/hbar) = e^17.3 ~ 3e7, so roundoff "
            "in U alone (2.2e-16 * 3e7 ~ 7e-9) reaches the absolute 1e-8 limit; "
            "dense eig of the same matrix gives 1.2e-8 (dim 8) to 4.6e-8 (dim 256)",
        )
    return pytest.param(*case, marks=marks, id=reference_id(case))


class TestDenseReference:
    """The parity-block solver against np.linalg.eig of the same matrix.

    Eigenvalue sets are matched one to one and must agree to 1e-10 of the
    spectral radius: backward-stable solvers are only accurate to that scale,
    and at lam=5, hbar=0.5 the smallest |u| sit ~15 orders below it.
    """

    @pytest.mark.parametrize("dim,K,lam,hbar", REFERENCE_PARAMS)
    def test_matches_dense_eig(self, dim, K, lam, hbar):
        matrix, spec, _, psi = reference_case(dim, K, lam, hbar)
        ref_vals, ref_vecs = np.linalg.eig(matrix)
        ref_vecs = ref_vecs / np.linalg.norm(ref_vecs, axis=0)

        vals = np.exp(-1j * spec.quasienergies)
        cost = np.abs(vals[:, np.newaxis] - ref_vals[np.newaxis, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10 * np.abs(ref_vals).max()

        edge = edge_sites(dim)
        prob = np.abs(ref_vecs) ** 2
        ref_valid = prob[:edge].sum(axis=0) + prob[-edge:].sum(axis=0) < TAIL_PROBABILITY_LIMIT
        if ref_valid.any():
            ref_top = float(np.log(np.abs(ref_vals[ref_valid])).max())
            assert abs(spec.eps_i[spec.top_valid_index()] - ref_top) <= 1e-10
        else:
            with pytest.raises(SpectrumError):
                spec.top_valid_index()

        normed = psi.amps / np.linalg.norm(psi.amps)
        ref_best = float(np.abs(ref_vecs.conj().T @ normed).max())
        assert abs(fidelity_profile(psi, spec).best[1] - ref_best) <= 1e-10

    @pytest.mark.parametrize("dim,K,lam,hbar", REFERENCE_PARAMS)
    def test_eigenstates_have_definite_parity(self, dim, K, lam, hbar):
        _, spec, _, _ = reference_case(dim, K, lam, hbar)
        even, odd = parity_split(spec.eigenstates)
        assert np.all(even ^ odd)
        assert np.count_nonzero(even) == dim // 2 + 1
        assert np.count_nonzero(odd) == dim // 2 - 1

    @pytest.mark.parametrize("dim,K,lam,hbar", [residual_param(c) for c in REFERENCE_CASES])
    def test_residuals_within_tolerance(self, dim, K, lam, hbar):
        _, spec, caught, _ = reference_case(dim, K, lam, hbar)
        # a pair above the limit is reported, never silently accepted
        assert len(caught) == int(spec.flagged_mask().any())
        assert float(spec.residuals.max()) <= 1e-8

    @pytest.mark.parametrize("dim,K,lam,hbar", REFERENCE_PARAMS)
    def test_residuals_are_taken_against_the_full_matrix(self, dim, K, lam, hbar, monkeypatch):
        # the blocked residual pass equals one dense U @ E - E * u, both for
        # the bare matrix and for spectrum_at's FFT-applied U(t); the
        # eigenvectors are shifted off parity and off U's eigenvectors, so a
        # residual taken on part of U or on its parity blocks would show
        matrix, _, _, _ = reference_case(dim, K, lam, hbar)
        cfg = reference_config(dim, K, lam, hbar)
        exact = nqkr.spectrum._embed_pairs
        eigvals = []

        def recorded(*args):
            vals, vecs = exact(*args)
            eigvals.append(vals)
            return vals, vecs + 1e-6

        monkeypatch.setattr(nqkr.spectrum, "_embed_pairs", recorded)
        bound = 1e-14 * max(1.0, float(np.abs(matrix).max()))
        for entry in (lambda: quasi_spectrum(matrix),
                      lambda: spectrum_at(cfg, REFERENCE_T, dim)):
            eigvals.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the shifted pairs are flagged
                spec = entry()
            states = spec.eigenstates
            dense = np.linalg.norm(matrix @ states - states * eigvals[0], axis=0)
            assert np.abs(spec.residuals - dense).max() <= bound

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_high_gain_roundoff_is_not_flagged(self, dim):
        """The three strict xfails above: max|U| reaches 2e6-4e6, and residuals
        of 1.6e-8 to 2.9e-8 are the roundoff of U itself, far inside
        RESIDUAL_TOLERANCE * max|U|."""
        _, spec, caught, _ = reference_case(dim, 10.0, 5.0, 0.5)
        assert spec.residual_scale > 1e6
        assert not caught
        assert not spec.flagged_mask().any()

    def test_unitary_operator_keeps_the_absolute_limit(self):
        _, spec, _, _ = reference_case(64, 10.0, 0.0, 2.89)
        assert spec.residual_scale == 1.0

    def test_perturbed_eigenvector_is_still_flagged(self, monkeypatch):
        matrix, _, _, _ = reference_case(64, 10.0, 5.0, 0.5)
        cfg = reference_config(64, 10.0, 5.0, 0.5)
        exact = nqkr.spectrum._embed_pairs

        def perturbed(*args):
            vals, vecs = exact(*args)
            vecs = vecs.copy()
            vecs[:, 0] += 1e-8
            return vals, vecs

        monkeypatch.setattr(nqkr.spectrum, "_embed_pairs", perturbed)
        for entry in (lambda: quasi_spectrum(matrix),
                      lambda: spectrum_at(cfg, REFERENCE_T, 64)):
            with pytest.warns(UserWarning, match="^1 eigenpairs"):
                spec = entry()
            assert np.count_nonzero(spec.flagged_mask()) == 1


def two_pass_fold(x, sign, out):
    """_fold over all of axis 0, as first written."""
    h = x.shape[0] // 2
    if sign > 0:
        out[0] = x[h]
        out[1] = x[0]
        out = out[2:]
    (np.add if sign > 0 else np.subtract)(x[h + 1:], x[h - 1:0:-1], out=out)
    out *= math.sqrt(0.5)


def two_pass_blocks(matrix):
    """_parity_blocks' stack as first folded: every column of U into an
    (M, M/2+1) buffer, then the buffer's rows into the stack."""
    h = matrix.shape[0] // 2
    stack = np.zeros((2, h + 1, h + 1), dtype=np.complex128)
    buffer = np.empty((2 * h, h + 1), dtype=np.complex128)
    for sector, sign in enumerate((1, -1)):
        cols = buffer[:, :h + sign]
        two_pass_fold(matrix.T, sign, cols.T)
        two_pass_fold(cols, sign, stack[sector, :h + sign, :h + sign])
    return stack


class TestParityBlocks:
    def test_parity_breaking_matrix_rejected(self):
        mat = build_floquet_matrix(config(10.0, 5.0, m=8), t=3, m_spec=8)
        quasi_spectrum(mat)
        mat[1, 2] += 1e-9 * np.abs(mat).max()
        with pytest.raises(ValueError, match="parity"):
            quasi_spectrum(mat)
        # at M = 130 the even sector's last column block holds two columns,
        # k = 63 and 64; a coupling added to both columns of the k = 64 pair
        # cancels in the odd sector's columns, so only that block can see it
        mat = build_floquet_matrix(config(10.0, 5.0, m=130), t=3, m_spec=130)
        quasi_spectrum(mat)
        mat[3, [1, 129]] += 1e-9 * np.abs(mat).max()
        with pytest.raises(ValueError, match="parity"):
            quasi_spectrum(mat)

    # a nan in either part of one entry, away from the first rows and columns,
    # makes max|U| nan or inf, so quasi_spectrum checks the entries before any fold
    @pytest.mark.parametrize("row,col,value", [
        (200, 3, np.nan), (130, 7, complex(np.inf, np.nan)), (255, 255, complex(1.0, np.nan)),
    ], ids=["nan", "inf-nan", "nan-imag"])
    def test_nonfinite_check_fires_first(self, row, col, value):
        bad = build_floquet_matrix(config(10.0, 5.0, m=256), t=3, m_spec=256)
        bad[row, col] = value
        with pytest.raises(ValueError, match="non-finite"):
            quasi_spectrum(bad)

    # |U_jj| overflows to inf while both its parts are finite: unpaired at
    # n = -M/2, where the residual overflows, and paired at n = +-1, where the
    # parity fold adds two such entries
    @pytest.mark.parametrize("matrix", [
        np.diag([1.5e308 + 1.5e308j, 1, 1, 1]), np.eye(4) * (1.5e308 + 1.5e308j),
    ], ids=["unpaired", "paired"])
    def test_overflowing_modulus_is_no_nonfinite_entry(self, matrix):
        with pytest.raises(SpectrumError, match="overflow double range"):
            quasi_spectrum(matrix)

    def test_unpaired_entry_near_the_top_of_double_range_solves(self):
        spec = quasi_spectrum(np.diag([1e308, 1, 1, 1]))
        assert spec.eps_i[0] == pytest.approx(np.log(1e308))
        assert not spec.flagged_mask().any()

    @pytest.mark.parametrize("m", [2, 8, 130, 512])
    def test_banded_fold_matches_a_two_pass_fold(self, m):
        # M = 130's even sector ends in a partial block of two columns
        matrix = build_floquet_matrix(config(10.0, 5.0, m=m), t=7, m_spec=m)
        stack = nqkr.spectrum._parity_blocks(matrix, float(np.abs(matrix).max()))
        assert stack.tobytes() == two_pass_blocks(matrix).tobytes()

    def test_dim2_has_empty_odd_sector(self):
        # at M = 2 parity fixes both sites: every 2x2 matrix commutes with
        # it, the odd block is empty and the odd slice holds only padding
        mat = np.array([[1.0, 2.0j], [0.5, -1.5]])
        spec = quasi_spectrum(mat)
        assert spec.eigenstates.shape == (2, 2)
        assert np.sort_complex(np.exp(-1j * spec.quasienergies)) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(mat)), abs=1e-14
        )
        assert float(spec.residuals.max()) < 1e-14

    @pytest.mark.parametrize("m", [2, 4, 8, 64, 256])
    def test_no_padding_pair_in_output(self, m):
        spec = spectrum_at(config(10.0, 5.0, m=m), t=7, m_spec=m)
        assert spec.quasienergies.shape == (m,)
        assert spec.eigenstates.shape == (m, m)
        assert np.all(np.isfinite(spec.eps_i))

    def test_padding_dropped_by_support_not_value(self):
        # U(+-2) = 0 gives each sector a zero eigenvalue, the same value the
        # two padding pairs carry; exactly those two zeros must come out
        n = np.arange(-4, 4)
        diag = (1.0 + 0.1 * n**2).astype(complex)
        diag[np.abs(n) == 2] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            spec = quasi_spectrum(np.diag(diag))
        assert np.sort(np.exp(spec.eps_i)) == pytest.approx(np.sort(diag.real), abs=1e-15)
        zero = spec.eigenstates[:, np.isneginf(spec.eps_i)]
        assert zero.shape == (8, 2)
        assert np.abs(zero[[2, 6]]) == pytest.approx(np.full((2, 2), math.sqrt(0.5)))
        even, odd = parity_split(zero)
        assert even.tolist().count(True) == 1 and odd.tolist().count(True) == 1


    def test_max_abs_is_taken_once(self, monkeypatch):
        # one pass over U gives both the parity-leak limit and residual_scale
        calls = []
        max_abs = nqkr.spectrum._max_abs

        def counted(matrix):
            calls.append(matrix.shape)
            return max_abs(matrix)

        monkeypatch.setattr(nqkr.spectrum, "_max_abs", counted)
        spec = spectrum_at(config(10.0, 5.0), t=7, m_spec=64)
        assert calls == [(64, 64)]
        assert spec.residual_scale == max(1.0, float(np.abs(
            build_floquet_matrix(config(10.0, 5.0), t=7, m_spec=64)).max()))

    def test_roundoff_in_eps_i_does_not_reorder_states(self, monkeypatch):
        # a unitary operator: every eps_i lies within roundoff of 0, so the
        # row order must come from eps_r, not from the last digits of eps_i
        cfg = config(4.0, 0.0, m=256)
        exact = spectrum_at(cfg, t=20, m_spec=256)
        eig = np.linalg.eig
        rng = np.random.default_rng(0)

        def perturbed(a):
            vals, vecs = eig(a)
            return vals * (1.0 + 1e-14 * rng.standard_normal(vals.shape)), vecs

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        moved = spectrum_at(cfg, t=20, m_spec=256)
        assert np.abs(moved.eps_r - exact.eps_r).max() <= 1e-12
        assert np.abs(moved.eps_i - exact.eps_i).max() <= 1e-12


def blas_counts():
    return [get() for get, _ in _blas._libraries()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads, restored afterwards."""
    libraries = _blas._libraries()
    if not libraries:
        pytest.skip("no OpenBLAS found in this process")
    previous = blas_counts()
    for _, set_ in libraries:
        set_(2)
    yield
    for (_, set_), count in zip(libraries, previous):
        set_(count)


def embed_by_copy(vals, vecs):
    """_embed_pairs' embedding with the odd slice's kept columns copied, as first written.

    Returns the eigenvalues, the eigenvectors and the kept odd columns.
    """
    h = vecs.shape[1] - 1
    padding_support = np.sum(np.abs(vecs[1, h - 1:]) ** 2, axis=0)
    keep = np.sort(np.argsort(padding_support, kind="stable")[:h - 1])
    vals = np.concatenate((vals[0], vals[1, keep]))
    eps_r, eps_i = nqkr.spectrum._eps_parts(vals)
    order = np.lexsort((eps_r, np.round(-eps_i / nqkr.spectrum.EPS_I_TIE)))
    column = np.argsort(order)
    out = np.zeros((2 * h, 2 * h), dtype=np.complex128)
    nqkr.spectrum._unfold(vecs[0], 1, out, column[:h + 1])
    nqkr.spectrum._unfold(vecs[1, :h - 1][:, keep], -1, out, column[h + 1:])
    return vals[order], out, keep


class TestOddSliceEmbedding:
    """The odd slice is embedded from views, one per run of kept columns."""

    @pytest.mark.parametrize("dim,padding_at,runs", [
        (2, None, 0), (4, None, 1), (4, (0, 2), 1), (64, None, 1), (64, (1, 20), 3),
        (64, (0, 20), 2), (64, (0, 32), 1),
    ])
    def test_matches_an_embedding_that_copies(self, monkeypatch, dim, padding_at, runs):
        # eig returns the padding pairs last; padding_at moves them, as eig is
        # free to, so that they split the kept columns into several runs
        matrix = build_floquet_matrix(config(10.0, 5.0, m=dim), t=7, m_spec=dim)
        h = dim // 2
        eig = np.linalg.eig
        solved = []

        def reordered(a):
            vals, vecs = eig(a)
            if padding_at is not None:
                rest = [j for j in range(h + 1) if j not in padding_at]
                perm = np.empty(h + 1, dtype=int)
                perm[list(padding_at)] = [h - 1, h]
                perm[rest] = np.arange(h - 1)
                vals[1], vecs[1] = vals[1, perm], vecs[1][:, perm]
            solved.append((vals.copy(), vecs.copy()))
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", reordered)
        blocks = nqkr.spectrum._parity_blocks(matrix, float(np.abs(matrix).max()))
        vals, vecs = nqkr.spectrum._embed_pairs(*np.linalg.eig(blocks))
        expected_vals, expected_vecs, keep = embed_by_copy(*solved[0])
        assert len(_runs(keep, 1)) == runs
        assert vals.tobytes() == expected_vals.tobytes()
        assert vecs.tobytes() == expected_vecs.tobytes()


class TestOneBlasThread:
    """The spectrum path runs on one BLAS thread, and the count is restored."""

    def matrix(self):
        return build_floquet_matrix(config(10.0, 5.0), t=3, m_spec=64)

    def test_eig_sees_one_thread(self, two_blas_threads, monkeypatch):
        seen = []
        eig = np.linalg.eig

        def counted(a):
            seen.append(blas_counts())
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        quasi_spectrum(self.matrix())
        assert seen == [[1] * len(blas_counts())]
        assert set(blas_counts()) == {2}

    def test_residuals_and_fidelities_see_one_thread(self, two_blas_threads, monkeypatch):
        # np.linalg.norm runs only in the residual loop and in the fidelity profile
        matrix = self.matrix()
        psi = ground_state(MomentumLattice(64, HBAR))
        seen = []
        norm = np.linalg.norm

        def counted(*args, **kwargs):
            seen.append(blas_counts())
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        spec = quasi_spectrum(matrix)
        # a normalization and a residual norm per block of columns
        assert seen == [[1] * len(blas_counts())] * (2 * 64 // nqkr.spectrum._BLOCK)
        assert set(blas_counts()) == {2}
        seen.clear()
        fidelity_profile(psi, spec)
        assert seen == [[1] * len(blas_counts())]
        assert set(blas_counts()) == {2}

    def test_count_is_restored_when_eig_fails(self, two_blas_threads, monkeypatch):
        seen = []

        def failing(a):
            seen.append(blas_counts())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        # on spectrum_at's path quasi_spectrum holds no reference to U when eig runs
        for solve in (lambda: quasi_spectrum(self.matrix()),
                      lambda: spectrum_at(config(10.0, 5.0), t=3, m_spec=64)):
            seen.clear()
            with pytest.raises(SpectrumError, match=r"dim 64, max\|U\| .*Eigenvalues did not"):
                solve()
            assert seen == [[1] * len(blas_counts())]
            assert set(blas_counts()) == {2}

    def test_no_openblas_found_gives_the_same_eigenvalues(self, monkeypatch):
        matrix = self.matrix()
        found = quasi_spectrum(matrix)
        monkeypatch.setattr(_blas, "_libraries", lambda: ())
        assert _blas.thread_count() is None
        alone = quasi_spectrum(matrix)
        # matched as sets: roundoff may reorder pairs with equal eps_i
        u, v = (np.exp(-1j * spec.quasienergies) for spec in (found, alone))
        gaps = np.abs(u[:, None] - v[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12


class MapsText:
    """A stand-in for _blas's Path: /proc/self/maps reads as text, or fails as unreadable."""

    text = None

    def __init__(self, path):
        assert path == "/proc/self/maps"

    def read_text(self):
        if self.text is None:
            raise PermissionError(13, "Permission denied")
        return self.text


@pytest.fixture
def fresh_library_lookup():
    """_blas looks its libraries up once per process: forget the lookup before and after."""
    _blas._libraries.cache_clear()
    yield
    _blas._libraries.cache_clear()


class TestLibraryLookup:
    def test_unreadable_maps_find_no_library(self, fresh_library_lookup, monkeypatch):
        monkeypatch.setattr(_blas, "Path", MapsText)
        assert _blas._libraries() == ()
        assert _blas.thread_count() is None
        with _blas.one_thread():
            assert _blas.thread_count() is None

    def test_a_library_that_fails_to_load_is_skipped(self, fresh_library_lookup, monkeypatch):
        found = _blas._libraries()
        _blas._libraries.cache_clear()
        maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
        missing = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /nonexistent/libopenblas.so\n"
        monkeypatch.setattr(MapsText, "text", missing + maps)
        monkeypatch.setattr(_blas, "Path", MapsText)
        assert len(_blas._libraries()) == len(found)


class TestParitySymmetry:
    """Why the parity reduction loses nothing for the physics queries."""

    @pytest.mark.parametrize("lam", [5.0, 0.0])
    def test_state_from_zero_momentum_stays_even(self, lam):
        # |0> is even and every U(t) commutes with parity, so the odd part
        # of the evolved state is roundoff, and the best-fidelity state at
        # t=200 comes from the even block
        m = 1024
        h = m // 2
        cfg = SimConfig(
            lattice=MomentumLattice(m, HBAR),
            schedule=KickSchedule(K=10.0, lam=lam),
            kick_count=200,
        )
        odd_parts = []

        def record_odd_part(t, psi):
            odd = (psi.amps[h + 1:] - psi.amps[h - 1:0:-1]) * math.sqrt(0.5)
            odd_parts.append(np.linalg.norm(odd) / np.linalg.norm(psi.amps))

        psi = evolve(cfg, [record_odd_part])
        assert len(odd_parts) == 200
        assert max(odd_parts) <= 1e-12

        spec = spectrum_at(cfg, 200, m)
        record = fidelity_profile(psi, spec)
        even, odd = parity_split(spec.eigenstates)
        assert even[record.best_index]
        assert record.fidelity[odd].max() <= 1e-12


def traced_peak(func, *args):
    """Peak of the allocations traced during func(*args), above those at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        func(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestAllocationPeaks:
    """The spectrum path holds at most about 1.8 x U at a time, in three stages.

    U, its parity block stack and (M, _BLOCK) bands while the stack is built
    (there is no fold buffer); the stack, its eigenvectors and LAPACK's
    buffers in eig; the block eigenvectors and the (M, M) eigenvector array
    while they are embedded. A config's U(t) is freed before eig.
    """

    DIM = 512

    @pytest.fixture(scope="class")
    def frozen_matrix(self):
        return build_floquet_matrix(config(10.0, 5.0, m=self.DIM), 200, self.DIM)

    @pytest.mark.parametrize("dim", [512, 1024])
    def test_quasi_spectrum_peak(self, dim):
        # The caller holds U, which the dense residuals need: the peak above U
        # is the embedding stage's, 1.576x at M = 512 and 1.522x at M = 1024.
        # A copied odd slice or a scaled copy of y in _unfold takes it to 1.76x
        matrix = build_floquet_matrix(config(10.0, 5.0, m=dim), 200, dim)
        assert traced_peak(quasi_spectrum, matrix) <= 1.65 * matrix.nbytes

    @pytest.mark.parametrize("dim", [512, 1024])
    def test_spectrum_at_peak(self, dim, monkeypatch):
        # U included: 2.58x while U lived through eig beside an (M, M/2+1)
        # fold buffer, 1.79x with U freed before eig and the fold in bands.
        # A wrapper that keeps quasi_spectrum's arguments alive until it
        # returns, as a tracing span does, held U through eig (2.58x at
        # M = 512, 2.52x at M = 1024) while U was built by the caller
        cfg = config(10.0, 5.0, m=dim)
        nbytes = dim * dim * np.dtype(np.complex128).itemsize
        assert traced_peak(spectrum_at, cfg, 200, dim) <= 2.0 * nbytes
        assert traced_peak(quasi_spectrum, replace(cfg, kick_count=200)) <= 2.0 * nbytes
        solve = nqkr.spectrum.quasi_spectrum
        monkeypatch.setattr(nqkr.spectrum, "quasi_spectrum",
                            lambda *args, **kwargs: solve(*args, **kwargs))
        assert traced_peak(spectrum_at, cfg, 200, dim) <= 2.0 * nbytes

    def test_fidelity_profile_peak(self, frozen_matrix):
        spec = quasi_spectrum(frozen_matrix)
        rng = np.random.default_rng(11)
        amps = rng.normal(size=self.DIM) + 1j * rng.normal(size=self.DIM)
        psi = WaveFunction(MomentumLattice(self.DIM, HBAR), amps)
        peak = traced_peak(fidelity_profile, psi, spec)
        assert peak <= 0.1 * frozen_matrix.nbytes
