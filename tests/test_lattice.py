import math

import numpy as np
import pytest

from nqkr import (
    MomentumLattice,
    NormCollapseError,
    WaveFunction,
    expectation_p,
    expectation_p2,
    ground_state,
    momentum_distribution,
)
from nqkr.constants import EPSILON_DEFAULT
from nqkr.lattice import LATTICE_SIZE_BUDGET, _runs, edge_sites, tail_probability
from nqkr.observables import _observable_table
from nqkr.propagator import _free_phases

HBAR = 2.89


def make_state(amps, hbar=HBAR):
    amps = np.asarray(amps, dtype=complex)
    return WaveFunction(MomentumLattice(len(amps), hbar), amps)


class TestGroundState:
    def test_m8_layout(self):
        psi = ground_state(MomentumLattice(8, HBAR))
        assert np.array_equal(psi.amps, [0, 0, 0, 0, 1, 0, 0, 0])
        assert psi.log_norm == 0.0

    def test_m2_layout(self):
        psi = ground_state(MomentumLattice(2, HBAR))
        assert np.array_equal(psi.amps, [0, 1])

    @pytest.mark.parametrize("m", [2, 8, 64, 1024])
    def test_unit_norm(self, m):
        psi = ground_state(MomentumLattice(m, HBAR))
        assert psi.stored_norm_sq() == 1.0


class TestExpectations:
    def test_ground_state_zero(self):
        psi = ground_state(MomentumLattice(16, HBAR))
        assert expectation_p(psi) == 0.0
        assert expectation_p2(psi) == 0.0

    def test_symmetric_pair_cancels(self):
        amps = np.zeros(8)
        amps[4 + 1] = 1 / np.sqrt(2)  # n = +1
        amps[4 - 1] = 1 / np.sqrt(2)  # n = -1
        psi = make_state(amps)
        assert abs(expectation_p(psi)) < 1e-15
        assert expectation_p2(psi) == pytest.approx(HBAR**2, abs=1e-12)

    def test_single_site_momentum(self):
        amps = np.zeros(8)
        amps[4 + 2] = 1.0  # n = 2
        psi = make_state(amps)
        assert expectation_p(psi) == pytest.approx(2 * HBAR, abs=1e-12)

    def test_gaussian_profile_against_direct_sum(self):
        # independent oracle: plain python accumulation over the same profile
        m, sigma = 1024, 100.0
        lattice = MomentumLattice(m, HBAR)
        p = lattice.momenta
        amps = np.exp(-(p**2) / (2 * sigma))  # |amps|^2 = exp(-p^2/sigma)
        psi = WaveFunction(lattice, amps.astype(complex))
        num = 0.0
        den = 0.0
        for n in range(-m // 2, m // 2):
            pn = n * HBAR
            w = float(np.exp(-(pn**2) / sigma))
            num += pn * pn * w
            den += w
        expected = num / den
        assert expectation_p2(psi) == pytest.approx(expected, rel=1e-10)

    def test_zero_norm_raises(self):
        psi = make_state(np.zeros(8))
        with pytest.raises(NormCollapseError):
            expectation_p(psi)
        with pytest.raises(NormCollapseError):
            expectation_p2(psi)

    def test_nonfinite_norm_is_not_called_a_collapse(self):
        psi = make_state([np.nan, 1.0, 0.0, 0.0])
        with pytest.raises(NormCollapseError, match="state norm is not finite"):
            expectation_p(psi)


class TestMomentumLattice:
    # the first three also overflow the free phase n^2*hbar/2, the others only p^2
    @pytest.mark.parametrize("size,hbar", [
        (32, 1e308), (4, 1e308), (2048, 1e303), (32, 1e200), (32, 8.4e152), (4096, 1e151),
    ])
    def test_overflowing_p2_rejected(self, size, hbar):
        with pytest.raises(ValueError, match=r"overflows p\^2 = \(n\*hbar\)\^2"):
            MomentumLattice(size, hbar)

    def test_near_limit_free_phase_accepted(self):
        # (16 * 8e152)^2 = 1.64e308 is still finite, and so is every phase and p^2
        lattice = MomentumLattice(32, 8e152)
        assert np.all(np.isfinite(_free_phases(lattice.size, lattice.hbar_eff)))
        assert np.all(np.isfinite(_observable_table(lattice, EPSILON_DEFAULT)))
        edge = make_state(np.eye(32)[0], hbar=8e152)
        assert math.isfinite(expectation_p2(edge))



@pytest.mark.parametrize("indices,max_step,runs", [
    ([], 1, []), ([4], 1, [(4, 5)]), ([0, 1, 2], 1, [(0, 3)]),
    ([0, 2, 3, 5], 1, [(0, 1), (2, 4), (5, 6)]),
    # the profile fits' window: a step of 9 bridges 8 missing sites, not 9
    ([], 9, []), ([4], 9, [(4, 5)]), ([0, 2, 3, 5], 9, [(0, 6)]),
    ([0, 9, 19, 20, 30], 9, [(0, 10), (19, 21), (30, 31)]),
])
def test_runs(indices, max_step, runs):
    assert _runs(np.array(indices, dtype=int), max_step) == runs


class TestMomentumDistribution:
    def test_ground_state_peak(self):
        dist = momentum_distribution(ground_state(MomentumLattice(8, HBAR)))
        assert dist.prob[4] == 1.0
        assert dist.p[4] == 0.0

    def test_uniform_amplitudes(self):
        dist = momentum_distribution(make_state(np.ones(16)))
        assert np.allclose(dist.prob, 1 / 16, atol=1e-15)

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        dist = momentum_distribution(make_state(amps))
        assert np.all(dist.prob >= 0)
        assert abs(dist.prob.sum() - 1.0) < 1e-12

    def test_zero_norm_raises(self):
        with pytest.raises(NormCollapseError):
            momentum_distribution(make_state(np.zeros(4)))

    def test_strided_amplitudes_read_like_contiguous_ones(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        strided = make_state(amps[:, 0])
        contiguous = make_state(amps[:, 0].copy())
        assert np.array_equal(momentum_distribution(strided).prob,
                              momentum_distribution(contiguous).prob)
        assert expectation_p2(strided) == expectation_p2(contiguous)


class TestTailProbability:
    def test_state_weight_is_its_two_edge_bands(self):
        amps = np.zeros(1024, dtype=complex)
        edge = edge_sites(1024)  # 25 sites a band
        amps[edge - 1], amps[edge], amps[-edge], amps[-edge - 1] = 0.6, 0.8, 0.6j, 0.8j
        assert isinstance(tail_probability(amps), float)
        assert tail_probability(amps) == pytest.approx(0.72, rel=1e-15)

    def test_matrix_column_gives_the_bits_of_its_state(self):
        # a BLAS dot sums strided and contiguous vectors in different orders
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(1024, 96)) + 1j * rng.normal(size=(1024, 96))
        weights = tail_probability(vecs)
        assert weights.shape == (96,)
        assert np.array_equal(weights, [tail_probability(vecs[:, j].copy()) for j in range(96)])
        assert np.array_equal(weights, [tail_probability(vecs[:, j]) for j in range(96)])
        # the spectrum's eigenvectors are stored column-major
        assert np.array_equal(weights, tail_probability(np.asfortranarray(vecs)))


class TestInvariants:
    def test_global_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi = make_state(amps)
        scaled = make_state(amps * (1e3 * np.exp(1j * np.pi / 3)))
        for f in (expectation_p, expectation_p2):
            a, b = f(psi), f(scaled)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_symmetric_magnitudes_give_zero_mean_p(self):
        # |psi_n| symmetric under n -> -n on the n = -16..15 grid (n=-16 empty)
        rng = np.random.default_rng(11)
        mags = np.zeros(32)
        body = rng.random(15)
        mags[17:] = body
        mags[1:16] = body[::-1]
        mags[16] = rng.random()
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=32))
        psi = make_state(mags * phases)
        assert abs(expectation_p(psi)) < 1e-12 * expectation_p2(psi) + 1e-15


class TestValidation:
    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            MomentumLattice(7, HBAR)

    def test_size_above_budget_rejected(self):
        assert MomentumLattice(LATTICE_SIZE_BUDGET, HBAR).size == LATTICE_SIZE_BUDGET
        with pytest.raises(ValueError, match=f"exceeds the budget {LATTICE_SIZE_BUDGET}$"):
            MomentumLattice(LATTICE_SIZE_BUDGET + 2, HBAR)

    def test_nonpositive_hbar_rejected(self):
        with pytest.raises(ValueError):
            MomentumLattice(8, 0.0)

    def test_wrong_amps_length_rejected(self):
        with pytest.raises(ValueError):
            WaveFunction(MomentumLattice(8, HBAR), np.zeros(7, dtype=complex))

    def test_indices_and_momenta(self):
        lattice = MomentumLattice(6, 2.0)
        assert np.array_equal(lattice.indices, [-3, -2, -1, 0, 1, 2])
        assert np.array_equal(lattice.momenta, [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0])
