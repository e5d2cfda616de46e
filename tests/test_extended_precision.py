"""nqkr's double-precision run against an extended-precision reference.

`reference_series` re-implements the model's step and observables in numpy's
longdouble and clongdouble from their defining formulas, not from nqkr's
code: the kick is applied on the angle grid with the shifted DFT pairing
psi(theta_m) = sum_n psi_n e^(i*n*theta_m)/sqrt(M), and the kick factor is a
complex exponential on all M angles. It keeps nqkr's inputs (K, lambda, hbar,
eta, epsilon and the plastic-number constant), so the two runs are one
computation in two precisions, and their gap is nqkr's roundoff. numpy >= 2.0
transforms clongdouble in extended precision: a 64-bit mantissa on x86-64.
"""

from __future__ import annotations

import numpy as np
import pytest

from nqkr import KickSchedule, MomentumLattice, SimConfig, record_series
from nqkr.constants import EPSILON_DEFAULT, ETA_DEFAULT, PLASTIC

LD = np.longdouble
PI = 4 * np.arctan(LD(1))

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= np.finfo(np.float64).eps,
    reason="longdouble is no wider than double on this platform",
)


def reference_series(K, lam, hbar, m, kicks, eta=ETA_DEFAULT, eps=EPSILON_DEFAULT):
    """(c_exact, <p^2>, log_norm) after each of kicks steps from n = 0, in longdouble."""
    K, lam, hbar, eta, eps = (LD(x) for x in (K, lam, hbar, eta, eps))
    omega1, omega2 = 2 * PI / LD(PLASTIC), 2 * PI / LD(PLASTIC) ** 2
    n = np.arange(-m // 2, m // 2).astype(LD)
    p = n * hbar
    cos_theta = np.cos(2 * PI * np.arange(m).astype(LD) / m)
    free_phase = hbar * n * n / 2
    free = np.cos(free_phase) - 1j * np.sin(free_phase)
    amps = np.zeros(m, dtype=np.clongdouble)
    amps[m // 2] = 1
    log_norm = LD(0)
    rows = []
    for t in range(1, kicks + 1):
        a = (1 + eta * np.cos(omega1 * t) * np.cos(omega2 * t)) / hbar
        # exp(-i*(K + i*lam)*a*cos(theta)), its largest gain e^(lam*a) factored out
        kick = np.exp(lam * a * (cos_theta - 1)) * (
            np.cos(K * a * cos_theta) - 1j * np.sin(K * a * cos_theta))
        angle = np.fft.ifft(np.fft.ifftshift(amps))
        assert angle.dtype == np.clongdouble
        amps = np.fft.fftshift(np.fft.fft(angle * kick))
        prob = amps.real ** 2 + amps.imag ** 2
        norm_sq = prob.sum()
        log_norm += np.log(norm_sq) + 2 * lam * a
        amps = amps / np.sqrt(norm_sq) * free
        w = prob / norm_sq
        # 1 - |<e^(-i*eps*p)>|^2 = 2a - a^2 - b^2 with no cancellation
        c_a = (w * 2 * np.sin(eps * p / 2) ** 2).sum()
        c_b = (w * np.sin(eps * p)).sum()
        rows.append((2 * c_a - c_a * c_a - c_b * c_b, (w * p * p).sum(), log_norm))
    return [np.array(col) for col in zip(*rows)]


# The benchmark's five seed-0 `series` points, spreading (lambda = 0) and frozen.
SERIES_POINTS = [(10.0, 0.0), (7.0, 0.0), (4.0, 0.0), (10.0, 2.0), (10.0, 5.0)]


@pytest.mark.parametrize("K,lam", SERIES_POINTS,
                         ids=[f"K{K:g}-lam{lam:g}" for K, lam in SERIES_POINTS])
def test_run_matches_the_reference_over_ten_kicks(K, lam):
    # The bounds were fixed before the first run: 1e-13 relative on c_exact and
    # <p^2>, 1e-12 absolute on log_norm. A probe saw relative gaps of at most
    # 1.2e-14 (at (10, 2)) and an absolute log_norm gap of 1.5e-14 (at (10, 5)).
    cfg = SimConfig(MomentumLattice(1024, 2.89), KickSchedule(K=K, lam=lam), 10)
    series = record_series(cfg).series
    c_exact, mean_p2, log_norm = reference_series(K, lam, 2.89, 1024, 10)
    assert np.all(np.abs(series.c_exact - c_exact) <= 1e-13 * np.abs(c_exact))
    assert np.all(np.abs(series.mean_p2 - mean_p2) <= 1e-13 * np.abs(mean_p2))
    assert np.all(np.abs(series.log_norm - log_norm) <= 1e-12)


def test_run_matches_the_reference_over_a_thousand_kicks():
    # The bounds were fixed before the first run: 3e-12 relative on c_exact and
    # <p^2>, 1e-11 absolute on log_norm. With the free phase hbar*n^2/2 rounded
    # in one product, a probe saw 4.0e-11 relative and 1.3e-10 absolute here;
    # the exact phases (propagator._free_phases) bring both under the bounds.
    cfg = SimConfig(MomentumLattice(1024, 2.89), KickSchedule(K=10.0, lam=2.0), 1000)
    series = record_series(cfg).series
    c_exact, mean_p2, log_norm = reference_series(10.0, 2.0, 2.89, 1024, 1000)
    assert np.all(np.abs(series.c_exact - c_exact) <= 3e-12 * np.abs(c_exact))
    assert np.all(np.abs(series.mean_p2 - mean_p2) <= 3e-12 * np.abs(mean_p2))
    assert np.all(np.abs(series.log_norm - log_norm) <= 1e-11)
