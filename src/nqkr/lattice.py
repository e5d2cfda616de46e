"""Momentum-lattice state representation and momentum distributions.

Amplitudes are stored in increasing momentum-index order n = -M/2 .. M/2-1,
with site momentum p_n = n*hbar. Any FFT-layout reshuffling is the
propagator's business; nothing in this module depends on it.

Every distribution here and every expectation value and OTOC in
`observables` reads psi_n's squared real and imaginary parts from one
probability pass, `_squared_parts`. The propagator's wrap-around check and
the spectrum's eigenstate tail weights share one edge band, `edge_sites`,
one weight on it, `tail_probability`, and one limit,
`TAIL_PROBABILITY_LIMIT`. The spectrum's eigenvector embedding and the
profile fits' window split index sets into runs with one helper, `_runs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Below this total probability the state is numerically gone.
NORM_COLLAPSE_FLOOR = 1e-300
# Largest lattice size accepted: 512x the 8192 sites of the largest recipe,
# so that a mistyped size is an error before anything is allocated.
LATTICE_SIZE_BUDGET = 2**22
# A state is tail-safe only while its two edge bands hold less than this much
# probability; beyond it the periodic FFT lattice wraps amplitude around the
# n = +-M/2 seam, and M must be enlarged.
TAIL_PROBABILITY_LIMIT = 1e-10


class NormCollapseError(ArithmeticError):
    """State norm fell below double-precision viability or is not finite."""


@dataclass(frozen=True)
class MomentumLattice:
    """Truncated momentum lattice with M sites and effective Planck constant."""

    size: int
    hbar_eff: float

    def __post_init__(self):
        if self.size < 2 or self.size % 2 != 0:
            raise ValueError(f"lattice size must be even and >= 2, got {self.size}")
        if self.size > LATTICE_SIZE_BUDGET:
            raise ValueError(
                f"lattice size {self.size} exceeds the budget {LATTICE_SIZE_BUDGET}")
        if not self.hbar_eff > 0:
            raise ValueError(f"hbar_eff must be positive, got {self.hbar_eff}")
        if not math.isfinite(self.hbar_eff):
            raise ValueError(f"hbar_eff must be finite, got {self.hbar_eff}")
        # the largest p^2, at n = -M/2; a finite (M/2*hbar)^2 also bounds the
        # largest free phase (M/2)^2*hbar/2 on any lattice that fits in memory
        p_max = self.size // 2 * self.hbar_eff
        if not math.isfinite(p_max * p_max):
            raise ValueError(
                f"hbar_eff {self.hbar_eff} overflows p^2 = (n*hbar)^2 on {self.size} sites"
            )

    @property
    def indices(self) -> np.ndarray:
        """Momentum indices n = -M/2 .. M/2-1 in storage order."""
        return np.arange(-self.size // 2, self.size // 2)

    @property
    def momenta(self) -> np.ndarray:
        """Site momenta p_n = n*hbar in storage order."""
        return self.indices * self.hbar_eff


@dataclass
class WaveFunction:
    """Complex amplitudes over a momentum lattice plus an accumulated log-norm.

    The true squared norm is exp(log_norm) * sum(|amps|^2); after each
    renormalization step in the propagator the stored amplitudes are unit
    norm and all growth lives in log_norm. This keeps non-Hermitian runs,
    whose norm grows like e^(mu*t), inside double range indefinitely.
    """

    lattice: MomentumLattice
    amps: np.ndarray
    log_norm: float = 0.0

    def __post_init__(self):
        self.amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.lattice.size,):
            raise ValueError(
                f"amps must have shape ({self.lattice.size},), got {self.amps.shape}"
            )

    def stored_norm_sq(self) -> float:
        """Sum of |amps|^2 (without the log_norm factor)."""
        return float(np.vdot(self.amps, self.amps).real)

    def true_log_norm_sq(self) -> float:
        """Natural log of the true squared norm exp(log_norm)*sum|amps|^2."""
        s = self.stored_norm_sq()
        _check_norm(s)
        return self.log_norm + float(np.log(s))


class MomentumDistribution(NamedTuple):
    """Normalized momentum-space probabilities paired with their momenta."""

    p: np.ndarray
    prob: np.ndarray


def _check_norm(norm_sq: float) -> float:
    if not math.isfinite(norm_sq):
        raise NormCollapseError(
            f"state norm is not finite (sum|amps|^2 = {norm_sq:.3e}); "
            "the simulation is no longer numerically meaningful"
        )
    if not norm_sq > NORM_COLLAPSE_FLOOR:
        raise NormCollapseError(
            f"state norm collapsed (sum|amps|^2 = {norm_sq:.3e}); "
            "the simulation is no longer numerically meaningful"
        )
    return norm_sq


def edge_sites(size: int) -> int:
    """Sites in each edge band: the outer 2 * edge_sites hold 5% of the lattice."""
    return max(1, size // 40)


def tail_probability(amps: np.ndarray) -> float | np.ndarray:
    """Probability on the two edge bands, the first and last edge_sites along axis 0.

    A float for a state, one value per column for a matrix. Each column's
    band is copied contiguous first, since a BLAS dot sums strided and
    contiguous vectors in different orders; so a column's weight has the bits
    of the state made of it, and the propagator's check on its unit-norm
    amplitudes and the spectrum's unit-norm eigenvectors read one weight.
    """
    edge = edge_sites(amps.shape[0])
    band = np.ascontiguousarray(np.concatenate((amps[:edge], amps[-edge:])).T)
    return np.vecdot(band, band).real


def _squared_parts(psi: WaveFunction) -> np.ndarray:
    """(Re psi_n)^2 and (Im psi_n)^2, interleaved in storage order."""
    return psi.amps.view(np.float64) ** 2


def ground_state(lattice: MomentumLattice) -> WaveFunction:
    """Zero-momentum eigenstate: amplitude 1 at n=0, the flat state in angle."""
    amps = np.zeros(lattice.size, dtype=np.complex128)
    amps[lattice.size // 2] = 1.0
    return WaveFunction(lattice, amps, 0.0)


def _runs(indices: np.ndarray, max_step: int) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of sorted indices that step by at most max_step."""
    breaks = np.flatnonzero(np.diff(indices) > max_step) + 1
    return [(int(run[0]), int(run[-1]) + 1) for run in np.split(indices, breaks) if len(run)]


def momentum_distribution(psi: WaveFunction) -> MomentumDistribution:
    """Normalized |psi_n|^2 paired with p_n, ready for fitting or file output."""
    prob = _squared_parts(psi).reshape(-1, 2).sum(axis=1)
    return MomentumDistribution(psi.lattice.momenta.copy(), prob / _check_norm(float(prob.sum())))
