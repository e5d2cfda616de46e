"""One-kick split-operator Floquet evolution with a complex modulated kick.

A single step applies the kick factor exp[-i*(K+i*lam)*f(t)*cos(theta)/(d*hbar)]
in angle representation and the free factor exp(-i*n^2*hbar/2) in momentum
representation, with f(t) = 1 + eta*cos(omega1*t)*cos(omega2*t) sampled at the
integer kick time t. Conventions:

* angle grid theta_m = 2*pi*m/M, m = 0..M-1;
* DFT pairing psi(theta_m) = sum_n psi_n e^(i*n*theta_m)/sqrt(M). Amplitudes
  stay in centered storage order n = -M/2 .. M/2-1, and the kick is
  fft(kick * ifft(amps)) on that order with no shifts. On centered storage an
  ifftshift before ifft multiplies each angle sample by (-1)^m, and the
  fftshift after fft multiplies by (-1)^m again, so the two factors cancel
  across the pointwise kick. numpy's ifft carries 1/M, which equals the
  1/sqrt(M) * 1/sqrt(M) of the unitary pair, so no extra scaling is needed;
* the kick's maximal amplitude gain exp(|lam|*f/(d*hbar)) is factored out
  analytically before exponentiation, so the pointwise factors never exceed 1
  in magnitude, and the stored amplitudes are renormalized to unit norm after
  every kick with the removed growth accumulated in WaveFunction.log_norm.

Without that factoring and renormalization a lam=5 run would overflow doubles
within a few hundred kicks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .constants import EPSILON_DEFAULT, ETA_DEFAULT, OMEGA1, OMEGA2
from .lattice import MomentumLattice, WaveFunction, _check_norm, edge_sites, ground_state

# An evolution is declared tail-safe only while the outer 5% of lattice sites
# hold less than this much probability; beyond it the periodic FFT lattice
# wraps amplitude around and M must be enlarged.
TAIL_PROBABILITY_LIMIT = 1e-10


class WrapAroundWarning(UserWarning):
    """Probability reached the lattice edge; results may be wrapped."""


class AmplitudeOverflowError(ArithmeticError):
    """Amplitudes overflowed despite max-gain factoring."""


@dataclass(frozen=True)
class KickSchedule:
    """Kick strengths and quasi-periodic modulation parameters.

    K and lam set the real and imaginary parts of the kick potential; eta is
    the modulation depth and omega1/omega2 the two incommensurate modulation
    frequencies (defaults 2*pi/kappa and 2*pi/kappa^2 with kappa the plastic
    number).
    """

    K: float
    lam: float
    eta: float = ETA_DEFAULT
    omega1: float = OMEGA1
    omega2: float = OMEGA2

    def __post_init__(self):
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("modulation frequencies must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Everything a single deterministic run needs."""

    lattice: MomentumLattice
    schedule: KickSchedule
    kick_count: int
    kick_phase_divisor: float = 1.0
    epsilon_shift: float = EPSILON_DEFAULT
    kick_time_offset: int = 1

    def __post_init__(self):
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")
        if self.kick_phase_divisor not in (1.0, 2.0):
            raise ValueError(
                f"kick_phase_divisor must be 1 or 2, got {self.kick_phase_divisor}"
            )
        if not 0.0 < self.epsilon_shift < 0.1:
            raise ValueError(
                f"epsilon_shift must be a small positive number, got {self.epsilon_shift}"
            )


def modulation_factor(schedule: KickSchedule, t: int) -> float:
    """Kick-strength modulation 1 + eta*cos(omega1*t)*cos(omega2*t) at kick time t."""
    return 1.0 + schedule.eta * math.cos(schedule.omega1 * t) * math.cos(schedule.omega2 * t)


@lru_cache(maxsize=32)
def _cos_theta(size: int) -> np.ndarray:
    cos_theta = np.cos(2.0 * np.pi * np.arange(size) / size)
    cos_theta.flags.writeable = False
    return cos_theta


@lru_cache(maxsize=32)
def _free_phases(size: int, hbar: float) -> np.ndarray:
    n = np.arange(-size // 2, size // 2)
    phases = np.exp(-0.5j * hbar * n * n)
    phases.flags.writeable = False
    return phases


def apply_kick(
    psi: WaveFunction,
    schedule: KickSchedule,
    t: int,
    divisor: float = 1.0,
) -> WaveFunction:
    """Apply the kick at time t in place, renormalize, and return psi.

    The removed squared-norm factor (including the analytically factored
    maximal gain) is added to psi.log_norm.
    """
    a = modulation_factor(schedule, t) / (divisor * psi.lattice.hbar_eff)
    gain_shift = abs(schedule.lam) * abs(a)

    angle = np.fft.ifft(psi.amps)
    angle *= np.exp(
        ((schedule.lam - 1j * schedule.K) * a) * _cos_theta(psi.lattice.size) - gain_shift
    )
    amps = np.fft.fft(angle)

    norm_sq = float(np.vdot(amps, amps).real)
    if not math.isfinite(norm_sq):
        raise AmplitudeOverflowError(
            "amplitudes overflowed during a kick; reduce the per-step "
            "amplification (smaller lam or larger hbar/divisor)"
        )
    _check_norm(norm_sq)
    amps *= 1.0 / math.sqrt(norm_sq)
    psi.amps = amps
    psi.log_norm += math.log(norm_sq) + 2.0 * gain_shift
    return psi


def apply_free(psi: WaveFunction) -> WaveFunction:
    """Multiply each psi_n by exp(-i*n^2*hbar/2) in place; norm is preserved."""
    psi.amps *= _free_phases(psi.lattice.size, psi.lattice.hbar_eff)
    return psi


def step(psi: WaveFunction, config: SimConfig, t: int) -> WaveFunction:
    """One Floquet step at kick time t: kick first, then free evolution."""
    apply_kick(psi, config.schedule, t, config.kick_phase_divisor)
    return apply_free(psi)


def tail_probability(psi: WaveFunction) -> float:
    """Probability in the outer 5% of lattice sites (normalized)."""
    edge = edge_sites(psi.lattice.size)
    prob_edge = (
        float(np.vdot(psi.amps[:edge], psi.amps[:edge]).real)
        + float(np.vdot(psi.amps[-edge:], psi.amps[-edge:]).real)
    )
    return prob_edge / psi.stored_norm_sq()


Observer = Callable[[int, WaveFunction], None]


def evolve(config: SimConfig, observers: Sequence[Observer] = ()) -> WaveFunction:
    """Run kick_count steps from the ground state, notifying observers.

    Observers are called after each step with (kick_time, psi). Kick times are
    kick_time_offset + i for step i, so the default schedule is t = 1, 2, ...
    Deterministic: identical configs produce bit-identical amplitudes.
    """
    psi = ground_state(config.lattice)
    warned = False
    for i in range(config.kick_count):
        t = config.kick_time_offset + i
        try:
            step(psi, config, t)
        except ArithmeticError as exc:
            raise type(exc)(f"{exc} (at kick t={t})") from exc
        if not warned and tail_probability(psi) >= TAIL_PROBABILITY_LIMIT:
            warnings.warn(
                f"tail probability exceeded {TAIL_PROBABILITY_LIMIT:g} at kick "
                f"t={t}; momentum lattice M={config.lattice.size} is too small "
                "and amplitude is wrapping around",
                WrapAroundWarning,
                stacklevel=2,
            )
            warned = True
        for obs in observers:
            try:
                obs(t, psi)
            except Exception as exc:
                raise RuntimeError(f"observer failed at kick t={t}: {exc}") from exc
    return psi
