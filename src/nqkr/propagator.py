"""One-kick split-operator Floquet evolution with a complex modulated kick.

A single step applies the kick factor exp[-i*(K+i*lam)*f(t)*cos(theta)/hbar]
in angle representation and the free factor exp(-i*n^2*hbar/2) in momentum
representation, with f(t) = 1 + eta*cos(omega1*t)*cos(omega2*t) sampled at the
kick times t = 1, 2, ..., where omega1 = 2*pi/kappa and omega2 = 2*pi/kappa^2
are fixed by the plastic number kappa (`constants`). Conventions:

* angle grid theta_m = 2*pi*m/M, m = 0..M-1;
* DFT pairing psi(theta_m) = sum_n psi_n e^(i*n*theta_m)/sqrt(M). Amplitudes
  stay in centered storage order n = -M/2 .. M/2-1, and the kick is
  fft(kick * ifft(amps)) on that order with no shifts. On centered storage an
  ifftshift before ifft multiplies each angle sample by (-1)^m, and the
  fftshift after fft multiplies by (-1)^m again, so the two factors cancel
  across the pointwise kick. numpy's ifft carries 1/M, which equals the
  1/sqrt(M) * 1/sqrt(M) of the unitary pair, so no extra scaling is needed;
* the kick factor depends on the angle only through cos(theta_m), and for
  every even M, cos(theta_(M-m)) = cos(theta_m) and
  cos(theta_(M/2-q)) = -cos(theta_q). With a = f/hbar, the factor at
  +cos(theta_q) is F_q = e^((lam*a - i*K*a)*cos(theta_q) - g) and at
  -cos(theta_q) it is conj(F_q)*e^(-2*lam*a*cos(theta_q)). So each kick takes
  one complex and one real exponential on the M//4+1 quarter-wave points
  q = 0..M//4 instead of a complex one on M points, and the factor on angles
  m > M/2 is the mirrored slice of angles 0..M/2. The factor is therefore
  exactly parity-symmetric, F[m] == F[(M-m) % M], and the forward FFT
  writes into the inverse FFT's output (timings in `BENCH_13.json`). The
  half-wave factor of the last kick is cached (`_half_wave_factor`), so the
  M columns of `spectrum.build_floquet_matrix`, all kicked at one t, compute
  it once, while a modulated evolution computes one per kick;
* the kick's maximal amplitude gain e^g, g = |lam|*a, is factored out
  analytically before exponentiation (|lam*a*cos(theta)| <= g), so the
  pointwise factors never exceed 1 in magnitude, and the stored amplitudes
  are renormalized to unit norm after every kick with the removed growth
  accumulated in WaveFunction.log_norm; a kick that would make log_norm
  non-finite raises NormCollapseError.

Without that factoring and renormalization a lam=5 run would overflow doubles
within a few hundred kicks.

After each step `evolve` reads `lattice.tail_probability` of the stored
amplitudes, which `step` leaves at unit norm, and warns once
(`WrapAroundWarning`) when it reaches `lattice.TAIL_PROBABILITY_LIMIT`: the
tail-safety rule that the spectrum's eigenstates also follow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .constants import EPSILON_DEFAULT, ETA_DEFAULT, OMEGA1, OMEGA2
from .lattice import MomentumLattice, NormCollapseError, WaveFunction, _check_norm
from .lattice import TAIL_PROBABILITY_LIMIT, ground_state, tail_probability


class WrapAroundWarning(UserWarning):
    """Probability reached the lattice edge; results may be wrapped."""


@dataclass(frozen=True)
class KickSchedule:
    """Kick strengths and quasi-periodic modulation depth.

    K and lam set the real and imaginary parts of the kick potential; eta is
    the depth of the modulation at the fixed frequencies OMEGA1 and OMEGA2.
    """

    K: float
    lam: float
    eta: float = ETA_DEFAULT

    def __post_init__(self):
        # written as ranges so that nan fails them too
        if not 0.0 <= self.K < math.inf:
            raise ValueError(f"K must be finite and >= 0, got {self.K}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class SimConfig:
    """Everything a single deterministic run needs.

    The kick phase is V/hbar. A literal half-phase reading, V/(2*hbar), is
    the run with K and lam halved, bit for bit: halving is exact in binary
    floating point, so both give the same K*a and lam*a.
    """

    lattice: MomentumLattice
    schedule: KickSchedule
    kick_count: int
    epsilon_shift: float = EPSILON_DEFAULT

    def __post_init__(self):
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")
        if not 0.0 < self.epsilon_shift < 0.1:
            raise ValueError(
                f"epsilon_shift must be a small positive number, got {self.epsilon_shift}"
            )
        # the largest kick exponent, at modulation 1 + eta, in apply_kick's
        # order; a finite one keeps every kick factor finite
        a_max = (1.0 + self.schedule.eta) / self.lattice.hbar_eff
        exponent = max(self.schedule.K, self.schedule.lam) * a_max
        if not math.isfinite(exponent):
            raise ValueError(
                f"kick exponent (1+eta)*max(K, lam)/hbar = {exponent} is not finite; "
                "raise hbar or lower K and lam"
            )


def modulation_factor(schedule: KickSchedule, t: int) -> float:
    """Kick-strength modulation 1 + eta*cos(omega1*t)*cos(omega2*t) at kick time t."""
    return 1.0 + schedule.eta * math.cos(OMEGA1 * t) * math.cos(OMEGA2 * t)


@lru_cache(maxsize=32)
def _quarter_cos(size: int) -> np.ndarray:
    """cos(theta_q) for q = 0..size//4: every angle's cosine up to its sign."""
    cos_q = np.cos(2.0 * np.pi * np.arange(size // 4 + 1) / size)
    cos_q.flags.writeable = False
    return cos_q


@lru_cache(maxsize=32)
def _free_phases(size: int, hbar: float) -> np.ndarray:
    n = np.arange(-size // 2, size // 2)
    phases = np.exp(-0.5j * hbar * n * n)
    phases.flags.writeable = False
    return phases


@lru_cache(maxsize=1)
def _half_wave_factor(size: int, lam_a: float, k_a: float, gain_shift: float) -> np.ndarray:
    """Read-only exp((lam_a - i*k_a)*cos(theta_m) - gain_shift) for m = 0..M/2.

    One complex exponential on the quarter-wave table gives the factor at
    +cos(theta_q), m = q = 0..M//4; the factor at -cos(theta_q), m = M/2 - q,
    is its conjugate times the real e^(-2*lam_a*cos(theta_q)) <= 1. Only the
    last factor is kept: matrix assembly kicks every column at one t, while
    each kick of a modulated evolution needs a new one.
    """
    cos_q = _quarter_cos(size)
    factor = np.empty(size // 2 + 1, dtype=complex)
    upper = factor[: cos_q.size - 1 : -1]  # upper[q] is the factor at m = M/2 - q
    np.exp((lam_a - 1j * k_a) * cos_q - gain_shift, out=factor[: cos_q.size])
    np.conjugate(factor[: upper.size], out=upper)
    upper *= np.exp((-2.0 * lam_a) * cos_q[: upper.size])
    factor.flags.writeable = False
    return factor


def _multiply_kick_factor(
    angle: np.ndarray, lam_a: float, k_a: float, gain_shift: float
) -> None:
    """Multiply angle samples in place by exp((lam_a - i*k_a)*cos(theta_m) - gain_shift).

    Angles m <= M/2 take the half-wave factor, and angles m > M/2 its
    mirrored slice.
    """
    half = angle.size // 2
    factor = _half_wave_factor(angle.size, lam_a, k_a, gain_shift)
    angle[: half + 1] *= factor
    angle[half + 1 :] *= factor[half - 1 : 0 : -1]


def apply_kick(psi: WaveFunction, schedule: KickSchedule, t: int) -> WaveFunction:
    """Apply the kick at time t in place, renormalize, and return psi.

    The removed squared-norm factor (including the analytically factored
    maximal gain) is added to psi.log_norm.
    """
    a = modulation_factor(schedule, t) / psi.lattice.hbar_eff
    gain_shift = abs(schedule.lam) * abs(a)

    angle = np.fft.ifft(psi.amps)
    _multiply_kick_factor(angle, schedule.lam * a, schedule.K * a, gain_shift)
    amps = np.fft.fft(angle, out=angle)

    norm_sq = _check_norm(float(np.vdot(amps, amps).real))
    log_norm = psi.log_norm + math.log(norm_sq) + 2.0 * gain_shift
    if not math.isfinite(log_norm):
        raise NormCollapseError(f"accumulated log-norm {log_norm} is not finite")
    amps *= 1.0 / math.sqrt(norm_sq)
    psi.amps, psi.log_norm = amps, log_norm
    return psi


def apply_free(psi: WaveFunction) -> WaveFunction:
    """Multiply each psi_n by exp(-i*n^2*hbar/2) in place; norm is preserved."""
    psi.amps *= _free_phases(psi.lattice.size, psi.lattice.hbar_eff)
    return psi


def step(psi: WaveFunction, config: SimConfig, t: int) -> WaveFunction:
    """One Floquet step at kick time t: kick first, then free evolution."""
    apply_kick(psi, config.schedule, t)
    return apply_free(psi)


Observer = Callable[[int, WaveFunction], None]


def evolve(config: SimConfig, observers: Sequence[Observer] = ()) -> WaveFunction:
    """Run kick_count steps from the ground state, notifying observers.

    Observers are called after each step with (kick_time, psi), at the kick
    times t = 1..kick_count. An ArithmeticError from a step or an observer
    keeps its type and gains the kick time; any other observer error becomes
    a RuntimeError. Deterministic: identical configs produce bit-identical
    amplitudes.
    """
    psi = ground_state(config.lattice)
    warned = False
    for t in range(1, config.kick_count + 1):
        try:
            step(psi, config, t)
        except ArithmeticError as exc:
            raise type(exc)(f"{exc} (at kick t={t})") from exc
        if not warned and tail_probability(psi.amps) >= TAIL_PROBABILITY_LIMIT:
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
            except ArithmeticError as exc:
                raise type(exc)(f"{exc} (at kick t={t})") from exc
            except Exception as exc:
                raise RuntimeError(f"observer failed at kick t={t}: {exc}") from exc
    return psi
