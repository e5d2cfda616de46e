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
  q = 0..M//4 instead of a complex one on M points, and each angle m > M/2
  copies the factor of angle M - m. The factor is therefore exactly
  parity-symmetric, F[m] == F[(M-m) % M], a kick multiplies it onto the M
  angle samples in one pass, and the forward FFT writes into the inverse
  FFT's output (timings in `BENCH_13.json`);
* the gains and factors of a modulated run on up to M = 2048 sites come in
  tables of B = 16 consecutive kicks t0..t0+B-1 (`_kick_table`), each step
  built by one numpy call over all B rows, with t0 the multiple of B at or
  below t. A table saves numpy's per-call cost, which only small lattices
  feel (`BENCH_36.json`: a kick's factor took 9.8 us at M = 1024 and 17.8 us
  at M = 2048, against 14.3 and 20.7 us built alone); why larger lattices
  build no table is stated above `_TABLE_ROWS`. Each row equals the factor
  built alone bit for bit, so no factor depends on B or on the order of the
  calls. Above M = 2048, and when eta = 0 makes every
  kick alike, each factor is built alone and the last one is cached by its
  value (`_kick_factor`): an unmodulated run builds one, and a modulated
  run on a large lattice one per kick. The last table is cached too, so the
  M columns of `spectrum.build_floquet_matrix`, all kicked at one t, build
  one table or factor, `apply_floquet`, which applies the same U(t) to
  blocks of eigenvectors for their residuals, reads it again, and an
  evolution builds one table per B kicks. The two FFTs of a kick stay 1-D
  calls, whose per-call cost only batching configs can amortize: one
  inverse FFT took 14.7 us at M = 1024 and 45.1 us at M = 4096, against 6.4
  and 25.4 us per row of an 8-row batch;
* the free phases are exact to double rounding: an error-free product
  (Dekker, Numer. Math. 18, 224 (1971)) gives hbar*n^2/2 = hi + lo exactly,
  and the phase is e^(-i*hi)*e^(-i*lo). An argument rounded to double errs
  by up to hbar*n^2/2 * 2^-53, 8.1e-10 rad at the edge of M = 4096, and by
  the same amount at every kick. The last (M, hbar)'s table is cached
  (`_free_phases`), so this costs nothing per kick. e^(-i*lo) equals
  1 - i*lo bit for bit while |lo| < 1e-8, that is while hbar*n^2/2 stays
  below about 9e7, and unlike 1 - i*lo it keeps |phase| = 1 beyond that;
* the kick's maximal amplitude gain e^g, g = lam*a, is factored out
  analytically before exponentiation (|lam*a*cos(theta)| <= g), so the
  pointwise factors never exceed 1 in magnitude. g needs no abs: KickSchedule
  keeps lam >= 0 and eta <= 1, so f >= 0, and MomentumLattice keeps hbar > 0,
  so a >= 0. The stored amplitudes are renormalized to unit norm after every
  kick with the removed growth accumulated in WaveFunction.log_norm; a kick
  that would make log_norm non-finite raises NormCollapseError.

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

    A run evolves kick_count kicks; a spectrum (`spectrum.quasi_spectrum`)
    reads kick_count as the t of its operator U(t). The kick phase is V/hbar.
    A literal half-phase reading, V/(2*hbar), is the run with K and lam
    halved, bit for bit: halving is exact in binary floating point, so both
    give the same K*a and lam*a.
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


def _split(x):
    """(hi, lo) with hi + lo == x exactly, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = fl(a*b) and hi + lo == a*b exactly (Dekker 1971)."""
    hi = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    lo = a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return hi, lo


@lru_cache(maxsize=1)
def _free_phases(size: int, hbar: float) -> np.ndarray:
    """Read-only e^(-i*hbar*n^2/2) for n = -M/2..M/2-1, read by every step and U(t) column.

    A rounded argument would err by the same amount at every kick, so the
    error would add up: hbar/2*n^2 = hi + lo exactly instead (n^2 and hbar/2
    are exact up to LATTICE_SIZE_BUDGET), and the phase is e^(-i*hi)*e^(-i*lo).
    Only the last lattice's table is kept: a norm scan runs each hbar's points
    in a row, so it builds one table per hbar, and a larger cache would keep
    16*M bytes per hbar allocated after the scan.
    """
    n = np.arange(-size // 2, size // 2, dtype=np.float64)
    hi, lo = _two_product(0.5 * hbar, n * n)
    phases = np.exp(-1j * hi) * np.exp(-1j * lo)
    phases.flags.writeable = False
    return phases


# Kicks per kick table, by lattice size. One table's numpy calls serve
# _TABLE_ROWS kicks, which pays where their per-call cost is as large as the
# arithmetic: at M = 1024 a 16-row table cut the cost per factor from 14.3 to
# 9.8 us (`BENCH_36.json`). At M = 4096, where the exponentials dominate,
# tables make runs slower end to end: with 8-row and with 16-row tables there,
# the `series` benchmark (five 1000-kick runs at M = 4096) took 1.36 and
# 1.40 s against 1.32 s with each factor built alone, slower in 5 and in 6 of
# 6 pairs, and its peak RSS rose by 1.0 and 2.3 MB (`BENCH_37.json`). The
# table's arithmetic on one row took 21.5 us at M = 1024 and 38.7 us at
# M = 4096, so a one-row rule builds each factor alone (`_kick_factor`). A
# table's factors take at most 16*_TABLE_ROWS*_TABLE_MAX_SIZE bytes, 512 KiB.
_TABLE_ROWS = 16
_TABLE_MAX_SIZE = 2048


def _table_rows(size: int) -> int:
    """Kicks per kick table on an M-site lattice: 16 up to M = 2048, else 1."""
    return _TABLE_ROWS if size <= _TABLE_MAX_SIZE else 1


def _write_factors(out: np.ndarray, gain, k_a) -> None:
    """Write exp((gain - i*k_a)*cos(theta_m) - gain), m = 0..M-1, along out's last axis.

    gain = lam*a and k_a = K*a are floats for one factor, or (rows, 1) columns
    for a table of rows factors. gain is the kick's maximal gain, so no factor
    exceeds 1 in magnitude.

    One complex exponential on the quarter-wave table gives the factor at
    +cos(theta_q), m = q = 0..M//4; the factor at -cos(theta_q), m = M/2 - q,
    is its conjugate times the real e^(-2*gain*cos(theta_q)) <= 1, and each
    angle m > M/2 copies the factor of its mirror angle M - m. A table takes
    every step in one numpy call over all rows with the same per-element
    arithmetic, so each row equals the factor written alone bit for bit.
    """
    size = out.shape[-1]
    cos_q = _quarter_cos(size)
    half = size // 2
    upper = out[..., half : cos_q.size - 1 : -1]  # upper[..., q] is the factor at m = M/2 - q
    np.exp((gain - 1j * k_a) * cos_q - gain, out=out[..., : cos_q.size])
    np.conjugate(out[..., : upper.shape[-1]], out=upper)
    upper *= np.exp((-2.0 * gain) * cos_q[: upper.shape[-1]])
    out[..., half + 1 :] = out[..., half - 1 : 0 : -1]


@lru_cache(maxsize=1)
def _kick_factor(size: int, lam_a: float, k_a: float) -> np.ndarray:
    """Read-only factor of one kick with gain lam_a = lam*a and k_a = K*a.

    Keyed by value, so the kicks of an unmodulated run (eta = 0), which all
    have one key, build it once.
    """
    factor = np.empty(size, dtype=complex)
    _write_factors(factor, lam_a, k_a)
    factor.flags.writeable = False
    return factor


@lru_cache(maxsize=1)
def _kick_table(
    size: int, hbar: float, schedule: KickSchedule, t0: int, rows: int
) -> tuple[tuple[float, ...], np.ndarray]:
    """Gains lam*a and read-only (rows, M) factors of the kicks at t = t0..t0+rows-1."""
    f = np.array([modulation_factor(schedule, t) for t in range(t0, t0 + rows)])
    a = f[:, np.newaxis] / hbar
    gain = schedule.lam * a
    table = np.empty((rows, size), dtype=complex)
    _write_factors(table, gain, schedule.K * a)
    table.flags.writeable = False
    return tuple(gain.ravel().tolist()), table


def _kick_row(
    lattice: MomentumLattice, schedule: KickSchedule, t: int
) -> tuple[float, np.ndarray]:
    """Gain lam*a and read-only factor of the kick at time t, a = f(t)/hbar.

    Where the size rule gives one row, or eta = 0 makes every kick alike, the
    factor is built alone and cached by value (`_kick_factor`). Otherwise it
    is row t - t0 of a table (`_kick_table`), with t0 the multiple of the row
    count at or below t: t0 depends on t alone, and the order of the calls
    never changes a factor. Only the last factor and the last table are kept.
    """
    rows = _table_rows(lattice.size)
    if rows == 1 or schedule.eta == 0.0:
        a = modulation_factor(schedule, t) / lattice.hbar_eff
        lam_a = schedule.lam * a
        return lam_a, _kick_factor(lattice.size, lam_a, schedule.K * a)
    row = t % rows
    gains, factors = _kick_table(lattice.size, lattice.hbar_eff, schedule, t - row, rows)
    return gains[row], factors[row]


def apply_kick(psi: WaveFunction, schedule: KickSchedule, t: int) -> WaveFunction:
    """Apply the kick at time t in place, renormalize, and return psi.

    The removed squared-norm factor (including the analytically factored
    maximal gain) is added to psi.log_norm.
    """
    lam_a, factor = _kick_row(psi.lattice, schedule, t)
    angle = np.fft.ifft(psi.amps)
    angle *= factor
    amps = np.fft.fft(angle, out=angle)

    norm_sq = _check_norm(float(np.vdot(amps, amps).real))
    log_norm = psi.log_norm + math.log(norm_sq) + 2.0 * lam_a
    if not math.isfinite(log_norm):
        raise NormCollapseError(f"accumulated log-norm {log_norm} is not finite")
    amps *= 1.0 / math.sqrt(norm_sq)
    psi.amps, psi.log_norm = amps, log_norm
    return psi


def apply_free(psi: WaveFunction) -> WaveFunction:
    """Multiply each psi_n by exp(-i*n^2*hbar/2) in place; norm is preserved."""
    psi.amps *= _free_phases(psi.lattice.size, psi.lattice.hbar_eff)
    return psi


def apply_floquet(
    columns: np.ndarray, lattice: MomentumLattice, schedule: KickSchedule, t: int
) -> np.ndarray:
    """U(t) @ columns for an (M, B) block of momentum columns, as a new array.

    The kick at time t and the free phases are applied to every column at
    once, by one FFT pair along axis 0, with the factors `step` uses and the
    gain e^(lam*a) put back instead of renormalizing. So column j is, to
    roundoff, U(t) @ columns[:, j] with U(t) as `spectrum.build_floquet_matrix`
    assembles it. A gain beyond double range gives inf or nan entries.
    """
    lam_a, factor = _kick_row(lattice, schedule, t)
    factor = factor * np.exp(lam_a)
    angle = np.fft.ifft(columns, axis=0)
    angle *= factor[:, np.newaxis]
    out = np.fft.fft(angle, axis=0, out=angle)
    out *= _free_phases(lattice.size, lattice.hbar_eff)[:, np.newaxis]
    return out


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
