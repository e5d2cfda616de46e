"""OTOC time series, momentum-profile fits, and growth-rate extraction.

The rescaled OTOC is recorded from the renormalized state. That is exact, not
an approximation: with A = e^(-i*eps*p) diagonal in the momentum basis,
C(t) = 1 - |<psi|A|psi>|^2 / N^2 and both the overlap and N carry the same
exp(log_norm) factor, which cancels. So C(t) = 1 - |sum_n w_n e^(-i*eps*p_n)|^2
with w_n = |psi_n|^2 / sum|psi|^2.

Early in a run C is ~1e-9, so that form would subtract two numbers equal to
about nine digits and keep only the last seven. It is evaluated instead as
C = 2a - a^2 - b^2 with a = sum_n w_n * 2 sin^2(eps*p_n/2) and
b = sum_n w_n sin(eps*p_n), which is the same quantity (the overlap is
1 - a - i*b) with no cancellation and no complex exponential.

`observables` takes the norm and the sums behind a, b, <p> and <p^2> from
one matrix-vector product of a cached table with the squared real and
imaginary parts of the amplitudes; the per-kick series, `otoc_exact`,
`otoc_approx`, `expectation_p` and `expectation_p2` all call it, so a run's
last record equals the functions applied to its final state bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .constants import EPSILON_DEFAULT
from .lattice import (
    MomentumDistribution,
    MomentumLattice,
    WaveFunction,
    _check_norm,
    _runs,
    _squared_parts,
    momentum_distribution,
)
from .propagator import SimConfig, evolve

PROBABILITY_FLOOR = 1e-30
FIT_WINDOW_PROB = 1e-25
# The default fit window bridges at most this many sub-threshold sites in a row.
FIT_WINDOW_GAP = 8


class FitError(ValueError):
    """A least-squares fit could not be performed or is meaningless."""


@dataclass
class OtocSeries:
    """Per-kick records of the scrambling and norm observables.

    The fields, in order, are the columns of `otoc_series.csv`: the kick
    time t (strictly increasing integers), the rescaled OTOC
    c_exact = 1 - |<e^(-i*eps*p)>|^2, its small-shift form
    c_approx = eps^2 * (<p^2> - <p>^2), log_norm = ln of the true squared
    norm, and the normalized <p> and <p^2>.
    """

    t: np.ndarray
    c_exact: np.ndarray
    c_approx: np.ndarray
    log_norm: np.ndarray
    mean_p: np.ndarray
    mean_p2: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t)
        non_integer = t[~(np.isfinite(t) & (t == np.round(t)))]
        if non_integer.size:
            raise ValueError(f"kick times must be integers, got {non_integer.tolist()}")
        self.t = t.astype(np.int64)
        for field in fields(self)[1:]:
            arr = np.asarray(getattr(self, field.name), dtype=np.float64)
            if arr.shape != self.t.shape:
                raise ValueError(f"{field.name} length does not match t")
            setattr(self, field.name, arr)
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("records must be strictly ordered in t")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ProfileFit:
    """Log-linear fit of a momentum profile against one model class."""

    kind: str  # "exponential" or "gaussian"
    xi_or_sigma: float
    r_squared: float
    fit_window: tuple[float, float]


@dataclass(frozen=True)
class NormGrowthFit:
    """Linear fit of log-norm versus kick time."""

    mu: float
    intercept: float
    fit_window: tuple[float, float]
    r_squared: float


@lru_cache(maxsize=32)
def _observable_table(lattice: MomentumLattice, epsilon_shift: float) -> np.ndarray:
    """Rows 1, 2 sin^2(eps*p/2), sin(eps*p), p and p^2, each site twice as in `_squared_parts`."""
    p = np.repeat(lattice.momenta, 2)
    table = np.stack([np.ones_like(p), 2.0 * np.sin(0.5 * epsilon_shift * p) ** 2,
                      np.sin(epsilon_shift * p), p, p * p])
    table.flags.writeable = False
    return table


def observables(psi: WaveFunction, epsilon_shift: float) -> tuple[float, float, float, float]:
    """(C exact, C approx, <p>, <p^2>) of the normalized state in one pass.

    C exact is 1 - |1 - a - i*b|^2 without cancellation (see the module
    docstring); C approx is the small-shift form eps^2 * (<p^2> - <p>^2).
    """
    table = _observable_table(psi.lattice, epsilon_shift)
    s, a, b, mp, mp2 = (table @ _squared_parts(psi)).tolist()
    _check_norm(s)
    a, b, mp, mp2 = a / s, b / s, mp / s, mp2 / s
    # C >= 0 exactly; the max() only absorbs float roundoff.
    c_exact = max(0.0, 2.0 * a - a * a - b * b)
    return c_exact, epsilon_shift**2 * (mp2 - mp * mp), mp, mp2


def otoc_exact(psi: WaveFunction, epsilon_shift: float) -> float:
    """Rescaled OTOC 1 - |<e^(-i*eps*p)>|^2 of the normalized state."""
    return observables(psi, epsilon_shift)[0]


def otoc_approx(psi: WaveFunction, epsilon_shift: float) -> float:
    """Small-shift approximation eps^2 * (<p^2> - <p>^2)."""
    return observables(psi, epsilon_shift)[1]


def expectation_p(psi: WaveFunction) -> float:
    """Normalized <p>; insensitive to log_norm and any global rescaling."""
    return observables(psi, EPSILON_DEFAULT)[2]


def expectation_p2(psi: WaveFunction) -> float:
    """Normalized <p^2>."""
    return observables(psi, EPSILON_DEFAULT)[3]


@dataclass
class EvolutionRecord:
    """A full run: the per-kick series, the final state, and any snapshots."""

    series: OtocSeries
    final: WaveFunction
    snapshots: dict[int, MomentumDistribution]


def record_series(
    config: SimConfig,
    snapshot_times: tuple[int, ...] = (),
) -> EvolutionRecord:
    """Evolve config from the ground state, recording observables each kick.

    snapshot_times lists kick times at which the momentum distribution is
    captured (useful for profile fits and file output); each must be one of
    the run's kick times 1..kick_count.
    """
    snap_at = set(snapshot_times)
    outside = sorted(t for t in snap_at if not 1 <= t <= config.kick_count)
    if outside:
        raise ValueError(
            f"snapshot times {outside} lie outside the kick times 1..{config.kick_count}"
        )
    snapshots: dict[int, MomentumDistribution] = {}
    rows: list[tuple[int, float, float, float, float, float]] = []

    def observer(t: int, psi: WaveFunction) -> None:
        c_exact, c_approx, mp, mp2 = observables(psi, config.epsilon_shift)
        rows.append((t, c_exact, c_approx, psi.log_norm, mp, mp2))
        if t in snap_at:
            snapshots[t] = momentum_distribution(psi)

    final = evolve(config, observers=[observer])
    series = OtocSeries(*np.reshape(rows, (len(rows), len(fields(OtocSeries)))).T)
    return EvolutionRecord(series, final, snapshots)


def _window_mask(x: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    return (x >= lo) & (x <= hi)


def _sum_sq(v: np.ndarray) -> float:
    """sum(v**2); an overflow gives inf without a warning, for the caller to rescale."""
    with np.errstate(over="ignore"):
        return float(np.sum(v**2))


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and r^2. Constant data fits exactly.

    r^2 does not depend on the scale of y, so when ss_tot overflows or falls
    below the smallest normal double, where its squares have lost digits,
    both sums of squares are taken of y / ptp(y) instead.
    """
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dev = y - y.mean()
    span = np.ptp(y)
    ss_res, ss_tot = _sum_sq(resid), _sum_sq(dev)
    if span > 0.0 and not np.finfo(float).tiny <= ss_tot < np.inf:
        ss_res, ss_tot = _sum_sq(resid / span), _sum_sq(dev / span)
    # constant y is fitted by a flat line; its ss_tot and ss_res are roundoff
    r2 = 1.0 if span == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _default_window(dist: MomentumDistribution) -> tuple[float, float]:
    """(0, max |p|) over the run of sites with prob > 1e-25 that holds the peak.

    The run, in storage order, bridges short sub-threshold dips (noise) of up
    to FIT_WINDOW_GAP sites but ends once the profile has genuinely fallen
    off. Isolated far-out noise excursions (e.g. roundoff amplified near the
    truncation seam of a long non-Hermitian run) therefore cannot stretch the
    window.
    """
    above = dist.prob > FIT_WINDOW_PROB
    if not np.any(above):
        raise FitError("no probabilities above the fit-window threshold")
    peak = int(np.nanargmax(dist.prob))  # a NaN is not above, so it cannot be the peak
    start, stop = next(run for run in _runs(np.flatnonzero(above), FIT_WINDOW_GAP + 1)
                       if run[0] <= peak < run[1])
    return (0.0, float(np.abs(dist.p[start:stop][above[start:stop]]).max()))


def _profile_points(
    dist: MomentumDistribution,
    window: tuple[float, float] | None,
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Select |p|, log(prob) pairs for a profile fit.

    The default window is the contiguous region around the peak where
    prob > 1e-25; probabilities at or below the 1e-30 floor are always
    dropped so logs stay finite. The central core |p| < 2*hbar is removed,
    where the profile's cusp (or the initial-state remnant) distorts
    log-linear fits.
    """
    exclude_core = 2.0 * _grid_spacing(dist)
    p_abs = np.abs(dist.p)
    keep = dist.prob > PROBABILITY_FLOOR
    if window is None:
        window = _default_window(dist)
    keep &= _window_mask(p_abs, window)
    keep &= p_abs >= exclude_core
    if np.count_nonzero(keep) < 10:
        raise FitError(
            f"only {np.count_nonzero(keep)} usable points in window {window}; "
            "need at least 10"
        )
    return p_abs[keep], np.log(dist.prob[keep]), window


def _fit_profile(
    dist: MomentumDistribution, window: tuple[float, float] | None, kind: str
) -> ProfileFit:
    """Log-linear fit of prob against |p| (exponential) or p^2 (gaussian)."""
    x, logp, window = _profile_points(dist, window)
    if kind == "gaussian":
        x = x**2
    slope, _, r2 = _linear_fit(x, logp)
    # a slope this small is flat data up to rounding, not an actual decay
    floor = 1e-12 * (np.abs(logp).max() + 1.0) / (x.max() - x.min())
    if slope >= -floor:
        raise FitError(f"{kind} fit failed: non-decaying slope {slope:.3e}")
    return ProfileFit(kind, -1.0 / slope, r2, window)


def fit_exponential_profile(
    dist: MomentumDistribution,
    window: tuple[float, float] | None = None,
) -> ProfileFit:
    """Fit prob ~ exp(-|p|/xi); returns xi and the log-space r^2."""
    return _fit_profile(dist, window, "exponential")


def fit_gaussian_profile(
    dist: MomentumDistribution,
    window: tuple[float, float] | None = None,
) -> ProfileFit:
    """Fit prob ~ exp(-p^2/sigma); returns sigma and the log-space r^2."""
    return _fit_profile(dist, window, "gaussian")


def compare_profiles(dist: MomentumDistribution) -> tuple[ProfileFit, ProfileFit, str]:
    """Fit both model classes on identical points; winner is the higher r^2."""
    exp_fit = fit_exponential_profile(dist)
    gauss_fit = fit_gaussian_profile(dist, exp_fit.fit_window)
    winner = "exponential" if exp_fit.r_squared >= gauss_fit.r_squared else "gaussian"
    return exp_fit, gauss_fit, winner


def _grid_spacing(dist: MomentumDistribution) -> float:
    if len(dist.p) < 2:
        raise FitError("distribution has fewer than 2 momentum sites")
    return float(dist.p[1] - dist.p[0])


def _late_points(
    t: np.ndarray, column: np.ndarray, window: tuple[float, float] | None, name: str
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Kick times t and column over a window (default: the second half) of >= 10 kicks.

    A run of T kicks records t = 1..T, so np.arange(1, T + 1) checks a run's
    length before it runs.
    """
    if window is None:
        window = (float(t[-1]) / 2.0, float(t[-1])) if len(t) else (0.0, 0.0)
    mask = _window_mask(t.astype(float), window)
    if np.count_nonzero(mask) < 10:
        raise FitError(f"{name} window {window} holds fewer than 10 kicks")
    return t[mask].astype(float), column[mask], window


def fit_norm_growth(series: OtocSeries) -> NormGrowthFit:
    """Fit log_norm = mu*t + b over the second half of the run.

    log_norm is ln of the true squared norm, so mu is the growth rate of
    ln N^2 per kick. At lambda = 0 the kick is unitary and log_norm holds only
    accumulated roundoff, so mu (~1e-16) and r_squared fit roundoff, not physics.
    """
    t, log_norm, window = _late_points(series.t, series.log_norm, None, "norm-growth")
    mu, intercept, r2 = _linear_fit(t, log_norm)
    return NormGrowthFit(mu, intercept, window, r2)


def scrambling_rate(series: OtocSeries, window: tuple[float, float]) -> float:
    """Late-time slope D of c_approx versus t over a kick-time window of >= 10 kicks."""
    t, c_approx, _ = _late_points(series.t, series.c_approx, window, "scrambling-rate")
    return _linear_fit(t, c_approx)[0]


def log_mean_norm(series: OtocSeries) -> float:
    """ln of the time-averaged true norm, computed in log space.

    Above threshold the norm reaches e.g. e^4000, so the mean must never be
    formed by exponentiating the raw log-norms.
    """
    logs = series.log_norm
    if len(logs) == 0:
        return 0.0
    peak = float(logs.max())
    return peak + float(np.log(np.mean(np.exp(logs - peak))))
