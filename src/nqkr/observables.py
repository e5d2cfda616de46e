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

`observables` evaluates C, its small-shift form and <p>, <p^2> in one pass;
the per-kick series, `otoc_exact`, `otoc_approx`, `expectation_p` and
`expectation_p2` all call it, so a run's last record equals the functions
applied to its final state bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import EPSILON_DEFAULT
from .lattice import (
    MomentumDistribution,
    MomentumLattice,
    WaveFunction,
    _probabilities,
    momentum_distribution,
)
from .propagator import SimConfig, evolve

PROBABILITY_FLOOR = 1e-30
FIT_WINDOW_PROB = 1e-25


class FitError(ValueError):
    """A least-squares fit could not be performed or is meaningless."""


@dataclass
class OtocSeries:
    """Per-kick records of the scrambling and norm observables."""

    t: np.ndarray
    c_exact: np.ndarray
    c_approx: np.ndarray
    norm_log: np.ndarray
    mean_p: np.ndarray
    mean_p2: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        for name in ("c_exact", "c_approx", "norm_log", "mean_p", "mean_p2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != self.t.shape:
                raise ValueError(f"{name} length does not match t")
            setattr(self, name, arr)
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
    """Rows 2 sin^2(eps*p/2), sin(eps*p), p and p^2 over the lattice sites."""
    p = lattice.momenta
    table = np.stack([
        2.0 * np.sin(0.5 * epsilon_shift * p) ** 2,
        np.sin(epsilon_shift * p),
        p,
        p * p,
    ])
    table.flags.writeable = False
    return table


def observables(psi: WaveFunction, epsilon_shift: float) -> tuple[float, float, float, float]:
    """(C exact, C approx, <p>, <p^2>) of the normalized state in one pass.

    C exact is 1 - |1 - a - i*b|^2 without cancellation (see the module
    docstring); C approx is the small-shift form eps^2 * (<p^2> - <p>^2).
    """
    prob, s = _probabilities(psi)
    a, b, mp, mp2 = _observable_table(psi.lattice, epsilon_shift) @ prob / s
    # C >= 0 exactly; the max() only absorbs float roundoff.
    c_exact = max(0.0, float(2.0 * a - a * a - b * b))
    return c_exact, float(epsilon_shift**2 * (mp2 - mp * mp)), float(mp), float(mp2)


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
    cols = list(zip(*rows)) if rows else [[]] * 6
    series = OtocSeries(*[np.asarray(c) for c in cols])
    return EvolutionRecord(series, final, snapshots)


def _window_mask(x: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    return (x >= lo) & (x <= hi)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and r^2. Constant data fits exactly."""
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _default_window(dist: MomentumDistribution) -> tuple[float, float]:
    """Contiguous region around the peak where prob > 1e-25.

    Walking outward from the peak tolerates short sub-threshold dips (noise)
    but stops once the profile has genuinely fallen off. Isolated far-out
    noise excursions (e.g. roundoff amplified near the truncation seam of a
    long non-Hermitian run) therefore cannot stretch the window.
    """
    above = dist.prob > FIT_WINDOW_PROB
    if not np.any(above):
        raise FitError("no probabilities above the fit-window threshold")
    peak = int(np.argmax(dist.prob))
    max_gap = 8
    edge = 0.0
    for direction in (1, -1):
        gap = 0
        i = peak
        while 0 <= i < len(dist.prob) and gap <= max_gap:
            if above[i]:
                gap = 0
                edge = max(edge, abs(float(dist.p[i])))
            else:
                gap += 1
            i += direction
    return (0.0, edge)


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


def compare_profiles(
    dist: MomentumDistribution,
    window: tuple[float, float] | None = None,
) -> tuple[ProfileFit, ProfileFit, str]:
    """Fit both model classes on identical points; winner is the higher r^2."""
    exp_fit = fit_exponential_profile(dist, window)
    gauss_fit = fit_gaussian_profile(dist, exp_fit.fit_window)
    winner = "exponential" if exp_fit.r_squared >= gauss_fit.r_squared else "gaussian"
    return exp_fit, gauss_fit, winner


def _grid_spacing(dist: MomentumDistribution) -> float:
    if len(dist.p) < 2:
        raise FitError("distribution has fewer than 2 momentum sites")
    return float(dist.p[1] - dist.p[0])


def _late_fit(
    series: OtocSeries, column: np.ndarray, window: tuple[float, float] | None, name: str
) -> tuple[float, float, float, tuple[float, float]]:
    """Slope, intercept and r^2 of column versus t over a window (default second half)."""
    if window is None:
        window = (float(series.t[-1]) / 2.0, float(series.t[-1])) if len(series) else (0.0, 0.0)
    mask = _window_mask(series.t.astype(float), window)
    if np.count_nonzero(mask) < 10:
        raise FitError(f"{name} window {window} holds fewer than 10 kicks")
    return *_linear_fit(series.t[mask].astype(float), column[mask]), window


def fit_norm_growth(
    series: OtocSeries,
    window: tuple[float, float] | None = None,
) -> NormGrowthFit:
    """Fit norm_log = mu*t + b over a kick-time window (default second half)."""
    mu, intercept, r2, window = _late_fit(series, series.norm_log, window, "norm-growth")
    return NormGrowthFit(mu, intercept, window, r2)


def scrambling_rate(
    series: OtocSeries,
    window: tuple[float, float] | None = None,
) -> float:
    """Late-time slope D of c_approx versus t (default window: second half)."""
    return _late_fit(series, series.c_approx, window, "scrambling-rate")[0]


def log_mean_norm(series: OtocSeries) -> float:
    """ln of the time-averaged true norm, computed in log space.

    Above threshold the norm reaches e.g. e^4000, so the mean must never be
    formed by exponentiating the raw log-norms.
    """
    logs = series.norm_log
    if len(logs) == 0:
        return 0.0
    peak = float(logs.max())
    return peak + float(np.log(np.mean(np.exp(logs - peak))))
