"""The sweep engine, with the phase diagrams and norm scans built on it.

`sweep` evaluates independent tasks in order, serially or in a process pool.
`phase_diagram` classifies one OTOC series per grid point as freezing or
scrambling; `norm_scan` fits norm growth over a (hbar, lambda) ladder and
estimates the non-Hermitian threshold lambda_c per hbar.

The classifier deliberately uses no learned sequence model: three deterministic,
scale-free features of the OTOC series feed a fixed logistic score, giving a
reproducible rho in [0, 1] with documented calibration anchors (exact
saturation -> rho < 0.05, exact linear growth -> rho > 0.95). The classifier
is a plain function, so a trained model can replace `classify` later without
touching the sweep machinery.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .observables import (
    NormGrowthFit,
    OtocSeries,
    _linear_fit,
    fit_norm_growth,
    log_mean_norm,
    record_series,
)
from .propagator import SimConfig

MIN_SERIES_LENGTH = 200
MIN_PHASE_KICKS = 500

# Sweep axes set these scalar parameters on the kick schedule.
AXIS_FIELDS = {"eta": "eta", "lambda": "lam", "K": "K"}


class Features(NamedTuple):
    """Scale-free summary of one OTOC series."""

    late_slope_normalized: float
    doubling_ratio: float
    saturation_r2: float


class AxisSpec(NamedTuple):
    """A named parameter grid for one sweep axis."""

    name: str
    values: np.ndarray


@dataclass(frozen=True)
class PhasePoint:
    params: tuple[float, float]
    rho: float
    features: Features


@dataclass
class PhaseDiagram:
    """Complete row-major grid of classifier outputs over a parameter plane.

    points[i][j] belongs to axis1.values[i], axis2.values[j]. boundary holds,
    per axis2 column, the interpolated axis1 value where rho crosses 0.5
    (None where a column never crosses).
    """

    axis1: AxisSpec
    axis2: AxisSpec
    points: list[list[PhasePoint]]
    boundary: list[tuple[float, float | None]]


def extract_features(series: OtocSeries) -> Features:
    """Late-window slope, window-mean doubling ratio, and saturation quality.

    Windows are inclusive in kick time: the slope and saturation use
    t in [T/2, T]; the doubling ratio compares mean C over [3T/4, T] against
    [T/4, T/2] (1 for saturation, exactly 7/3 for linear growth through the
    window centers). An all-zero series maps to (0, 1, 1) by convention.
    """
    if len(series) < MIN_SERIES_LENGTH:
        raise ValueError(
            f"series has {len(series)} kicks; need at least {MIN_SERIES_LENGTH}"
        )
    c = series.c_exact
    t = series.t.astype(float)
    if not np.any(c > 0.0):
        return Features(0.0, 1.0, 1.0)

    t_max = t[-1]
    late = c[(t >= t_max / 2.0) & (t <= t_max)]
    t_late = t[(t >= t_max / 2.0) & (t <= t_max)]
    slope, _, _ = _linear_fit(t_late, late)
    mean_late = float(late.mean())
    slope_norm = slope / mean_late if mean_late > 0.0 else 0.0

    early_mean = float(c[(t >= t_max / 4.0) & (t <= t_max / 2.0)].mean())
    last_mean = float(c[t >= 3.0 * t_max / 4.0].mean())
    ratio = last_mean / max(early_mean, 1e-300)
    ratio = float(np.clip(ratio, 0.0, 1e6))

    mean_sq = float(np.mean(late**2))
    sat = 1.0 - float(late.var()) / mean_sq if mean_sq > 0.0 else 1.0
    return Features(slope_norm, ratio, sat)


def classify(features: Features) -> float:
    """Logistic score over the features; monotone in each of them.

    Calibration: doubling ratio 1 with saturated companions gives rho < 0.05,
    ratio >= 2 gives rho > 0.9 even with neutral companions.
    """
    slope_norm, ratio, sat = features
    for value in (slope_norm, ratio, sat):
        if not math.isfinite(value):
            raise ValueError(f"non-finite feature in {features}")
    score = 6.0 * (ratio - 1.5) + 100.0 * slope_norm - (sat - 0.5)
    return 1.0 / (1.0 + math.exp(-score))


def _config_at(
    base: SimConfig, axis1: AxisSpec, axis2: AxisSpec, v1: float, v2: float
) -> SimConfig:
    schedule = base.schedule
    schedule = replace(schedule, **{AXIS_FIELDS[axis1.name]: float(v1)})
    schedule = replace(schedule, **{AXIS_FIELDS[axis2.name]: float(v2)})
    return replace(base, schedule=schedule)


def sweep(
    evaluate: Callable,
    tasks: Sequence,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list:
    """evaluate(task) for every task, in task order, on min(jobs, len(tasks)) workers.

    With more than one worker a process pool runs them, so evaluate and the
    tasks must pickle. progress(done, total) is called after each result.
    """
    results = []
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for result in (map if pool is None else pool.map)(evaluate, tasks):
            results.append(result)
            if progress is not None:
                progress(len(results), len(tasks))
    return results


def _evaluate_point(config: SimConfig) -> tuple[float, Features]:
    features = extract_features(record_series(config).series)
    return classify(features), features


def phase_diagram(
    axis1: AxisSpec,
    axis2: AxisSpec,
    base_config: SimConfig,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> PhaseDiagram:
    """One simulation of base_config.kick_count kicks per grid point, classified.

    The grid points are swept as one flat row-major task list (axis1 outer,
    axis2 inner) and the results are reshaped into rows, so the outcome does
    not depend on the worker count.
    """
    for axis in (axis1, axis2):
        if axis.name not in AXIS_FIELDS:
            raise ValueError(f"unknown sweep axis {axis.name!r}")
        if len(axis.values) < 2:
            raise ValueError(f"axis {axis.name} needs at least 2 values")
    if base_config.kick_count < MIN_PHASE_KICKS:
        raise ValueError(f"phase diagrams need at least {MIN_PHASE_KICKS} kicks")

    tasks = [
        _config_at(base_config, axis1, axis2, v1, v2)
        for v1 in axis1.values
        for v2 in axis2.values
    ]
    results = iter(sweep(_evaluate_point, tasks, jobs, progress))
    points = [
        [PhasePoint((float(v1), float(v2)), *next(results)) for v2 in axis2.values]
        for v1 in axis1.values
    ]
    boundary = _boundary_per_column(axis1, axis2, points)
    return PhaseDiagram(axis1, axis2, points, boundary)


def _boundary_per_column(
    axis1: AxisSpec, axis2: AxisSpec, points: list[list[PhasePoint]]
) -> list[tuple[float, float | None]]:
    """First rho = 0.5 crossing along axis1, linearly interpolated, per column."""
    boundary: list[tuple[float, float | None]] = []
    for j, v2 in enumerate(axis2.values):
        rhos = np.array([points[i][j].rho for i in range(len(axis1.values))])
        crossing = None
        for i in range(len(rhos) - 1):
            lo, hi = rhos[i] - 0.5, rhos[i + 1] - 0.5
            if lo == 0.0:
                crossing = float(axis1.values[i])
                break
            if lo * hi < 0.0:
                frac = lo / (lo - hi)
                crossing = float(
                    axis1.values[i] + frac * (axis1.values[i + 1] - axis1.values[i])
                )
                break
        boundary.append((float(v2), crossing))
    return boundary


@dataclass(frozen=True)
class NormScanRow:
    hbar: float
    lam: float
    fit: NormGrowthFit
    log_mean_norm: float


@dataclass
class NormScanResult:
    """Growth-rate fits and time-averaged norms over a (hbar, lambda) grid.

    lambda_c maps each hbar to the first scanned lambda whose time-averaged
    norm exceeds 1 + tolerance (None if none does).
    """

    rows: list[NormScanRow]
    lambda_c: dict[float, float | None]
    tolerance: float


def _norm_point(config: SimConfig) -> tuple[NormGrowthFit, float]:
    series = record_series(config).series
    return fit_norm_growth(series), log_mean_norm(series)


def norm_scan(
    base_config: SimConfig,
    lambdas: Sequence[float],
    hbars: Sequence[float] | None = None,
    tolerance: float = 0.05,
) -> NormScanResult:
    """Per-(hbar, lambda) norm-growth fits plus a threshold estimate.

    Rows run hbar-major with lambdas in ascending order per hbar; the
    threshold estimate is the first value whose long-time mean norm exceeds
    1 + tolerance. Raises ValueError if either list is empty or the
    tolerance lies outside [0, inf).
    """
    if hbars is None:
        hbars = [base_config.lattice.hbar_eff]
    if len(lambdas) == 0 or len(hbars) == 0:
        raise ValueError("a norm scan needs at least one lambda and one hbar")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    hbars = [float(h) for h in hbars]
    grid = [(hbar, lam) for hbar in hbars for lam in sorted(float(v) for v in lambdas)]
    tasks = [
        replace(
            base_config,
            lattice=replace(base_config.lattice, hbar_eff=hbar),
            schedule=replace(base_config.schedule, lam=lam),
        )
        for hbar, lam in grid
    ]
    rows = [
        NormScanRow(hbar, lam, fit, lmn)
        for (hbar, lam), (fit, lmn) in zip(grid, sweep(_norm_point, tasks))
    ]
    crossings = [r for r in rows if r.log_mean_norm > math.log1p(tolerance)]
    lambda_c = {h: next((r.lam for r in crossings if r.hbar == h), None) for h in hbars}
    return NormScanResult(rows, lambda_c, tolerance)


def default_jobs() -> int:
    """Worker count: NQKR_JOBS (a positive integer) if set, else the CPU count."""
    env = os.environ.get("NQKR_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"NQKR_JOBS must be a positive integer, got {env!r}")
        return jobs
    return os.cpu_count() or 1
