"""The sweep engine, with the phase diagrams and norm scans built on it.

`sweep` evaluates independent tasks in order, serially or in a process pool.
`phase_diagram` classifies one OTOC series per grid point as freezing or
scrambling; `norm_scan` fits norm growth over a (hbar, lambda) ladder and
estimates the non-Hermitian threshold lambda_c per hbar. Both build each grid
point with `_config_at`, which sets hbar on the lattice and the AXIS_FIELDS
values on the kick schedule. Each result holds only what its runs measured
(the rho grid and features, or the per-point fits and mean norms); the phase
boundary and lambda_c are properties derived from that data, so a result
cannot contradict itself.

The pool is looked up as `concurrent.futures.ProcessPoolExecutor` only when a
sweep starts one, and that is what first loads `multiprocessing`: a serial
sweep, such as every norm scan, and the evolve, spectrum and reproduce
commands never load it.

The classifier deliberately uses no learned sequence model: three deterministic,
scale-free features of the OTOC series feed a fixed logistic score, giving a
reproducible rho in [0, 1] with documented calibration anchors (exact
saturation -> rho < 0.05, exact linear growth -> rho > 0.95). The classifier
is a plain function, so a trained model can replace `classify` later without
touching the sweep machinery.
"""

from __future__ import annotations

import concurrent.futures
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .observables import (
    NormGrowthFit,
    OtocSeries,
    _late_points,
    _linear_fit,
    fit_norm_growth,
    log_mean_norm,
    record_series,
)
from .propagator import SimConfig

MIN_SERIES_LENGTH = 200
MIN_PHASE_KICKS = 500
# lambda_c is the first lambda whose time-averaged norm exceeds 1 + this
LAMBDA_C_TOLERANCE = 0.05

# Phase-diagram axes set these kick-schedule fields; "hbar", which only the
# norm scan sets, is the lattice's hbar_eff and is no axis.
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


@dataclass
class PhaseDiagram:
    """Complete row-major grid of classifier outputs over a parameter plane.

    rho[i, j] and features[i][j] belong to axis1.values[i], axis2.values[j].
    The boundary is derived from rho and the axes, never stored.
    """

    axis1: AxisSpec
    axis2: AxisSpec
    rho: np.ndarray
    features: list[list[Features]]

    @property
    def boundary(self) -> list[tuple[float, float | None]]:
        """(axis2 value, its column's rho = 0.5 crossing along axis1) per column."""
        return [
            (float(v2), _crossing(self.axis1.values, self.rho[:, j]))
            for j, v2 in enumerate(self.axis2.values)
        ]


def _crossing(values: np.ndarray, column: np.ndarray) -> float | None:
    """The first value at which column meets rho = 0.5, from either side.

    Between grid points the value is linearly interpolated; an exact 0.5
    counts at any point, the last one included. None if column never meets 0.5.
    """
    offsets = column - 0.5
    for i, lo in enumerate(offsets):
        if lo == 0.0:
            return float(values[i])
        if i + 1 < len(offsets) and lo * offsets[i + 1] < 0.0:
            frac = lo / (lo - offsets[i + 1])
            return float(values[i] + frac * (values[i + 1] - values[i]))
    return None


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
    t_late, late, _ = _late_points(t, c, None, "feature")
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


def _config_at(base: SimConfig, values: dict[str, float]) -> SimConfig:
    """base with each named value set: "hbar" on the lattice, AXIS_FIELDS on the schedule."""
    fields = {name: float(v) for name, v in values.items()}
    lattice = replace(base.lattice, hbar_eff=fields.pop("hbar", base.lattice.hbar_eff))
    schedule = replace(base.schedule, **{AXIS_FIELDS[name]: v for name, v in fields.items()})
    return replace(base, lattice=lattice, schedule=schedule)


def sweep(
    evaluate: Callable,
    tasks: Sequence,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list:
    """evaluate(task) for every task, in task order, on min(jobs, len(tasks)) workers.

    With more than one worker a process pool runs them, so evaluate and the
    tasks must pickle; the pool machinery (multiprocessing) is loaded only
    then. progress(done, total) is called after each result.
    """
    results = []
    workers = min(jobs, len(tasks))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        for result in (map if pool is None else pool.map)(evaluate, tasks):
            results.append(result)
            if progress is not None:
                progress(len(results), len(tasks))
    return results


def _refuse_repeats(name: str, values: Sequence[float]) -> None:
    """ValueError if a value comes twice: the sweep would only run that point again."""
    if len({float(v) for v in values}) < len(values):
        raise ValueError(f"{name} values repeat: {', '.join(str(float(v)) for v in values)}")


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
        _refuse_repeats(f"axis {axis.name}", axis.values)
    if axis1.name == axis2.name:
        # axis 2's value would overwrite axis 1's at every point
        raise ValueError(f"both sweep axes set {axis1.name}")
    if base_config.kick_count < MIN_PHASE_KICKS:
        raise ValueError(f"phase diagrams need at least {MIN_PHASE_KICKS} kicks")

    tasks = [
        _config_at(base_config, {axis1.name: v1, axis2.name: v2})
        for v1 in axis1.values
        for v2 in axis2.values
    ]
    rhos, features = zip(*sweep(_evaluate_point, tasks, jobs, progress))
    n2 = len(axis2.values)
    rows = [list(features[k:k + n2]) for k in range(0, len(features), n2)]
    return PhaseDiagram(axis1, axis2, np.reshape(rhos, (-1, n2)), rows)


@dataclass(frozen=True)
class NormScanRow:
    hbar: float
    lam: float
    fit: NormGrowthFit
    log_mean_norm: float


@dataclass
class NormScanResult:
    """Growth-rate fits and time-averaged norms over a (hbar, lambda) grid."""

    rows: list[NormScanRow]

    @property
    def lambda_c(self) -> dict[float, float | None]:
        """Each hbar, in row order, mapped to its threshold estimate.

        The estimate is the lambda of the hbar's first row whose time-averaged
        norm exceeds 1 + LAMBDA_C_TOLERANCE, or None if no row does; norm_scan's
        rows ascend in lambda, so it is the smallest such scanned lambda.
        """
        limit = math.log1p(LAMBDA_C_TOLERANCE)
        return {
            h: next((r.lam for r in self.rows if r.hbar == h and r.log_mean_norm > limit), None)
            for h in dict.fromkeys(r.hbar for r in self.rows)
        }


def _norm_point(config: SimConfig) -> tuple[NormGrowthFit, float]:
    series = record_series(config).series
    return fit_norm_growth(series), log_mean_norm(series)


def norm_scan(
    base_config: SimConfig,
    lambdas: Sequence[float],
    hbars: Sequence[float],
) -> NormScanResult:
    """Per-(hbar, lambda) norm-growth fits plus a threshold estimate.

    Rows run hbar-major with lambdas in ascending order per hbar; the
    threshold estimate is the first value whose long-time mean norm exceeds
    1 + LAMBDA_C_TOLERANCE. Raises ValueError if either list is empty or
    repeats a value, and FitError before any point runs if the run is too
    short for its norm-growth fit.
    """
    if len(lambdas) == 0 or len(hbars) == 0:
        raise ValueError("a norm scan needs at least one lambda and one hbar")
    _refuse_repeats("lambda", lambdas)
    _refuse_repeats("hbar", hbars)
    # a run too short for its norm-growth fit is refused before any point runs
    kicks = np.arange(1, base_config.kick_count + 1)
    _late_points(kicks, kicks, None, "norm-growth")
    hbars = [float(h) for h in hbars]
    grid = [(hbar, lam) for hbar in hbars for lam in sorted(float(v) for v in lambdas)]
    tasks = [_config_at(base_config, {"hbar": hbar, "lambda": lam}) for hbar, lam in grid]
    rows = [
        NormScanRow(hbar, lam, fit, lmn)
        for (hbar, lam), (fit, lmn) in zip(grid, sweep(_norm_point, tasks))
    ]
    return NormScanResult(rows)

