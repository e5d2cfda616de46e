"""Command-line entry point: evolve, spectrum, phase-diagram, norm-scan, reproduce.

Every command writes into a fresh runs/<timestamp>-<command>/ directory:
the data files plus a schema-versioned manifest from which the run can be
re-executed exactly. All numerical output is deterministic; only manifest
timestamps differ between reruns.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .constants import (
    EPSILON_DEFAULT,
    ETA_DEFAULT,
    HBAR_DEFAULT,
    LATTICE_DEFAULT,
    SPECTRUM_DIM_DEFAULT,
)
from .fileio import (
    _write_table,
    norm_growth_fit_dict,
    write_diagram_csv,
    write_diagram_gnuplot,
    write_diagram_json,
    write_distribution_csv,
    write_fidelity_json,
    write_json,
    write_series_csv,
    write_spectrum_csv,
)
from .lattice import MomentumLattice, NormCollapseError, momentum_distribution
from .manifest import RunManifest, config_snapshot, load_manifest, utc_now, write_manifest
from .observables import record_series
from .phases import AxisSpec, default_jobs, norm_scan, phase_diagram
from .propagator import AmplitudeOverflowError, KickSchedule, SimConfig
from .recipes import FIGURE_IDS, run_recipe
from .spectrum import SpectrumError, fidelity_profile, spectrum_at

NUMERICAL_ERRORS = (NormCollapseError, AmplitudeOverflowError, SpectrumError)


def parse_range(text: str) -> np.ndarray:
    """Inclusive start:stop:count grid, e.g. '0:5:11' -> 0, 0.5, ..., 5."""
    parts = text.split(":")
    if len(parts) != 3:
        raise click.BadParameter(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise click.BadParameter(f"cannot parse range {text!r}: {exc}") from exc
    if count < 1:
        raise click.BadParameter("range count must be >= 1")
    return np.linspace(start, stop, count)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"cannot parse list {text!r}: {exc}") from exc


def _make_run_dir(outdir: str, command: str) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = Path(outdir) / f"{stamp}-{command}"
    run_dir = base
    suffix = 1
    while run_dir.exists():
        run_dir = Path(f"{base}-{suffix}")
        suffix += 1
    run_dir.mkdir(parents=True)
    return run_dir


def _finish(
    run_dir: Path, command: str, params: dict, config: SimConfig | None, started: float
) -> Path:
    outputs = sorted(
        str(p.relative_to(run_dir)) for p in run_dir.iterdir() if p.is_file()
    )
    manifest = RunManifest(
        command=command,
        params=params,
        config=None if config is None else config_snapshot(config),
        tool_version=__version__,
        timestamp_utc=utc_now(),
        duration_seconds=time.monotonic() - started,
        outputs=outputs,
    )
    path = run_dir / "manifest.json"
    write_manifest(path, manifest)
    return path


def _build_config(params: dict) -> SimConfig:
    return SimConfig(
        lattice=MomentumLattice(params["lattice"], params["hbar"]),
        schedule=KickSchedule(K=params["K"], lam=params["lam"], eta=params["eta"]),
        kick_count=params["kicks"],
        kick_phase_divisor=params["kick_divisor"],
        epsilon_shift=params["epsilon"],
    )


def run_evolve(params: dict, outdir: str) -> Path:
    run_dir = _make_run_dir(outdir, "evolve")
    started = time.monotonic()
    config = _build_config(params)
    snapshot_times = tuple(params.get("snapshot_times") or ())
    record = record_series(config, snapshot_times=snapshot_times)
    write_series_csv(run_dir / "otoc_series.csv", record.series)
    for t, dist in sorted(record.snapshots.items()):
        write_distribution_csv(run_dir / f"momentum_t{t}.csv", dist)
    _finish(run_dir, "evolve", params, config, started)
    return run_dir


def run_spectrum(params: dict, outdir: str) -> Path:
    run_dir = _make_run_dir(outdir, "spectrum")
    started = time.monotonic()
    dim = params["dim"]
    config = _build_config({**params, "lattice": dim, "kicks": params["t"]})
    spec = spectrum_at(config, params["t"], dim)
    write_spectrum_csv(run_dir / "spectrum.csv", spec)
    try:
        max_valid = float(spec.eps_i[spec.top_valid_index()])
    except SpectrumError:
        max_valid = None  # every state leans on the truncation edge
    summary = {
        "t": params["t"],
        "dim": dim,
        "max_eps_i": float(spec.eps_i.max()),
        "max_eps_i_tail_weight": float(spec.tail_weights[int(np.argmax(spec.eps_i))]),
        "max_valid_eps_i": max_valid,
        "max_residual": float(spec.residuals.max()),
    }
    if params.get("with_fidelity"):
        record = record_series(config)
        fid = fidelity_profile(record.final, spec)
        write_fidelity_json(run_dir / "fidelity.json", fid)
        write_distribution_csv(
            run_dir / "evolved_state.csv", momentum_distribution(record.final)
        )
        write_distribution_csv(
            run_dir / "best_eigenstate.csv",
            momentum_distribution(spec.state(fid.best_index)),
        )
        best_eps, best_f = fid.best
        summary["best_fidelity"] = best_f
        summary["best_fidelity_eps_i"] = best_eps
    write_json(run_dir / "summary.json", summary)
    _finish(run_dir, "spectrum", params, config, started)
    return run_dir


def run_phase_diagram(params: dict, outdir: str, jobs: int | None = None, progress=None) -> Path:
    # jobs is not in params: the worker count never changes a result
    run_dir = _make_run_dir(outdir, "phase-diagram")
    started = time.monotonic()
    axis1 = AxisSpec(params["axis1_name"], np.asarray(params["axis1_values"]))
    axis2 = AxisSpec(params["axis2_name"], np.asarray(params["axis2_values"]))
    base = _build_config(params)
    diagram = phase_diagram(
        axis1, axis2, base, params["kicks"],
        jobs=default_jobs() if jobs is None else jobs, progress=progress,
    )
    write_diagram_csv(run_dir / "phase_diagram.csv", diagram)
    write_diagram_json(run_dir / "phase_diagram.json", diagram)
    if params.get("gnuplot"):
        write_diagram_gnuplot(run_dir / "phase_diagram.matrix", diagram)
    _finish(run_dir, "phase-diagram", params, base, started)
    return run_dir


def run_norm_scan(params: dict, outdir: str) -> Path:
    run_dir = _make_run_dir(outdir, "norm-scan")
    started = time.monotonic()
    base = _build_config({**params, "lam": 0.0})
    result = norm_scan(
        base, params["lambdas"], params["hbars"], tolerance=params["tolerance"]
    )
    payload = {
        "tolerance": result.tolerance,
        "lambda_c": {f"{h:g}": result.lambda_c[h] for h in result.lambda_c},
        "rows": [
            {
                "hbar": row.hbar,
                "lambda": row.lam,
                "log_mean_norm": row.log_mean_norm,
                "fit": norm_growth_fit_dict(row.fit),
            }
            for row in result.rows
        ],
    }
    write_json(run_dir / "norm_scan.json", payload)
    rows = result.rows
    _write_table(
        run_dir / "norm_scan.csv",
        ["hbar", "lambda", "mu", "r_squared", "log_mean_norm"],
        [[r.hbar for r in rows], [r.lam for r in rows], [r.fit.mu for r in rows],
         [r.fit.r_squared for r in rows], [r.log_mean_norm for r in rows]],
    )
    _finish(run_dir, "norm-scan", params, base, started)
    return run_dir


def run_reproduce(params: dict, outdir: str, echo=None) -> Path:
    run_dir = _make_run_dir(outdir, f"reproduce-{params['figure_id']}")
    started = time.monotonic()
    checks = run_recipe(params["figure_id"], run_dir)
    lines = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        line = f"[{verdict}] {check.name}: {check.detail}"
        lines.append(line)
        if echo is not None:
            echo(line)
    (run_dir / "checks.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the figure id in params pins every run of the recipe; no single config does
    _finish(run_dir, "reproduce", params, None, started)
    return run_dir


_RUNNERS = {
    "evolve": run_evolve,
    "spectrum": run_spectrum,
    "phase-diagram": run_phase_diagram,
    "norm-scan": run_norm_scan,
    "reproduce": run_reproduce,
}


def rerun_manifest(manifest_path: str | Path, outdir: str) -> Path:
    """Re-execute a recorded run from its manifest alone."""
    manifest = load_manifest(manifest_path)
    runner = _RUNNERS[manifest.command]
    return runner(manifest.params, outdir)


def _common_physics_options(fn):
    fn = click.option("--eta", default=ETA_DEFAULT, show_default=True,
                      help="Modulation strength.")(fn)
    fn = click.option("--hbar", default=HBAR_DEFAULT, show_default=True,
                      help="Effective Planck constant.")(fn)
    fn = click.option("--epsilon", default=EPSILON_DEFAULT, show_default=True,
                      help="OTOC translation parameter.")(fn)
    fn = click.option("--kick-divisor", default=1.0, show_default=True, type=float,
                      help="Kick phase divisor (1: standard, 2: literal half-phase).")(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Non-Hermitian quasi-periodically kicked rotor simulations."""


@main.command()
@click.option("--K", "K", type=float, required=True, help="Real kick strength.")
@click.option("--lambda", "lam", type=float, required=True,
              help="Imaginary kick strength.")
@click.option("--kicks", type=int, required=True, help="Number of kicks.")
@click.option("--lattice", default=LATTICE_DEFAULT, show_default=True,
              help="Momentum lattice size (even).")
@click.option("--snapshot-times", default="", help="Comma-separated kick times "
              "at which to write momentum distributions.")
@click.option("--outdir", default="runs", show_default=True,
              help="Parent directory for run output.")
@_common_physics_options
def evolve(outdir, **kwargs):
    """Evolve the rotor and write the OTOC time series."""
    if kwargs["lattice"] % 2 != 0 or kwargs["lattice"] < 2:
        raise click.UsageError(f"--lattice must be even and >= 2, got {kwargs['lattice']}")
    snapshot_times = [int(v) for v in kwargs["snapshot_times"].split(",") if v.strip()]
    _guarded(run_evolve, {**kwargs, "snapshot_times": snapshot_times}, outdir)


def _guarded(runner, params, outdir, **extra):
    try:
        run_dir = runner(params, outdir, **extra)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(1)
    click.echo(f"wrote {run_dir}")


@main.command()
@click.option("--K", "K", type=float, required=True)
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--t", "t", type=int, required=True, help="Kick time of the operator.")
@click.option("--dim", default=SPECTRUM_DIM_DEFAULT, show_default=True,
              help="Floquet matrix dimension (even, <= 2048).")
@click.option("--with-fidelity", is_flag=True,
              help="Also evolve to t and record fidelities against eigenstates.")
@click.option("--outdir", default="runs", show_default=True)
@_common_physics_options
def spectrum(outdir, **kwargs):
    """Quasienergy spectrum of the instantaneous Floquet operator U(t)."""
    if kwargs["dim"] % 2 != 0 or kwargs["dim"] < 2:
        raise click.UsageError(f"--dim must be even and >= 2, got {kwargs['dim']}")
    if kwargs["t"] < 0:
        raise click.UsageError("--t must be >= 0")
    _guarded(run_spectrum, kwargs, outdir)


@main.command("phase-diagram")
@click.option("--plane", type=click.Choice(["eta-K", "lambda-K"]), required=True)
@click.option("--eta-range", default="0.1:1:11", show_default=True,
              help="eta grid as start:stop:count (eta-K plane).")
@click.option("--lambda-range", default="0:5:11", show_default=True,
              help="lambda grid as start:stop:count (lambda-K plane).")
@click.option("--k-range", default="1:10:10", show_default=True,
              help="K grid as start:stop:count.")
@click.option("--kicks", type=int, required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Worker count [default: NQKR_JOBS or CPU count].")
@click.option("--lattice", default=LATTICE_DEFAULT, show_default=True)
@click.option("--gnuplot", is_flag=True, help="Also emit a gnuplot matrix file.")
@click.option("--outdir", default="runs", show_default=True)
@_common_physics_options
def phase_diagram_cmd(**kwargs):
    """Sweep a 2-D parameter plane and classify each point."""
    k_values = parse_range(kwargs["k_range"])
    if kwargs["plane"] == "eta-K":
        axis1_name, axis1_values = "eta", parse_range(kwargs["eta_range"])
        lam, eta = 0.0, float(axis1_values[0])
    else:
        axis1_name, axis1_values = "lambda", parse_range(kwargs["lambda_range"])
        lam, eta = float(axis1_values[0]), kwargs["eta"]
    if len(axis1_values) < 2 or len(k_values) < 2:
        raise click.UsageError("phase diagrams need at least a 2x2 grid")
    try:
        jobs = kwargs["jobs"] or default_jobs()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    params = {
        "axis1_name": axis1_name,
        "axis1_values": [float(v) for v in axis1_values],
        "axis2_name": "K",
        "axis2_values": [float(v) for v in k_values],
        "kicks": kwargs["kicks"],
        "gnuplot": kwargs["gnuplot"],
        "K": float(k_values[0]),
        "lam": lam,
        "eta": eta,
        "hbar": kwargs["hbar"],
        "epsilon": kwargs["epsilon"],
        "lattice": kwargs["lattice"],
        "kick_divisor": kwargs["kick_divisor"],
    }

    def progress(done, total):
        click.echo(f"point {done}/{total} done", err=True)

    _guarded(run_phase_diagram, params, kwargs["outdir"], jobs=jobs, progress=progress)


@main.command("norm-scan")
@click.option("--K", "K", type=float, required=True)
@click.option("--lambda-list", default="", help="Comma-separated lambda values.")
@click.option("--lambda-range", default="", help="lambda grid start:stop:count.")
@click.option("--hbar-list", default="", help="Comma-separated hbar values "
              "[default: the --hbar value].")
@click.option("--kicks", type=int, required=True)
@click.option("--tolerance", default=0.05, show_default=True,
              help="lambda_c reports the first lambda with mean norm > 1+tolerance.")
@click.option("--lattice", default=LATTICE_DEFAULT, show_default=True)
@click.option("--outdir", default="runs", show_default=True)
@_common_physics_options
def norm_scan_cmd(outdir, lambda_list, lambda_range, hbar_list, **kwargs):
    """Norm-growth fits over a lambda ladder, with a threshold estimate."""
    if lambda_list:
        lambdas = _parse_float_list(lambda_list)
    elif lambda_range:
        lambdas = [float(v) for v in parse_range(lambda_range)]
    else:
        raise click.UsageError("provide --lambda-list or --lambda-range")
    hbars = _parse_float_list(hbar_list) if hbar_list else [kwargs["hbar"]]
    _guarded(run_norm_scan, {**kwargs, "lambdas": lambdas, "hbars": hbars}, outdir)


@main.command()
@click.argument("figure_id", type=click.Choice(list(FIGURE_IDS)))
@click.option("--outdir", default="runs", show_default=True)
def reproduce(figure_id, outdir):
    """Re-run a canned figure recipe and print pass/fail per threshold."""
    _guarded(run_reproduce, {"figure_id": figure_id}, outdir, echo=click.echo)


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--outdir", default="runs", show_default=True)
def rerun(manifest_path, outdir):
    """Re-execute a run exactly from its manifest."""
    _guarded(lambda p, o: rerun_manifest(manifest_path, o), {}, outdir)


if __name__ == "__main__":
    main()
