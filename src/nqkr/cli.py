"""Command-line entry point: evolve, spectrum, phase-diagram, norm-scan, reproduce.

Every command writes into a fresh runs/<timestamp>-<command>/ directory:
the data files plus a schema-versioned manifest.json, whose format lives
here (`_run`), from which `nqkr rerun` re-executes the run exactly. The
manifest's `config` is null for phase-diagram, norm-scan and reproduce,
which run many configs. All numerical output is deterministic; only
manifest timestamps and durations differ between reruns.

Exit codes: 0 ok, 1 numerical failure, 2 invalid input. Input is rejected
before any data file is written, and a rejected run leaves no directory.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .constants import (
    EPSILON_DEFAULT,
    ETA_DEFAULT,
    HBAR_DEFAULT,
    LATTICE_DEFAULT,
    OMEGA1,
    OMEGA2,
    PLASTIC,
    SPECTRUM_DIM_DEFAULT,
)
from .fileio import (
    norm_scan_dict,
    read_json,
    spectrum_summary,
    write_diagram_csv,
    write_diagram_gnuplot,
    write_diagram_json,
    write_distribution_csv,
    write_fidelity_json,
    write_json,
    write_norm_scan_csv,
    write_series_csv,
    write_spectrum_csv,
)
from .lattice import MomentumLattice, NormCollapseError, momentum_distribution
from .observables import record_series
from .phases import AXIS_FIELDS, AxisSpec, default_jobs, norm_scan, phase_diagram
from .propagator import KickSchedule, SimConfig
from .recipes import FIGURE_IDS, run_recipe
from .spectrum import SpectrumError, fidelity_profile, spectrum_at

NUMERICAL_ERRORS = (NormCollapseError, SpectrumError)
MANIFEST_SCHEMA = "nqkr.run-manifest/1"


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


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"cannot parse list {text!r}: {exc}") from exc


@contextmanager
def _run(outdir: str, command: str, params: dict, config: SimConfig | None = None,
         name: str | None = None):
    """Fresh <stamp>-<name> run directory; manifest.json is written after the block.

    config is None where no one SimConfig describes the run. A block that
    raises before writing a file leaves no directory behind.
    """
    started = time.monotonic()
    base = Path(outdir) / f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{name or command}"
    run_dir, suffix = base, 1
    while run_dir.exists():
        run_dir, suffix = Path(f"{base}-{suffix}"), suffix + 1
    created = [d for d in (run_dir, *run_dir.parents) if not d.exists()]
    run_dir.mkdir(parents=True)
    try:
        yield run_dir
    except BaseException:
        if not any(run_dir.iterdir()):
            for d in created:
                d.rmdir()
        raise
    derived = {"kappa": PLASTIC, "omega1": OMEGA1, "omega2": OMEGA2}
    write_json(run_dir / "manifest.json", {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "params": params,
        "config": None if config is None else {**asdict(config), "derived": derived},
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": time.monotonic() - started,
        "outputs": sorted(p.name for p in run_dir.iterdir() if p.is_file()),
    })


def _build_config(params: dict) -> SimConfig:
    return SimConfig(
        lattice=MomentumLattice(params["lattice"], params["hbar"]),
        schedule=KickSchedule(K=params["K"], lam=params["lam"], eta=params["eta"]),
        kick_count=params["kicks"],
        epsilon_shift=params["epsilon"],
    )


def run_evolve(params: dict, outdir: str) -> Path:
    config = _build_config(params)
    with _run(outdir, "evolve", params, config) as run_dir:
        record = record_series(config, snapshot_times=params.get("snapshot_times") or ())
        write_series_csv(run_dir / "otoc_series.csv", record.series)
        for t, dist in sorted(record.snapshots.items()):
            write_distribution_csv(run_dir / f"momentum_t{t}.csv", dist)
    return run_dir


def run_spectrum(params: dict, outdir: str) -> Path:
    dim = params["dim"]
    config = _build_config({**params, "lattice": dim, "kicks": params["t"]})
    with _run(outdir, "spectrum", params, config) as run_dir:
        spec = spectrum_at(config, params["t"], dim)
        write_spectrum_csv(run_dir / "spectrum.csv", spec)
        fid = None
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
        write_json(run_dir / "summary.json", spectrum_summary(spec, fid))
    return run_dir


def run_phase_diagram(params: dict, outdir: str, jobs: int | None = None, progress=None) -> Path:
    # jobs is not in params: the worker count never changes a result
    axis1 = AxisSpec(params["axis1_name"], np.asarray(params["axis1_values"]))
    axis2 = AxisSpec(params["axis2_name"], np.asarray(params["axis2_values"]))
    base = _build_config(params)
    jobs = default_jobs() if jobs is None else jobs
    with _run(outdir, "phase-diagram", params) as run_dir:
        diagram = phase_diagram(axis1, axis2, base, jobs=jobs, progress=progress)
        write_diagram_csv(run_dir / "phase_diagram.csv", diagram)
        write_diagram_json(run_dir / "phase_diagram.json", diagram)
        if params.get("gnuplot"):
            write_diagram_gnuplot(run_dir / "phase_diagram.matrix", diagram)
    return run_dir


def run_norm_scan(params: dict, outdir: str) -> Path:
    base = _build_config({**params, "lam": 0.0})
    with _run(outdir, "norm-scan", params) as run_dir:
        result = norm_scan(
            base, params["lambdas"], params["hbars"], tolerance=params["tolerance"]
        )
        write_json(run_dir / "norm_scan.json", norm_scan_dict(result))
        write_norm_scan_csv(run_dir / "norm_scan.csv", result)
    return run_dir


def run_reproduce(params: dict, outdir: str, echo=None) -> Path:
    figure_id = params["figure_id"]
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    with _run(outdir, "reproduce", params, name=f"reproduce-{figure_id}") as run_dir:
        lines = []
        for check in run_recipe(figure_id, run_dir):
            verdict = "PASS" if check.passed else "FAIL"
            line = f"[{verdict}] {check.name}: {check.detail}"
            lines.append(line)
            if echo is not None:
                echo(line)
        (run_dir / "checks.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return run_dir


_PHYSICS_PARAMS = frozenset({"K", "eta", "hbar", "epsilon"})

# Each command's runner and the params keys it reads unconditionally.
_RUNNERS = {
    "evolve": (run_evolve, _PHYSICS_PARAMS | {"lam", "kicks", "lattice"}),
    "spectrum": (run_spectrum, _PHYSICS_PARAMS | {"lam", "t", "dim"}),
    "phase-diagram": (run_phase_diagram, _PHYSICS_PARAMS | {
        "lam", "kicks", "lattice", "axis1_name", "axis1_values", "axis2_name", "axis2_values"}),
    "norm-scan": (run_norm_scan, _PHYSICS_PARAMS | {
        "kicks", "lattice", "lambdas", "hbars", "tolerance"}),
    "reproduce": (run_reproduce, frozenset({"figure_id"})),
}

_JSON_TYPES = {
    # json reads a number as int or float and true/false as bool, so exact
    # type tests keep a bool out of the numbers
    "a number": lambda v: type(v) in (int, float),
    "an integer": lambda v: type(v) is int,
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a list of numbers": lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
}

# The JSON type of every params key any command writes. kick_divisor is
# legacy: older manifests carry it, and only 1 still describes a run.
_PARAM_TYPES = {
    **dict.fromkeys(("K", "lam", "eta", "hbar", "epsilon", "tolerance", "kick_divisor"),
                    "a number"),
    **dict.fromkeys(("kicks", "lattice", "t", "dim"), "an integer"),
    **dict.fromkeys(("with_fidelity", "gnuplot"), "true or false"),
    **dict.fromkeys(("axis1_name", "axis2_name", "figure_id"), "a string"),
    **dict.fromkeys(("axis1_values", "axis2_values", "lambdas", "hbars"), "a list of numbers"),
    "snapshot_times": "a list of integers",
}


def rerun_manifest(manifest_path: str | Path, outdir: str) -> Path:
    """Re-execute a recorded run from its manifest alone.

    A manifest that is not a JSON object, whose params lack a key the
    command reads or hold a value of the wrong JSON type, or that carries a
    legacy kick_divisor other than 1, is rejected with a ValueError before
    any run directory is made. A kick_divisor of 1 is dropped.
    """
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {manifest.get('schema')!r}")
    if manifest.get("command") not in _RUNNERS:
        raise ValueError(f"unknown manifest command {manifest.get('command')!r}")
    runner, required = _RUNNERS[manifest["command"]]
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise ValueError("manifest has no params object")
    missing = sorted(required - params.keys())
    if missing:
        raise ValueError(f"manifest params lack {', '.join(map(repr, missing))}")
    for key, value in params.items():
        kind = _PARAM_TYPES.get(key)
        if kind is not None and not _JSON_TYPES[kind](value):
            raise ValueError(f"manifest param {key!r} must be {kind}, got {json.dumps(value)}")
    divisor = params.pop("kick_divisor", 1)
    if divisor != 1:
        raise ValueError(
            f"manifest kick_divisor {divisor!r} is no longer supported; its run has --K and "
            f"--lambda (or their lists and ranges) divided by {divisor!r}")
    return runner(params, outdir)


def _common_physics_options(fn):
    fn = click.option("--eta", default=ETA_DEFAULT, show_default=True,
                      help="Modulation strength.")(fn)
    fn = click.option("--hbar", default=HBAR_DEFAULT, show_default=True,
                      help="Effective Planck constant.")(fn)
    fn = click.option("--epsilon", default=EPSILON_DEFAULT, show_default=True,
                      help="OTOC translation parameter.")(fn)
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
    snapshot_times = _parse_list(kwargs["snapshot_times"], int)
    _guarded(run_evolve, {**kwargs, "snapshot_times": snapshot_times}, outdir)


def _guarded(runner, *args, **kwargs):
    """Run a command: a bad argument (ValueError) exits 2, a numerical failure 1."""
    try:
        run_dir = runner(*args, **kwargs)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(1)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
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
def phase_diagram_cmd(outdir, plane, eta_range, lambda_range, k_range, jobs, **kwargs):
    """Sweep a 2-D parameter plane and classify each point."""
    axis1_name, axis1_range = ("eta", eta_range) if plane == "eta-K" else ("lambda", lambda_range)
    axis1_values = [float(v) for v in parse_range(axis1_range)]
    k_values = [float(v) for v in parse_range(k_range)]
    # the base config sits at the first grid point; the eta-K plane is unitary
    params = {
        **kwargs, "lam": 0.0,
        "axis1_name": axis1_name, "axis1_values": axis1_values,
        "axis2_name": "K", "axis2_values": k_values, "K": k_values[0],
        AXIS_FIELDS[axis1_name]: axis1_values[0],
    }

    def progress(done, total):
        click.echo(f"point {done}/{total} done", err=True)

    _guarded(run_phase_diagram, params, outdir, jobs=jobs, progress=progress)


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
        lambdas = _parse_list(lambda_list)
    elif lambda_range:
        lambdas = [float(v) for v in parse_range(lambda_range)]
    else:
        raise click.UsageError("provide --lambda-list or --lambda-range")
    hbars = _parse_list(hbar_list) if hbar_list else [kwargs["hbar"]]
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
    _guarded(rerun_manifest, manifest_path, outdir)


if __name__ == "__main__":
    main()
