"""Command-line entry point: evolve, spectrum, phase-diagram, norm-scan, reproduce.

Every command writes into a fresh runs/<timestamp>-<command>/ directory:
the data files plus a schema-versioned manifest.json, whose format lives
here (`_run`), from which `nqkr rerun` re-executes the run exactly, printing
what its command printed: reproduce's verdict lines and phase-diagram's
progress lines come from their runners, not from the click commands. The
manifest's `params` hold exactly the keys its command reads; `_COMMANDS`
declares them, with their JSON types, once per command, and `nqkr rerun`
checks a manifest against it key by key. The manifest's `config` is null
for phase-diagram, norm-scan and reproduce, which run many configs. Its
`environment` records the Python, numpy and BLAS build, the BLAS thread
count and the CPU count; `nqkr rerun` names any of them that differ from the
current process and runs anyway. All numerical output is deterministic on
one build and CPU type; only manifest timestamps and durations differ
between reruns.

Only evolve and phase-diagram take --epsilon, the OTOC shift, since only
their outputs read the OTOC; spectrum and norm-scan run at the default, and
their manifests' epsilon is a legacy key. norm-scan folds --hbar into its
list of hbar values, so its manifests' hbar is a legacy key too. A flag that
a run would ignore, such as --eta on the eta-K plane, is refused rather than
dropped.

Exit codes: 0 ok, 1 numerical failure, 2 invalid input, an --outdir where
no run directory can be made included. Input is rejected before any data file
is written, and a rejected run leaves no directory.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from . import __version__, _blas
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
from .phases import (AXIS_FIELDS, LAMBDA_C_TOLERANCE, AxisSpec, NormScanResult, default_jobs,
                     norm_scan, phase_diagram)
from .propagator import KickSchedule, SimConfig
from .recipes import FIGURE_IDS, run_recipe
from .spectrum import SPECTRUM_DIM_BUDGET, SpectrumError, fidelity_profile, spectrum_at

NUMERICAL_ERRORS = (NormCollapseError, SpectrumError)
MANIFEST_SCHEMA = "nqkr.run-manifest/1"


def parse_range(text: str) -> list[float]:
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
    return [float(v) for v in np.linspace(start, stop, count)]


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"cannot parse list {text!r}: {exc}") from exc


def environment() -> dict:
    """The build and host facts that a run's last digits can depend on.

    blas_threads is None where no OpenBLAS is found.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas.thread_count(),
        "cpu_count": os.cpu_count(),
    }


def _remove_dirs(dirs: list[Path]) -> None:
    """rmdir each of dirs in turn, skipping one never made or one a concurrent run writes into."""
    for d in dirs:
        with suppress(OSError):
            d.rmdir()


@contextmanager
def _run(outdir: str, command: str, params: dict, config: SimConfig | None = None,
         name: str | None = None):
    """Fresh <stamp>-<name> run directory; manifest.json is written after the block.

    The name is claimed by mkdir itself; where it is taken, also by a
    concurrent run, the next free -1, -2, ... suffix is. config is None where
    no one SimConfig describes the run. An outdir where the directory cannot
    be made is a ValueError. A block that raises before writing a file leaves
    no directory behind.
    """
    started = time.monotonic()
    base = Path(outdir) / f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{name or command}"
    created = []
    try:
        created = [d for d in base.parents if not d.exists()]
        for run_dir in (Path(f"{base}-{i}") if i else base for i in itertools.count()):
            try:
                run_dir.mkdir(parents=True)
                break
            except FileExistsError:
                if not base.parent.is_dir():  # not a taken name: a dangling symlink, say
                    raise
    except OSError as exc:
        _remove_dirs(created)
        raise ValueError(f"cannot make a run directory in {outdir}: {exc.strerror or exc}") from exc
    try:
        yield run_dir
    except BaseException:
        if not any(run_dir.iterdir()):
            _remove_dirs([run_dir, *created])
        raise
    derived = {"kappa": PLASTIC, "omega1": OMEGA1, "omega2": OMEGA2}
    write_json(run_dir / "manifest.json", {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "params": params,
        "config": None if config is None else {**asdict(config), "derived": derived},
        "tool_version": __version__,
        "environment": environment(),
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
        record = record_series(config, snapshot_times=params["snapshot_times"])
        write_series_csv(run_dir / "otoc_series.csv", record.series)
        for t, dist in sorted(record.snapshots.items()):
            write_distribution_csv(run_dir / f"momentum_t{t}.csv", dist)
    return run_dir


def spectrum_files(run_dir: Path, config: SimConfig, with_fidelity: bool) -> dict:
    """Write the spectrum run's data files into run_dir and return its summary.

    The operator is U(t) at t = config.kick_count on config's lattice. With
    fidelity, the state evolved to t is compared with every quasi-eigenstate.
    """
    spec = spectrum_at(config, config.kick_count, config.lattice.size)
    write_spectrum_csv(run_dir / "spectrum.csv", spec)
    fid = None
    if with_fidelity:
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
    summary = spectrum_summary(spec, fid)
    write_json(run_dir / "summary.json", summary)
    return summary


def run_spectrum(params: dict, outdir: str) -> Path:
    # no spectrum file reads the OTOC, so it runs at the default shift
    config = _build_config({**params, "epsilon": EPSILON_DEFAULT, "lattice": params["dim"],
                            "kicks": params["t"]})
    with _run(outdir, "spectrum", params, config) as run_dir:
        spectrum_files(run_dir, config, params["with_fidelity"])
    return run_dir


def run_phase_diagram(params: dict, outdir: str, jobs: int | None = None) -> Path:
    # jobs is not in params: the worker count never changes a result
    axis1 = AxisSpec(params["axis1_name"], np.asarray(params["axis1_values"]))
    axis2 = AxisSpec(params["axis2_name"], np.asarray(params["axis2_values"]))
    base = _build_config(params)
    jobs = default_jobs() if jobs is None else jobs
    with _run(outdir, "phase-diagram", params) as run_dir:
        diagram = phase_diagram(axis1, axis2, base, jobs=jobs, progress=lambda done, total:
                                click.echo(f"point {done}/{total} done", err=True))
        write_diagram_csv(run_dir / "phase_diagram.csv", diagram)
        write_diagram_json(run_dir / "phase_diagram.json", diagram)
        if params["gnuplot"]:
            write_diagram_gnuplot(run_dir / "phase_diagram.matrix", diagram)
    return run_dir


def norm_scan_files(run_dir: Path, base: SimConfig, lambdas: Sequence[float],
                    hbars: Sequence[float], tolerance: float) -> NormScanResult:
    """Write the norm-scan run's data files into run_dir and return its NormScanResult."""
    result = norm_scan(base, lambdas, hbars, tolerance=tolerance)
    write_json(run_dir / "norm_scan.json", norm_scan_dict(result))
    write_norm_scan_csv(run_dir / "norm_scan.csv", result)
    return result


def run_norm_scan(params: dict, outdir: str) -> Path:
    # norm_scan gives each row its own hbar, so the base lattice takes the
    # first one; an empty list reaches norm_scan's ValueError
    hbar = params["hbars"][0] if params["hbars"] else HBAR_DEFAULT
    base = _build_config({**params, "hbar": hbar, "lam": 0.0, "epsilon": EPSILON_DEFAULT})
    with _run(outdir, "norm-scan", params) as run_dir:
        norm_scan_files(run_dir, base, params["lambdas"], params["hbars"], params["tolerance"])
    return run_dir


def run_reproduce(params: dict, outdir: str) -> Path:
    figure_id = params["figure_id"]
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    with _run(outdir, "reproduce", params, name=f"reproduce-{figure_id}") as run_dir:
        lines = []
        for check in run_recipe(figure_id, run_dir):
            verdict = "PASS" if check.passed else "FAIL"
            line = f"[{verdict}] {check.name}: {check.detail}"
            lines.append(line)
            click.echo(line)
        (run_dir / "checks.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return run_dir


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

_PHYSICS = dict.fromkeys(("K", "eta", "hbar"), "a number")
_EPSILON = {"epsilon": "a number"}
_DIVISOR = {"kick_divisor": "a number"}
_DIVISOR_AND_EPSILON = {**_DIVISOR, **_EPSILON}

# Each command's runner, the JSON type of every params key it reads, and the
# legacy keys that older manifests carry and no run reads. A manifest's params
# hold every key its command reads, and may hold its legacy keys. No spectrum
# or norm-scan file reads the OTOC, so its shift epsilon is a legacy key there;
# norm-scan reads its hbar values from hbars alone, so hbar is legacy there too.
_COMMANDS = {
    "evolve": (run_evolve, {**_PHYSICS, **_EPSILON, "lam": "a number", "kicks": "an integer",
               "lattice": "an integer", "snapshot_times": "a list of integers"}, _DIVISOR),
    "spectrum": (run_spectrum, {**_PHYSICS, "lam": "a number", "t": "an integer",
                 "dim": "an integer", "with_fidelity": "true or false"}, _DIVISOR_AND_EPSILON),
    "phase-diagram": (run_phase_diagram, {
        **_PHYSICS, **_EPSILON, "lam": "a number", "kicks": "an integer",
        "lattice": "an integer", "gnuplot": "true or false", "axis1_name": "a string",
        "axis2_name": "a string", "axis1_values": "a list of numbers",
        "axis2_values": "a list of numbers"}, {**_DIVISOR, "jobs": "an integer"}),
    "norm-scan": (run_norm_scan, {
        "K": "a number", "eta": "a number", "kicks": "an integer", "lattice": "an integer",
        "tolerance": "a number", "lambdas": "a list of numbers", "hbars": "a list of numbers"},
        {**_DIVISOR_AND_EPSILON, "hbar": "a number"}),
    "reproduce": (run_reproduce, {"figure_id": "a string"}, {}),
}


def rerun_manifest(manifest_path: str | Path, outdir: str) -> Path:
    """Re-execute a recorded run from its manifest alone.

    The manifest's params must hold every key its command reads, each of
    the JSON type `_COMMANDS` declares, and no key but these and the
    command's legacy keys. Anything else is rejected with a ValueError
    before any run directory is made. Legacy keys are dropped; a
    kick_divisor other than 1 describes another run and is refused. Where
    the manifest's environment differs from this process's, one line on
    stderr names each differing field before the run.
    """
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {manifest.get('schema')!r}")
    command, params = manifest.get("command"), manifest.get("params")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"unknown manifest command {command!r}")
    if not isinstance(params, dict):
        raise ValueError("manifest has no params object")
    runner, read, legacy = _COMMANDS[command]
    types = {**read, **legacy}
    for problem, keys in ((f"hold keys {command} does not read:", params.keys() - types.keys()),
                          ("lack", read.keys() - params.keys())):
        if keys:
            raise ValueError(f"manifest params {problem} {', '.join(map(repr, sorted(keys)))}")
    for key, value in params.items():
        if not _JSON_TYPES[kind := types[key]](value):
            raise ValueError(f"manifest param {key!r} must be {kind}, got {json.dumps(value)}")
    divisor = params.get("kick_divisor", 1)
    if divisor != 1:
        raise ValueError(
            f"manifest kick_divisor {divisor!r} is no longer supported; its run has --K and "
            f"--lambda (or their lists and ranges) divided by {divisor!r}")
    recorded = manifest.get("environment")
    if isinstance(recorded, dict):
        changed = [f"{key} {json.dumps(recorded.get(key))} -> {json.dumps(value)}"
                   for key, value in environment().items() if recorded.get(key) != value]
        if changed:
            click.echo(f"note: this process differs from the manifest's environment in "
                       f"{', '.join(changed)}; the last digits may differ", err=True)
    return runner({key: value for key, value in params.items() if key in read}, outdir)


def _common_physics_options(fn):
    fn = click.option("--eta", default=ETA_DEFAULT, show_default=True,
                      help="Modulation strength.")(fn)
    return click.option("--hbar", default=HBAR_DEFAULT, show_default=True,
                        help="Effective Planck constant.")(fn)


def _otoc_physics_options(fn):
    """The common options plus the OTOC shift, for the commands whose output reads C."""
    return click.option("--epsilon", default=EPSILON_DEFAULT, show_default=True,
                        help="OTOC translation parameter.")(_common_physics_options(fn))


def _given(name: str) -> bool:
    """Whether the current command's parameter `name` was set rather than left at its default."""
    source = click.get_current_context().get_parameter_source(name)
    return source is not click.core.ParameterSource.DEFAULT


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
@_otoc_physics_options
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
              help=f"Floquet matrix dimension (even, <= {SPECTRUM_DIM_BUDGET}).")
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
@_otoc_physics_options
def phase_diagram_cmd(outdir, plane, eta_range, lambda_range, k_range, jobs, **kwargs):
    """Sweep a 2-D parameter plane and classify each point."""
    # the eta-K plane sweeps eta over --eta-range; the lambda-K plane holds eta fixed
    for name in ("lambda_range", "eta") if plane == "eta-K" else ("eta_range",):
        if _given(name):
            raise click.UsageError(f"--plane {plane} does not read --{name.replace('_', '-')}")
    axis1_name, axis1_range = ("eta", eta_range) if plane == "eta-K" else ("lambda", lambda_range)
    axis1_values = parse_range(axis1_range)
    k_values = parse_range(k_range)
    # the base config sits at the first grid point; the eta-K plane is unitary
    params = {
        **kwargs, "lam": 0.0,
        "axis1_name": axis1_name, "axis1_values": axis1_values,
        "axis2_name": "K", "axis2_values": k_values, "K": k_values[0],
        AXIS_FIELDS[axis1_name]: axis1_values[0],
    }
    _guarded(run_phase_diagram, params, outdir, jobs=jobs)


@main.command("norm-scan")
@click.option("--K", "K", type=float, required=True)
@click.option("--lambda-list", default="", help="Comma-separated lambda values.")
@click.option("--lambda-range", default="", help="lambda grid start:stop:count.")
@click.option("--hbar-list", default="", help="Comma-separated hbar values "
              "[default: the --hbar value].")
@click.option("--kicks", type=int, required=True)
@click.option("--tolerance", default=LAMBDA_C_TOLERANCE, show_default=True,
              help="lambda_c reports the first lambda with mean norm > 1+tolerance.")
@click.option("--lattice", default=LATTICE_DEFAULT, show_default=True)
@click.option("--outdir", default="runs", show_default=True)
@_common_physics_options
def norm_scan_cmd(outdir, lambda_list, lambda_range, hbar_list, **kwargs):
    """Norm-growth fits over a lambda ladder, with a threshold estimate."""
    if lambda_list and lambda_range:
        raise click.UsageError("give --lambda-list or --lambda-range, not both")
    if lambda_list:
        lambdas = _parse_list(lambda_list)
    elif lambda_range:
        lambdas = parse_range(lambda_range)
    else:
        raise click.UsageError("provide --lambda-list or --lambda-range")
    if hbar_list and _given("hbar"):
        raise click.UsageError("give --hbar or --hbar-list, not both")
    hbar = kwargs.pop("hbar")
    hbars = _parse_list(hbar_list) if hbar_list else [hbar]
    _guarded(run_norm_scan, {**kwargs, "lambdas": lambdas, "hbars": hbars}, outdir)


@main.command()
@click.argument("figure_id", type=click.Choice(list(FIGURE_IDS)))
@click.option("--outdir", default="runs", show_default=True)
def reproduce(figure_id, outdir):
    """Re-run a canned figure recipe and print pass/fail per threshold."""
    _guarded(run_reproduce, {"figure_id": figure_id}, outdir)


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--outdir", default="runs", show_default=True)
def rerun(manifest_path, outdir):
    """Re-execute a run exactly from its manifest."""
    _guarded(rerun_manifest, manifest_path, outdir)


if __name__ == "__main__":
    main()
