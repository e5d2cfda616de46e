"""Output check: read back what the CLI wrote and compare it to the reference.

Every op is checked against the model's invariants: 0 <= C <= 1 on every
kick, eigen-residuals <= 1e-8 (the package's RESIDUAL_TOLERANCE, fixed here
so that loosening it in the package does not loosen the check), fidelities
and rho in [0, 1], and row counts that match the op's parameters.

Ops whose argument list appears in reference.json (the seed-0 ops) are also
compared value by value. A value passes when |x - ref| <= RTOL*|ref| + ATOL.
RTOL = 1e-5 admits roundoff-level reorderings and the ~1e-7 agreement
between M=1024 and M=4096 lattices; a 1% change of K moves the checked
values by far more. ATOL = 1e-11 absorbs quantities whose reference is pure
roundoff (~1e-13), such as the log-norm and top eps_i of a unitary
(lambda = 0) run, and is still 0.5% of the smallest checked C (~2e-9).
The eigen-residual itself is roundoff, so it is held to the 1e-8 limit, not
to its reference value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-5
ATOL = 1e-11
RESIDUAL_LIMIT = 1e-8
UNIT_SLACK = 1e-12  # roundoff allowed above 1 for quantities bounded by 1
XI_LEVEL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def op_key(args: list[str]) -> str:
    return " ".join(args)


def _opt(args: list[str], name: str) -> str:
    return args[args.index(name) + 1]


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _profile_xi(path: Path) -> float | None:
    """Exponential localization length fitted where prob > XI_LEVEL.

    A fixed probability level, unlike the package's default window, does not
    move with the lattice edge, so xi agrees between lattice sizes.
    """
    from nqkr import FitError, MomentumDistribution, fit_exponential_profile

    p, prob = _table(path).T
    edge = float(np.abs(p[prob > XI_LEVEL]).max())
    try:
        return fit_exponential_profile(MomentumDistribution(p, prob), (0.0, edge)).xi_or_sigma
    except FitError:
        return None


def read_outputs(args: list[str], run_dir: Path) -> tuple[dict, list[str]]:
    """The checked values of one op and the invariant violations found."""
    command = args[0]
    errors: list[str] = []
    if command == "evolve":
        kicks = int(_opt(args, "--kicks"))
        series = _table(run_dir / "otoc_series.csv")
        if series.shape[0] != kicks or not np.array_equal(series[:, 0], np.arange(1, kicks + 1)):
            errors.append(f"series rows do not cover t = 1..{kicks}")
        c = series[:, 1]
        if not np.all(np.isfinite(series)):
            errors.append("series has non-finite entries")
        elif c.min() < 0.0 or c.max() > 1.0:
            errors.append(f"C outside [0, 1]: [{c.min():.3e}, {c.max():.3e}]")
        values = {
            "c_exact": float(c[-1]),
            "log_norm": float(series[-1, 3]),
            "mean_p2": float(series[-1, 5]),
            "xi": _profile_xi(run_dir / f"momentum_t{kicks}.csv"),
        }
    elif command == "spectrum":
        dim = int(_opt(args, "--dim"))
        spec = _table(run_dir / "spectrum.csv")
        summary = _read_json(run_dir / "summary.json")
        if spec.shape[0] != dim:
            errors.append(f"spectrum has {spec.shape[0]} rows, expected {dim}")
        max_residual = float(spec[:, 2].max())
        if not max_residual <= RESIDUAL_LIMIT:
            errors.append(f"max residual {max_residual:.3e} exceeds {RESIDUAL_LIMIT:g}")
        if summary["max_valid_eps_i"] is None:
            errors.append("no tail-safe eigenstate")
        values = {"max_valid_eps_i": summary["max_valid_eps_i"]}
        if "--with-fidelity" in args:
            best = summary["best_fidelity"]
            if not 0.0 <= best <= 1.0 + UNIT_SLACK:
                errors.append(f"best fidelity {best} outside [0, 1]")
            values["best_fidelity"] = best
    elif command == "phase-diagram":
        n_points = int(_opt(args, "--lambda-range").split(":")[2]) * int(_opt(args, "--k-range").split(":")[2])
        rho = _table(run_dir / "phase_diagram.csv")[:, 2]
        if rho.shape[0] != n_points:
            errors.append(f"phase diagram has {rho.shape[0]} points, expected {n_points}")
        if not np.all((rho >= 0.0) & (rho <= 1.0)):
            errors.append("rho outside [0, 1]")
        values = {"rho": [float(v) for v in rho]}
    elif command == "norm-scan":
        payload = _read_json(run_dir / "norm_scan.json")
        n_rows = int(_opt(args, "--lambda-range").split(":")[2]) * len(_opt(args, "--hbar-list").split(","))
        if len(payload["rows"]) != n_rows:
            errors.append(f"norm scan has {len(payload['rows'])} rows, expected {n_rows}")
        lambdas = {row["lambda"] for row in payload["rows"]}
        for hbar, lam_c in payload["lambda_c"].items():
            if lam_c is not None and lam_c not in lambdas:
                errors.append(f"lambda_c {lam_c} at hbar {hbar} is not a scanned lambda")
        values = {"lambda_c": payload["lambda_c"]}
    else:
        raise ValueError(f"no output check for command {command!r}")
    return values, errors


def _mismatches(name: str, value, ref) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or value.keys() != ref.keys():
            return [f"{name}: keys {value!r} differ from {ref!r}"]
        return [m for k in ref for m in _mismatches(f"{name}[{k}]", value[k], ref[k])]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{name}: length differs from reference"]
        return [m for i, r in enumerate(ref) for m in _mismatches(f"{name}[{i}]", value[i], r)]
    if ref is None or value is None:
        return [] if ref is value else [f"{name}: {value!r} != reference {ref!r}"]
    if not math.isfinite(value) or abs(value - ref) > RTOL * abs(ref) + ATOL:
        return [f"{name}: {value!r} != reference {ref!r}"]
    return []


def load_reference() -> dict:
    return _read_json(REFERENCE_PATH)


def check_op(args: list[str], run_dir: Path, reference: dict) -> list[str]:
    """Every failed check of one op's outputs; empty when the op is correct."""
    values, errors = read_outputs(args, run_dir)
    ref = reference.get(op_key(args))
    if ref is not None:
        errors += _mismatches(args[0], values, ref)
    return errors
