"""Workload definitions: the CLI argument lists each workload runs.

Seed 0 is the reference parameter list. Any other seed draws the (K, lambda)
operating points from fixed sets with `random.Random(seed)`; lattice size,
kick count and spectrum dimension never change, so the cost of one op stays
comparable between seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("series", "spectrum", "sweep")

SERIES_LATTICE = 4096
SERIES_KICKS = 1000
SWEEP_LATTICE = 1024
SWEEP_KICKS = 500


def _num(x: float) -> str:
    return f"{x:g}"


def _evolve(K: float, lam: float) -> list[str]:
    return ["evolve", "--K", _num(K), "--lambda", _num(lam),
            "--lattice", str(SERIES_LATTICE), "--kicks", str(SERIES_KICKS),
            "--snapshot-times", str(SERIES_KICKS)]


def _spectrum(K: float, lam: float, t: int, dim: int, fidelity: bool) -> list[str]:
    args = ["spectrum", "--K", _num(K), "--lambda", _num(lam), "--t", str(t),
            "--dim", str(dim)]
    return args + ["--with-fidelity"] if fidelity else args


def _phase_diagram(lam_max: float, k_max: float) -> list[str]:
    return ["phase-diagram", "--plane", "lambda-K",
            "--lambda-range", f"0:{_num(lam_max)}:3", "--k-range", f"1:{_num(k_max)}:4",
            "--kicks", str(SWEEP_KICKS), "--lattice", str(SWEEP_LATTICE), "--jobs", "2"]


def _norm_scan(K: float, lam_max: float) -> list[str]:
    return ["norm-scan", "--K", _num(K), "--lambda-range", f"0:{_num(lam_max)}:8",
            "--hbar-list", "0.5,2.89", "--kicks", str(SWEEP_KICKS),
            "--lattice", str(SWEEP_LATTICE)]


def ops_for(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass over `workload` at `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    if workload == "series":
        # three spreading states (lambda = 0) and two frozen ones (lambda > 0)
        if seed == 0:
            points = [(10, 0), (7, 0), (4, 0), (10, 2), (10, 5)]
        else:
            points = [(rng.choice((4, 5, 6, 7, 8, 9, 10)), 0) for _ in range(3)]
            points += [(rng.choice((8, 9, 10)), rng.choice((1.5, 2, 2.5))),
                       (rng.choice((8, 9, 10)), rng.choice((4, 5, 6)))]
        return [_evolve(K, lam) for K, lam in points]
    if workload == "spectrum":
        # a frozen dim-1024 operator with fidelities, and a unitary dim-512 one
        if seed == 0:
            frozen, unitary_K = (10, 5), 4
        else:
            frozen = (rng.choice((8, 9, 10, 11, 12)), rng.choice((4, 5, 6)))
            unitary_K = rng.choice((3, 4, 5))
        return [_spectrum(*frozen, t=200, dim=1024, fidelity=True),
                _spectrum(unitary_K, 0, t=100, dim=512, fidelity=False)]
    if seed == 0:
        diagram, scan = (5, 10), (10, 0.15)
    else:
        diagram = (rng.choice((4, 5, 6)), rng.choice((8, 9, 10)))
        scan = (rng.choice((8, 9, 10)), rng.choice((0.1, 0.15, 0.2)))
    return [_phase_diagram(*diagram), _norm_scan(*scan)]


def warmup_op(workload: str) -> list[str]:
    """A small op of the workload's kind that loads the same code paths."""
    if workload == "series":
        return ["evolve", "--K", "10", "--lambda", "0", "--lattice", str(SERIES_LATTICE),
                "--kicks", "10", "--snapshot-times", "10"]
    if workload == "spectrum":
        return _spectrum(10, 5, t=2, dim=64, fidelity=True)
    return ["norm-scan", "--K", "10", "--lambda-list", "0", "--kicks", "20",
            "--lattice", str(SWEEP_LATTICE)]


def _opt(args: list[str], name: str) -> str:
    return args[args.index(name) + 1]


def _grid_count(text: str) -> int:
    return int(text.split(":")[2])


def expected_steps(args: list[str]) -> tuple[int, int]:
    """(propagator steps, sum of lattice sizes over those steps) for one op.

    evolve: one step per kick. spectrum: one step per matrix column, plus t
    steps of evolution with --with-fidelity, all on the dim-site lattice.
    phase-diagram and norm-scan: one run of --kicks steps per grid point.
    """
    command = args[0]
    if command == "evolve":
        steps, size = int(_opt(args, "--kicks")), int(_opt(args, "--lattice"))
    elif command == "spectrum":
        size = int(_opt(args, "--dim"))
        steps = size + (int(_opt(args, "--t")) if "--with-fidelity" in args else 0)
    elif command == "phase-diagram":
        runs = _grid_count(_opt(args, "--lambda-range")) * _grid_count(_opt(args, "--k-range"))
        steps, size = runs * int(_opt(args, "--kicks")), int(_opt(args, "--lattice"))
    elif command == "norm-scan":
        runs = _grid_count(_opt(args, "--lambda-range")) * len(_opt(args, "--hbar-list").split(","))
        steps, size = runs * int(_opt(args, "--kicks")), int(_opt(args, "--lattice"))
    else:
        raise ValueError(f"no step count for command {command!r}")
    return steps, steps * size
