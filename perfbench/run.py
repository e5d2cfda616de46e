"""Benchmark of the nqkr CLI on three workloads, with an optional traced run.

    python3 perfbench/run.py --workload series --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
src/ directory; it exits with code 2 when there is none. Each op is one CLI
command run in-process through `nqkr.cli.main(args, standalone_mode=False)`,
one after the other (a closed loop with one client). Run directories go to a
temporary directory inside the checkout that is removed on exit.

--trace 0 measures the end-to-end metrics:
  wall_s       median wall time of one pass over the workload's ops
  cpu_s        median user+sys CPU time of this process and its children per pass
  setup_s      median, over fresh interpreters, of start-up, `import nqkr` and
               one small warm-up op
  peak_rss_mb  peak resident memory of a fresh process (plus its largest
               child) running one pass
The three times are calibrated: each op (or set-up probe) is scaled by
CAL_REF_S over the time of a fixed kernel run just before and after it, which
removes most of the host's speed drift. The uncalibrated medians are printed
too.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of bench_trace.layer_metrics, plus trace.overhead_s (traced minus
untraced median pass time).

Every op's outputs are checked by bench_check. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT = 120  # seconds; a run must end within 180


def _import_package():
    if not (SRC / "nqkr" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'nqkr'}", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(SRC))
    import nqkr.cli

    if Path(nqkr.__file__).resolve().parent != (SRC / "nqkr").resolve():
        print(f"imported nqkr from {nqkr.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return nqkr.cli


cli = _import_package()
sys.path.insert(0, str(HERE))
import bench_check  # noqa: E402
import bench_ops  # noqa: E402
import numpy as np  # noqa: E402

# The host's speed drifts by up to 2x over seconds to minutes (other tenants
# share its cores). A fixed kernel, timed before and after every op, measures
# the current speed; each op's times are scaled to the speed at which the
# kernel takes CAL_REF_S seconds. The kernel stays single-threaded: a BLAS
# call here would leave threads spinning into the op and inflate its CPU time.
CAL_REF_S = 0.025


def calibration_s() -> float:
    """Time of a fixed FFT-and-exp kernel on 4096 points: the host's current speed."""
    x = np.full(4096, 1.0 + 1.0j)
    start = time.perf_counter()
    for _ in range(150):
        x = np.exp(1e-9j * np.fft.fft(x).real) * x
    return time.perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed, given calibration times around them."""
    return seconds * CAL_REF_S / ((before + after) / 2.0)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its children that have been waited for."""
    return sum(r.ru_utime + r.ru_stime for r in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_op(args: list[str], outdir: Path, tracer=None) -> tuple[float, float, str | None]:
    """Run one CLI command; return (wall s, CPU s incl. children, error or None)."""
    log = io.StringIO()
    argv = args + ["--outdir", str(outdir)]
    error = None
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is None:
                cli.main(argv, standalone_mode=False)
            else:
                tracer.call("cli.command", cli.main, argv, standalone_mode=False)
    except SystemExit as exc:  # _guarded exits 1 on a numerical failure
        if exc.code not in (0, None):
            error = f"exit code {exc.code}: {log.getvalue().strip()[-500:]}"
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return wall, cpu_seconds() - cpu0, error


class Pass:
    """Runs the op list once per call and counts attempts and failures."""

    def __init__(self, ops: list[list[str]], workdir: Path, reference: dict):
        self.ops = ops
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def __call__(self, tracer=None) -> tuple[float, float, float]:
        """One pass: (calibrated wall s, calibrated CPU s, raw wall s)."""
        wall = cpu = raw_wall = 0.0
        before = calibration_s()
        for args in self.ops:
            outdir = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
            op_wall, op_cpu, error = run_op(args, outdir, tracer)
            after = calibration_s()
            wall += calibrated(op_wall, before, after)
            cpu += calibrated(op_cpu, before, after)
            raw_wall += op_wall
            before = after
            if error is None:
                run_dirs = [p for p in outdir.iterdir() if p.is_dir()]
                if len(run_dirs) != 1:
                    error = f"expected one run directory, found {len(run_dirs)}"
                else:
                    errors = bench_check.check_op(args, run_dirs[0], self.reference)
                    error = "; ".join(errors) if errors else None
            self.attempted += 1
            if error is not None:
                self.failed += 1
                print(f"FAILED {' '.join(args)}: {error}", file=sys.stderr)
            shutil.rmtree(outdir)
        return wall, cpu, raw_wall


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def probe_setup(workload: str, workdir: Path) -> float:
    """Seconds from launching a fresh interpreter until it has imported nqkr and
    run one warm-up op. perf_counter is system-wide, so the child can subtract
    the parent's launch time."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe", "setup", "--workload", workload,
         "--workdir", str(workdir), "--launched", repr(time.perf_counter())],
        check=True, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT)
    return float(out.stdout.strip().splitlines()[-1])


def probe_rss(workload: str, seed: int, workdir: Path) -> float:
    """Peak RSS in MB of a fresh process running one pass, plus its largest child."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe", "rss", "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir)],
        check=True, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT)
    return float(out.stdout.strip().splitlines()[-1])


def warm_up(workload: str, workdir: Path) -> None:
    """Run the workload's small warm-up op: lazy imports, lru caches, FFT plans."""
    outdir = Path(tempfile.mkdtemp(prefix="warmup-", dir=workdir))
    _, _, error = run_op(bench_ops.warmup_op(workload), outdir)
    shutil.rmtree(outdir)
    if error is not None:
        raise SystemExit(f"warm-up op failed: {error}")


def print_peak_rss(workload: str, seed: int, workdir: Path) -> None:
    """Run one pass, then print peak RSS in MB of this process plus its largest child."""
    one_pass = Pass(bench_ops.ops_for(workload, seed), workdir, bench_check.load_reference())
    one_pass()
    if one_pass.failed:
        raise SystemExit("an op failed in the memory probe")
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(kb / 1024.0)


def machine_facts() -> dict:
    """Hardware and software facts printed with every result."""
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _scipy_version() -> str | None:
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _blas_threads() -> int | None:
    """OpenBLAS thread count, asked of the loaded library itself."""
    import ctypes

    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def another_fits(start: float, began: float, seconds: float) -> bool:
    """Whether one more round as long as the one begun at `began` ends within the window."""
    now = time.perf_counter()
    return now - start + (now - began) <= seconds


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    ops = bench_ops.ops_for(workload, seed)
    run_pass = Pass(ops, workdir, bench_check.load_reference())
    warm_up(workload, workdir)
    walls: list[float] = []
    if not trace:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = calibration_s()
            raw_setups.append(probe_setup(workload, workdir))
            setups.append(calibrated(raw_setups[-1], before, calibration_s()))
        rss = probe_rss(workload, seed, workdir)
        cpus: list[float] = []
        raw_walls: list[float] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            wall, cpu, raw_wall = run_pass()
            walls.append(wall)
            cpus.append(cpu)
            raw_walls.append(raw_wall)
            if not another_fits(start, began, seconds):
                break
        lines = [describe("wall_s", walls, "s"), describe("cpu_s", cpus, "s"),
                 describe("setup_s", setups, "s"), f"peak_rss_mb: {rss:.6g} MB",
                 describe("uncalibrated wall_s", raw_walls, "s"),
                 describe("uncalibrated setup_s", raw_setups, "s")]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    else:
        import bench_trace

        spool = workdir / "spool"
        spool.mkdir()
        tracer = bench_trace.Tracer(spool)
        jobs = max([int(a[a.index("--jobs") + 1]) for a in ops if "--jobs" in a] or [1])
        traced_walls: list[float] = []
        per_pass: list[dict[str, float]] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            walls.append(run_pass()[0])
            bench_trace.install(tracer)
            tracer.reset()
            try:
                traced_walls.append(run_pass(tracer)[0])
            finally:
                tracer.uninstall()
            tracer.merge_workers()
            per_pass.append(bench_trace.layer_metrics(tracer, jobs))
            if len(per_pass) >= MIN_TRACED_PASSES and not another_fits(start, began, seconds):
                break
        expected = [sum(x) for x in zip(*(bench_ops.expected_steps(a) for a in ops))]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        lines = [describe("untraced wall_s", walls, "s"), describe("traced wall_s", traced_walls, "s"),
                 f"trace.overhead_s: {overhead:.6g} s",
                 f"expected steps {expected[0]}, site_steps {expected[1]}"]
        metrics = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            unit = bench_trace.unit_of(name)
            lines.append(describe(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    fail_ratio = run_pass.failed / run_pass.attempted
    lines.append(f"fail_ratio: {fail_ratio:.6g} ({run_pass.failed}/{run_pass.attempted} ops)")
    for line in lines:
        print(f"{workload}: {line}")
    return {
        "correct": run_pass.failed == 0,
        "attempted": run_pass.attempted,
        "failed": run_pass.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=bench_ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    if opts.probe == "setup":
        warm_up(opts.workload, opts.workdir)
        print(time.perf_counter() - opts.launched)
        return 0
    if opts.probe == "rss":
        print_peak_rss(opts.workload, opts.seed, opts.workdir)
        return 0
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine: " + json.dumps(machine_facts()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
