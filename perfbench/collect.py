"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads series spectrum sweep \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 25 --sets 2 --out perfbench/baseline.json

Each run is `run.py --workload W --seed S --seconds N --trace T` in a fresh
process, one after the other. For every metric the summary holds the values,
their median and quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median. With --sets 2 the same runs are made twice and the
ratio of the second median to the first is reported per metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    lines = out.stdout.strip().splitlines()
    machine = next(json.loads(line.split(": ", 1)[1]) for line in lines
                   if line.startswith("machine: "))
    return {"result": json.loads(lines[-1]), "machine": machine}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def collect_set(workloads, seeds, seconds, trace) -> tuple[dict, dict]:
    summary, machine = {}, {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = one_run(workload, seed, seconds, trace)
            machine = run["machine"]
            result = run["result"]
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {
            name: {"unit": runs[0][name]["unit"],
                   **summarize([r[name]["value"] for r in runs])}
            for name in runs[0]
        }
    return summary, machine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    opts = parser.parse_args()
    sets = []
    for _ in range(opts.sets):
        summary, machine = collect_set(opts.workloads, opts.seeds, opts.seconds, opts.trace)
        sets.append(summary)
    report = {"machine": machine, "seeds": opts.seeds, "seconds": opts.seconds,
              "trace": opts.trace, "sets": sets}
    if len(sets) == 2:
        report["second_over_first"] = {
            w: {m: sets[1][w][m]["median"] / sets[0][w][m]["median"]
                for m in sets[0][w] if sets[0][w][m]["median"]}
            for w in sets[0]
        }
    for i, summary in enumerate(sets):
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"set {i + 1} {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                      f"spread {spread}")
    for workload, ratios in report.get("second_over_first", {}).items():
        print(f"{workload} second/first: " + ", ".join(f"{m} {r:.3f}" for m, r in ratios.items()))
    if opts.out:
        opts.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
