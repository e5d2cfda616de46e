"""Regenerate reference.json: the checked output values of every seed-0 op.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
compares every later commit against the file it writes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for workload in run.bench_ops.WORKLOADS:
            for args in run.bench_ops.ops_for(workload, 0):
                outdir = Path(tempfile.mkdtemp(dir=workdir))
                _, _, error = run.run_op(args, outdir)
                if error is not None:
                    raise SystemExit(f"{' '.join(args)} failed: {error}")
                (run_dir,) = [p for p in outdir.iterdir() if p.is_dir()]
                values, errors = run.bench_check.read_outputs(args, run_dir)
                if errors:
                    raise SystemExit(f"{' '.join(args)}: {'; '.join(errors)}")
                reference[run.bench_check.op_key(args)] = values
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(reference, indent=1) + "\n"
    run.bench_check.REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {len(reference)} ops to {run.bench_check.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
