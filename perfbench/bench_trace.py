"""Outside-in tracing: wrap the package's functions where callers look them up.

The wrapped names are public API, except `nqkr.phases._evaluate_point`,
which is the unit of work the phase-diagram pool runs per grid point.

Each wrapper records a span (name, duration, and the time its child spans
cover) on a per-process stack, so a layer's self time is its duration minus
its children's. Nothing under src/ changes: every wrapper is installed on the
module attribute that the calling module resolves at call time, e.g.
`nqkr.spectrum.step` for matrix assembly and `nqkr.propagator.step` for
evolution. The phase-diagram pool forks its workers from the traced process,
so they inherit the wrappers; each worker writes its stats to a spool file
after every grid point and the parent merges them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

import nqkr.cli
import nqkr.observables
import nqkr.phases
import nqkr.propagator
import nqkr.spectrum

_FILEIO_WRITERS = (
    "write_series_csv", "write_distribution_csv", "write_spectrum_csv",
    "write_fidelity_json", "write_json", "write_diagram_csv",
    "write_diagram_json", "write_diagram_gnuplot",
)


class Tracer:
    """Span stats per name: [calls, total seconds, self seconds], plus counters."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_worker = False
        self._flushes = 0
        self.reset()
        os.register_at_fork(after_in_child=self._enter_child)

    def reset(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}

    def _enter_child(self) -> None:
        # A forked pool worker inherits the parent's open spans and totals.
        self._in_worker = True
        self._stack = []
        self._flushes = 0
        self.reset()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _record(self, name: str, elapsed: float, child: float) -> None:
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - child

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span named `name`."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            self._record(name, elapsed, frame[1])

    def wrap(self, name: str, fn, parent: str | None = None, after=None):
        """fn traced as `name`; with `parent`, only calls made directly inside that span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if parent is not None and (not tracer._stack or tracer._stack[-1][0] != parent):
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, **kw) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def flush_worker(self) -> None:
        """In a pool worker, hand the stats so far to the parent and start afresh."""
        if not self._in_worker:
            return
        self._flushes += 1
        path = self.spool_dir / f"{os.getpid()}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "counters": self.counters}))
        tmp.replace(path)
        self.reset()

    def merge_workers(self) -> None:
        for path in sorted(self.spool_dir.glob("*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for name, (calls, total, self_s) in data["stats"].items():
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += self_s
            for counter, amount in data["counters"].items():
                self.add(counter, amount)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the package; undo with tracer.uninstall()."""
    prop, obs, spec, phases, cli = (
        nqkr.propagator, nqkr.observables, nqkr.spectrum, nqkr.phases, nqkr.cli)

    def count_sites(args):
        tracer.add("propagator.site_steps", args[0].lattice.size)

    for owner in (prop, spec):
        tracer.patch_span(owner, "step", "propagator.step", after=count_sites)
    tracer.patch_span(prop, "apply_kick", "propagator.apply_kick")
    tracer.patch_span(prop, "apply_free", "propagator.apply_free")
    tracer.patch_span(prop, "tail_probability", "propagator.tail")
    for fn in ("fft", "ifft"):
        tracer.patch_span(np.fft, fn, "propagator.fft", parent="propagator.apply_kick")

    evolve = obs.evolve

    @functools.wraps(evolve)
    def evolve_observed(config, observers=()):
        return evolve(config, [tracer.wrap("observables.observer", o) for o in observers])

    tracer.patch(obs, "evolve", evolve_observed)
    for owner in (cli, phases, obs):
        tracer.patch_span(owner, "record_series", "observables.record_series")
    tracer.patch_span(cli, "norm_scan", "observables.norm_scan")

    tracer.patch_span(cli, "spectrum_at", "spectrum.spectrum_at")
    tracer.patch_span(spec, "build_floquet_matrix", "spectrum.build")
    tracer.patch_span(spec, "quasi_spectrum", "spectrum.quasi_spectrum")
    tracer.patch_span(np.linalg, "eig", "spectrum.eig", parent="spectrum.quasi_spectrum")
    tracer.patch_span(cli, "fidelity_profile", "spectrum.fidelity")

    tracer.patch_span(cli, "phase_diagram", "phases.diagram")
    tracer.patch_span(phases, "_evaluate_point", "phases.point",
                      after=lambda args: tracer.flush_worker())

    def count_bytes(args):
        tracer.add("fileio.bytes", os.path.getsize(args[0]))

    for writer in _FILEIO_WRITERS:
        tracer.patch_span(cli, writer, "fileio.write", after=count_bytes)


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-pass layer metrics from the stats of one traced pass."""
    stats = tracer.stats

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(seconds, name):
        return 1e6 * seconds / calls(name) if calls(name) else 0.0

    diagram = total("phases.diagram")
    return {
        "propagator.steps": calls("propagator.step"),
        "propagator.site_steps": tracer.counters.get("propagator.site_steps", 0.0),
        "propagator.step_us": per_call_us(total("propagator.step"), "propagator.step"),
        "propagator.kick_self_us": per_call_us(self_time("propagator.apply_kick"), "propagator.apply_kick"),
        "propagator.fft_pair_us": per_call_us(total("propagator.fft"), "propagator.apply_kick"),
        "propagator.free_us": per_call_us(total("propagator.apply_free"), "propagator.apply_free"),
        "propagator.tail_us": per_call_us(total("propagator.tail"), "propagator.tail"),
        "observables.observer_us": per_call_us(total("observables.observer"), "observables.observer"),
        "observables.record_series_s": total("observables.record_series"),
        "observables.norm_scan_s": total("observables.norm_scan"),
        "spectrum.build_s": total("spectrum.build"),
        "spectrum.eig_s": total("spectrum.eig"),
        "spectrum.quasi_self_s": self_time("spectrum.quasi_spectrum"),
        "spectrum.fidelity_s": total("spectrum.fidelity"),
        "phases.diagram_s": diagram,
        "phases.point_s": total("phases.point") / calls("phases.point") if calls("phases.point") else 0.0,
        "phases.busy_ratio": total("phases.point") / (jobs * diagram) if diagram else 0.0,
        "fileio.write_s": total("fileio.write"),
        "fileio.bytes": tracer.counters.get("fileio.bytes", 0.0),
        "cli.self_s": self_time("cli.command"),
    }


def unit_of(metric: str) -> str:
    """Unit of a layer metric, from its name."""
    for suffix, unit in (("_us", "us"), ("_s", "s"), (".bytes", "B"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"
