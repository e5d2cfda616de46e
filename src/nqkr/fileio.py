"""CSV/JSON serialization for all result types.

All CSVs are UTF-8, comma-separated with a header row and 15-significant-digit
floats, so files parse back to within one unit in the last printed digit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .lattice import MomentumDistribution
from .observables import OtocSeries
from .phases import LAMBDA_C_TOLERANCE, NormScanResult, PhaseDiagram
from .spectrum import FidelityRecord, QuasiSpectrum


_FLOAT_FORMAT = "%.15g"
_BLOCK_ROWS = 1 << 16


def _write_table(path: Path, first_line: str, columns: list, sep: str = ",") -> None:
    """first_line, then one row per index of the columns.

    Each block of at most _BLOCK_ROWS rows is formatted by one `%`, so a large
    table is never held as Python floats all at once.
    """
    table = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    row = sep.join([_FLOAT_FORMAT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(first_line + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_distribution_csv(path: str | Path, dist: MomentumDistribution) -> None:
    _write_table(Path(path), "p,prob", [dist.p, dist.prob])


def read_distribution_csv(path: str | Path) -> MomentumDistribution:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return MomentumDistribution(data[:, 0], data[:, 1])


def write_series_csv(path: str | Path, series: OtocSeries) -> None:
    """One column per `OtocSeries` field, in field order, headed by its name."""
    names = [field.name for field in fields(series)]
    _write_table(Path(path), ",".join(names), [getattr(series, name) for name in names])


def write_spectrum_csv(path: str | Path, spec: QuasiSpectrum) -> None:
    _write_table(
        Path(path),
        "eps_r,eps_i,residual",
        [spec.eps_r, spec.eps_i, spec.residuals],
    )


def spectrum_summary(spec: QuasiSpectrum, fid: FidelityRecord | None = None) -> dict:
    """The summary.json payload of one spectrum, plus the best fidelity if fid is given.

    max_valid_eps_i is None when every state leans on the truncation edge.
    """
    valid = spec.valid_mask()
    summary = {
        "t": spec.t,
        "dim": spec.lattice.size,
        "max_eps_i": float(spec.eps_i.max()),
        "max_eps_i_tail_weight": float(spec.tail_weights[int(np.argmax(spec.eps_i))]),
        "max_valid_eps_i": float(spec.eps_i[spec.top_valid_index()]) if valid.any() else None,
        "max_residual": float(spec.residuals.max()),
        "tail_safe_states": int(np.count_nonzero(valid)),
        "flagged_states": int(np.count_nonzero(spec.flagged_mask())),
    }
    if fid is not None:
        best_eps, best_f = fid.best
        summary["best_fidelity"] = best_f
        summary["best_fidelity_eps_i"] = best_eps
    return summary


def write_fidelity_json(path: str | Path, record: FidelityRecord) -> None:
    best_eps, best_f = record.best
    payload = {
        "t": record.t,
        "best_index": record.best_index,
        "best": {"eps_i": best_eps, "fidelity": best_f},
        "overlaps": [
            {"eps_i": float(e), "fidelity": float(f)}
            for e, f in zip(record.eps_i, record.fidelity)
        ],
    }
    write_json(path, payload)


def norm_scan_dict(result: NormScanResult) -> dict:
    """The norm_scan.json payload; lambda_c is keyed by repr(hbar), which round-trips."""
    return {
        "tolerance": LAMBDA_C_TOLERANCE,
        "lambda_c": {repr(h): lc for h, lc in result.lambda_c.items()},
        "rows": [
            {
                "hbar": row.hbar,
                "lambda": row.lam,
                "log_mean_norm": row.log_mean_norm,
                "fit": asdict(row.fit),
            }
            for row in result.rows
        ],
    }


def write_norm_scan_csv(path: str | Path, result: NormScanResult) -> None:
    rows = result.rows
    _write_table(
        Path(path),
        "hbar,lambda,mu,r_squared,log_mean_norm",
        [[r.hbar for r in rows], [r.lam for r in rows], [r.fit.mu for r in rows],
         [r.fit.r_squared for r in rows], [r.log_mean_norm for r in rows]],
    )


def write_diagram_csv(path: str | Path, diagram: PhaseDiagram) -> None:
    a1 = np.repeat(diagram.axis1.values, len(diagram.axis2.values))
    a2 = np.tile(diagram.axis2.values, len(diagram.axis1.values))
    _write_table(Path(path), "axis1,axis2,rho", [a1, a2, diagram.rho.ravel()])


def write_diagram_json(path: str | Path, diagram: PhaseDiagram) -> None:
    """Each point's params are its (axis1, axis2) values; the boundary is derived."""
    axis1 = [float(v) for v in diagram.axis1.values]
    axis2 = [float(v) for v in diagram.axis2.values]
    payload = {
        "axis1": {"name": diagram.axis1.name, "values": axis1},
        "axis2": {"name": diagram.axis2.name, "values": axis2},
        "points": [
            [
                {"params": [v1, v2], "rho": rho, "features": features._asdict()}
                for v2, rho, features in zip(axis2, rho_row, features_row)
            ]
            for v1, rho_row, features_row in zip(axis1, diagram.rho.tolist(), diagram.features)
        ],
        "boundary": [
            {"axis2": v2, "axis1_crossing": crossing}
            for v2, crossing in diagram.boundary
        ],
    }
    write_json(path, payload)


def write_diagram_gnuplot(path: str | Path, diagram: PhaseDiagram) -> None:
    """gnuplot nonuniform-matrix format: `plot ... matrix nonuniform`."""
    axis2 = [_FLOAT_FORMAT % v for v in diagram.axis2.values]
    first_line = " ".join([str(len(axis2)), *axis2])
    _write_table(Path(path), first_line, [diagram.axis1.values, *diagram.rho.T], sep=" ")


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def read_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
