"""Run manifests: reproducible snapshots of every CLI invocation.

A manifest records the resolved parameters, the full config snapshot with
derived constants, the tool version, and the produced files, so any run can
be re-executed exactly from its manifest alone (timestamps aside).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .constants import OMEGA1, OMEGA2, PLASTIC
from .fileio import read_json, write_json
from .propagator import SimConfig

SCHEMA = "nqkr.run-manifest/1"


@dataclass
class RunManifest:
    command: str
    params: dict
    config: dict | None  # None where no one SimConfig describes the run
    tool_version: str
    timestamp_utc: str
    duration_seconds: float
    outputs: list[str] = field(default_factory=list)
    schema: str = SCHEMA

    def to_dict(self) -> dict:
        d = asdict(self)
        # schema first for readability
        return {"schema": d.pop("schema"), **d}


def config_snapshot(config: SimConfig) -> dict:
    return {
        "lattice": {"size": config.lattice.size, "hbar_eff": config.lattice.hbar_eff},
        "schedule": {
            "K": config.schedule.K,
            "lambda": config.schedule.lam,
            "eta": config.schedule.eta,
            "omega1": config.schedule.omega1,
            "omega2": config.schedule.omega2,
        },
        "kick_count": config.kick_count,
        "kick_phase_divisor": config.kick_phase_divisor,
        "epsilon_shift": config.epsilon_shift,
        "kick_time_offset": config.kick_time_offset,
        "derived": {"kappa": PLASTIC, "omega1": OMEGA1, "omega2": OMEGA2},
    }


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(path: str | Path, manifest: RunManifest) -> None:
    write_json(path, manifest.to_dict())


def load_manifest(path: str | Path) -> RunManifest:
    data = read_json(path)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported manifest schema {data.get('schema')!r}")
    return RunManifest(
        command=data["command"],
        params=data["params"],
        config=data["config"],
        tool_version=data["tool_version"],
        timestamp_utc=data["timestamp_utc"],
        duration_seconds=data["duration_seconds"],
        outputs=list(data["outputs"]),
    )
