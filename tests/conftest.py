"""Shared production-run fixtures.

The heavyweight runs (1000-kick production series, the 1024-dim
eigendecomposition) are session-scoped: everything is deterministic, so any
test that needs the same configuration can reuse the same result.

Every test in this directory fails on a WrapAroundWarning it does not expect
(`pytest.warns` still catches the ones a test asks for): a wrapped state is
not the physics a test means to check.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from nqkr import (
    KickSchedule,
    MomentumLattice,
    SimConfig,
    record_series,
    spectrum_at,
)

HBAR = 2.89


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(
                pytest.mark.filterwarnings("error::nqkr.propagator.WrapAroundWarning")
            )


def production_config(K, lam, kicks, lattice_size=4096, hbar=HBAR):
    return SimConfig(
        lattice=MomentumLattice(lattice_size, hbar),
        schedule=KickSchedule(K=K, lam=lam),
        kick_count=kicks,
    )


@pytest.fixture(scope="session")
def record_k10_l0():
    return record_series(production_config(10, 0.0, 1000), snapshot_times=(1000,))


@pytest.fixture(scope="session")
def record_k4_l0():
    return record_series(production_config(4, 0.0, 1000), snapshot_times=(1000,))


@pytest.fixture(scope="session")
def record_k10_l5():
    return record_series(production_config(10, 5.0, 1000), snapshot_times=(1000,))


@pytest.fixture(scope="session")
def record_k10_l2():
    return record_series(production_config(10, 2.0, 1000), snapshot_times=(1000,))


@pytest.fixture(scope="session")
def mu_ladder():
    """Norm-growth series for the lambda ladder of the norm-growth figure."""
    out = {}
    for lam in (0.0, 0.3, 0.5, 1.0, 1.5, 2.0):
        out[lam] = record_series(production_config(10, lam, 1000)).series
    return out


@pytest.fixture(scope="session")
def fidelity_setup():
    """K=10, lambda=5 at t=200: evolved state plus the 1024-dim spectrum."""
    config = production_config(10, 5.0, 200, lattice_size=1024)
    record = record_series(config)
    spec = spectrum_at(config, 200, 1024)
    return config, record, spec
