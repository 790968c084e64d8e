"""Shared fixtures.

Measured access tables are expensive to build, so they are cached on
disk under ``tests/.cache`` and shared across the whole session.  The
cache key (``AccessTable.content_key``) covers the ``SimConfig`` fields
the table records, the per-technology LBT parameters in
``NODE_DEFAULTS``, the file format and ``SIM_STREAM_VERSION``.  It does
not cover the rest of the simulator's code: a change that alters the
random stream must bump ``SIM_STREAM_VERSION``, and after any other
change to the simulator, clear ``tests/.cache`` before trusting gate 5
or any other table-backed result.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from slicenet.coexist import SimConfig, measure_table
from slicenet.scenario import load_scenario

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table3():
    """Small measured table: every connected colored graph up to 3
    vertices, short runs."""
    return measure_table(3, SimConfig(duration_s=2.0, seed=0), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def table5():
    """Full-depth measured table used by the acceptance checks."""
    return measure_table(5, SimConfig(duration_s=10.0, seed=0), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def two_mno_scenario():
    return load_scenario(SCENARIO_DIR / "two_mno_20mhz.yaml")
