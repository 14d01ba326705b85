import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples in every run by default, so two
# runs compile the same circuits and a failure comes back. CI runs them
# once more under `--hypothesis-profile=random` to keep exploring.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile("derandomized")

from pachinqo.machine import PhysParams, build_layout, generate_grid
from pachinqo.scheduler import Compiler

from corpus import broad_set, scale_set


@pytest.fixture(scope="session")
def params():
    return PhysParams()


@pytest.fixture(scope="session")
def default_layout(params):
    return build_layout(10, "default", params)


@pytest.fixture(scope="session")
def default_grid(default_layout, params):
    return generate_grid("large-square", default_layout, params)


def _schedules(cases, params):
    """The schedule of each (circuit, technique, grid kind) case."""
    schedules = []
    for circ, technique, grid_kind in cases:
        layout = build_layout(circ.num_qubits, "auto", params, grid_kind)
        grid = generate_grid(grid_kind, layout, params)
        schedules.append(Compiler(circ, technique, grid, layout, params).run())
    return schedules


@pytest.fixture(scope="session")
def broad_set_schedules(params):
    """The broad set's schedules, compiled once for its records
    (`tests/test_scheduler.py`) and the digest tool's totals."""
    return _schedules(broad_set(), params)


@pytest.fixture(scope="session")
def scale_set_schedules(params):
    return _schedules(scale_set(), params)
