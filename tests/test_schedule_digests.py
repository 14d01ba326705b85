"""`tools/schedule_digests.py` hashes the schedules of fixed input sets."""
import importlib.util
from pathlib import Path

from test_scheduler import BROAD_SET_ILLUMINATIONS, BROAD_SET_SWAPS

SCHEDULE_DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "schedule_digests.py"


def test_broad_set_totals_equal_the_records():
    """The tool's broad set is the one whose records tier-1 pins
    (`tests/test_scheduler.py`): its SWAP and illumination totals equal
    them."""
    spec = importlib.util.spec_from_file_location("schedule_digests", SCHEDULE_DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, swaps, illuminations, _, _ = module.totals(module.broad_set())
    assert (swaps, illuminations) == (BROAD_SET_SWAPS, BROAD_SET_ILLUMINATIONS)
