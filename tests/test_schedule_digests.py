"""`tools/schedule_digests.py` hashes the schedules of fixed input sets."""
from pathlib import Path

import corpus
from pachinqo.schedule import schedule_to_json
from test_scheduler import BROAD_SET_ILLUMINATIONS, BROAD_SET_SWAPS

SCHEDULE_DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "schedule_digests.py"


def test_broad_set_totals_equal_the_records(broad_set_schedules):
    """The tool's broad set is the one whose records tier-1 pins
    (`tests/test_scheduler.py`): it is `corpus.broad_set`, the tool
    compiles its cases as tier-1 does, and its SWAP and illumination
    totals over the set's schedules equal the records."""
    tool = corpus.load_module("schedule_digests", SCHEDULE_DIGESTS)
    assert tool.SETS["broad"] is corpus.broad_set
    first = tool.compile_case(*corpus.broad_set()[0])
    assert schedule_to_json(first) == schedule_to_json(broad_set_schedules[0])
    _, swaps, illuminations, _, _ = tool.totals(broad_set_schedules)
    assert (swaps, illuminations) == (BROAD_SET_SWAPS, BROAD_SET_ILLUMINATIONS)
