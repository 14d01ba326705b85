"""`tests/corpus.py` defines the broad set, the scale set and CI's scale
cases as ROADMAP states them. The records in `tests/test_scheduler.py`,
the lines of `tools/schedule_digests.py` and CI's scale steps all read
these definitions, so an edit to one would move all of them together;
these tests compile nothing and fail on it first."""
import random

from corpus import (
    broad_set,
    random_circuit,
    scale_fixpoint_cases,
    scale_set,
    scale_validation_cases,
)

GRID_ORDER = ("large-square", "small-square", "triangle", "star")


def _assert_seeded(cases, specs):
    """Each case is `random_circuit(Random(seed), n, 10n)` under
    `technique` on `grid`, for (n, seed, technique, grid) in `specs`."""
    assert [(c.num_qubits, len(c.gates), t, g) for c, t, g in cases] == \
        [(n, 10 * n, t, g) for n, _, t, g in specs]
    for (circ, _, _), (n, seed, _, _) in zip(cases, specs):
        assert circ == random_circuit(random.Random(seed), n, 10 * n), (n, seed)


def test_broad_set_is_as_recorded():
    """25 circuits, n = 10, 16, 24, 32 and 40 with 10n gates, seeds
    1000n + 0..4, pachinqo, on the four grids in turn by index."""
    sizes = [n for n in (10, 16, 24, 32, 40) for _ in range(5)]
    seeds = [seed for n in (10, 16, 24, 32, 40)
             for seed in range(1000 * n, 1000 * n + 5)]
    _assert_seeded(broad_set(), [(n, seed, "pachinqo", GRID_ORDER[i % 4])
                                 for i, (n, seed) in enumerate(zip(sizes, seeds))])


SCALE_SET = [(n, seed, "pachinqo", "large-square")
             for n in (60, 100, 150) for seed in (1, 2, 3, 4)]


def test_scale_set_is_as_recorded():
    """12 circuits, n = 60, 100 and 150 with 10n gates, seeds 1-4,
    pachinqo on large-square."""
    _assert_seeded(scale_set(), SCALE_SET)


def test_ci_scale_cases_are_as_recorded():
    """CI holds pachinqo at 200 and 400 qubits and trapchange at 200 to a
    fixpoint; it validates the scale set, pachinqo at 200 and 400 qubits,
    and degreesplit, onecache and trapchange at 100; all at seed 1 with
    10n gates on large-square."""
    _assert_seeded(scale_fixpoint_cases(),
                   [(200, 1, "pachinqo", "large-square"),
                    (400, 1, "pachinqo", "large-square"),
                    (200, 1, "trapchange", "large-square")])
    _assert_seeded(scale_validation_cases(), SCALE_SET + [
        (200, 1, "pachinqo", "large-square"),
        (400, 1, "pachinqo", "large-square"),
        (100, 1, "degreesplit", "large-square"),
        (100, 1, "onecache", "large-square"),
        (100, 1, "trapchange", "large-square")])
