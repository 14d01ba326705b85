"""Cost model: timing composition, ESP, and movement accounting."""
import math
import random

import pytest

from pachinqo.machine import PhysParams, build_layout, generate_grid
from pachinqo.metrics import (
    build_report,
    composed_swap_error,
    esp,
    gate_counts,
    movement_phase_time,
    movement_total,
    runtime_breakdown,
)
from pachinqo.schedule import (
    ColumnMove,
    CzEntry,
    Illumination,
    Measure,
    Schedule,
    TrapChange,
    U3Entry,
    U3LayerEvent,
    phases,
)
from pachinqo.scheduler import Compiler

from corpus import random_circuit, staircase


def _move(cid, fx, tx, dys, t0=0.0, t1=1.0):
    return ColumnMove(t0, t1, 1, cid, fx, tx,
                      [(i, 0.0, dy) for i, dy in enumerate(dys)])


def test_single_column_move_time(params):
    assert movement_phase_time([_move(0, 0.0, 55.0, [0.0])], params) == 1.0


def test_concurrent_movement_takes_max(params):
    moves = [_move(0, 0.0, 55.0, [0.0]), _move(1, 60.0, 170.0, [0.0])]
    assert movement_phase_time(moves, params) == 2.0
    assert movement_phase_time(moves, params, serial=True) == 3.0


def test_column_time_adds_max_dy(params):
    # |dx| + max |dy| over the column's atoms
    moves = [_move(0, 0.0, 55.0, [27.5, 55.0])]
    assert movement_phase_time(moves, params) == 2.0


def test_layer_time_components(params):
    events = [
        _move(0, 0.0, 55.0, [0.0]),
        Illumination(1.0, 1.8, 1, []),
        U3LayerEvent(2.0, 4.0, 1, []),
        TrapChange(4.0, 129.0, 1, "aod_to_slm", []),
    ]
    t = sum(runtime_breakdown(events, params).values())
    assert t == pytest.approx(1.0 + 0.8 + 2.0 + 125.0)


def test_runtime_breakdown_splits_layer_time_by_kind(params):
    events = [
        _move(0, 0.0, 55.0, [0.0], 0.0, 1.0),
        _move(1, 100.0, 128.5, [26.5], 0.0, 1.0),
        Illumination(1.0, 1.8, 1, []),
        U3LayerEvent(1.8, 3.8, 1, []),
        U3LayerEvent(3.8, 5.8, 1, []),
        TrapChange(5.8, 130.8, 1, "aod_to_slm", []),
        Measure(130.8, 130.8, 1, []),
    ]
    parts = runtime_breakdown(events, params)
    assert parts == pytest.approx({"movement": 1.0, "trap_change": 125.0,
                                   "u3": 4.0, "cz": 0.8})
    assert runtime_breakdown(events, params, serial=True)["movement"] == \
        pytest.approx(2.0)
    assert sum(parts.values()) == pytest.approx(events[-1].t_end)


def test_layer_time_groups_phases_by_interval(params):
    events = [
        _move(0, 0.0, 55.0, [0.0], 0.0, 1.0),
        _move(1, 100.0, 128.5, [26.5], 0.0, 1.0),   # same phase: max
        _move(0, 55.0, 110.0, [0.0], 1.0, 2.0),     # second phase
    ]
    assert sum(runtime_breakdown(events, params).values()) == pytest.approx(2.0)


def test_phases_split_runs_of_moves_sharing_a_span():
    a, b = _move(0, 0.0, 55.0, [0.0]), _move(1, 100.0, 128.5, [26.5])
    u3_layer = U3LayerEvent(1.0, 3.0, 1, [])
    c = _move(0, 55.0, 110.0, [0.0], 3.0, 4.0)
    # Two move runs split by a U3 layer.
    assert list(phases([a, b, u3_layer, c])) == [(0, [a, b]), (2, [u3_layer]),
                                                (3, [c])]
    # Back-to-back phases with different spans are two runs.
    d = _move(1, 128.5, 140.0, [0.0], 1.0, 2.0)
    assert list(phases([a, b, d])) == [(0, [a, b]), (2, [d])]
    # A non-move event is a run of its own, even beside one of equal span.
    m1, m2 = Measure(4.0, 4.0, 1, []), Measure(4.0, 4.0, 1, [])
    assert list(phases([m1])) == [(0, [m1])]
    assert [(i, len(run)) for i, run in phases([m1, m2])] == [(0, 1), (1, 1)]
    assert list(phases([])) == []


def test_composed_swap_error_matches_table(params):
    # 1 - (1-0.0048)^3 (1-0.000127)^6 vs the tabulated 1.51%
    assert composed_swap_error(params) == pytest.approx(0.0151, abs=5e-4)


def test_movement_total_counts_each_atom(params):
    sched = Schedule("pachinqo", "large-square", params, "t", 4)
    sched.events = [_move(0, 0.0, 10.0, [0.0, 0.0, 0.0, 0.0])]
    assert movement_total(sched) == 40.0


def test_movement_total_empty(params):
    sched = Schedule("pachinqo", "large-square", params, "t", 1)
    assert movement_total(sched) == 0.0


def test_esp_zero_gate_single_qubit(params):
    sched = Schedule("pachinqo", "large-square", params, "t", 1)
    # no events: runtime 0, no gates
    assert esp(sched, params) == pytest.approx((1 - 0.05) * (1 - 0.007))
    assert esp(sched, params) == pytest.approx(0.94335, abs=1e-5)


def test_esp_monotone_in_gates_and_runtime(params):
    base = Schedule("pachinqo", "large-square", params, "t", 2)
    base.events = [U3LayerEvent(0.0, 2.0, 1, [U3Entry(0, 0, (1, 0, 0))])]
    more = Schedule("pachinqo", "large-square", params, "t", 2)
    more.events = [
        U3LayerEvent(0.0, 2.0, 1, [U3Entry(0, 0, (1, 0, 0))]),
        Illumination(2.0, 2.8, 2, [CzEntry((0, 1), (0, 1), ((0, 0), (1, 0)))]),
    ]
    longer = Schedule("pachinqo", "large-square", params, "t", 2)
    longer.events = [U3LayerEvent(0.0, 2000.0, 1, [U3Entry(0, 0, (1, 0, 0))])]
    assert esp(more, params) < esp(base, params)
    assert esp(longer, params) < esp(base, params)


def test_esp_in_unit_interval_for_compiled(params):
    circ = random_circuit(random.Random(3), 8, 60)
    layout = build_layout(8, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(circ, "pachinqo", grid, layout, params).run()
    value = esp(sched, params)
    assert 0.0 < value <= 1.0


def test_runtime_equals_last_event_end(params):
    circ = staircase(8, 2)
    layout = build_layout(8, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(circ, "pachinqo", grid, layout, params).run()
    assert sched.end_time == sched.events[-1].t_end


def test_runtime_equals_sum_of_layer_times(params):
    circ = staircase(6, 1)
    layout = build_layout(6, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(circ, "pachinqo", grid, layout, params).run()
    total = sum(runtime_breakdown(sched.events, params).values())
    assert total == pytest.approx(sched.end_time)


def test_empty_circuit_runtime_is_tcs_plus_movement(params):
    from pachinqo.circuit import Circuit

    layout = build_layout(3, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(Circuit(3, []), "pachinqo", grid, layout, params).run()
    move_time = sum(
        movement_phase_time([e], params)
        for e in sched.events if isinstance(e, ColumnMove)
    )
    assert sched.end_time == pytest.approx(
        6 * params.trap_change_time + move_time)


def test_gate_counts_include_swap_components():
    # A conflict between two static atoms inserts one 9-gate swap. The
    # one column holds its two mobile qubits, so no free slot takes a
    # static operand in at load time.
    from pachinqo.circuit import Circuit, cz

    params = PhysParams(max_atoms_per_column=2)
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    layout = build_layout(4, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(circ, "pachinqo", grid, layout, params).run()
    assert sched.swap_count == 1
    counts = gate_counts(sched)
    assert counts["cz"] == 3 + 3
    assert counts["u3"] == 6


def test_report_roundtrip_fields(params):
    circ = staircase(4)
    layout = build_layout(4, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(circ, "pachinqo", grid, layout, params).run()
    report = build_report(sched, params, compile_time_ms=1.25)
    data = report.to_json()
    import json

    doc = json.loads(data)
    assert set(doc) == {"runtime_us", "runtime_breakdown_us", "esp",
                        "swap_count", "trap_change_count",
                        "total_movement_um", "gate_counts", "compile_time_ms"}
    assert set(doc["runtime_breakdown_us"]) == {"movement", "trap_change",
                                                "u3", "cz"}
    assert doc["gate_counts"] == {"u3": 4, "cz": 3}
    assert doc["trap_change_count"] == 6
