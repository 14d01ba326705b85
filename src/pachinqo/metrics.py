"""Cost model: runtime composition, estimated success probability, and
movement accounting over a finished schedule.

Timing rules: columns moved within the same phase travel concurrently
(phase time = slowest column) unless serial_movement is set, in which
case phase time is the sum. A column's move lasts (|dx| + max per-atom
|dy|) / aod_speed (Manhattan path, x then y). Illuminations cost cz_time,
U3 layers u3_time, trap changes trap_change_time each, all serialized.
Readout sensing time is excluded; readout_error carries its fidelity
impact.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .machine import PhysParams
from .schedule import (ColumnMove, Illumination, Measure, Schedule, TrapChange,
                       U3LayerEvent, phases)

_US_PER_S = 1e6


@dataclass
class MetricsReport:
    runtime_us: float
    runtime_breakdown_us: dict[str, float]  # modelled time by event kind
    esp: float
    swap_count: int
    trap_change_count: int
    total_movement_um: float
    gate_counts: dict[str, int]
    compile_time_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def move_duration(dx: float, dys: list[float], params: PhysParams) -> float:
    """One column's travel time for |dx| plus per-atom |dy| moves."""
    return (abs(dx) + max(map(abs, dys), default=0.0)) / params.aod_speed


def movement_phase_time(moves: list[ColumnMove], params: PhysParams,
                        serial: bool = False) -> float:
    """Duration of one phase of column moves (concurrent max or serial sum)."""
    durs = [move_duration(m.to_x - m.from_x, [ty - fy for _, fy, ty in m.atoms],
                          params) for m in moves]
    return sum(durs, 0.0) if serial else max(durs, default=0.0)


def fixed_durations(params: PhysParams) -> dict[type, float]:
    """The modelled time of each kind of event but a column move: an
    illumination takes cz_time, a U3 layer u3_time, a trap change
    trap_change_time and a measure none."""
    return {Illumination: params.cz_time, U3LayerEvent: params.u3_time,
            TrapChange: params.trap_change_time, Measure: 0.0}


def runtime_breakdown(events: list, params: PhysParams,
                      serial: bool = False) -> dict[str, float]:
    """Modelled time of `events` in us by kind: movement, trap_change, u3
    and cz (measures take none), each kind's `fixed_durations` summed and
    each move phase (`schedule.phases`) its `movement_phase_time`."""
    durations = fixed_durations(params)
    names = {TrapChange: "trap_change", U3LayerEvent: "u3", Illumination: "cz"}
    out = dict.fromkeys(("movement", *names.values()), 0.0)
    for _, run in phases(events):
        if isinstance(run[0], ColumnMove):
            out["movement"] += movement_phase_time(run, params, serial)
        elif type(run[0]) in names:
            out[names[type(run[0])]] += durations[type(run[0])]
    return out


def gate_counts(schedule: Schedule) -> dict[str, int]:
    """Executed gate totals, inserted SWAP components included."""
    u3 = cz = 0
    for ev in schedule.events:
        if isinstance(ev, U3LayerEvent):
            u3 += len(ev.gates)
        elif isinstance(ev, Illumination):
            cz += len(ev.pairs)
    return {"u3": u3, "cz": cz}


def esp(schedule: Schedule, params: PhysParams) -> float:
    """Estimated success probability.

    Product of per-gate success rates, per-qubit readout and atom-survival
    rates, and whole-runtime T1/T2 decay per qubit. SWAP components count
    at their individual U3/CZ rates.
    """
    n = schedule.num_qubits
    counts = gate_counts(schedule)
    t_us = schedule.end_time
    decay = math.exp(-t_us / (params.t1 * _US_PER_S)) * math.exp(
        -t_us / (params.t2 * _US_PER_S)
    )
    return (
        (1.0 - params.cz_error) ** counts["cz"]
        * (1.0 - params.u3_error) ** counts["u3"]
        * (1.0 - params.readout_error) ** n
        * (1.0 - params.atom_loss) ** n
        * decay**n
    )


def movement_total(schedule: Schedule) -> float:
    """Total atom movement in um: per-atom Manhattan distance summed over
    all column moves."""
    return sum(
        ev.manhattan_total for ev in schedule.events if isinstance(ev, ColumnMove)
    )


def composed_swap_error(params: PhysParams) -> float:
    """Error of a 3-CZ + 6-U3 composite; cross-checks the swap_error entry."""
    return 1.0 - (1.0 - params.cz_error) ** 3 * (1.0 - params.u3_error) ** 6


def build_report(schedule: Schedule, params: PhysParams,
                 compile_time_ms: float = 0.0) -> MetricsReport:
    return MetricsReport(
        runtime_us=schedule.end_time,
        runtime_breakdown_us=runtime_breakdown(schedule.events, params,
                                               schedule.serial_movement),
        esp=esp(schedule, params),
        swap_count=schedule.swap_count,
        trap_change_count=schedule.trap_change_count,
        total_movement_um=movement_total(schedule),
        gate_counts=gate_counts(schedule),
        compile_time_ms=compile_time_ms,
    )
