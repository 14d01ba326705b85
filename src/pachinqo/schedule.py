"""Timed schedule events and their stable JSON serialization.

Event list order is part of the contract: the validator replays events in
order, so simultaneous moves are emitted in an order that keeps the AOD
column ordering invariant true at every step. Format:

  {"meta": {"technique", "grid", "params_hash", ...},
   "events": [{"kind", "t_start_us", "t_end_us", "layer", ...}, ...],
   "final_mapping": {qubit: atom}}
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from .machine import PhysParams

SLM_TO_AOD = "slm_to_aod"
AOD_TO_SLM = "aod_to_slm"


@dataclass
class ColumnMove:
    """One AOD column translating; atoms share x, ys move independently."""

    t_start: float
    t_end: float
    layer: int
    column: int
    from_x: float
    to_x: float
    atoms: list[tuple[int, float, float]]  # (atom_id, from_y, to_y)
    kind: str = "column-move"

    @property
    def manhattan_total(self) -> float:
        dx = abs(self.to_x - self.from_x)
        return sum(dx + abs(b - a) for _, a, b in self.atoms)


@dataclass
class U3Entry:
    qubit: int
    atom: int
    angles: tuple[float, float, float]
    origin: tuple[int, int] | None = None  # (swap_id, step)


@dataclass
class U3LayerEvent:
    t_start: float
    t_end: float
    layer: int
    gates: list[U3Entry]
    kind: str = "u3-layer"


@dataclass
class CzEntry:
    qubits: tuple[int, int]
    atoms: tuple[int, int]
    positions: tuple[tuple[float, float], tuple[float, float]]
    origin: tuple[int, int] | None = None


@dataclass
class Illumination:
    t_start: float
    t_end: float
    layer: int
    pairs: list[CzEntry]
    kind: str = "illumination"


@dataclass
class TrapTransfer:
    atom: int
    x: float
    y: float
    column: int | None = None  # receiving column for slm_to_aod


@dataclass
class TrapChange:
    t_start: float
    t_end: float
    layer: int
    direction: str  # SLM_TO_AOD | AOD_TO_SLM
    transfers: list[TrapTransfer]
    kind: str = "trap-change"


@dataclass
class Measure:
    t_start: float
    t_end: float
    layer: int
    atoms: list[tuple[int, int, float, float]]  # (atom_id, qubit, x, y)
    kind: str = "measure"


Event = ColumnMove | U3LayerEvent | Illumination | TrapChange | Measure


@dataclass
class Schedule:
    technique: str
    grid: str
    params: PhysParams
    source_name: str
    num_qubits: int
    serial_movement: bool = False
    events: list[Event] = field(default_factory=list)
    final_mapping: dict[int, int] = field(default_factory=dict)  # qubit -> atom
    swap_count: int = 0
    trap_change_count: int = 0

    @property
    def end_time(self) -> float:
        return self.events[-1].t_end if self.events else 0.0

    def params_hash(self) -> str:
        blob = json.dumps(asdict(self.params), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def by_layer(self) -> dict[int, list[Event]]:
        layers: dict[int, list[Event]] = {}
        for ev in self.events:
            layers.setdefault(ev.layer, []).append(ev)
        return layers


def ordered_phase_moves(
    moves: list[tuple[int, float, float, list[tuple[int, float, float]]]],
    t_start: float,
    t_end: float,
    layer: int,
) -> list[ColumnMove]:
    """Emit one phase of concurrent column moves in a replay-safe order.

    Column positions are strictly ordered before the phase and its targets
    preserve that order. Emitting rightward movers from the right and
    leftward movers from the left keeps the column x ordering strictly
    increasing after every single event, so a step-by-step replay never
    sees a crossing. No-op moves are dropped.
    """
    stationary, rightward, leftward = [], [], []
    for m in sorted(moves, key=lambda m: m[1]):
        _, fx, tx, atoms = m
        if tx > fx:
            rightward.append(m)
        elif tx < fx:
            leftward.append(m)
        elif any(fy != ty for _, fy, ty in atoms):
            stationary.append(m)
    out = []
    for cid, fx, tx, atoms in (
        stationary + list(reversed(rightward)) + leftward
    ):
        out.append(ColumnMove(t_start, t_end, layer, cid, fx, tx, list(atoms)))
    return out


def _event_dict(ev: Event) -> dict:
    d: dict = {
        "kind": ev.kind,
        "t_start_us": ev.t_start,
        "t_end_us": ev.t_end,
        "layer": ev.layer,
    }
    if isinstance(ev, ColumnMove):
        d["column"] = ev.column
        d["from_x"] = ev.from_x
        d["to_x"] = ev.to_x
        d["atoms"] = [[a, fy, ty] for a, fy, ty in ev.atoms]
    elif isinstance(ev, U3LayerEvent):
        d["gates"] = [
            {"qubit": g.qubit, "atom": g.atom, "angles": list(g.angles),
             "origin": list(g.origin) if g.origin else None}
            for g in ev.gates
        ]
    elif isinstance(ev, Illumination):
        d["pairs"] = [
            {"qubits": list(p.qubits), "atoms": list(p.atoms),
             "positions": [list(p.positions[0]), list(p.positions[1])],
             "origin": list(p.origin) if p.origin else None}
            for p in ev.pairs
        ]
    elif isinstance(ev, TrapChange):
        d["direction"] = ev.direction
        d["transfers"] = [
            {"atom": t.atom, "x": t.x, "y": t.y, "column": t.column}
            for t in ev.transfers
        ]
    elif isinstance(ev, Measure):
        d["atoms"] = [[a, q, x, y] for a, q, x, y in ev.atoms]
    return d


def _event_from_dict(d: dict) -> Event:
    base = dict(t_start=d["t_start_us"], t_end=d["t_end_us"], layer=d["layer"])
    kind = d["kind"]
    if kind == "column-move":
        return ColumnMove(**base, column=d["column"], from_x=d["from_x"],
                          to_x=d["to_x"],
                          atoms=[(a, fy, ty) for a, fy, ty in d["atoms"]])
    if kind == "u3-layer":
        return U3LayerEvent(**base, gates=[
            U3Entry(g["qubit"], g["atom"], tuple(g["angles"]),
                    tuple(g["origin"]) if g["origin"] else None)
            for g in d["gates"]
        ])
    if kind == "illumination":
        return Illumination(**base, pairs=[
            CzEntry(tuple(p["qubits"]), tuple(p["atoms"]),
                    (tuple(p["positions"][0]), tuple(p["positions"][1])),
                    tuple(p["origin"]) if p["origin"] else None)
            for p in d["pairs"]
        ])
    if kind == "trap-change":
        return TrapChange(**base, direction=d["direction"], transfers=[
            TrapTransfer(t["atom"], t["x"], t["y"], t["column"])
            for t in d["transfers"]
        ])
    if kind == "measure":
        return Measure(**base, atoms=[(a, q, x, y) for a, q, x, y in d["atoms"]])
    raise ValueError(f"unknown event kind {kind!r}")


def _schedule_json_chunks(schedule: Schedule) -> Iterator[str]:
    """Yield the text of `json.dumps(doc, indent=1)` for the schedule
    document in parts, so only one event's dict and chunks are alive at a
    time and no whole-document tree or chunk list is built.

    Each part is encoded at nesting depth 0 and re-indented by prefixing
    every line after the first. That is exact because JSON escapes newlines
    inside strings: every raw newline in an encoding is structural.
    """
    encode = json.JSONEncoder(indent=1).encode

    def nested(obj, depth: int) -> str:
        return encode(obj).replace("\n", "\n" + " " * depth)

    meta = {
        "technique": schedule.technique,
        "grid": schedule.grid,
        "params_hash": schedule.params_hash(),
        "source_name": schedule.source_name,
        "num_qubits": schedule.num_qubits,
        "serial_movement": schedule.serial_movement,
        "swap_count": schedule.swap_count,
        "trap_change_count": schedule.trap_change_count,
    }
    yield '{\n "meta": ' + nested(meta, 1) + ',\n "events": '
    if schedule.events:
        sep = "[\n  "
        for ev in schedule.events:
            yield sep + nested(_event_dict(ev), 2)
            sep = ",\n  "
        yield "\n ]"
    else:
        yield "[]"
    final_mapping = {str(q): a for q, a in sorted(schedule.final_mapping.items())}
    yield ',\n "final_mapping": ' + nested(final_mapping, 1) + "\n}"


def schedule_to_json(schedule: Schedule) -> str:
    return "".join(_schedule_json_chunks(schedule))


def schedule_from_json(text: str, params: PhysParams | None = None) -> Schedule:
    doc = json.loads(text)
    meta = doc["meta"]
    sched = Schedule(
        technique=meta["technique"],
        grid=meta["grid"],
        params=params or PhysParams(),
        source_name=meta["source_name"],
        num_qubits=meta["num_qubits"],
        serial_movement=meta["serial_movement"],
        events=[_event_from_dict(d) for d in doc["events"]],
        final_mapping={int(q): a for q, a in doc["final_mapping"].items()},
        swap_count=meta["swap_count"],
        trap_change_count=meta["trap_change_count"],
    )
    return sched
