"""Timed schedule events and their stable JSON serialization.

Event list order is part of the contract: the validator replays events in
order, so simultaneous moves are emitted in an order that keeps the AOD
column ordering invariant true at every step (`scheduler.replay_order`).
A move phase is stored only by its times: it is a maximal run of
consecutive column moves that share `(t_start, t_end)`. `phases` is the
one reader of that rule; the validator and the cost model iterate it.
Format:

  {"meta": {"technique", "grid", "params_hash", ...},
   "events": [{"kind", "t_start_us", "t_end_us", "layer", ...}, ...],
   "final_mapping": {qubit: atom}}
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import ClassVar

from .machine import PhysParams

SLM_TO_AOD = "slm_to_aod"
AOD_TO_SLM = "aod_to_slm"


@dataclass(slots=True)
class ColumnMove:
    """One AOD column translating; atoms share x, ys move independently."""

    t_start: float
    t_end: float
    layer: int
    column: int
    from_x: float
    to_x: float
    atoms: list[tuple[int, float, float]]  # (atom_id, from_y, to_y)
    kind: ClassVar[str] = "column-move"

    @property
    def manhattan_total(self) -> float:
        dx = abs(self.to_x - self.from_x)
        return sum(dx + abs(b - a) for _, a, b in self.atoms)


@dataclass(slots=True)
class U3Entry:
    qubit: int
    atom: int
    angles: tuple[float, float, float]
    origin: tuple[int, int] | None = None  # (swap_id, step)


@dataclass(slots=True)
class U3LayerEvent:
    t_start: float
    t_end: float
    layer: int
    gates: list[U3Entry]
    kind: ClassVar[str] = "u3-layer"


@dataclass(slots=True)
class CzEntry:
    qubits: tuple[int, int]
    atoms: tuple[int, int]
    positions: tuple[tuple[float, float], tuple[float, float]]
    origin: tuple[int, int] | None = None


@dataclass(slots=True)
class Illumination:
    t_start: float
    t_end: float
    layer: int
    pairs: list[CzEntry]
    kind: ClassVar[str] = "illumination"


@dataclass(slots=True)
class TrapTransfer:
    atom: int
    x: float
    y: float
    column: int | None = None  # receiving column for slm_to_aod


@dataclass(slots=True)
class TrapChange:
    t_start: float
    t_end: float
    layer: int
    direction: str  # SLM_TO_AOD | AOD_TO_SLM
    transfers: list[TrapTransfer]
    kind: ClassVar[str] = "trap-change"


@dataclass(slots=True)
class Measure:
    t_start: float
    t_end: float
    layer: int
    atoms: list[tuple[int, int, float, float]]  # (atom_id, qubit, x, y)
    kind: ClassVar[str] = "measure"


Event = ColumnMove | U3LayerEvent | Illumination | TrapChange | Measure


@dataclass(slots=True)
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


def phases(events: list[Event]) -> Iterator[tuple[int, list[Event]]]:
    """Yield `(index of its first event, run)` for each run of `events`:
    a move phase (a maximal run of consecutive `ColumnMove`s sharing
    `(t_start, t_end)`) or any other single event."""
    i = 0
    # A fresh object() equals no other key, so any other event runs alone.
    for _, group in groupby(events, lambda ev: (ev.t_start, ev.t_end)
                            if isinstance(ev, ColumnMove) else object()):
        run = list(group)
        yield i, run
        i += len(run)


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


# Event writers. Each returns the exact text `json.dumps(indent=1)` gives
# for the event's dict at nesting depth 2 (an item of the "events" list),
# without building that dict: scalars are formatted as `json` formats them
# and the indentation of every nested list and dict is written out.

_INF = float("inf")


def _scalar(v) -> str:
    """A scalar as `json` encodes it, with `json`'s order of type tests:
    the type picks the form, so an int angle stays `1` and a float `1.0`."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _items(parts: list[str], depth: int) -> str:
    """A JSON list at `depth` whose items are already-encoded `parts`."""
    if not parts:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(parts) + "\n" + " " * depth + "]"


def _scalars(values, depth: int) -> str:
    return _items([_scalar(v) for v in values], depth)


def _origin(origin, depth: int) -> str:
    return _scalars(origin, depth) if origin else "null"


def _head(ev: Event) -> str:
    return (
        '{\n   "kind": ' + _scalar(ev.kind)
        + ',\n   "t_start_us": ' + _scalar(ev.t_start)
        + ',\n   "t_end_us": ' + _scalar(ev.t_end)
        + ',\n   "layer": ' + _scalar(ev.layer)
    )


def _column_move_json(ev: ColumnMove) -> str:
    atoms = [_scalars((a, fy, ty), 4) for a, fy, ty in ev.atoms]
    return (
        _head(ev)
        + ',\n   "column": ' + _scalar(ev.column)
        + ',\n   "from_x": ' + _scalar(ev.from_x)
        + ',\n   "to_x": ' + _scalar(ev.to_x)
        + ',\n   "atoms": ' + _items(atoms, 3) + "\n  }"
    )


def _u3_layer_json(ev: U3LayerEvent) -> str:
    gates = [
        '{\n     "qubit": ' + _scalar(g.qubit)
        + ',\n     "atom": ' + _scalar(g.atom)
        + ',\n     "angles": ' + _scalars(g.angles, 5)
        + ',\n     "origin": ' + _origin(g.origin, 5) + "\n    }"
        for g in ev.gates
    ]
    return _head(ev) + ',\n   "gates": ' + _items(gates, 3) + "\n  }"


def _illumination_json(ev: Illumination) -> str:
    pairs = [
        '{\n     "qubits": ' + _scalars(p.qubits, 5)
        + ',\n     "atoms": ' + _scalars(p.atoms, 5)
        + ',\n     "positions": ' + _items(
            [_scalars(p.positions[0], 6), _scalars(p.positions[1], 6)], 5)
        + ',\n     "origin": ' + _origin(p.origin, 5) + "\n    }"
        for p in ev.pairs
    ]
    return _head(ev) + ',\n   "pairs": ' + _items(pairs, 3) + "\n  }"


def _trap_change_json(ev: TrapChange) -> str:
    transfers = [
        '{\n     "atom": ' + _scalar(t.atom)
        + ',\n     "x": ' + _scalar(t.x)
        + ',\n     "y": ' + _scalar(t.y)
        + ',\n     "column": ' + _scalar(t.column) + "\n    }"
        for t in ev.transfers
    ]
    return (
        _head(ev)
        + ',\n   "direction": ' + _scalar(ev.direction)
        + ',\n   "transfers": ' + _items(transfers, 3) + "\n  }"
    )


def _measure_json(ev: Measure) -> str:
    atoms = [_scalars((a, q, x, y), 4) for a, q, x, y in ev.atoms]
    return _head(ev) + ',\n   "atoms": ' + _items(atoms, 3) + "\n  }"


_EVENT_JSON = {
    ColumnMove: _column_move_json,
    U3LayerEvent: _u3_layer_json,
    Illumination: _illumination_json,
    TrapChange: _trap_change_json,
    Measure: _measure_json,
}


def _schedule_json_chunks(schedule: Schedule) -> Iterator[str]:
    """Yield the text of `json.dumps(doc, indent=1)` for the schedule
    document in parts: the opening with `meta`, one part per event, and
    the closing with `final_mapping`. No document tree is built.

    `meta` and `final_mapping` go through `json`'s encoder at nesting
    depth 0 and are re-indented by prefixing every line after the first.
    That is exact because JSON escapes newlines inside strings: every raw
    newline in an encoding is structural.
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
            yield sep + _EVENT_JSON[type(ev)](ev)
            sep = ",\n  "
        yield "\n ]"
    else:
        yield "[]"
    final_mapping = {str(q): a for q, a in sorted(schedule.final_mapping.items())}
    yield ',\n "final_mapping": ' + nested(final_mapping, 1) + "\n}"


def schedule_to_json(schedule: Schedule) -> str:
    """The schedule as indent-1 JSON text.

    Every chunk is ASCII (`json` escapes the rest), so the chunks are
    appended to one growing buffer and decoded once; no list of chunk
    strings is kept to be joined.
    """
    buf = bytearray()
    for chunk in _schedule_json_chunks(schedule):
        buf += chunk.encode("ascii")
    return buf.decode("ascii")


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
