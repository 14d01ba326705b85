"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""
import bisect
import copy
import csv
import dataclasses
import hashlib
import json
import math
import random
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from pachinqo.circuit import (
    Circuit,
    _expand_to_basis,
    cz,
    decompose_swap,
    decompose_to_basis,
    u3,
)
from pachinqo.cli import CSV_HEADER, main
from pachinqo.machine import (
    CapacityError,
    GeometryError,
    PhysParams,
    SlmGrid,
    ZoneLayout,
    build_layout,
    generate_grid,
)
from pachinqo.metrics import (
    build_report,
    composed_swap_error,
    esp,
    movement_phase_time,
    movement_total,
    runtime_breakdown,
)
from pachinqo.schedule import (
    SLM_TO_AOD,
    ColumnMove,
    CzEntry,
    Illumination,
    Measure,
    Schedule,
    TrapChange,
    U3Entry,
    U3LayerEvent,
    schedule_to_json,
)
from pachinqo.qasm import parse_qasm
from pachinqo.scheduler import Compiler
from pachinqo.verifier import (
    EQUIVALENCE_QUBIT_CAP,
    equivalence_check,
    validate_schedule,
)

from corpus import (
    GRIDS,
    TECHNIQUES,
    benchmark_suite,
    corpus_cases,
    full_sites_extraction,
    random_circuit,
    random_qasm,
    staircase,
)

PARAMS = PhysParams()
GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")
ADDER_QASM = Path(__file__).with_name("adder8.qasm")


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _compile(circ, technique="pachinqo", grid_kind="large-square",
             params=PARAMS):
    layout = build_layout(circ.num_qubits, "auto", params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    sched = Compiler(circ, technique, grid, layout, params).run()
    return sched, layout, grid


# ---------------------------------------------------------------------------
class _RecordingCompiler(Compiler):
    """Keeps a copy of the events as `_merge_phases` finds them (`unmerged`),
    so that the post-pass tests can rebuild the schedule without merged
    phases or held columns from the same compile (`_from_record`)."""

    unmerged: list | None = None

    def _merge_phases(self) -> None:
        self.unmerged = [copy.copy(ev) for ev in self.events]
        super()._merge_phases()


def _compile_corpus():
    """(circuit, technique, grid kind, schedule, violations, compiler) for
    every corpus case."""
    results = []
    for circ, technique, grid_kind in corpus_cases(count=208, seed=2024):
        layout = build_layout(circ.num_qubits, "auto", PARAMS, grid_kind)
        grid = generate_grid(grid_kind, layout, PARAMS)
        compiler = _RecordingCompiler(circ, technique, grid, layout, PARAMS)
        sched = compiler.run()
        violations = validate_schedule(sched, layout, grid, PARAMS, circ)
        results.append((circ, technique, grid_kind, sched, violations, compiler))
    return results


@pytest.fixture(scope="module")
def corpus_results():
    """Compile the full random corpus once; shared by criteria 4, 5, 8 and
    the golden-digest test."""
    return _compile_corpus()


class _GuardForcingCompiler(_RecordingCompiler):
    """Turns the first two of every four CZ layers into no-ops that
    execute nothing, so `run()` falls into the progress guard (which
    waits for two rounds in a row that execute nothing) and its
    isolation layer, which ordinary circuits almost never reach."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cz_calls = 0
        self.isolation_layers = 0

    def _cz_layer(self) -> int:
        self.cz_calls += 1
        if self.cz_calls % 4 in (1, 2):
            return 0
        return super()._cz_layer()

    def _isolation_layer(self, *args) -> None:
        self.isolation_layers += 1
        super()._isolation_layer(*args)


class _UnmergedCompiler(Compiler):
    """Leaves back-to-back move phases apart and every column move where
    the compiler put it, as the compiler did before it merged phases and
    held idle columns."""

    def _merge_phases(self) -> None:
        pass

    def _hold_columns(self) -> None:
        pass


class _PhasedCompiler(_UnmergedCompiler):
    """Emits a CZ layer's relocation and an isolation layer's parking as
    move phases of their own, as the compiler did before it fused each
    into the placement phase that follows, and leaves back-to-back phases
    apart. It records the state right after relocating or parking and
    splits the phase there when it closes, so the compiler's record of
    where the phase found each column, which retreats read, is the fused
    one. Every decision is the same, so it is the reference the fused
    schedules must match, event for event apart from column moves and
    times."""

    split = None  # (column xs, atom ys) right after relocating or parking

    def _relocate_all(self, side):
        super()._relocate_all(side)
        self.split = [c.x for c in self.columns], list(self.atom_y)

    def _park_others(self, col):
        super()._park_others(col)
        self.split = [c.x for c in self.columns], list(self.atom_y)

    def _flush_moves(self, cols=None):
        if self.split is not None:
            (xs, ys), self.split = self.split, None
            now_xs, now_ys = [c.x for c in self.columns], self.atom_y
            for c, x in zip(self.columns, xs):
                c.x = x
            self.atom_y = ys
            super()._flush_moves(cols)  # found -> the split
            for c, x in zip(self.columns, now_xs):
                c.x = x
            self.atom_y = now_ys
        super()._flush_moves(cols)

    def _stay(self):
        super()._stay()  # a layer that moves nothing has no relocation
        self.split = None


class _PhasedGuardForcingCompiler(_PhasedCompiler, _GuardForcingCompiler):
    pass


def _compile_forced_guard():
    """(circuit, technique, grid kind, schedule, layout, grid, compiler)
    for 9 random circuits under every technique x grid. The 8-qubit ones
    get one AOD column; the 16-qubit ones have several, so the isolation
    layer also parks columns on both sides of the placed one."""
    results = []
    for k, n, n_gates in [(k, 8, 60) for k in range(6)] + \
            [(k, 16, 80) for k in range(3)]:
        circ = random_circuit(random.Random(k), n, n_gates,
                              name=f"guard{n}q{k}")
        for grid_kind in GRIDS:
            for technique in TECHNIQUES:
                layout = build_layout(circ.num_qubits, "auto", PARAMS, grid_kind)
                grid = generate_grid(grid_kind, layout, PARAMS)
                compiler = _GuardForcingCompiler(circ, technique, grid, layout,
                                                 PARAMS)
                sched = compiler.run()
                results.append((circ, technique, grid_kind, sched, layout,
                                grid, compiler))
    return results


@pytest.fixture(scope="module")
def forced_guard_results():
    return _compile_forced_guard()


class _PostPassCase(NamedTuple):
    """One schedule with its references for the post-pass tests: `unmerged`
    is the same compile's schedule with neither phases merged nor columns
    held, and `unheld` is that schedule with its phases merged, which is
    the compiler's schedule without holds. `violations` and `equivalent`
    (None above EQUIVALENCE_QUBIT_CAP qubits) are those of `sched`."""

    circ: Circuit
    technique: str
    grid_kind: str
    serial: bool
    sched: Schedule
    unmerged: Schedule
    unheld: Schedule
    layout: ZoneLayout
    grid: SlmGrid
    forced: bool
    violations: list
    equivalent: bool | None


def _from_record(compiler: _RecordingCompiler, sched: Schedule,
                 *passes) -> Schedule:
    """`sched`, which `compiler` compiled, rebuilt from a copy of the events
    it recorded before merging phases: `passes` run on them, then
    `_retime`, as in `run()`. `sched` and the record are left as they
    were."""
    compiler.events = [copy.copy(ev) for ev in compiler.unmerged]
    for post_pass in passes:
        post_pass(compiler)
    compiler._retime()
    return dataclasses.replace(sched, events=compiler.events)


def _compile_unmerged(corpus_results, forced_guard_results):
    """A `_PostPassCase` for each case of the corpus and the forced-guard
    set, with concurrent and serial movement. The concurrent schedules
    are those of the two fixtures, and each case compiles once more, with
    serial movement; the references come from the same compiles."""
    cases = [(circ, technique, grid_kind, sched, compiler, False)
             for circ, technique, grid_kind, sched, _, compiler in corpus_results]
    cases += [(circ, technique, grid_kind, sched, compiler, True)
              for circ, technique, grid_kind, sched, *_, compiler
              in forced_guard_results]
    results = []
    for circ, technique, grid_kind, concurrent, compiled, forced in cases:
        cls = _GuardForcingCompiler if forced else _RecordingCompiler
        layout = build_layout(circ.num_qubits, "auto", PARAMS, grid_kind)
        grid = generate_grid(grid_kind, layout, PARAMS)
        for serial in (False, True):
            if serial:
                compiler = cls(circ, technique, grid, layout, PARAMS, serial)
                sched = compiler.run()
            else:
                compiler, sched = compiled, concurrent
            equivalent = (equivalence_check(sched, circ)[0]
                          if circ.num_qubits <= EQUIVALENCE_QUBIT_CAP else None)
            results.append(_PostPassCase(
                circ, technique, grid_kind, serial, sched,
                _from_record(compiler, sched),
                _from_record(compiler, sched, Compiler._merge_phases),
                layout, grid, forced,
                validate_schedule(sched, layout, grid, PARAMS, circ),
                equivalent))
    return results


@pytest.fixture(scope="module")
def unmerged_results(corpus_results, forced_guard_results):
    return _compile_unmerged(corpus_results, forced_guard_results)


def _compile_qasm():
    """(lowered circuit, technique, grid kind, schedule, layout, grid,
    unfused circuit, unfused schedule) for QASM sources under every
    technique x grid: three seeded `random_qasm` circuits and a
    hand-written adder with ccx and swap. The unfused reference keeps
    every U3 of the fixed expansion."""
    rng = random.Random(909)
    sources = [(f"rq{n}", random_qasm(rng, n, n_gates))
               for n, n_gates in ((5, 40), (8, 70), (12, 90))]
    sources.append(("adder8", ADDER_QASM.read_text()))
    results = []
    for name, text in sources:
        raw = parse_qasm(text, name=name)
        fused, unfused = decompose_to_basis(raw), _expand_to_basis(raw)
        for grid_kind in GRIDS:
            for technique in TECHNIQUES:
                sched, layout, grid = _compile(fused, technique, grid_kind)
                ref, _, _ = _compile(unfused, technique, grid_kind)
                results.append((fused, technique, grid_kind, sched, layout,
                                grid, unfused, ref))
    return results


@pytest.fixture(scope="module")
def qasm_results():
    return _compile_qasm()


def _schedule_digests(corpus_results, forced_guard_results,
                      qasm_results) -> dict[str, str]:
    """sha256 of `schedule_to_json` for every corpus case, every
    benchmark-suite x technique x grid case that compiles, every
    forced-guard case, the trapchange extraction case and every QASM
    case (parsed and lowered)."""
    def digest(sched):
        return hashlib.sha256(schedule_to_json(sched).encode()).hexdigest()

    digests = {f"corpus/{circ.source_name}/{technique}/{grid_kind}":
               digest(sched)
               for circ, technique, grid_kind, sched, *_ in corpus_results}
    digests.update(
        (f"guard/{circ.source_name}/{technique}/{grid_kind}", digest(sched))
        for circ, technique, grid_kind, sched, *_ in forced_guard_results)
    digests.update(
        (f"qasm/{circ.source_name}/{technique}/{grid_kind}", digest(sched))
        for circ, technique, grid_kind, sched, *_ in qasm_results)
    # One mid-circuit SLM->AOD extraction (see test_scheduler.py).
    sched, _, _ = _compile(full_sites_extraction(), "trapchange")
    digests["extract/fullsites/trapchange/large-square"] = digest(sched)
    for circ in benchmark_suite():
        for grid_kind in GRIDS:
            for technique in TECHNIQUES:
                try:
                    sched, _, _ = _compile(circ, technique, grid_kind)
                except (CapacityError, GeometryError):
                    continue
                key = f"suite/{circ.source_name}/{technique}/{grid_kind}"
                digests[key] = digest(sched)
    return digests


def test_golden_schedule_digests(corpus_results, forced_guard_results,
                                qasm_results):
    """Schedules stay byte-identical to the recorded ones. Re-record only in
    a change that alters schedules on purpose:
    `PYTHONPATH=src python tests/test_acceptance.py`."""
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    got = _schedule_digests(corpus_results, forced_guard_results,
                            qasm_results)
    changed = sorted(k for k in golden.keys() | got.keys()
                     if golden.get(k) != got.get(k))
    assert not changed, (f"{len(changed)} of {len(golden)} schedule digests "
                         f"differ, first: {changed[:5]}")


def _event_key(ev):
    """An event's content, without its times or layer number."""
    if isinstance(ev, ColumnMove):
        return ("move", ev.column, ev.from_x, ev.to_x, ev.atoms)
    if isinstance(ev, Illumination):
        return ("cz", [(p.qubits, p.atoms, p.positions, p.origin)
                       for p in ev.pairs])
    if isinstance(ev, TrapChange):
        return ("trap-change", ev.direction,
                [(t.atom, t.x, t.y, t.column) for t in ev.transfers])
    if isinstance(ev, Measure):
        return ("measure", ev.atoms)
    return ("u3", [(g.qubit, g.atom, g.angles, g.origin) for g in ev.gates])


def _non_u3_events(sched):
    """Every move, illumination, trap change and measure of `sched` in
    order, without times or layer numbers."""
    return [_event_key(ev) for ev in sched.events
            if not isinstance(ev, U3LayerEvent)]


def _move_free_events(sched):
    """Every event of `sched` but its column moves, with layer numbers and
    without times, then its counts and final mapping."""
    return [(ev.layer, _event_key(ev)) for ev in sched.events
            if not isinstance(ev, ColumnMove)] + [
        sched.swap_count, sched.trap_change_count, sched.final_mapping]


def _columns_moving_twice(sched):
    """(phase start, column) for every column listed twice in one phase."""
    twice, seen, span = [], set(), None
    for ev in sched.events:
        if not isinstance(ev, ColumnMove):
            span = None
            continue
        if (ev.t_start, ev.t_end) != span:
            span, seen = (ev.t_start, ev.t_end), set()
        if ev.column in seen:
            twice.append((ev.t_start, ev.column))
        seen.add(ev.column)
    return twice


def test_fused_phases_match_phased_reference(unmerged_results):
    """Fusing relocation and isolation parking into the placement phase
    changes only column moves and times: every illumination, trap change,
    measure, U3 layer, count and the final mapping equal those of the
    phased reference, and no column moves twice in one phase. Over the
    corpus and the forced-guard set, on every technique x grid, with
    concurrent and serial movement, the fused schedule is never slower and
    never moves atoms further, and it is faster somewhere."""
    assert {case[1:3] for case in unmerged_results} == \
        {(t, g) for t in TECHNIQUES for g in GRIDS}
    faster = set()
    for c in unmerged_results:
        circ, technique, grid_kind, serial, sched = c[:5]
        case = (circ.source_name, technique, grid_kind, serial)
        phased_cls = _PhasedGuardForcingCompiler if c.forced else _PhasedCompiler
        ref = phased_cls(circ, technique, c.grid, c.layout, PARAMS, serial).run()
        assert _move_free_events(sched) == _move_free_events(ref), case
        tol = 1e-9 * len(ref.events)
        assert sched.end_time <= ref.end_time + tol, case
        assert movement_total(sched) <= movement_total(ref) + tol, case
        assert not _columns_moving_twice(sched), case
        if sched.end_time < ref.end_time - tol:
            faster.add((technique, serial))
    assert {t for t, _ in faster} >= {"pachinqo", "degreesplit", "trapchange"}
    assert {s for _, s in faster} == {False, True}


def _back_to_back_phases(sched):
    """Event index of every move phase that starts where another move
    phase ends."""
    return [i for i, (prev, ev) in enumerate(zip(sched.events,
                                                 sched.events[1:]), 1)
            if isinstance(prev, ColumnMove) and isinstance(ev, ColumnMove)
            and prev.t_start != ev.t_start]


def test_merged_phases_match_unmerged_reference(unmerged_results):
    """Merging back-to-back move phases changes only column moves and
    times: every other event, count and the final mapping equal those of
    the unmerged reference, in the compiled schedule as in the unheld one.
    No two move phases are left back to back and no column moves twice in
    one phase; merging and holding together never slow a schedule or move
    atoms further, and the schedule validates and matches the oracle.
    Over the corpus and the forced-guard set, on every technique x grid,
    with concurrent and serial movement. Onecache, whose return home
    packing leaves back to back with the next layer's phase, gets
    faster."""
    assert {case[1:4] for case in unmerged_results} == \
        {(t, g, s) for t in TECHNIQUES for g in GRIDS for s in (False, True)}
    faster = set()
    for c in unmerged_results:
        circ, technique, grid_kind, serial, sched, ref, unheld = c[:7]
        case = (circ.source_name, technique, grid_kind, serial)
        assert _move_free_events(sched) == _move_free_events(ref), case
        tol = 1e-9 * len(ref.events)
        assert unheld.end_time <= ref.end_time + tol, case
        assert sched.end_time <= ref.end_time + tol, case
        assert movement_total(sched) <= movement_total(ref) + tol, case
        for s in (sched, unheld):
            assert not _back_to_back_phases(s), case
            assert not _columns_moving_twice(s), case
        assert c.violations == [], case
        assert c.equivalent in (True, None), case
        if unheld.end_time < ref.end_time - tol:
            faster.add((technique, serial))
    assert {("onecache", False), ("onecache", True)} <= faster


def test_held_columns_match_unheld_reference(unmerged_results):
    """Holding idle columns changes only column moves and times: every
    other event (kinds, layers, pairs, gates, transfers and their order),
    the SWAP and trap-change counts and the final mapping equal those of
    the schedule compiled without holds. The schedule is never slower and
    never moves atoms further; it validates and matches the oracle (up to
    EQUIVALENCE_QUBIT_CAP qubits). Over the corpus and the forced-guard
    set, on every technique x grid, with concurrent and serial movement.
    Holds drop column moves on every technique, and shorten schedules on
    pachinqo, degreesplit and trapchange."""
    assert {case[1:4] for case in unmerged_results} == \
        {(t, g, s) for t in TECHNIQUES for g in GRIDS for s in (False, True)}
    fewer_moves, faster = set(), set()
    for c in unmerged_results:
        circ, technique, grid_kind, serial, sched, _, unheld = c[:7]
        case = (circ.source_name, technique, grid_kind, serial)
        assert _move_free_events(sched) == _move_free_events(unheld), case
        tol = 1e-9 * len(unheld.events)
        assert sched.end_time <= unheld.end_time + tol, case
        assert movement_total(sched) <= movement_total(unheld) + tol, case
        assert c.violations == [], case
        assert c.equivalent in (True, None), case
        n_moves, n_unheld = (sum(isinstance(ev, ColumnMove) for ev in s.events)
                             for s in (sched, unheld))
        assert n_moves <= n_unheld, case
        if n_moves < n_unheld:
            fewer_moves.add(technique)
        if sched.end_time < unheld.end_time - tol:
            faster.add(technique)
    assert fewer_moves == set(TECHNIQUES)
    assert faster >= {"pachinqo", "degreesplit", "trapchange"}


def _timing_faults(sched) -> tuple[list[int], list[int]]:
    """Where `sched`'s times do not follow from its event list, as event
    indices: each event that does not start exactly where the one before
    it ends (a move phase, the run of column moves that share a start,
    counting as one event), and the first move of each phase that does
    not end exactly `movement_phase_time` of the phase's moves, in
    emitted order, after it starts."""
    spans: list[tuple[int, list]] = []  # (first index, events) per span
    for i, ev in enumerate(sched.events):
        last = spans[-1][1][-1] if spans else None
        if (isinstance(ev, ColumnMove) and isinstance(last, ColumnMove)
                and ev.t_start == last.t_start):
            spans[-1][1].append(ev)
        else:
            spans.append((i, [ev]))
    starts, phases, end = [], [], 0.0
    for i, evs in spans:
        if evs[0].t_start != end:
            starts.append(i)
        end = evs[-1].t_end
        if isinstance(evs[0], ColumnMove):
            dur = movement_phase_time(
                [(m.column, m.from_x, m.to_x, m.atoms) for m in evs],
                PARAMS, sched.serial_movement)
            if any(m.t_end != m.t_start + dur for m in evs):
                phases.append(i)
    return starts, phases


def test_times_follow_from_the_event_list(unmerged_results):
    """Every event starts exactly where the one before it ends, and every
    move phase lasts exactly `movement_phase_time` of its moves: the
    times follow from the final event list alone, with nothing left of
    the time each pass saved. Over the corpus and the forced-guard set,
    on every technique x grid, with concurrent and serial movement."""
    assert {case[1:4] for case in unmerged_results} == \
        {(t, g, s) for t in TECHNIQUES for g in GRIDS for s in (False, True)}
    for c in unmerged_results:
        case = (c.circ.source_name, c.technique, c.grid_kind, c.serial)
        assert _timing_faults(c.sched) == ([], []), case


def test_runtime_breakdown_sums_to_runtime(corpus_results):
    """report.json's runtime breakdown adds up to its runtime, to the
    validator's 1e-9 us per event, and every schedule moves."""
    for circ, technique, grid_kind, sched, *_ in corpus_results:
        report = build_report(sched, PARAMS)
        parts = report.runtime_breakdown_us
        assert set(parts) == {"movement", "trap_change", "u3", "cz"}
        assert abs(sum(parts.values()) - report.runtime_us) <= \
            1e-9 * len(sched.events), (circ.source_name, technique, grid_kind)
        assert parts["movement"] > 0
        assert parts["trap_change"] == pytest.approx(
            sched.trap_change_count * PARAMS.trap_change_time)


def test_u3_fusion_removes_only_u3_layers(qasm_results):
    """Fusing single-qubit runs while lowering leaves every move,
    illumination, trap change and measure of the unfused schedule in place
    and in order, and only removes U3 layers. Each fused schedule validates
    and executes the unfused circuit. Both sides leave back-to-back move
    phases apart and hold no column, since fewer U3 layers leave more
    phases to merge and, with one cache, more columns free to hold."""
    fewer = 0
    for circ, technique, grid_kind, _, layout, grid, unfused, _ in \
            qasm_results:
        case = (circ.source_name, technique, grid_kind)
        sched, ref = (_UnmergedCompiler(c, technique, grid, layout,
                                        PARAMS).run()
                      for c in (circ, unfused))
        assert _non_u3_events(sched) == _non_u3_events(ref), case
        n_u3, n_ref = (sum(isinstance(ev, U3LayerEvent) for ev in s.events)
                       for s in (sched, ref))
        assert n_u3 <= n_ref, case
        fewer += n_u3 < n_ref
        assert validate_schedule(sched, layout, grid, PARAMS, circ) == [], case
        if circ.num_qubits <= EQUIVALENCE_QUBIT_CAP:
            assert equivalence_check(sched, unfused)[0], case
    assert len(qasm_results) == 64
    assert fewer


class _UnpackedCompiler(_UnmergedCompiler):
    """Leaves every rotation in the U3 layer that first exposed it,
    back-to-back move phases apart and every column move in place."""

    def _pack_rotations(self) -> None:
        pass


def _rotations_by_atom(sched):
    """Each atom's U3 entries, in order."""
    out: dict[int, list] = {}
    for ev in sched.events:
        if isinstance(ev, U3LayerEvent):
            for g in ev.gates:
                out.setdefault(g.atom, []).append((g.qubit, g.angles, g.origin))
    return out


def _rotation_windows(ref):
    """(atom, k) -> [first, last] for the k-th rotation of each atom in an
    unpacked schedule, if it is native: the positions among the U3 layers
    of its own layer and of the last one before the next event on its
    atom."""
    windows, open_, n_layers = {}, {}, 0
    counts: dict[int, int] = {}

    def close(atom):
        if atom in open_:
            windows[open_.pop(atom)][1] = n_layers - 1

    for ev in ref.events:
        if isinstance(ev, U3LayerEvent):
            for g in ev.gates:
                close(g.atom)
                k = counts[g.atom] = counts.get(g.atom, -1) + 1
                if g.origin is None:
                    open_[g.atom] = (g.atom, k)
                    windows[g.atom, k] = [n_layers, None]
            n_layers += 1
        elif isinstance(ev, Illumination):
            for p in ev.pairs:
                for a in p.atoms:
                    close(a)
        elif isinstance(ev, Measure):
            for a, *_ in ev.atoms:
                close(a)
    for atom in list(open_):
        close(atom)
    return windows


def _check_packing(sched, ref, case):
    """Every native rotation runs inside its window, and every U3 layer left
    with native rotations only holds one whose window has no other layer
    left, so none could be dropped."""
    windows = _rotation_windows(ref)
    position = {ev.layer: i for i, ev in enumerate(
        ev for ev in ref.events if isinstance(ev, U3LayerEvent))}
    kept = [ev for ev in sched.events if isinstance(ev, U3LayerEvent)]
    kept_at = sorted(position[ev.layer] for ev in kept)
    counts: dict[int, int] = {}
    for ev in kept:
        at, needed = position[ev.layer], False
        for g in ev.gates:
            k = counts[g.atom] = counts.get(g.atom, -1) + 1
            if g.origin is not None:
                needed = True
                continue
            first, last = windows[g.atom, k]
            assert first <= at <= last, case
            others = bisect.bisect_right(kept_at, last) - \
                bisect.bisect_left(kept_at, first)
            needed |= others == 1
        assert needed, (case, ev.layer)


def test_packing_removes_only_u3_layers(corpus_results, unmerged_results):
    """Packing rotations keeps every other event in order, with its layer
    number and duration, and each atom's rotations in order. It only
    removes U3 layers, leaves none empty and none it could drop, moves
    each rotation within its window, and the modelled time of the U3
    layers falls by exactly u3_time per removed layer while every other
    kind's stays exactly as it was. Over the corpus, on every technique x
    grid; the packed schedules validate and match the oracle. Both sides
    leave back-to-back move phases apart and hold no column, so that only
    U3 layers differ."""
    packed = {(c.circ.source_name, c.technique, c.grid_kind):
              (c.unmerged, c.layout, c.grid)
              for c in unmerged_results if not c.serial}
    removed = 0
    for circ, technique, grid_kind, _, violations, _ in corpus_results:
        case = (circ.source_name, technique, grid_kind)
        sched, layout, grid = packed[case]
        ref = _UnpackedCompiler(circ, technique, grid, layout, PARAMS).run()
        rest, ref_rest = ([ev for ev in s.events
                           if not isinstance(ev, U3LayerEvent)]
                          for s in (sched, ref))
        assert [(ev.layer, _event_key(ev)) for ev in rest] == \
            [(ev.layer, _event_key(ev)) for ev in ref_rest], case
        assert all(abs((a.t_end - a.t_start) - (b.t_end - b.t_start)) <= 1e-9
                   for a, b in zip(rest, ref_rest)), case
        assert _rotations_by_atom(sched) == _rotations_by_atom(ref), case
        layers = [ev for ev in sched.events if isinstance(ev, U3LayerEvent)]
        assert all(ev.gates for ev in layers), case
        _check_packing(sched, ref, case)
        fewer = sum(isinstance(ev, U3LayerEvent) for ev in ref.events) - len(layers)
        ref_times = runtime_breakdown(ref.events, PARAMS)
        assert runtime_breakdown(sched.events, PARAMS) == {
            **ref_times, "u3": ref_times["u3"] - fewer * PARAMS.u3_time}, case
        removed += fewer
        assert violations == [], case
        if circ.num_qubits <= EQUIVALENCE_QUBIT_CAP:
            assert equivalence_check(sched, circ)[0], case
    assert {case[1:3] for case in corpus_results} == \
        {(t, g) for t in TECHNIQUES for g in GRIDS}
    assert removed


def test_forced_guard_schedules_validate(forced_guard_results):
    """The progress guard's isolation layer, forced on every technique x
    grid, yields valid and equivalent schedules."""
    bad = []
    isolation = dict.fromkeys(TECHNIQUES, 0)
    for circ, technique, grid_kind, sched, layout, grid, compiler in \
            forced_guard_results:
        isolation[technique] += compiler.isolation_layers
        violations = validate_schedule(sched, layout, grid, PARAMS, circ)
        equal, tvd = (equivalence_check(sched, circ)
                      if circ.num_qubits <= EQUIVALENCE_QUBIT_CAP else (True, 0.0))
        if violations or not equal:
            bad.append((circ.source_name, technique, grid_kind, tvd))
    assert len(forced_guard_results) == 144
    assert not bad, bad
    assert all(isolation.values()), isolation


def _swap_runs(sched) -> dict[int, list[tuple[int, int]]]:
    """Per inserted SWAP, the (step, layer) of each of its components, in
    event order."""
    runs: dict[int, list[tuple[int, int]]] = {}
    for ev in sched.events:
        if isinstance(ev, U3LayerEvent):
            origins = [g.origin for g in ev.gates]
        elif isinstance(ev, Illumination):
            origins = [p.origin for p in ev.pairs]
        else:
            continue
        for sid, step in filter(None, origins):
            runs.setdefault(sid, []).append((step, ev.layer))
    return runs


def test_inserted_swaps_run_one_step_per_layer(corpus_results,
                                               forced_guard_results):
    """Every inserted SWAP runs steps 0-8 once each, in order, in
    increasing layers, except that its independent rotations, steps 2-3
    and 5-6, share a layer. The forced-guard set also runs SWAP CZ steps
    in the progress guard's isolation layers."""
    bad = []
    count = 0
    for circ, technique, grid_kind, sched, *_ in (corpus_results
                                                  + forced_guard_results):
        runs = _swap_runs(sched)
        assert sorted(runs) == list(range(sched.swap_count))
        count += len(runs)
        for sid, run in runs.items():
            steps = [step for step, _ in run]
            gaps = [b - a for (_, a), (_, b) in zip(run, run[1:])]
            if (steps != list(range(9)) or min(gaps) < 0
                    or [k for k, gap in enumerate(gaps) if gap == 0] != [2, 5]):
                bad.append((circ.source_name, technique, grid_kind, sid, run))
    assert count > 0
    assert not bad, bad[:3]


def test_every_moving_layer_illuminates_or_changes_traps(
        corpus_results, forced_guard_results, qasm_results):
    """A layer that holds a column move also holds an illumination, a trap
    change or a measure: a CZ layer that stages no pair and changes no
    trap leaves every column where it stood, on every technique x grid."""
    idle = []
    for circ, technique, grid_kind, sched, *_ in (
            corpus_results + forced_guard_results + qasm_results):
        moving, serving = set(), set()
        for ev in sched.events:
            if isinstance(ev, ColumnMove):
                moving.add(ev.layer)
            elif isinstance(ev, (Illumination, TrapChange, Measure)):
                serving.add(ev.layer)
        if moving - serving:
            idle.append((circ.source_name, technique, grid_kind,
                         sorted(moving - serving)[:3]))
    assert not idle, idle


def _bystanders_in_compute(sched, layout) -> list[tuple[int, int]]:
    """(event index, atom) for each unmeasured column-held atom that stands
    in compute while an illumination fires without pairing it."""
    comp = layout.compute
    pos: dict[int, tuple[float, float]] = {}  # column-held atoms only
    measured: set[int] = set()
    found = []
    for i, ev in enumerate(sched.events):
        if isinstance(ev, ColumnMove):
            for a, _, ty in ev.atoms:
                pos[a] = (ev.to_x, ty)
        elif isinstance(ev, TrapChange):
            for tr in ev.transfers:
                if ev.direction == SLM_TO_AOD:
                    pos[tr.atom] = (tr.x, tr.y)
                else:
                    pos.pop(tr.atom, None)
        elif isinstance(ev, Measure):
            measured.update(a for a, *_ in ev.atoms)
        elif isinstance(ev, Illumination):
            paired = {a for p in ev.pairs for a in p.atoms}
            found.extend((i, a) for a, xy in sorted(pos.items())
                         if comp.contains(*xy) and a not in paired | measured)
    return found


def test_only_pair_atoms_of_columns_stand_in_compute_under_the_pulse(
        corpus_results, forced_guard_results, qasm_results):
    """Every column atom that an illumination does not pair hangs outside
    compute, so the pulse, which reaches only compute, gates no bystander,
    on every technique x grid."""
    cases = [(circ, technique, grid_kind, sched,
              build_layout(circ.num_qubits, "auto", PARAMS, grid_kind))
             for circ, technique, grid_kind, sched, *_ in corpus_results]
    cases += [(circ, technique, grid_kind, sched, layout)
              for circ, technique, grid_kind, sched, layout, *_ in
              forced_guard_results + qasm_results]
    bad = []
    illuminations = 0
    for circ, technique, grid_kind, sched, layout in cases:
        illuminations += sum(isinstance(ev, Illumination) for ev in sched.events)
        found = _bystanders_in_compute(sched, layout)
        if found:
            bad.append((circ.source_name, technique, grid_kind, len(found),
                        found[:3]))
    assert illuminations
    assert not bad, (len(bad), bad[:3])


def _onecache_cache_use(sched, layout):
    """(faults, U3 layers checked, moves into memory) of a onecache
    schedule. A fault is an atom moved into the left cache, or a live
    column outside the right cache while a U3 layer runs."""
    lc, rc, mem = layout.left_cache, layout.right_cache, layout.memory
    col_x: dict[int, float] = {}
    col_of: dict[int, int] = {}  # atom -> its AOD column while mobile
    faults, u3_layers, tucked = [], 0, 0
    for i, ev in enumerate(sched.events):
        if isinstance(ev, ColumnMove):
            col_x[ev.column] = ev.to_x
            if any(lc.contains(ev.to_x, ty) for _, _, ty in ev.atoms):
                faults.append((i, f"column {ev.column} moves into the left cache"))
            tucked += all(mem.contains(ev.to_x, ty) for _, _, ty in ev.atoms)
        elif isinstance(ev, TrapChange):
            for tr in ev.transfers:
                if ev.direction == SLM_TO_AOD:
                    col_of[tr.atom] = tr.column
                    col_x[tr.column] = tr.x
                else:
                    col_of.pop(tr.atom, None)
        elif isinstance(ev, U3LayerEvent):
            u3_layers += 1
            faults.extend((i, f"column {c} at x={col_x[c]} during a U3 layer")
                          for c in sorted(set(col_of.values()))
                          if not rc.x0 <= col_x[c] <= rc.x1)
    return faults, u3_layers, tucked


def test_onecache_stays_in_its_one_cache(corpus_results, forced_guard_results):
    """Onecache never uses the left cache, and its columns are back in the
    right cache whenever a U3 layer runs, on every grid, with and without
    forced isolation layers."""
    cases = [(circ, grid_kind, sched, build_layout(circ.num_qubits, "auto",
                                                   PARAMS, grid_kind))
             for circ, technique, grid_kind, sched, *_ in corpus_results
             if technique == "onecache"]
    cases += [(circ, grid_kind, sched, layout)
              for circ, technique, grid_kind, sched, layout, _, _ in
              forced_guard_results if technique == "onecache"]
    assert {grid_kind for _, grid_kind, _, _ in cases} == set(GRIDS)
    u3_layers = tucked = 0
    for circ, grid_kind, sched, layout in cases:
        faults, n_u3, n_tucked = _onecache_cache_use(sched, layout)
        assert not faults, (circ.source_name, grid_kind, faults[:3])
        u3_layers += n_u3
        tucked += n_tucked
    assert u3_layers and tucked  # both facts were exercised


def test_criterion_1_swap_template():
    t0 = time.perf_counter()
    seq = decompose_swap(0, 1)
    counts = {"cz": 0, "u3": 0}
    for g in seq:
        counts[g.kind] += 1
    ok = counts == {"cz": 3, "u3": 6}

    # build the full 4x4 unitary of the template and compare against SWAP
    def u3_mat(theta, phi, lam):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])

    unitary = np.eye(4, dtype=complex)
    for g in seq:
        if g.kind == "u3":
            m = u3_mat(*g.params)
            full = np.kron(m, np.eye(2)) if g.qubits[0] == 1 else np.kron(np.eye(2), m)
        else:
            full = np.diag([1, 1, 1, -1]).astype(complex)
        unitary = full @ unitary
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    err = np.abs(unitary - swap).max()
    ok = ok and err < 1e-9
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _report(1, ok, f"swap template 3 CZ + 6 U3, |U - SWAP| = {err:.2e}, "
                   f"{dt * 1e3:.0f} ms")


def test_criterion_2_trap_change_accounting():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    worst = ""
    for circ in benchmark_suite():
        for grid_kind in GRIDS:
            for technique in TECHNIQUES:
                sched, _, _ = _compile(circ, technique, grid_kind)
                n_tc_events = sum(1 for e in sched.events
                                  if isinstance(e, TrapChange))
                checked += 1
                if technique == "trapchange":
                    good = sched.trap_change_count >= 6
                else:
                    good = (sched.trap_change_count == 6 == n_tc_events)
                if not good:
                    ok = False
                    worst = (f" first failure: {circ.source_name}/"
                             f"{technique}/{grid_kind} -> "
                             f"{sched.trap_change_count}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _report(2, ok, f"6 serial trap changes across {checked} "
                   f"benchmark compiles ({dt:.1f} s){worst}")


def test_criterion_3_error_composition():
    got = composed_swap_error(PARAMS)
    ok = abs(got - PARAMS.swap_error) < 5e-4
    _report(3, ok, f"composed 3CZ+6U3 error {got:.6f} vs tabulated "
                   f"{PARAMS.swap_error} (|diff| = {abs(got - PARAMS.swap_error):.2e})")


def test_criterion_4_validator_pass_rate(corpus_results):
    t0 = time.perf_counter()
    bad = [(c.source_name, t, g, v) for c, t, g, _, v, _ in corpus_results if v]
    dt = time.perf_counter() - t0
    ok = not bad and len(corpus_results) >= 200
    detail = (f"{len(corpus_results)} corpus schedules, "
              f"{len(bad)} with violations")
    if bad:
        detail += f"; first: {bad[0][:3]} {bad[0][3][0]}"
    _report(4, ok, detail)


def test_criterion_5_semantic_equivalence(corpus_results):
    t0 = time.perf_counter()
    checked = 0
    worst_err = 0.0
    ok = True
    small = [c for c, *_ in corpus_results if c.num_qubits <= 10]
    # dedupe by name; every small circuit runs under all four techniques
    seen = set()
    for circ in small:
        if circ.source_name in seen:
            continue
        seen.add(circ.source_name)
        for technique in TECHNIQUES:
            sched, _, _ = _compile(circ, technique)
            equal, err = equivalence_check(sched, circ)
            checked += 1
            worst_err = max(worst_err, err)
            if not equal:
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0 and checked > 0
    _report(5, ok, f"{checked} equivalence checks on <=10-qubit circuits, "
                   f"worst amplitude error = {worst_err:.2e} ({dt:.1f} s)")


def test_criterion_6_zero_swap_staircases():
    t0 = time.perf_counter()
    counts = {}
    for n in (4, 8, 16, 32):
        sched, _, _ = _compile(staircase(n))
        counts[n] = sched.swap_count
    dt = time.perf_counter() - t0
    ok = all(v == 0 for v in counts.values()) and dt < 5.0
    _report(6, ok, f"staircase chains swap counts {counts} ({dt:.1f} s)")


def test_criterion_7_directional_comparisons():
    t0 = time.perf_counter()
    circ = staircase(16, 5, name="tfim16x5")
    results = {}
    for technique in TECHNIQUES:
        sched, _, _ = _compile(circ, technique)
        results[technique] = sched
    a = results["pachinqo"].swap_count <= results["degreesplit"].swap_count
    b = movement_total(results["pachinqo"]) < movement_total(results["onecache"])
    mid_tc = results["trapchange"].trap_change_count - 6
    c = (mid_tc == 0) or (
        results["pachinqo"].end_time < results["trapchange"].end_time
    )
    dt = time.perf_counter() - t0
    ok = a and b and c and dt < 10.0
    _report(7, ok,
            f"(a) swaps {results['pachinqo'].swap_count} <= "
            f"{results['degreesplit'].swap_count}; "
            f"(b) movement {movement_total(results['pachinqo']):.0f} < "
            f"{movement_total(results['onecache']):.0f} um; "
            f"(c) trapchange mid TCs = {mid_tc} ({dt:.1f} s)")


def test_criterion_8_swap_bound(corpus_results):
    worst = 0.0
    ok = True
    for circ, technique, grid_kind, sched, *_ in corpus_results:
        n_cz = circ.count("cz")
        if sched.swap_count > n_cz:
            ok = False
        if n_cz:
            worst = max(worst, sched.swap_count / n_cz)
    _report(8, ok, f"inserted swaps <= CZ count on all "
                   f"{len(corpus_results)} corpus schedules "
                   f"(max ratio {worst:.2f})")


def test_criterion_9_compile_time_scaling():
    rng = random.Random(17)
    base = random_circuit(rng, 24, 240, name="scale-240")
    double = random_circuit(rng, 24, 480, name="scale-480")

    def best_time(circ):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _compile(circ)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t_base, t_double = best_time(base), best_time(double)
    ratio = t_double / t_base
    # stated bound is ~4x; 5.0 absorbs timer noise on small absolute times
    ok = ratio <= 5.0

    big = random_circuit(random.Random(18), 100, 1000, name="big")
    t0 = time.perf_counter()
    _compile(big)
    t_big = time.perf_counter() - t0
    ok = ok and t_big < 5.0
    _report(9, ok, f"2x gates -> {ratio:.2f}x compile time; "
                   f"100q/1000g compiled in {t_big * 1e3:.0f} ms")


def test_criterion_10_esp_properties():
    base = Schedule("pachinqo", "large-square", PARAMS, "t", 2)
    base.events = [U3LayerEvent(0.0, 2.0, 1, [U3Entry(0, 0, (1.0, 0, 0))])]
    more_gates = Schedule("pachinqo", "large-square", PARAMS, "t", 2)
    more_gates.events = base.events + [
        Illumination(2.0, 2.8, 2, [CzEntry((0, 1), (0, 1), ((0, 0), (1, 0)))])
    ]
    longer = Schedule("pachinqo", "large-square", PARAMS, "t", 2)
    longer.events = [U3LayerEvent(0.0, 2e5, 1, [U3Entry(0, 0, (1.0, 0, 0))])]
    mono = (esp(more_gates, PARAMS) < esp(base, PARAMS)
            and esp(longer, PARAMS) < esp(base, PARAMS))

    sched, _, _ = _compile(Circuit(1, [], "empty1"))
    t = sched.end_time
    expected = ((1 - PARAMS.readout_error) * (1 - PARAMS.atom_loss)
                * math.exp(-t / (PARAMS.t1 * 1e6))
                * math.exp(-t / (PARAMS.t2 * 1e6)))
    got = esp(sched, PARAMS)
    closed_form = abs(got - expected) < 1e-12
    in_range = 0.0 < got <= 1.0
    ok = mono and closed_form and in_range
    _report(10, ok, f"ESP monotone, in (0,1], degenerate 1-qubit ESP "
                    f"{got:.6f} matches closed form (T = {t:.2f} us)")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(101)
    suite_dir = tmp_path / "corpus"
    suite_dir.mkdir()
    for i in range(8):
        (suite_dir / f"c{i:02d}.qasm").write_text(
            random_qasm(rng, rng.randint(4, 16), rng.randint(15, 120)))

    csvs = []
    for run in range(2):
        out = tmp_path / f"suite{run}.csv"
        rc = main(["--suite-dir", str(suite_dir), "--out-csv", str(out),
                   "--grids", "large-square,star"])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        col = CSV_HEADER.index("compile_ms")
        for r in rows[1:]:
            r[col] = ""
        csvs.append(rows)
    csv_ok = csvs[0] == csvs[1]

    sched_ok = True
    for f in sorted(suite_dir.glob("*.qasm"))[:3]:
        jsons = []
        for run in range(2):
            out_s = tmp_path / f"s{run}.json"
            rc = main(["--input", str(f), "--out-schedule", str(out_s),
                       "--out-report", str(tmp_path / f"r{run}.json")])
            assert rc == 0
            jsons.append(out_s.read_text())
        if jsons[0] != jsons[1]:
            sched_ok = False
    dt = time.perf_counter() - t0
    ok = csv_ok and sched_ok and dt < 120.0
    _report(11, ok, f"suite CSV and schedule JSON byte-identical across "
                    f"reruns ({dt:.1f} s)")


if __name__ == "__main__":
    old = json.loads(GOLDEN_DIGESTS.read_text()) if GOLDEN_DIGESTS.exists() else {}
    new = _schedule_digests(_compile_corpus(), _compile_forced_guard(),
                            _compile_qasm())
    GOLDEN_DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = sum(1 for k in new.keys() & old.keys() if new[k] != old[k])
    print(f"{len(new)} digests: {changed} changed, "
          f"{len(new.keys() - old.keys())} added, "
          f"{len(old.keys() - new.keys())} removed")
