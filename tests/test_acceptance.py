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
    phases,
    schedule_to_json,
)
from pachinqo.postpass import compose, hold_columns, pack_rotations
from pachinqo.qasm import parse_qasm
from pachinqo.scheduler import Compiler, retime
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
    perfbench_cases,
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
def _copied(events: list) -> list:
    """A copy of `events` before `retime`, each move phase's record with
    copies of its moves, which the post-passes and `retime` edit."""
    return [{cid: copy.copy(m) for cid, m in ev.items()}
            if isinstance(ev, dict) else copy.copy(ev) for ev in events]


def _passed(compiler: Compiler, emitted: list, serial: bool, pack=True,
            merge=True, hold=True) -> list:
    """A copy of `emitted`, which `compiler` emitted, run through the
    post-passes asked for in `run()`'s order, with `serial` movement
    timing, up to `retime`. `emitted` is left as it was."""
    events = _copied(emitted)
    if pack:
        events = pack_rotations(events, compiler.circuit.num_qubits)
    if merge:
        events = compose(events)
    if hold:
        events = hold_columns(events, compiler.layout, PARAMS, serial,
                              compiler.one_cache)
    return events


def _timed(compiler: Compiler, events: list, serial: bool) -> Schedule:
    """The schedule `compiler` builds from `events`, which it emitted and
    the post-passes left, timed (`retime`) with `serial` movement timing."""
    return dataclasses.replace(
        compiler.schedule(retime(events, PARAMS, serial)), serial_movement=serial)


def _unmerged(compiler: Compiler, emitted: list, serial: bool) -> Schedule:
    """The schedule of a copy of `emitted`, packed but neither composed
    nor held."""
    return _timed(compiler, _passed(compiler, emitted, serial, merge=False,
                                    hold=False), serial)


def _emitted(cls, circ, technique, grid, layout):
    """A `cls` compiler for `circ`, and a copy of the events it emits."""
    compiler = cls(circ, technique, grid, layout, PARAMS)
    return compiler, _copied(compiler.emit())


def _compiled(cls, circ, technique, grid_kind):
    """(schedule, compiler, emitted events) of one case: a `cls` compiler
    for `circ` on a `grid_kind` grid, a copy of the events it emits, and
    the schedule `run()` makes of them, which `_passed` and `_timed` leave
    as they were."""
    layout = build_layout(circ.num_qubits, "auto", PARAMS, grid_kind)
    grid = generate_grid(grid_kind, layout, PARAMS)
    compiler, emitted = _emitted(cls, circ, technique, grid, layout)
    return (_timed(compiler, _passed(compiler, emitted, False), False),
            compiler, emitted)


def _compile_corpus():
    """(circuit, technique, grid kind, schedule, violations, compiler,
    emitted events) for every corpus case (`_compiled`)."""
    results = []
    for circ, technique, grid_kind in corpus_cases(count=208, seed=2024):
        sched, compiler, emitted = _compiled(Compiler, circ, technique,
                                             grid_kind)
        violations = validate_schedule(sched, compiler.layout, compiler.grid,
                                       PARAMS, circ)
        results.append((circ, technique, grid_kind, sched, violations,
                        compiler, emitted))
    return results


@pytest.fixture(scope="module")
def corpus_results():
    """Compile the full random corpus once; shared by criteria 4, 5, 8 and
    the golden-digest test."""
    return _compile_corpus()


class _GuardForcingCompiler(Compiler):
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


class _PhasedCompiler(Compiler):
    """Emits a CZ layer's relocation and an isolation layer's parking as
    move phases of their own, as the compiler did before it fused each
    into the placement phase that follows. It records the state right
    after relocating or parking and splits the phase there when it
    closes, so the compiler's record of where the phase found each
    column, which retreats read, is the fused one. Every decision is the
    same, so, packed but neither composed nor held, its schedule is the
    reference the fused schedules must match, event for event apart from
    column moves and times."""

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
    """(circuit, technique, grid kind, schedule, layout, grid, compiler,
    emitted events) for 9 random circuits under every technique x grid,
    as `_compile_corpus` makes them. The 8-qubit ones get one AOD column;
    the 16-qubit ones have several, so the isolation layer also parks
    columns on both sides of the placed one."""
    results = []
    for k, n, n_gates in [(k, 8, 60) for k in range(6)] + \
            [(k, 16, 80) for k in range(3)]:
        circ = random_circuit(random.Random(k), n, n_gates,
                              name=f"guard{n}q{k}")
        for grid_kind in GRIDS:
            for technique in TECHNIQUES:
                sched, compiler, emitted = _compiled(
                    _GuardForcingCompiler, circ, technique, grid_kind)
                results.append((circ, technique, grid_kind, sched,
                                compiler.layout, compiler.grid, compiler,
                                emitted))
    return results


@pytest.fixture(scope="module")
def forced_guard_results():
    return _compile_forced_guard()


class _PostPassCase(NamedTuple):
    """One schedule with its references for the post-pass tests, all from
    one compile's emitted events (`emitted`, which `compiler` emitted):
    `unmerged` is the schedule with neither phases composed nor columns
    held, `unheld` is that schedule with its phases composed, which is the
    compiler's schedule without holds. `holds_again` says whether the hold
    pass, run once more on its own output, changes a move (`_holds_again`).
    `violations` and `equivalent` (None above EQUIVALENCE_QUBIT_CAP qubits)
    are those of `sched`."""

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
    holds_again: bool
    violations: list
    equivalent: bool | None
    compiler: Compiler
    emitted: list


def _holds_again(compiler: Compiler, held: list, serial: bool) -> bool:
    """Whether the hold pass, run once more on a copy of `held`, the events
    it left in `compiler`'s compile, changes a move."""
    again = hold_columns(_copied(held), compiler.layout, PARAMS, serial,
                         compiler.one_cache)
    return again != held


def _compile_unmerged(corpus_results, forced_guard_results):
    """A `_PostPassCase` for each case of the corpus and the forced-guard
    set, with concurrent and serial movement. The concurrent schedules
    are those of the two fixtures; every schedule and reference comes from
    the post-passes run on a copy of the fixture's emitted events, with
    the case's movement timing, since that timing decides nothing in the
    compiler (`test_serial_timing_decides_nothing_in_the_compiler`)."""
    cases = [(circ, technique, grid_kind, sched, compiler, emitted, False)
             for circ, technique, grid_kind, sched, _, compiler, emitted
             in corpus_results]
    cases += [(circ, technique, grid_kind, sched, compiler, emitted, True)
              for circ, technique, grid_kind, sched, *_, compiler, emitted
              in forced_guard_results]
    results = []
    for circ, technique, grid_kind, concurrent, compiler, emitted, forced in cases:
        layout, grid = compiler.layout, compiler.grid
        for serial in (False, True):
            held = _passed(compiler, emitted, serial)
            holds_again = _holds_again(compiler, held, serial)
            sched = _timed(compiler, held, serial) if serial else concurrent
            equivalent = (equivalence_check(sched, circ)[0]
                          if circ.num_qubits <= EQUIVALENCE_QUBIT_CAP else None)
            results.append(_PostPassCase(
                circ, technique, grid_kind, serial, sched,
                _unmerged(compiler, emitted, serial),
                _timed(compiler, _passed(compiler, emitted, serial,
                                         hold=False), serial),
                layout, grid, forced, holds_again,
                validate_schedule(sched, layout, grid, PARAMS, circ),
                equivalent, compiler, emitted))
    return results


@pytest.fixture(scope="module")
def unmerged_results(corpus_results, forced_guard_results):
    return _compile_unmerged(corpus_results, forced_guard_results)


def _compile_qasm():
    """(lowered circuit, technique, grid kind, schedule, layout, grid,
    unfused circuit, emission, unfused emission) for QASM sources under
    every technique x grid: three seeded `random_qasm` circuits and a
    hand-written adder with ccx and swap. An emission is a compiler and
    a copy of the events it emitted (`_emitted`); the schedule is made
    from the first (`_compiled`). The unfused circuit keeps every U3 of
    the fixed expansion."""
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
                sched, compiler, emitted = _compiled(Compiler, fused,
                                                     technique, grid_kind)
                layout, grid = compiler.layout, compiler.grid
                results.append((fused, technique, grid_kind, sched, layout,
                                grid, unfused, (compiler, emitted),
                                _emitted(Compiler, unfused, technique, grid,
                                         layout)))
    return results


@pytest.fixture(scope="module")
def qasm_results():
    return _compile_qasm()


def _compile_suite():
    """(circuit, technique, grid kind, schedule) for every benchmark-suite
    circuit under every technique x grid, and the seconds it took."""
    t0 = time.perf_counter()
    results = [(circ, technique, grid_kind,
                _compile(circ, technique, grid_kind)[0])
               for circ in benchmark_suite() for grid_kind in GRIDS
               for technique in TECHNIQUES]
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite_results():
    return _compile_suite()


def _compile_perfbench():
    """Per perfbench workload, (circuit, technique, grid kind, schedule,
    compiler, emitted events) for each of its cases at seed 1
    (`_compiled`): the schedules `perfbench/run.py --seed 1` hashes."""
    return {workload: [(circ, technique, grid_kind,
                        *_compiled(Compiler, circ, technique, grid_kind))
                       for circ, technique, grid_kind
                       in perfbench_cases(workload, 1)]
            for workload in ("wide", "deep", "sweep")}


@pytest.fixture(scope="module")
def perfbench_results():
    return _compile_perfbench()


def _schedule_digests(corpus_results, forced_guard_results, qasm_results,
                      suite, perfbench_results) -> dict[str, str]:
    """sha256 of `schedule_to_json` for every corpus case, every
    benchmark-suite x technique x grid case (`suite`, the cases of
    `_compile_suite`), every forced-guard case, the trapchange extraction
    case, every QASM case (parsed and lowered) and each perfbench workload
    at seed 1."""
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
    digests.update(
        (f"suite/{circ.source_name}/{technique}/{grid_kind}", digest(sched))
        for circ, technique, grid_kind, sched in suite)
    # The benchmark's own schedules: what `perfbench/run.py --seed 1`
    # prints per workload, the sha256 of its cases' digests joined.
    for workload, cases in perfbench_results.items():
        parts = [digest(sched) for _, _, _, sched, *_ in cases]
        digests[f"perfbench/{workload}/seed1"] = hashlib.sha256(
            "".join(parts).encode()).hexdigest()
    return digests


def test_perfbench_rotations_pack_past_swap_step_7(perfbench_results):
    """After a SWAP's step 7, qubit b unlocks on wire a's atom, so step 8
    need not close before the next illumination there. Perfbench `wide`
    at seed 1 ran in 135 U3 layers and `deep` in 605 while it had to; the
    packing now needs at most 125 on `wide` and fewer than 605 on `deep`,
    with the SWAPs and trap changes of `wide` unchanged."""
    layers = {}
    for workload in ("wide", "deep"):
        (_, _, _, sched, *_), = perfbench_results[workload]
        layers[workload] = sum(isinstance(ev, U3LayerEvent) for ev in sched.events)
        if workload == "wide":
            assert (sched.swap_count, sched.trap_change_count) == (35, 6)
    assert layers["wide"] <= 125
    assert layers["deep"] < 605


def test_golden_schedule_digests(corpus_results, forced_guard_results,
                                qasm_results, suite_results,
                                perfbench_results):
    """Schedules stay byte-identical to the recorded ones. Re-record only in
    a change that alters schedules on purpose:
    `PYTHONPATH=src python tests/test_acceptance.py`."""
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    got = _schedule_digests(corpus_results, forced_guard_results,
                            qasm_results, suite_results[0], perfbench_results)
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
    twice = []
    for _, run in phases(sched.events):
        columns = [ev.column for ev in run if isinstance(ev, ColumnMove)]
        twice += [(run[0].t_start, c) for k, c in enumerate(columns)
                  if c in columns[:k]]
    return twice


def test_fused_phases_match_phased_reference(unmerged_results):
    """Fusing relocation and isolation parking into the placement phase
    changes only column moves and times: every illumination, trap change,
    measure, U3 layer, count and the final mapping equal those of the
    phased reference, and no column moves twice in one phase. Over the
    corpus and the forced-guard set, on every technique x grid, with
    concurrent and serial movement, the fused schedule is never slower and
    never moves atoms further, and it is faster somewhere. Each case's
    reference is emitted once and timed both ways."""
    assert {case[1:3] for case in unmerged_results} == \
        {(t, g) for t in TECHNIQUES for g in GRIDS}
    faster = set()
    phased = {}  # the fused compile -> the phased reference's emission
    for c in unmerged_results:
        circ, technique, grid_kind, serial, sched = c[:5]
        case = (circ.source_name, technique, grid_kind, serial)
        if c.compiler not in phased:
            phased_cls = (_PhasedGuardForcingCompiler if c.forced
                          else _PhasedCompiler)
            phased[c.compiler] = _emitted(phased_cls, circ, technique, c.grid,
                                          c.layout)
        ref = _unmerged(*phased[c.compiler], serial)
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
    runs = list(phases(sched.events))
    return [i for (_, prev), (i, run) in zip(runs, runs[1:])
            if isinstance(prev[0], ColumnMove) and isinstance(run[0], ColumnMove)]


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


def _column_travel(sched) -> dict[int, float]:
    """Per column, the summed |dx| + |dy| of its atoms over its moves."""
    travel: dict[int, float] = {}
    for ev in sched.events:
        if isinstance(ev, ColumnMove):
            travel[ev.column] = travel.get(ev.column, 0.0) + ev.manhattan_total
    return travel


def test_held_columns_match_unheld_reference(unmerged_results):
    """Letting idle columns wait changes only column moves and times: every
    other event (kinds, layers, pairs, gates, transfers and their order),
    the SWAP and trap-change counts and the final mapping equal those of
    the schedule compiled without holds. The schedule is never slower, and
    no column's atoms travel further in sum; it validates and matches the
    oracle (up to EQUIVALENCE_QUBIT_CAP qubits). Over the corpus and the
    forced-guard set, on every technique x grid, with concurrent and
    serial movement. Holds drop column moves on every technique, and
    shorten schedules on pachinqo, degreesplit and trapchange."""
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
        travel = _column_travel(sched)
        for cid, was in _column_travel(unheld).items():
            assert travel.get(cid, 0.0) <= was + tol, (case, cid)
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


def test_held_columns_reach_a_fixpoint(unmerged_results, perfbench_results):
    """Running the hold pass once more on its own output changes no move:
    the pass's wait lists retry every candidate a hold could let wait
    nearer. Over the corpus, the forced-guard set and every perfbench
    case at seed 1, with concurrent and serial movement; each perfbench
    case is emitted once and held both ways."""
    moved = [(c.circ.source_name, c.technique, c.grid_kind, c.serial)
             for c in unmerged_results if c.holds_again]
    checked = len(unmerged_results)
    for workload, cases in perfbench_results.items():
        for circ, technique, _, _, compiler, emitted in cases:
            for serial in (False, True):
                checked += 1
                held = _passed(compiler, emitted, serial)
                if _holds_again(compiler, held, serial):
                    moved.append((workload, circ.source_name, technique,
                                  serial))
    assert checked == 2 * (208 + 144 + 34)
    assert not moved, (len(moved), moved[:5])


def _timing_faults(sched) -> tuple[list[int], list[int]]:
    """Where `sched`'s times do not follow from its event list, as event
    indices: each event that does not start exactly where the one before
    it ends (a move phase, a run of `schedule.phases`, counting as one
    event), and the first move of each phase that does not end exactly
    `movement_phase_time` of the phase's moves, in emitted order, after
    it starts."""
    starts, mistimed, end = [], [], 0.0
    for i, run in phases(sched.events):
        if run[0].t_start != end:
            starts.append(i)
        end = run[-1].t_end
        if isinstance(run[0], ColumnMove):
            dur = movement_phase_time(run, PARAMS, sched.serial_movement)
            if any(m.t_end != m.t_start + dur for m in run):
                mistimed.append(i)
    return starts, mistimed


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


def test_serial_timing_decides_nothing_in_the_compiler(corpus_results,
                                                       forced_guard_results):
    """Movement timing is read only by the post-passes: run with serial
    timing on the events a concurrent compile emitted, they give byte for
    byte the schedule compiled with serial movement. Under every technique,
    on two corpus circuits of at most 10 qubits, two of more and one
    forced-guard case whose guard ran an isolation layer; the post-pass
    fixtures time one emission both ways on this ground. A decision that
    read the timing would emit other events under it, and fail here."""
    cases = []  # (class, concurrent schedule, compiler, emitted events)
    for technique in TECHNIQUES:
        corpus = [(Compiler, r[3], *r[5:]) for r in corpus_results
                  if r[1] == technique]
        small = [c for c in corpus if c[2].circuit.num_qubits <= 10]
        large = [c for c in corpus if c[2].circuit.num_qubits > 10]
        forced = next((_GuardForcingCompiler, r[3], *r[6:])
                      for r in forced_guard_results
                      if r[1] == technique and r[6].isolation_layers)
        cases += small[:2] + large[:2] + [forced]
    slower = 0
    for cls, concurrent, compiler, emitted in cases:
        circ = compiler.circuit
        case = (circ.source_name, compiler.technique, compiler.grid.kind)
        passed = _timed(compiler, _passed(compiler, emitted, True), True)
        serial = cls(circ, compiler.technique, compiler.grid, compiler.layout,
                     PARAMS, True).run()
        assert schedule_to_json(passed) == schedule_to_json(serial), case
        slower += serial.end_time > concurrent.end_time
    assert len(cases) == 5 * len(TECHNIQUES)
    assert slower


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
    for circ, technique, grid_kind, _, layout, grid, unfused, *emissions in \
            qasm_results:
        case = (circ.source_name, technique, grid_kind)
        sched, ref = (_unmerged(*emission, False) for emission in emissions)
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
    unpacked schedule, native or SWAP step: the positions among the U3
    layers of the first one after the last illumination on its atom and of
    the last one before the next illumination or measure on its atom."""
    windows, n_layers = {}, 0
    first: dict[int, int] = {}  # atom -> first layer after its last illumination
    open_: dict[int, list] = {}  # atom -> windows its next illumination closes
    counts: dict[int, int] = {}

    def close(atom):
        for window in open_.pop(atom, []):
            window[1] = min(window[1], n_layers - 1)
        first[atom] = n_layers

    for ev in ref.events:
        if isinstance(ev, U3LayerEvent):
            for g in ev.gates:
                k = counts[g.atom] = counts.get(g.atom, -1) + 1
                window = windows[g.atom, k] = [first.get(g.atom, 0), math.inf]
                open_.setdefault(g.atom, []).append(window)
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
    """Every rotation runs inside its window and keeps its orders, and every
    U3 layer left holds a rotation that no other layer left could take, so
    none could be dropped. Given where the other rotations run, a rotation
    could run in any U3 layer of its window after its atom's rotation
    before it and before its atom's rotation after it, no earlier than its
    SWAP's step before it, and no later than its SWAP's step after it."""
    windows = _rotation_windows(ref)
    position = {ev.layer: i for i, ev in enumerate(
        ev for ev in ref.events if isinstance(ev, U3LayerEvent))}
    kept = [ev for ev in sched.events if isinstance(ev, U3LayerEvent)]
    kept_at = sorted(position[ev.layer] for ev in kept)
    rotations = []  # [layer position, window, lowest, highest, layer event]
    latest: dict[int, list] = {}  # atom -> its last rotation so far
    step_before: dict[int, list] = {}  # swap id -> its last step so far
    counts: dict[int, int] = {}
    for ev in sched.events:
        if not isinstance(ev, U3LayerEvent):
            continue
        at = position[ev.layer]
        for g in ev.gates:
            k = counts[g.atom] = counts.get(g.atom, -1) + 1
            rot = [at, windows[g.atom, k], -math.inf, math.inf, ev]
            rotations.append(rot)
            before = [(latest.get(g.atom), 1)]
            latest[g.atom] = rot
            if g.origin is not None:
                sid = g.origin[0]
                before.append((step_before.get(sid), 0))
                step_before[sid] = rot
            for prev, strict in before:
                if prev is not None:
                    rot[2] = max(rot[2], prev[0] + strict)
                    prev[3] = min(prev[3], at - strict)
    needed = set()
    for at, (first, last), lowest, highest, ev in rotations:
        lo, hi = max(first, lowest), min(last, highest)
        assert lo <= at <= hi, (case, ev.layer)
        others = bisect.bisect_right(kept_at, hi) - \
            bisect.bisect_left(kept_at, lo)
        if others == 1:
            needed.add(ev.layer)
    assert needed == {ev.layer for ev in kept}, case


def test_packing_removes_only_u3_layers(corpus_results, unmerged_results):
    """Packing rotations keeps every other event in order, with its layer
    number and duration, and each atom's rotations in order. It only
    removes U3 layers, leaves none empty and none it could drop, moves
    each rotation within its window, and the modelled time of the U3
    layers falls by exactly u3_time per removed layer while every other
    kind's stays exactly as it was. Over the corpus, on every technique x
    grid; the packed schedules validate and match the oracle. Both sides
    leave back-to-back move phases apart and hold no column, so that only
    U3 layers differ; the unpacked reference is the same compile's
    emitted events, timed as they are."""
    packed = {(c.circ.source_name, c.technique, c.grid_kind): c.unmerged
              for c in unmerged_results if not c.serial}
    removed = 0
    for circ, technique, grid_kind, _, violations, compiler, emitted in \
            corpus_results:
        case = (circ.source_name, technique, grid_kind)
        sched = packed[case]
        ref = _timed(compiler, _copied(emitted), False)
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
    for circ, technique, grid_kind, sched, layout, grid, compiler, _ in \
            forced_guard_results:
        isolation[technique] += compiler.isolation_layers
        violations = validate_schedule(sched, layout, grid, PARAMS, circ)
        equal, err = (equivalence_check(sched, circ)
                      if circ.num_qubits <= EQUIVALENCE_QUBIT_CAP else (True, 0.0))
        if violations or not equal:
            bad.append((circ.source_name, technique, grid_kind, err))
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


def test_swap_step_8_runs_in_the_first_u3_layer_after_step_7(
        corpus_results, forced_guard_results):
    """In the events the compiler emits, every inserted SWAP's step 8 runs
    in the first U3 layer after the illumination of its step 7, so it is
    done before the next CZ layer plans. Exchanging the mapping at step 7
    in `Frontier.advance` and `Compiler._complete_swap` therefore could
    not let qubit b's next CZ be planned any earlier (ROADMAP item 19).
    The forced-guard set also runs step 7 in the guard's isolation
    layers."""
    bad = []
    count = 0
    for circ, technique, grid_kind, *_, compiler, emitted in (
            corpus_results + forced_guard_results):
        fired: set[int] = set()  # SWAPs whose step 7 fired, step 8 not yet
        for ev in emitted:
            if isinstance(ev, Illumination):
                fired |= {p.origin[0] for p in ev.pairs
                          if p.origin is not None and p.origin[1] == 7}
            elif isinstance(ev, U3LayerEvent) and fired:
                ran = {g.origin[0] for g in ev.gates
                       if g.origin is not None and g.origin[1] == 8}
                bad += [(circ.source_name, technique, grid_kind, sid)
                        for sid in sorted(fired - ran)]
                count += len(fired & ran)
                fired = set()
        assert not fired
    assert count == sum(r[-2].swap_count for r in corpus_results
                        + forced_guard_results) > 0
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
              for circ, technique, grid_kind, sched, layout, *_ in
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


def test_criterion_2_trap_change_accounting(suite_results):
    suite, dt = suite_results  # dt: the seconds the suite's compiles took
    checked = 0
    ok = True
    worst = ""
    for circ, technique, grid_kind, sched in suite:
        n_tc_events = sum(1 for e in sched.events if isinstance(e, TrapChange))
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
    bad = [(c.source_name, t, g, v) for c, t, g, _, v, *_ in corpus_results if v]
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
                            _compile_qasm(), _compile_suite()[0],
                            _compile_perfbench())
    GOLDEN_DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = sum(1 for k in new.keys() & old.keys() if new[k] != old[k])
    print(f"{len(new)} digests: {changed} changed, "
          f"{len(new.keys() - old.keys())} added, "
          f"{len(old.keys() - new.keys())} removed")
