"""Validator replay checks, the state-vector oracle, and mutation tests."""
import copy
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pachinqo.circuit import (
    H_ANGLES,
    Circuit,
    cz,
    decompose_swap,
    decompose_to_basis,
    u3,
)
from pachinqo.machine import build_layout, generate_grid
from pachinqo.metrics import move_duration, movement_phase_time
from pachinqo.qasm import parse_qasm
from pachinqo.schedule import (
    AOD_TO_SLM,
    SLM_TO_AOD,
    ColumnMove,
    Illumination,
    Measure,
    TrapChange,
    TrapTransfer,
    U3LayerEvent,
)
from pachinqo.scheduler import TECHNIQUES, Compiler
from pachinqo.verifier import (
    _apply_cz,
    equivalence_check,
    executed_distribution,
    statevector_oracle,
    validate_schedule,
)

from corpus import GRIDS, random_circuit, random_qasm, staircase


def _compile(circ, technique="pachinqo"):
    from pachinqo.machine import PhysParams

    params = PhysParams()
    layout = build_layout(circ.num_qubits, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Compiler(circ, technique, grid, layout, params).run()
    return sched, layout, grid, params


# ---------------------------------------------------------------------------
# oracle

def test_oracle_hadamard():
    circ = Circuit(1, [u3(0, *H_ANGLES)])
    probs = statevector_oracle(circ)
    assert probs == pytest.approx([0.5, 0.5])


def test_oracle_empty_circuit():
    probs = statevector_oracle(Circuit(3, []))
    assert probs[0] == 1.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_oracle_swap_template_moves_basis_state():
    seq = decompose_swap(0, 1)
    # start from |01> (qubit 0 set)
    probs = statevector_oracle(Circuit(2, list(seq)), initial=0b01)
    assert probs[0b10] == pytest.approx(1.0, abs=1e-12)


def test_oracle_distribution_normalized():
    circ = random_circuit(random.Random(0), 5, 40)
    probs = statevector_oracle(circ)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_apply_cz_flips_signs_in_place():
    n = 4
    rng = np.random.default_rng(7)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            expected = np.array([-amp if (k >> a) & 1 and (k >> b) & 1
                                 else amp for k, amp in enumerate(state)])
            out = _apply_cz(state, a, b, n)
            assert out is state
            assert np.array_equal(state, expected)


def test_oracle_qubit_cap():
    with pytest.raises(ValueError, match="capped"):
        statevector_oracle(Circuit(13, []))


def test_oracle_permutation_covariance():
    """Relabeling qubits permutes outcome bitstrings exactly."""
    rng = random.Random(4)
    circ = random_circuit(rng, 4, 25)
    perm = [2, 0, 3, 1]
    relabeled = Circuit(4, [
        type(g)(g.kind, tuple(perm[q] for q in g.qubits), g.params, g.origin)
        for g in circ.gates
    ])
    p = statevector_oracle(circ)
    q = statevector_oracle(relabeled)
    for k in range(16):
        j = 0
        for bit in range(4):
            j |= ((k >> bit) & 1) << perm[bit]
        assert q[j] == pytest.approx(p[k], abs=1e-12)


# ---------------------------------------------------------------------------
# equivalence

def test_equivalence_on_compiled_benchmarks():
    for circ in (staircase(6, 2), random_circuit(random.Random(8), 7, 60)):
        sched, _, _, _ = _compile(circ)
        ok, tvd = equivalence_check(sched, circ)
        assert ok and tvd < 1e-9


def _ghz_chain(n):
    """GHZ preparation where every CZ is distribution-sensitive."""
    gates = [u3(0, *H_ANGLES)]
    for i in range(n - 1):
        gates.append(u3(i + 1, *H_ANGLES))
        gates.append(cz(i, i + 1))
        gates.append(u3(i + 1, *H_ANGLES))
    return Circuit(n, gates, "ghz")


def test_equivalence_detects_dropped_cz():
    circ = _ghz_chain(6)
    sched, _, _, _ = _compile(circ)
    mutated = copy.deepcopy(sched)
    for ev in mutated.events:
        if isinstance(ev, Illumination) and ev.pairs:
            ev.pairs.pop()
            break
    ok, tvd = equivalence_check(mutated, circ)
    assert not ok and tvd > 1e-6


def test_equivalence_detects_duplicated_cz():
    # The duplicate lands in the same flash, so the pair cancels (CZ^2=I):
    # equivalent to dropping the gate, and just as visible.
    circ = _ghz_chain(6)
    sched, _, _, _ = _compile(circ)
    mutated = copy.deepcopy(sched)
    for ev in mutated.events:
        if isinstance(ev, Illumination) and ev.pairs:
            ev.pairs.append(ev.pairs[0])
            break
    ok, _ = equivalence_check(mutated, circ)
    assert not ok


def test_equivalence_detects_reordered_cz():
    circ = _ghz_chain(3)
    sched, _, _, _ = _compile(circ)
    mutated = copy.deepcopy(sched)
    illums = [e for e in mutated.events if isinstance(e, Illumination)]
    assert len(illums) == 2
    illums[0].pairs, illums[1].pairs = illums[1].pairs, illums[0].pairs
    ok, _ = equivalence_check(mutated, circ)
    assert not ok


def test_equivalence_detects_missing_final_permutation():
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    sched, _, _, _ = _compile(circ)
    assert sched.swap_count == 1
    mutated = copy.deepcopy(sched)
    mutated.final_mapping = {q: q for q in range(4)}
    ref = statevector_oracle(circ)
    got = executed_distribution(mutated, 4)
    # the unpermuted distribution must differ for this circuit
    prep = Circuit(4, [u3(0, *H_ANGLES), u3(2, 1.0, 0.3, -0.2)] + circ.gates)
    sched2, _, _, _ = _compile(prep)
    mut2 = copy.deepcopy(sched2)
    mut2.final_mapping = {q: q for q in range(4)}
    ok, _ = equivalence_check(mut2, prep)
    assert not ok


def _hh_cz():
    """H on both qubits, then CZ: from |00> every outcome has probability
    1/4 with or without the CZ, which only moves phases."""
    return Circuit(2, [u3(0, *H_ANGLES), u3(1, *H_ANGLES), cz(0, 1)])


def _hhh_cz_cz():
    """H on three qubits, then CZ(0, 1) and CZ(1, 2)."""
    return Circuit(3, [u3(q, *H_ANGLES) for q in range(3)]
                   + [cz(0, 1), cz(1, 2)])


@pytest.mark.parametrize("make", [_hh_cz, _hhh_cz_cz])
def test_equivalence_detects_dropped_phase_only_cz(make):
    """Emptying the first illumination drops a CZ that changes no output
    probability from |0...0>: the distributions still agree, but the
    amplitudes do not."""
    circ = make()
    sched, _, _, _ = _compile(circ)
    assert equivalence_check(sched, circ)[0]
    mutated = copy.deepcopy(sched)
    illum = next(e for e in mutated.events if isinstance(e, Illumination))
    assert illum.pairs[0].qubits == (0, 1)
    illum.pairs = []
    assert executed_distribution(mutated, circ.num_qubits) == \
        pytest.approx(statevector_oracle(circ), abs=1e-12)
    ok, err = equivalence_check(mutated, circ)
    assert not ok and err > 0.1


def test_equivalence_ignores_only_a_global_phase():
    """A schedule whose every amplitude differs by one phase is equal."""
    circ = random_circuit(random.Random(6), 5, 40)
    sched, _, _, _ = _compile(circ)
    ok, err = equivalence_check(sched, circ)
    assert ok and err < 1e-12
    mutated = copy.deepcopy(sched)
    layer = next(e for e in mutated.events if isinstance(e, U3LayerEvent))
    g = layer.gates[0]
    theta, phi, lam = g.angles
    # U3(t, p, l) followed by the phase -1: U3(t + 2 pi, p, l) = -U3(t, p, l)
    layer.gates[0] = type(g)(g.qubit, g.atom, (theta + 2 * math.pi, phi, lam),
                             g.origin)
    ok, err = equivalence_check(mutated, circ)
    assert ok and err < 1e-9


def test_equivalence_qubit_cap():
    circ = Circuit(11, [])
    sched, _, _, _ = _compile(circ)
    with pytest.raises(ValueError, match="capped"):
        equivalence_check(sched, circ)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=40),
       st.sampled_from(GRIDS), st.randoms(use_true_random=False))
def test_random_qasm_compiles_valid_and_equivalent(n, n_gates, grid_kind, rng):
    """Any QASM source over the supported gates, lowered and compiled by
    every technique, validates clean and executes the lowered circuit."""
    from pachinqo.machine import PhysParams

    circ = decompose_to_basis(parse_qasm(random_qasm(rng, n, n_gates)))
    params = PhysParams()
    layout = build_layout(n, "auto", params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    for technique in TECHNIQUES:
        sched = Compiler(circ, technique, grid, layout, params).run()
        assert validate_schedule(sched, layout, grid, params, circ) == [], \
            technique
        ok, err = equivalence_check(sched, circ)
        assert ok, (technique, err)


# ---------------------------------------------------------------------------
# validator mutations

def _mutate_and_check(circ, mutate):
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    mutate(mutated)
    return validate_schedule(mutated, layout, grid, params, circ)


class _CachePairCompiler(Compiler):
    """Forms every AOD pair in the right cache, out of the Rydberg
    pulse's reach, instead of over a free compute site."""

    def _pair_site(self, atoms, cols, offset, lo, hi):
        rc = self.layout.right_cache
        x, y = rc.x0 + 40.0, rc.y0 + 60.0
        return [(x, y), (x + offset[0], y + offset[1])]


def test_validator_catches_a_pair_outside_compute():
    """Mobile 0 and 2 share a column; paired in the right cache, they
    stand within the interaction radius and clear of every compute atom,
    so only the zone of the pair is wrong: one violation."""
    from pachinqo.machine import PhysParams

    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(0, 2)])
    params = PhysParams()
    layout = build_layout(4, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = _CachePairCompiler(circ, "pachinqo", grid, layout, params).run()
    (i, pair), = [(i, p) for i, ev in enumerate(sched.events)
                  if isinstance(ev, Illumination)
                  for p in ev.pairs if p.qubits == (0, 2)]
    assert all(layout.right_cache.contains(*xy) for xy in pair.positions)
    violations = validate_schedule(sched, layout, grid, params, circ)
    assert [(v.code, v.event, v.description) for v in violations] == [
        ("blockade", i, "pair (0, 2) stands outside compute")]


def test_validator_catches_crossing_columns():
    circ = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)])

    def cross(sched):
        for ev in sched.events:
            if isinstance(ev, ColumnMove) and ev.layer > 0:
                ev.to_x = 1000.0  # shove a column past its right neighbors
                for i, (a, fy, ty) in enumerate(ev.atoms):
                    ev.atoms[i] = (a, fy, ty)
                return

    violations = _mutate_and_check(circ, cross)
    assert any(v.code in ("ordering", "zone-bounds") for v in violations)


def test_validator_catches_blockade_violation():
    circ = Circuit(2, [cz(0, 1)])
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    for ev in mutated.events:
        if isinstance(ev, Illumination):
            # claim the pair executed far apart
            p = ev.pairs[0]
            ev.pairs[0] = type(p)(p.qubits, p.atoms,
                                  ((p.positions[0][0] + 5.0, p.positions[0][1]),
                                   p.positions[1]), p.origin)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert any(v.code == "blockade" for v in violations)


def test_validator_catches_third_atom_in_blockade():
    # Drag a bystander column to 5 um from the executing pair: crosstalk.
    circ = Circuit(4, [cz(0, 1), u3(2, 1, 1, 1), u3(3, 1, 1, 1), cz(2, 3)])
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []

    probe = copy.deepcopy(sched)
    first = next(e for e in probe.events if isinstance(e, Illumination))
    idx = probe.events.index(first)
    px, py = first.pairs[0].positions[0]
    bystander = next(a for a in range(4) if a not in first.pairs[0].atoms)
    # locate the bystander's column and position just before the flash
    col = fx = fy = None
    for ev in probe.events[:idx]:
        if isinstance(ev, ColumnMove):
            for a, _, ty in ev.atoms:
                if a == bystander:
                    col, fx, fy = ev.column, ev.to_x, ty
        elif ev.kind == "trap-change":
            for tr in ev.transfers:
                if tr.atom == bystander and tr.column is not None:
                    col, fx, fy = tr.column, tr.x, tr.y
    assert col is not None
    probe.events.insert(idx, ColumnMove(
        first.t_start, first.t_start, first.layer, col, fx, px + 5.0,
        [(bystander, fy, py)]))
    violations = validate_schedule(probe, layout, grid, params, circ)
    assert any(v.code == "blockade" for v in violations)


def test_validator_catches_double_measure():
    circ = Circuit(2, [cz(0, 1)])

    def double(sched):
        for ev in sched.events:
            if isinstance(ev, Measure):
                ev.atoms.append(ev.atoms[0])
                return

    violations = _mutate_and_check(circ, double)
    assert any(v.code == "double-measure" for v in violations)


def test_validator_catches_missing_measure():
    circ = Circuit(2, [cz(0, 1)])

    def drop(sched):
        for ev in sched.events:
            if isinstance(ev, Measure) and ev.atoms:
                ev.atoms.pop()
                return

    violations = _mutate_and_check(circ, drop)
    assert any(v.code == "double-measure" for v in violations)


def test_validator_catches_time_reversal():
    circ = Circuit(2, [cz(0, 1)])

    def rewind(sched):
        sched.events[-1].t_start = -1.0

    violations = _mutate_and_check(circ, rewind)
    assert any(v.code == "timing" for v in violations)


def test_validator_catches_dependency_break():
    circ = Circuit(3, [cz(0, 1), cz(1, 2)])

    def swap_illums(sched):
        illums = [e for e in sched.events if isinstance(e, Illumination)]
        illums[0].pairs, illums[1].pairs = illums[1].pairs, illums[0].pairs

    violations = _mutate_and_check(circ, swap_illums)
    assert any(v.code == "dependency" for v in violations)


def test_validator_catches_cz_operands_out_of_gate_order():
    """A native CZ entry names its gate's qubits in the gate's order. With
    its qubits, atoms and positions reversed together the same two atoms
    interact, so only the name is wrong: one violation, and the cursors
    still advance, so nothing cascades."""
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    i, k = next((i, k) for i, ev in enumerate(mutated.events)
                if isinstance(ev, Illumination)
                for k, p in enumerate(ev.pairs) if p.origin is None)
    p = mutated.events[i].pairs[k]
    mutated.events[i].pairs[k] = replace(p, qubits=p.qubits[::-1],
                                         atoms=p.atoms[::-1],
                                         positions=p.positions[::-1])
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("dependency", i)]
    assert "out of order" in violations[0].description


def test_validator_passes_all_techniques():
    rng = random.Random(77)
    circ = random_circuit(rng, 8, 60)
    for technique in ("pachinqo", "degreesplit", "onecache", "trapchange"):
        sched, layout, grid, params = _compile(circ, technique)
        assert validate_schedule(sched, layout, grid, params, circ) == []


def _measure_mutant(mutate):
    """Validate a compiled 6-qubit schedule whose readout was mutated."""
    circ = random_circuit(random.Random(3), 6, 40)
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    event = next(e for e in mutated.events
                 if isinstance(e, Measure) and len(e.atoms) >= 2)
    mutate(event.atoms)
    return validate_schedule(mutated, layout, grid, params, circ)


def test_validator_catches_swapped_measure_labels():
    def swap_labels(entries):
        (a0, q0, x0, y0), (a1, q1, x1, y1) = entries[:2]
        entries[0] = (a0, q1, x0, y0)
        entries[1] = (a1, q0, x1, y1)

    violations = _measure_mutant(swap_labels)
    assert sum(v.code == "dependency" for v in violations) == 2


def test_validator_catches_unknown_measure_qubit():
    def relabel(entries):
        a, _, x, y = entries[0]
        entries[0] = (a, 99, x, y)

    violations = _measure_mutant(relabel)
    assert [v.code for v in violations] == ["dependency"]
    assert "unknown qubit 99" in violations[0].description


def _replace_first(cls, swap, change):
    """A mutation that replaces the first U3 entry (`cls` U3LayerEvent) or
    CZ pair (Illumination) that is, or with `swap` False is not, a SWAP
    component by `change(entry)`."""
    def mutate(sched):
        for ev in sched.events:
            if isinstance(ev, cls):
                entries = ev.gates if cls is U3LayerEvent else ev.pairs
                for k, e in enumerate(entries):
                    if (e.origin is not None) == swap:
                        entries[k] = change(e)
                        return
        raise AssertionError("no entry to mutate")
    return mutate


@pytest.mark.parametrize("mutate, code, expected", [
    (_replace_first(Illumination, False,
                    lambda p: replace(p, atoms=(p.atoms[0], 99))),
     "blockade", "pair atom 99 was never placed"),
    (_replace_first(U3LayerEvent, False, lambda g: replace(g, qubit=8)),
     "dependency", "u3 names unknown qubit 8"),
    (_replace_first(Illumination, False,
                    lambda p: replace(p, qubits=(p.qubits[0], 8))),
     "dependency", ", 8) names unknown qubit 8"),
    (_replace_first(U3LayerEvent, True,
                    lambda g: replace(g, origin=(g.origin[0], 9))),
     "dependency", "has no step 9"),
    (_replace_first(U3LayerEvent, True, lambda g: replace(g, qubit=8)),
     "dependency", "step 0 names unknown qubit 8"),
    (lambda sched: sched.final_mapping.update({8: 0}),
     "dependency", "final mapping names unknown qubit 8"),
], ids=["unplaced-pair-atom", "u3-unknown-qubit", "cz-unknown-qubit",
        "swap-step-9", "swap-unknown-qubit", "final-mapping-unknown-qubit"])
def test_validator_reports_malformed_entries(mutate, code, expected):
    """Entries naming an atom the replay never placed, a qubit outside the
    circuit or a SWAP step past the template are violations, not crashes."""
    circ = random_circuit(random.Random(3), 8, 40)
    violations = _mutate_and_check(circ, mutate)
    assert any(v.code == code and expected in v.description
               for v in violations), violations


# ---------------------------------------------------------------------------
# validator timing

def _retimed(sched, index, scale, delay=0.0):
    """Copy of `sched` whose event (or move phase) at `index` starts `delay`
    us late and lasts `scale` times as long. Later events shift with it, so
    the times stay monotone and only that one span is off."""
    out = copy.deepcopy(sched)
    t0, t1 = out.events[index].t_start, out.events[index].t_end
    new_end = t0 + delay + (t1 - t0) * scale
    for ev in out.events[index:]:
        if (ev.t_start, ev.t_end) == (t0, t1):
            ev.t_start, ev.t_end = t0 + delay, new_end
        else:
            ev.t_start += new_end - t1
            ev.t_end += new_end - t1
    return out


@pytest.mark.parametrize("kind, scale, delay", [
    (ColumnMove, 3.0, 0.0),
    (ColumnMove, 0.25, 0.0),
    (U3LayerEvent, 0.0, 0.0),
    (Illumination, 1.0, 1.0),
], ids=["stretched-move-phase", "quartered-move-phase", "zero-length-u3-layer",
        "late-illumination"])
def test_validator_catches_mistimed_span(kind, scale, delay):
    circ = random_circuit(random.Random(3), 8, 60)
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    index = next(i for i, ev in enumerate(sched.events)
                 if isinstance(ev, kind) and ev.layer > 0)
    mutated = _retimed(sched, index, scale, delay)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert violations and {v.code for v in violations} == {"timing"}
    assert violations[0].event == index


def _split_move(sched, layout, params):
    """Copy of `sched` with its first x move (after loading) split into two
    hops of the same column inside one phase: x halfway first, then the
    rest with the y moves. The phase is re-timed with `movement_phase_time`
    over its listed moves and later events shift with it, so every span,
    position and the end time stay consistent. Returns (copy, index of the
    second hop, us the phase understates the column's travel by)."""
    out = copy.deepcopy(sched)
    evs = out.events
    i, m = next((i, ev) for i, ev in enumerate(evs)
                if isinstance(ev, ColumnMove) and ev.layer > 0
                and ev.from_x != ev.to_x
                and all(layout.in_any_zone((ev.from_x + ev.to_x) / 2, fy)
                        for _, fy, _ in ev.atoms))
    mid = (m.from_x + m.to_x) / 2
    first = ColumnMove(m.t_start, m.t_end, m.layer, m.column, m.from_x, mid,
                       [(a, fy, fy) for a, fy, _ in m.atoms])
    second = ColumnMove(m.t_start, m.t_end, m.layer, m.column, mid, m.to_x,
                        list(m.atoms))
    evs[i:i + 1] = [first, second]
    span = (m.t_start, m.t_end)
    phase = [ev for ev in evs if isinstance(ev, ColumnMove)
             and (ev.t_start, ev.t_end) == span]
    new_end = m.t_start + movement_phase_time(
        [(ev.column, ev.from_x, ev.to_x, ev.atoms) for ev in phase], params)
    for ev in evs[i:]:
        if (ev.t_start, ev.t_end) == span:
            ev.t_end = new_end
        else:
            ev.t_start += new_end - m.t_end
            ev.t_end += new_end - m.t_end
    hops = sum(move_duration(h.to_x - h.from_x,
                             [ty - fy for _, fy, ty in h.atoms], params)
               for h in (first, second))
    return out, i + 1, hops - (new_end - m.t_start)


def test_validator_catches_column_moving_twice_in_one_phase():
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated, index, understated = _split_move(sched, layout, params)
    assert understated > 0  # the concurrent phase time hides one hop
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("double-move", index)]


def test_validator_catches_column_move_with_no_atoms():
    # A ferry column empties when it deposits the static group; add a
    # zero-length move of it, listing no atoms, to a later move phase.
    # Its members (none) match its list and the phase time is unchanged,
    # so only the atomless move itself is wrong.
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    ferry = mutated.events[0].transfers[0].column
    x = next(ev.to_x for ev in mutated.events
             if isinstance(ev, ColumnMove) and ev.column == ferry)
    index = next(i for i, ev in enumerate(mutated.events)
                 if isinstance(ev, ColumnMove) and ev.layer > 0)
    m = mutated.events[index]
    mutated.events.insert(index + 1, ColumnMove(
        m.t_start, m.t_end, m.layer, ferry, x, x, []))
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("tandem", index + 1)]


# Zone and order checks run at the event that moves an atom or a column,
# so a fault is reported once, where it happens.

def _codes(violations, code):
    return [(v.code, v.event) for v in violations if v.code == code]


def test_validator_reports_a_move_out_of_every_zone_once():
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    index = next(i for i, ev in enumerate(mutated.events)
                 if isinstance(ev, ColumnMove) and ev.layer > 0)
    m = mutated.events[index]
    a, fy, _ = m.atoms[0]
    m.atoms[0] = (a, fy, -1e6)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert _codes(violations, "zone-bounds") == [("zone-bounds", index)]


def test_validator_reports_a_pickup_outside_every_zone_at_its_trap_change():
    # Lift one ferry atom from below every zone, in the column that moves
    # last in the phase after the pickup: it stays out until that move.
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    index = next(i for i, ev in enumerate(mutated.events)
                 if isinstance(ev, TrapChange) and ev.direction == SLM_TO_AOD)
    last = index + 1
    while isinstance(mutated.events[last + 1], ColumnMove):
        last += 1
    assert last > index + 1
    pickup = mutated.events[index]
    k = next(k for k, tr in enumerate(pickup.transfers)
             if tr.column == mutated.events[last].column)
    pickup.transfers[k] = replace(pickup.transfers[k], y=-1e6)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert _codes(violations, "zone-bounds") == [("zone-bounds", index)]


def test_validator_reports_a_pickup_out_of_column_order_at_its_trap_change():
    # After readout, lift two measured atoms into two new columns whose
    # ids run against their x order, just before the last measurement.
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    index = len(mutated.events) - 1
    deposit = mutated.events[index - 1]
    assert isinstance(mutated.events[index], Measure)
    assert deposit.direction == AOD_TO_SLM
    left = min(deposit.transfers, key=lambda tr: tr.x)
    right = max(deposit.transfers, key=lambda tr: tr.x)
    assert left.x < right.x
    cid = 1 + max(tr.column for ev in mutated.events
                  if isinstance(ev, TrapChange) for tr in ev.transfers
                  if tr.column is not None)
    mutated.events.insert(index, TrapChange(
        deposit.t_end, deposit.t_end + params.trap_change_time,
        deposit.layer, SLM_TO_AOD,
        [replace(right, column=cid), replace(left, column=cid + 1)]))
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert _codes(violations, "ordering") == [("ordering", index)]


def test_validator_catches_a_second_pickup_of_a_held_atom():
    # The mobile pickup also lifts its first atom into a new column.
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    pickups = [i for i, ev in enumerate(mutated.events)
               if isinstance(ev, TrapChange) and ev.direction == SLM_TO_AOD]
    index = pickups[1]
    pickup = mutated.events[index]
    cid = 1 + max(tr.column for ev in mutated.events
                  if isinstance(ev, TrapChange) for tr in ev.transfers
                  if tr.column is not None)
    first = pickup.transfers[0]
    pickup.transfers.append(replace(first, column=cid))
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("tandem", index)]
    assert f"pickup of {first.atom} into column {cid}" in violations[0].description


@pytest.mark.parametrize("field, delta", [
    ("swap_count", 1), ("swap_count", -1),
    ("trap_change_count", -1), ("trap_change_count", 1),
])
def test_validator_catches_a_wrong_reported_count(field, delta):
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    assert sched.swap_count > 0
    mutated = replace(sched, **{field: getattr(sched, field) + delta})
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [
        ("count", len(sched.events) - 1)]
    assert violations[0].description.startswith(field)


def test_validator_catches_two_rotations_of_one_atom_in_one_layer():
    # Merge the two U3 layers of qubit 0 into one and pull later events
    # in: every span stays consistent, but one layer rotates atom 0 twice.
    circ = Circuit(2, [u3(0, 1, 0, 0), u3(0, 2, 0, 0), cz(0, 1)])
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    first, second = (i for i, ev in enumerate(mutated.events)
                     if isinstance(ev, U3LayerEvent))
    merged = mutated.events.pop(second)
    mutated.events[first].gates += merged.gates
    for ev in mutated.events[second:]:
        ev.t_start -= params.u3_time
        ev.t_end -= params.u3_time
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("timing", first)]


@pytest.mark.parametrize("n, onto", [(2, None), (4, 1)])
def test_validator_catches_deposit_off_a_free_site(n, onto):
    # Carry the last static atom's ferry somewhere else and deposit it
    # there: 3 um off its site, or onto the site static atom `onto` took
    # in the same trap change.
    circ = Circuit(n, [cz(2 * i, 2 * i + 1) for i in range(n // 2)])
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    index, deposit = next(
        (i, ev) for i, ev in enumerate(mutated.events)
        if isinstance(ev, TrapChange) and ev.direction == AOD_TO_SLM)
    at = {tr.atom: (tr.x, tr.y) for tr in deposit.transfers}
    atom = n - 1
    x, y = at[onto] if onto is not None else (at[atom][0], at[atom][1] + 3.0)
    ferry = next(ev for ev in mutated.events[:index]
                 if isinstance(ev, ColumnMove) and ev.atoms[0][0] == atom)
    ferry.to_x = x
    ferry.atoms = [(atom, ferry.atoms[0][1], y)]
    deposit.transfers = [TrapTransfer(atom, x, y) if tr.atom == atom else tr
                         for tr in deposit.transfers]
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert ("site", index) in [(v.code, v.event) for v in violations]


def _drop_swap_u3(step):
    def mutate(sched):
        for ev in sched.events:
            if isinstance(ev, U3LayerEvent):
                ev.gates = [g for g in ev.gates if g.origin != (0, step)]
    return mutate


def _foreign_swap_cz(sched):
    for ev in sched.events:
        if isinstance(ev, Illumination):
            ev.pairs = [type(p)((p.qubits[0], 2), p.atoms, p.positions, p.origin)
                        if p.origin == (0, 4) else p for p in ev.pairs]


@pytest.mark.parametrize("mutate, expected", [
    # The U3 that opens the SWAP is gone: it begins at step 1.
    (_drop_swap_u3(0), [("dependency", 10, "swap 0 began at step 1"),
                        ("dependency", 10, "swap 0 step 1, expected 0")]),
    # Its middle CZ names qubit 2 in place of its partner.
    (_foreign_swap_cz, [("dependency", 12, "swap 0 touched foreign qubits (1, 2)")]),
    # Its last U3 is gone: it never ends, so its qubits stay locked and
    # the mapping never exchanges.
    (_drop_swap_u3(8), [
        ("dependency", 17, "locked qubit in native cz (1, 3)"),
        ("dependency", 20, "measure of atom 0 names qubit 1, mapped atom is 1"),
        ("dependency", 25, "measure of atom 1 names qubit 0, mapped atom is 0"),
        ("dependency", 25, "qubit 1 finished 1 of 2 gates"),
        ("dependency", 25, "qubit 3 finished 1 of 2 gates"),
        ("dependency", 25, "unfinished swaps [0]"),
        ("dependency", 25, "final mapping of qubit 0 is 0, schedule says 1"),
        ("dependency", 25, "final mapping of qubit 1 is 1, schedule says 0")]),
])
def test_validator_catches_broken_swap_components(mutate, expected):
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    violations = _mutate_and_check(circ, mutate)
    assert [(v.code, v.event, v.description) for v in violations] == expected


def _native_u3s(sched):
    """(event index, gate index) of every native U3 entry, in order."""
    return [(i, k) for i, ev in enumerate(sched.events)
            if isinstance(ev, U3LayerEvent)
            for k, g in enumerate(ev.gates) if g.origin is None]


def _shift_angle(sched, i, k, which, delta):
    g = sched.events[i].gates[k]
    angles = list(g.angles)
    angles[which] += delta
    sched.events[i].gates[k] = type(g)(g.qubit, g.atom, tuple(angles),
                                       g.origin)


def _angle_violations(violations):
    return [(v.code, v.event) for v in violations if "angles" in v.description]


def test_validator_catches_wrong_theta_on_native_u3s():
    """Adding 0.7 to theta of three native U3s leaves every gate's kind and
    order intact; only the angle check sees it."""
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    picked = _native_u3s(mutated)[:3]
    for i, k in picked:
        _shift_angle(mutated, i, k, 0, 0.7)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert _angle_violations(violations) == [("dependency", i) for i, _ in picked]
    assert all("angles" in v.description for v in violations)


def test_validator_catches_wrong_phi_on_a_qubits_last_u3():
    """A wrong phi on a qubit's last U3 changes only a phase, so no output
    probability moves; the validator still reports it."""
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    i, k = _native_u3s(mutated)[-1]
    _shift_angle(mutated, i, k, 1, 1.1)
    assert executed_distribution(mutated, 8) == pytest.approx(
        statevector_oracle(circ), abs=1e-9)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("dependency", i)]
    assert not equivalence_check(mutated, circ)[0]


def test_validator_catches_a_rotation_after_readout():
    """A qubit's last rotation, moved into a new U3 layer after the
    readout, keeps every span, count and gate order intact, and the oracle,
    which ignores measures, still agrees; only the readout check sees it."""
    circ = random_circuit(random.Random(3), 8, 40)
    sched, layout, grid, params = _compile(circ)
    mutated = copy.deepcopy(sched)
    last_kind = {q: g.kind for g in circ.gates for q in g.qubits}
    i, k = next((i, k) for i, k in reversed(_native_u3s(mutated))
                if last_kind[mutated.events[i].gates[k].qubit] == "u3")
    g = mutated.events[i].gates.pop(k)
    end = mutated.end_time
    mutated.events.append(U3LayerEvent(end, end + params.u3_time,
                                       mutated.events[-1].layer + 1, [g]))
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [
        ("dependency", len(mutated.events) - 1)]
    assert "after its readout" in violations[0].description
    assert equivalence_check(mutated, circ)[0]


def test_validator_catches_wrong_angle_on_a_swap_step():
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    sched, layout, grid, params = _compile(circ)
    assert sched.swap_count == 1
    mutated = copy.deepcopy(sched)
    i, k = next((i, k) for i, ev in enumerate(mutated.events)
                if isinstance(ev, U3LayerEvent)
                for k, g in enumerate(ev.gates) if g.origin == (0, 5))
    _shift_angle(mutated, i, k, 2, 1e-12)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert [(v.code, v.event) for v in violations] == [("dependency", i)]
    assert violations[0].description.startswith("swap 0 step 5 has angles ")


def test_validator_catches_wrong_theta_at_fifty_qubits():
    """Above the oracle's cap, the validator alone checks the rotations."""
    circ = random_circuit(random.Random(3), 50, 150)
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    mutated = copy.deepcopy(sched)
    i, k = _native_u3s(mutated)[len(_native_u3s(mutated)) // 2]
    _shift_angle(mutated, i, k, 0, 0.7)
    violations = validate_schedule(mutated, layout, grid, params, circ)
    assert _angle_violations(violations) == [("dependency", i)]
