"""Scheduler behavior: layer structure, variants, conflicts, determinism."""
import copy
import functools
import json
import math
import random
import tracemalloc

import pytest

from pachinqo import kernels, placement, scheduler
from pachinqo.circuit import Circuit, cz, u3
from pachinqo.machine import (
    INTERACTION_OFFSET,
    PhysParams,
    build_layout,
    generate_grid,
    hang_y,
)
from pachinqo.metrics import esp, movement_total
from pachinqo.schedule import (
    AOD_TO_SLM,
    SLM_TO_AOD,
    ColumnMove,
    CzEntry,
    Illumination,
    Measure,
    Schedule,
    TrapChange,
    TrapTransfer,
    U3Entry,
    U3LayerEvent,
    schedule_to_json,
)
from pachinqo.postpass import compose, hold_columns, pack_rotations
from pachinqo.scheduler import Compiler, retime, LEFT, RIGHT
from pachinqo.verifier import equivalence_check, validate_schedule

from corpus import (
    GRIDS,
    full_sites_extraction,
    random_circuit,
    staircase,
)


def _compile(circ, technique="pachinqo", grid_kind="large-square", params=None,
             serial=False):
    params = params or PhysParams()
    layout = build_layout(circ.num_qubits, "auto", params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    sched = Compiler(circ, technique, grid, layout, params, serial).run()
    return sched, layout, grid, params


def test_single_cz_schedule_shape(params):
    sched, layout, grid, _ = _compile(Circuit(2, [cz(0, 1)]))
    kinds = [e.kind for e in sched.events]
    assert kinds.count("trap-change") == 6
    assert kinds.count("illumination") == 1
    illum = next(e for e in sched.events if isinstance(e, Illumination))
    assert [p.qubits for p in illum.pairs] == [(0, 1)]
    # exactly one column approach between init and illumination
    start = kinds.index("illumination")
    approach = [e for e in sched.events[:start]
                if isinstance(e, ColumnMove) and e.layer > 0]
    assert len(approach) == 1
    assert validate_schedule(sched, layout, grid, params, Circuit(2, [cz(0, 1)])) == []


def test_pair_separation_is_interaction_offset():
    sched, _, _, params = _compile(Circuit(2, [cz(0, 1)]))
    illum = next(e for e in sched.events if isinstance(e, Illumination))
    (x1, y1), (x2, y2) = illum.pairs[0].positions
    assert abs(abs(x1 - x2) - INTERACTION_OFFSET) < 1e-9
    assert y1 == y2
    assert abs(x1 - x2) < params.interaction_radius


def test_empty_circuit_six_trap_changes(params):
    sched, layout, grid, _ = _compile(Circuit(3, []))
    assert sched.trap_change_count == 6
    tcs = [e for e in sched.events if isinstance(e, TrapChange)]
    assert len(tcs) == 6
    assert validate_schedule(sched, layout, grid, params, Circuit(3, [])) == []


def test_u3_layer_groups_parallel_rotations():
    circ = Circuit(3, [u3(0, 1, 0, 0), u3(1, 1, 0, 0), u3(2, 1, 0, 0)])
    sched, _, _, params = _compile(circ)
    layers = [e for e in sched.events if isinstance(e, U3LayerEvent)]
    assert len(layers) == 1
    assert len(layers[0].gates) == 3
    assert layers[0].t_end - layers[0].t_start == params.u3_time


def test_sequential_u3s_split_into_layers():
    circ = Circuit(1, [u3(0, 1, 0, 0), u3(0, 2, 0, 0)])
    sched, _, _, _ = _compile(circ)
    layers = [e for e in sched.events if isinstance(e, U3LayerEvent)]
    assert len(layers) == 2


def test_packed_rotation_lands_just_before_its_cz():
    """q2's rotation is exposed in the first U3 round, but q2 waits for
    CZ(0, 2), behind CZ(0, 1) and q0's rotation: it joins q0's rotation
    in the layer just before that CZ, and the first layer disappears."""
    circ = Circuit(3, [u3(2, 1, 0, 0), cz(0, 1), u3(0, 2, 0, 0), cz(0, 2)])
    sched, layout, grid, params = _compile(circ)
    rotations = [(ev.layer, [g.qubit for g in ev.gates])
                 for ev in sched.events if isinstance(ev, U3LayerEvent)]
    czs = [(ev.layer, [p.qubits for p in ev.pairs])
           for ev in sched.events if isinstance(ev, Illumination)]
    assert rotations == [(3, [2, 0])]
    assert czs == [(2, [(0, 1)]), (4, [(0, 2)])]
    assert validate_schedule(sched, layout, grid, params, circ) == []
    assert equivalence_check(sched, circ)[0]


def _illumination_blind_packing(events, n):
    """Packs rotations as if no illumination touched any atom."""
    illuminations = [ev for ev in events if isinstance(ev, Illumination)]
    pairs = [ev.pairs for ev in illuminations]
    for ev in illuminations:
        ev.pairs = []
    events = pack_rotations(events, n)
    for ev, kept in zip(illuminations, pairs):
        ev.pairs = kept
    return events


def test_packing_past_an_illumination_fails_the_dependency_check():
    circ = Circuit(3, [u3(0, 1, 0, 0), cz(0, 1), u3(1, 2, 0, 0), cz(1, 2)])
    violations, _ = _packing_violations(_illumination_blind_packing, circ)
    assert "dependency" in {v.code for v in violations}


# SWAP 0 trades qubits 2 and 1 (atoms 2 and 1) for CZ(1, 3). Its first
# step follows CZ(0, 1) on atom 1, and after its last step qubit 1 runs
# CZ(1, 3) on atom 2, with U3 layers before and after each.
_SWAP_BETWEEN_CZS = Circuit(4, [u3(2, 1, 0, 0), cz(0, 1), cz(2, 3), cz(1, 3),
                                u3(3, 1, 0, 0), cz(0, 3)])
# SWAP 0 above is decompose_swap(2, 1): qubit 2 rides wire a (atom 2) and
# qubit 1 wire b (atom 1). Wire a's last step is step 7; step 8, a U3 on
# wire b, is the last. Here, after step 7, qubit 1 runs CZ(1, 3) on atom 2
# before step 8 and a rotation in step 8's layer, listed after it; then
# qubit 2 runs CZ(0, 2) on atom 1, and qubit 0 a rotation after that.
_SWAP_THEN_BOTH = Circuit(4, _SWAP_BETWEEN_CZS.gates + [
    u3(1, 2, 0, 0), cz(0, 2), u3(0, 1, 0, 0)])
_SWAP_LAST_STEP = 8


def _swap_step(events, sid, step):
    """The U3 layer that runs step `step` of SWAP `sid`, and its entry."""
    return next((ev, g) for ev in events if isinstance(ev, U3LayerEvent)
                for g in ev.gates if g.origin == (sid, step))


def _pairs_atom(ev, atom):
    return isinstance(ev, Illumination) and any(atom in p.atoms
                                                for p in ev.pairs)


def _late_last_step_packing(events, n):
    """Packs rotations, then defers SWAP 0's last step past the next
    illumination on its atom, into the U3 layer after it."""
    events = pack_rotations(events, n)
    layer, g = _swap_step(events, 0, _SWAP_LAST_STEP)
    i = events.index(layer)
    j = next(j for j in range(i, len(events)) if _pairs_atom(events[j], g.atom))
    later = next(ev for ev in events[j:] if isinstance(ev, U3LayerEvent))
    layer.gates.remove(g)
    later.gates.insert(0, g)
    return events


def _hoisted_swap_packing(events, n):
    """Packs rotations, then hoists SWAP 0's first step above the last
    illumination on its atom, into the U3 layer before it."""
    events = pack_rotations(events, n)
    layer, g = _swap_step(events, 0, 0)
    i = events.index(layer)
    j = next(j for j in reversed(range(i)) if _pairs_atom(events[j], g.atom))
    earlier = next(ev for ev in reversed(events[:j])
                   if isinstance(ev, U3LayerEvent))
    layer.gates.remove(g)
    earlier.gates.append(g)
    return events


def _listed_first(events, n, atom=None):
    """Packs rotations, then lists the native rotation that shares SWAP 0's
    last step's layer and names that step's qubit (qubit b) before the
    step, on `atom` if one is given."""
    events = pack_rotations(events, n)
    layer, g = _swap_step(events, 0, _SWAP_LAST_STEP)
    native = next(r for r in layer.gates if r.origin is None
                  and r.qubit == g.qubit)
    if atom is not None:
        native.atom = atom
    layer.gates.remove(native)
    layer.gates.insert(layer.gates.index(g), native)
    return events


def _packing_violations(pack, circ, technique="pachinqo",
                        grid_kind="large-square", params=None):
    """The validator's violations for `circ` compiled with `pack` in place
    of `pack_rotations`, each other pass as `run()` runs it, and the
    schedule; the same circuit compiled as is validates clean."""
    params = params or PhysParams()
    layout = build_layout(circ.num_qubits, "auto", params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    compiler = Compiler(circ, technique, grid, layout, params)
    events = compose(pack(compiler.emit(), circ.num_qubits))
    events = hold_columns(events, layout, params, False, compiler.one_cache)
    broken = compiler.schedule(retime(events, params, False))
    honest = Compiler(circ, technique, grid, layout, params).run()
    assert validate_schedule(honest, layout, grid, params, circ) == []
    return validate_schedule(broken, layout, grid, params, circ), broken


def test_qubit_a_running_a_gate_between_swap_steps_7_and_8_fails():
    """Qubit a stays locked until step 8 runs on wire b's atom, its new
    atom: the CZ that step 8 was deferred past runs it before then."""
    violations, _ = _packing_violations(_late_last_step_packing, _SWAP_THEN_BOTH,
                                        params=_FULL_COLUMN)
    assert "locked qubit in native cz (0, 2)" in [v.description for v in violations]


def test_qubit_b_running_a_gate_on_its_old_atom_after_swap_step_7_fails():
    """Step 7 exchanges the mapping, so qubit b's rotation listed before
    step 8 on its old atom, wire b's, runs on an atom that no longer holds
    it."""
    violations, _ = _packing_violations(
        functools.partial(_listed_first, atom=1), _SWAP_THEN_BOTH,
        params=_FULL_COLUMN)
    assert ("dependency", "u3 on qubit 1 used atom 1, mapped atom is 2") in [
        (v.code, v.description) for v in violations]


def test_qubit_b_runs_before_its_swaps_last_step():
    """After step 7, wire a's atom holds qubit b's final state and qubit b
    unlocks. Compiled, its CZ(1, 3) runs before step 8, which the packing
    no longer closes before the next illumination on wire a's atom; its
    rotation listed before step 8 is legal too. Both schedules validate
    clean and match the oracle."""
    sched, layout, grid, params = _compile(_SWAP_THEN_BOTH, params=_FULL_COLUMN)
    layer, g = _swap_step(sched.events, 0, _SWAP_LAST_STEP)
    first_cz = next(i for i, ev in enumerate(sched.events)
                    if isinstance(ev, Illumination)
                    and any(p.qubits == (1, 3) for p in ev.pairs))
    assert g.qubit == 1 and first_cz < sched.events.index(layer)
    assert validate_schedule(sched, layout, grid, params, _SWAP_THEN_BOTH) == []
    assert equivalence_check(sched, _SWAP_THEN_BOTH)[0]
    violations, listed = _packing_violations(_listed_first, _SWAP_THEN_BOTH,
                                             params=_FULL_COLUMN)
    assert violations == []
    assert equivalence_check(listed, _SWAP_THEN_BOTH)[0]


def test_hoisting_a_swaps_first_step_above_its_atom_fails():
    """A SWAP locks its first step's qubit, so the CZ that step was hoisted
    above runs a locked qubit."""
    violations, _ = _packing_violations(_hoisted_swap_packing, _SWAP_BETWEEN_CZS,
                                        params=_FULL_COLUMN)
    assert "dependency" in {v.code for v in violations}


def test_direction_toggles_between_cz_layers():
    # Two dependent CZ layers: the second plans from the opposite cache.
    # Each layer's relocation is fused into its placement phase, so read
    # the side each layer starts from.
    sides = []

    class Sides(Compiler):
        def _cz_layer(self):
            sides.append(self.direction)
            return super()._cz_layer()

    circ = Circuit(3, [cz(0, 1), cz(1, 2)])
    params = PhysParams()
    layout = build_layout(3, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = Sides(circ, "pachinqo", grid, layout, params).run()
    assert validate_schedule(sched, layout, grid, params, circ) == []
    illums = [e for e in sched.events if isinstance(e, Illumination)]
    assert len(illums) == 2
    assert sides == [RIGHT, LEFT]
    # The relocation is planned, not travelled: no column stops in a
    # cache between the two illuminations.
    first, second = illums
    between = [e for e in sched.events
               if isinstance(e, ColumnMove)
               and first.t_end <= e.t_start < second.t_start]
    assert between
    caches = (layout.left_cache, layout.right_cache)
    assert not any(c.contains(e.to_x, ty) for e in between
                   for _, _, ty in e.atoms for c in caches)


def test_parallel_czs_share_one_illumination():
    # Five disjoint CZs put five qubits in the AOD, so two columns form;
    # both place in the first layer and fire in a single illumination.
    circ = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)])
    sched, _, _, _ = _compile(circ)
    illums = [e for e in sched.events if isinstance(e, Illumination)]
    assert len(illums[0].pairs) == 2


def test_same_column_czs_serialize():
    # Both mobile operands share one column, so the pairs cannot fire
    # together: one placement per column per layer.
    circ = Circuit(4, [cz(0, 1), cz(2, 3)])
    sched, _, _, _ = _compile(circ)
    illums = [e for e in sched.events if isinstance(e, Illumination)]
    assert len(illums) == 2
    assert all(len(e.pairs) == 1 for e in illums)


def _chain(*qubits):
    """CZs joining consecutive `qubits`. A mobile qubit that leaves a
    chained column splits at least one CZ of the chain, and a circuit
    with one CZ across columns can join at most that one, so packing
    leaves the columns as they were."""
    return [cz(a, b) for a, b in zip(qubits, qubits[1:])]


# The twelve CZs that load `_three_column_compiler`'s columns, then chains
# that bind columns 0 and 1, so packing keeps each circuit's later CZ of
# a column 0 atom and a column 1 atom between the two columns. A test
# marks all of them done before the layer it checks.
_BOUND_LOAD = ([cz(2 * i, 2 * i + 1) for i in range(12)]
               + _chain(0, 2, 4, 6) + _chain(8, 10, 12, 14))


def test_mobile_mobile_conflict_inserts_one_swap():
    # Mobile 0-8 fill columns [0-3], [4-7], [8]; 9 is static. CZ(0, 8)
    # joins two columns that are not adjacent, so no AOD pair can form.
    # The chain 0-1-2-3 binds column 0: moving 8 into it would split a
    # CZ of the chain, so packing keeps the grouping order.
    circ = Circuit(10, [cz(i, 9) for i in range(9)] + [cz(0, 8)]
                   + _chain(0, 1, 2, 3))
    params = PhysParams()
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    assert compiler.placement.grouping.aod_qubits == list(range(9))
    sched = compiler.run()
    assert sched.swap_count == 1
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, err = equivalence_check(sched, circ)
    assert ok, err


# Mobile 0 and 2, static 1 and 3: CZ(1, 3) joins two static qubits. In
# columns of two, the one column is full, so the load plan moves neither
# 1 nor 3 into it, and the CZ needs a SWAP. (In columns of four, 1 fills
# a free slot and no SWAP is needed.)
_STATIC_PAIR = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
_FULL_COLUMN = PhysParams(max_atoms_per_column=2)


def test_swap_updates_final_mapping():
    sched, _, _, _ = _compile(_STATIC_PAIR, params=_FULL_COLUMN)
    assert sched.final_mapping != {q: q for q in range(4)}


def test_static_static_conflict_resolved():
    circ = _STATIC_PAIR
    sched, layout, grid, params = _compile(circ, params=_FULL_COLUMN)
    assert sched.swap_count == 1
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, err = equivalence_check(sched, circ)
    assert ok, err


def test_frequent_partners_packed_into_one_column_need_no_swap():
    """Grouping order puts mobile 0 and 8 two columns apart, and they
    share three CZs. Packing moves 8 into 0's column, so each CZ runs as
    a vertical AOD pair."""
    circ = Circuit(10, [cz(i, 9) for i in range(9)] + [cz(0, 8)] * 3)
    params = PhysParams()
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    assert compiler.placement.grouping.aod_qubits[:4] == [0, 8, 2, 3]
    sched = compiler.run()
    assert sched.swap_count == 0
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, err = equivalence_check(sched, circ)
    assert ok, err


def _pair_of(sched, qubits):
    """The one illumination entry that runs the CZ on `qubits`."""
    (entry,) = [p for e in sched.events if isinstance(e, Illumination)
                for p in e.pairs if p.qubits == qubits]
    return entry


def _free_clear_site(compiler, xy):
    """Whether `xy` is a clear site that no static atom was loaded into."""
    site = compiler.grid.sites.index(xy)
    return (site in compiler.clear_sites
            and site not in compiler.placement.site_of_qubit.values())


def test_same_column_conflict_runs_as_a_vertical_aod_pair():
    """Mobile 0 and 2 share the one AOD column. Their CZ runs with no
    SWAP: the lower atom stands on a free clear site, the other
    INTERACTION_OFFSET above it."""
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(0, 2)])
    params = PhysParams()
    layout = build_layout(4, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    sched = compiler.run()
    assert compiler.placement.grouping.aod_qubits == [0, 2]
    assert sched.swap_count == 0
    low, high = sorted(_pair_of(sched, (0, 2)).positions, key=lambda xy: xy[1])
    assert _free_clear_site(compiler, low)
    assert high == (low[0], low[1] + INTERACTION_OFFSET)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, err = equivalence_check(sched, circ)
    assert ok, err


def test_adjacent_columns_conflict_runs_as_a_horizontal_aod_pair():
    """Mobile 6 ends column 0 and mobile 8 is column 1. Their CZ runs with
    no SWAP, side by side over a free clear site, 6 (the lower cid's) on
    the site and 8 INTERACTION_OFFSET right of it. The chain 0-2-4-6
    binds column 0, so packing does not move 8 into it."""
    circ = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)] + [cz(6, 8)]
                   + _chain(0, 2, 4, 6))
    params = PhysParams()
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    sched = compiler.run()
    assert compiler.placement.grouping.aod_qubits == [0, 2, 4, 6, 8]
    assert sched.swap_count == 0
    (x6, y6), (x8, y8) = _pair_of(sched, (6, 8)).positions
    assert _free_clear_site(compiler, (x6, y6))
    assert (x8, y8) == (x6 + INTERACTION_OFFSET, y6)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, err = equivalence_check(sched, circ)
    assert ok, err


@pytest.mark.parametrize("partner, pairs", [(23, True), (1, False)])
def test_aod_pair_leaves_later_columns_their_placements(partner, pairs):
    """In one right-side layer, CZ(6, 8) joins columns 0 and 1, and
    column 2's atom 16 waits for static `partner`. Static 23 stands at
    the first site row's right end, so the pair forms. Static 1 stands at
    its left end, x = 100: every free site would put the pair at or past
    16's placement x, 101.5, so the pair is declined and a SWAP begins,
    as it did before AOD pairs."""
    circ = Circuit(24, _BOUND_LOAD + [cz(6, 8), cz(16, partner)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    assert compiler.atom_x[partner] == (265.0 if pairs else 100.0)
    assert compiler.direction == RIGHT
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    assert ((6, 8) in [p.qubits for p in illum.pairs]) == pairs
    assert compiler.swap_count == (0 if pairs else 1)


def test_same_column_pair_kept_from_every_site_by_a_later_column_waits():
    """Mobile 0 and 2 share a column. While a later column wants the x of
    the first site column, every pair site lies at or past it, so the
    column stays idle for the next layer's reverse order instead of
    beginning a SWAP; with no later column the pair forms."""
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(0, 2)])
    compiler = _loaded(circ, 2)
    (col,) = compiler.columns
    compiler._relocate_all(RIGHT)
    first_x = min(compiler.grid.sites[s][0] for s in compiler.clear_sites)
    plan = compiler.plan = compiler._plan_layer()
    assert plan.order == [col] and plan.placements == {}
    plan.later = {col.cid: (first_x, 1)}
    assert compiler._find_action(col, None, None) is False
    assert compiler.swap_count == 0 and plan.staged == []
    assert col.cid not in plan.standing
    plan.later = {col.cid: (math.inf, 0)}
    assert compiler._find_action(col, None, None) is True
    assert col.cid in plan.standing
    assert [p.qubits for p in plan.staged] == [(0, 2)]


@pytest.mark.parametrize("by_row", [True, False])
def test_conflict_with_the_column_just_before_joins_it_or_waits(by_row):
    """In a right-side layer, column 0 places CZ(0, 1), INTERACTION_OFFSET
    right of static 1 at x = 100, and its atom 6 waits for CZ(6, 8) with
    column 1's atom 8. Column 0 stands in compute, so column 1 joins it:
    8 stands INTERACTION_OFFSET right of 6, and both pairs fire in the
    first illumination with no SWAP. With statics 1 to 15 filling the
    site column at x = 100 (`by_row` false), every row at the join x lies
    within the crosstalk radius of one, so column 1 stays idle rather
    than begin a SWAP; the next layer runs the columns right to left,
    and CZ(6, 8) runs as a horizontal pair then."""
    circ = Circuit(24, _BOUND_LOAD + [cz(0, 1), cz(6, 8)])
    compiler = _three_column_compiler(circ, by_row=by_row)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    assert compiler.direction == RIGHT
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    pairs = {p.qubits: p.positions for p in illum.pairs}
    assert compiler.swap_count == 0
    assert compiler.direction == LEFT
    if by_row:
        assert list(pairs) == [(0, 1), (6, 8)]
        (x0, _), _ = pairs[0, 1]
        (x6, y6), (x8, y8) = pairs[6, 8]
        assert x6 == x0 == 100.0 + INTERACTION_OFFSET
        assert (x8, y8) == (x6 + INTERACTION_OFFSET, y6)
        assert compiler.frontier.done()
        return
    assert list(pairs) == [(0, 1)]
    compiler._cz_layer()
    illum = [e for e in compiler.events if isinstance(e, Illumination)][-1]
    assert [p.qubits for p in illum.pairs] == [(6, 8)]
    (x6, y6), (x8, y8) = illum.pairs[0].positions
    assert (x8, y8) == (x6 + INTERACTION_OFFSET, y6)
    assert compiler.swap_count == 0
    assert compiler.frontier.done()


def test_left_side_layer_joins_the_column_just_before_on_its_left():
    """In a left-side layer the columns run right to left. Column 2 places
    CZ(16, 23) INTERACTION_OFFSET right of static 23 at x = 265, the side
    nearer the right cache where the layer found it; column 1's atom 14
    waits for
    CZ(14, 22) with column 2's atom 22, so column 1 joins column 2 from
    the left, and 14 and 22 stand side by side, clear of the placed pair,
    in the same illumination."""
    circ = Circuit(24, _BOUND_LOAD + [cz(16, 23), cz(14, 22)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    compiler.direction = LEFT
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    pairs = {p.qubits: p.positions for p in illum.pairs}
    assert list(pairs) == [(16, 23), (14, 22)]
    (x16, y16), _ = pairs[16, 23]
    (x14, y14), (x22, y22) = pairs[14, 22]
    assert x22 == x16 == 265.0 + INTERACTION_OFFSET
    assert (x14, y14) == (x22 - INTERACTION_OFFSET, y22)
    assert abs(y22 - y16) >= compiler.params.crosstalk_radius
    assert compiler.swap_count == 0


def test_two_horizontal_pairs_of_two_columns_fire_in_one_illumination():
    """Columns 0 and 1 run CZ(6, 8) as a horizontal pair, and then CZ(4,
    10), between the same two columns, stands side by side at another row,
    at least the crosstalk radius from the first pair: both fire in one
    illumination."""
    circ = Circuit(24, _BOUND_LOAD + [cz(6, 8), cz(4, 10)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    pairs = {p.qubits: p.positions for p in illum.pairs}
    assert list(pairs) == [(6, 8), (4, 10)]
    (x6, y6), (x8, _) = pairs[6, 8]
    (x4, y4), (x10, y10) = pairs[4, 10]
    assert (x4, x10) == (x6, x8) == (x6, x6 + INTERACTION_OFFSET)
    assert y10 == y4 and abs(y4 - y6) >= compiler.params.crosstalk_radius
    assert compiler.swap_count == 0 and compiler.frontier.done()


def test_vertical_pair_fills_in_a_column_that_placed():
    """Column 0 places CZ(0, 1) INTERACTION_OFFSET right of static 1, and
    CZ(2, 4), within the column, then stands one atom above the other at
    the same x, at the nearest row clear of the placed pair: both fire in
    one illumination."""
    circ = Circuit(24, _BOUND_LOAD + [cz(0, 1), cz(2, 4)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    pairs = {p.qubits: p.positions for p in illum.pairs}
    assert list(pairs) == [(0, 1), (2, 4)]
    (x0, y0), _ = pairs[0, 1]
    assert pairs[2, 4] == ((x0, y0 + 15.0), (x0, y0 + 15.0 + INTERACTION_OFFSET))
    assert compiler.swap_count == 0 and compiler.frontier.done()


@pytest.mark.parametrize("technique", ["pachinqo", "trapchange"])
def test_no_fill_in_a_layer_whose_trap_change_fired(technique):
    """A left-side layer runs the columns right to left. Column 2 places
    CZ(16, 23), and CZ(18, 20) within it could fill; column 0, last, finds
    CZ(6, 22) across two columns. Pachinqo begins a SWAP for it, and the
    fill runs CZ(18, 20) in the same illumination. Trapchange deposits 6
    into a free site instead, and a layer with a trap change stages no
    further pair: CZ(18, 20) waits."""
    circ = Circuit(24, _BOUND_LOAD + [cz(16, 23), cz(18, 20), cz(6, 22)])
    compiler = _three_column_compiler(circ, technique)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    loaded = compiler.trap_change_count
    compiler.direction = LEFT
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    filled = technique == "pachinqo"
    assert [p.qubits for p in illum.pairs] == [(16, 23)] + [(18, 20)] * filled
    assert compiler.trap_change_count == loaded + (not filled)
    assert compiler.swap_count == filled


@pytest.mark.parametrize("partner", [12, 0])
def test_conflict_with_the_previous_column_waits_even_if_it_did_not_place(
        partner):
    """In a right-side layer, column 0 places CZ(6, 23) at x = 265, and
    column 1's CZ(10, 1) at x = 100 cannot follow it in the chain, so
    column 1 waits and places nothing. Column 2's atom 16 waits for
    CZ(16, partner). With partner 12 in column 1, the column just before,
    column 2 stays idle and begins no SWAP; the next layer runs the
    columns right to left, and CZ(16, 12) runs as a horizontal pair. With
    partner 0 in column 0, two columns away, a SWAP begins."""
    circ = Circuit(24, _BOUND_LOAD + [cz(6, 23), cz(10, 1), cz(16, partner)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    assert compiler.direction == RIGHT
    assert list(compiler._plan_layer().placements) == [0]
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    assert [p.qubits for p in illum.pairs] == [(6, 23)]
    assert compiler.swap_count == (partner == 0)
    if partner == 12:
        compiler._cz_layer()
        illum = [e for e in compiler.events if isinstance(e, Illumination)][-1]
        assert [p.qubits for p in illum.pairs] == [(16, 12)]
        assert compiler.swap_count == 0


def test_layer_plan_places_both_columns_where_greedy_blocks_the_second():
    """Column 0's highest atom 6 waits for static 23 at x = 265 and its
    atom 0 for static 1 at x = 100; column 1's atom 8 waits for static 5
    at x = 130. Taking 6's CZ first, as a per-column greedy does, leaves
    column 1 no x right of column 0. The layer plan takes CZ(0, 1)
    instead, and both columns place in one illumination."""
    circ = Circuit(24, _BOUND_LOAD + [cz(6, 23), cz(0, 1), cz(8, 5)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    assert compiler.atom_x[23] == 265.0 and compiler.atom_x[1] == 100.0
    plan = compiler._plan_layer()
    assert {cid: atom for cid, (_, atom, _, _) in plan.placements.items()} == {
        0: 0, 1: 8}
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    assert sorted(p.qubits for p in illum.pairs) == [(0, 1), (8, 5)]


def test_two_columns_place_on_both_sides_of_one_site_column():
    """The load seats static 1 and 3 in one site column. Once the loads
    have run, column 0's CZ(2, 3) places INTERACTION_OFFSET left of it and
    column 1's CZ(8, 1) as far right, both in one illumination with column
    2's CZ(18, 19), and the schedule validates."""
    circ = Circuit(26, [cz(2 * i, 2 * i + 1) for i in range(13)] + [cz(8, 1)])
    params = PhysParams()
    layout = build_layout(26, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    sched = compiler.run()
    assert validate_schedule(sched, layout, grid, params, circ) == []
    (x1, y1), (x3, y3), (x19, y19) = (
        grid.sites[compiler.placement.site_of_qubit[q]] for q in (1, 3, 19))
    assert x1 == x3
    (illum,) = [e for e in sched.events if isinstance(e, Illumination)
                and (8, 1) in [p.qubits for p in e.pairs]]
    assert {p.qubits: p.positions for p in illum.pairs} == {
        (2, 3): ((x3 - INTERACTION_OFFSET, y3), (x3, y3)),
        (8, 1): ((x1 + INTERACTION_OFFSET, y1), (x1, y1)),
        (18, 19): ((x19 - INTERACTION_OFFSET, y19), (x19, y19)),
    }


def test_left_side_placement_refused_next_to_an_occupied_site():
    """On small-square (10 um pitch) a placement at partner x - 1.5 stands
    8.5 um from the site 10 um left of the partner, inside the crosstalk
    radius. With static 1 moved onto that site, the clearance check
    refuses the left side for CZ(2, 3); the right side, 11.5 um from it,
    passes."""
    params = PhysParams()
    circ = Circuit(4, [cz(0, 1), cz(2, 3)])
    layout = build_layout(4, "auto", params, "small-square")
    grid = generate_grid("small-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    compiler._apply_initialization()
    (col,) = compiler.columns
    px, py = compiler.atom_x[3], compiler.atom_y[3]
    compiler.atom_site[1] = grid.sites.index((px - 10.0, py))
    compiler.atom_x[1], compiler.atom_y[1] = px - 10.0, py
    compiler.plan = compiler._plan_layer()
    assert not compiler._try_place(col, 3, px - INTERACTION_OFFSET)
    assert compiler._try_place(col, 3, px + INTERACTION_OFFSET)


def _loaded(circ, executed):
    """A pachinqo compiler with its atoms loaded and the first `executed`
    gates of `circ` marked done, ready for a SWAP choice. Greedy MaxCut
    sends the first operand of each fresh CZ mobile, the second static."""
    params = PhysParams()
    layout = build_layout(circ.num_qubits, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    compiler._apply_initialization()
    for g in circ.gates[:executed]:
        compiler.frontier.advance(g)
    return compiler


def test_swap_choice_moves_the_other_operand_to_avoid_a_second_swap():
    # Mobile 0, 2, 4; static 1, 3, 5. Moving 0 for CZ(0, 2) would leave
    # the next CZ(0, 1) static-static; moving 2 leaves it split.
    circ = Circuit(6, [cz(0, 1), cz(2, 3), cz(4, 5), cz(0, 2), cz(0, 1)])
    compiler = _loaded(circ, 3)
    mobile, static = compiler._choose_swap(0, 2, forced=False)
    assert compiler.qubit_of[mobile] == 2
    assert compiler.qubit_of[static] in (3, 5)


def test_swap_choice_scores_in_flight_swaps_on_their_destination_side():
    # 4 (mobile) and 5 (static) are mid-SWAP, so 4 counts as static: the
    # window CZ(0, 4) is split now, and moving 0 would join it to 4.
    circ = Circuit(6, [cz(0, 1), cz(2, 3), cz(4, 5), cz(0, 2), cz(0, 4)])
    compiler = _loaded(circ, 3)
    compiler._begin_swap(compiler.atom_of[4], compiler.atom_of[5])
    places = compiler._places()
    assert places[4] is None and places[5] is not None
    mobile, static = compiler._choose_swap(0, 2, forced=False)
    assert compiler.qubit_of[mobile] == 2
    assert compiler.qubit_of[static] in (1, 3)


def test_swap_choice_skips_partners_with_a_split_next_cz_outside_the_guard():
    # 1's next CZ(0, 1) and 3's next CZ(2, 3) are split now. Taking 1 for
    # 0 would cost nothing, yet only the finished 5 is a candidate.
    circ = Circuit(6, [cz(0, 1), cz(2, 3), cz(4, 5), cz(0, 2), cz(0, 1),
                       cz(2, 3)])
    compiler = _loaded(circ, 3)
    mobile, static = compiler._choose_swap(0, 2, forced=False)
    assert compiler.qubit_of[static] == 5
    # With no other static qubit, only the progress guard may take one.
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(0, 2), cz(0, 1), cz(2, 3)])
    compiler = _loaded(circ, 2)
    assert compiler._choose_swap(0, 2, forced=False) is None
    mobile, static = compiler._choose_swap(0, 2, forced=True)
    assert (compiler.qubit_of[mobile], compiler.qubit_of[static]) == (0, 1)


def test_swap_choice_and_load_fill_share_one_rule(monkeypatch):
    """`_choose_swap` scores CZs with the one function the load's fill
    uses (`placement.needs_swap`), and at load time the compiler's places
    (`_places`) are the fill's: none for a static qubit, the column index
    for a mobile one. So both give every CZ the same verdict. The rule
    `pack_columns` counts by, any two columns apart, gives another verdict
    on some of these CZs, so the comparison is not vacuous."""
    assert scheduler.needs_swap is placement.needs_swap
    calls = []

    def spy(u, v):
        calls.append((u, v))
        return placement.needs_swap(u, v)

    differs = 0
    for seed in range(3):
        circ = random_circuit(random.Random(seed), 40, 300)
        compiler = _loaded(circ, 0)
        places = compiler._places()
        k = compiler.params.max_atoms_per_column
        grouping = compiler.placement.grouping
        fill = {q: None for q in grouping.slm_qubits}
        fill.update((q, i // k) for i, q in enumerate(grouping.aod_qubits))
        for a, b in circ.cz_pairs():
            verdict = placement.needs_swap(places[a], places[b])
            assert verdict == placement.needs_swap(fill[a], fill[b])
            if None not in (places[a], places[b]):
                differs += verdict != (places[a] != places[b])
        a, b = next(g.qubits for g in circ.gates if g.kind == "cz")
        with monkeypatch.context() as m:
            m.setattr(scheduler, "needs_swap", spy)
            compiler._choose_swap(a, b, forced=True)
        assert calls
        calls.clear()
    assert differs


def _window_cz_compiler():
    """Three loaded columns; static 1 and 3 conflict, and 1's next CZ is
    with mobile 20 in column 2."""
    circ = Circuit(24, [cz(2 * i, 2 * i + 1) for i in range(12)]
                   + [cz(1, 3), cz(1, 20)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:12]:
        compiler.frontier.advance(g)
    return compiler


def test_swap_choice_keeps_a_window_cz_inside_one_column():
    """Static 1 and 3 conflict, and 1's next CZ is with mobile 20 in
    column 2. Sending 1 into column 1 leaves CZ(1, 20) a side-by-side AOD
    pair across neighbouring columns, which costs nothing. Column 0 is
    nearer 1, but two columns from 20's it would split the CZ; counted
    by static and mobile sides alone, every column would cost the same,
    and moving 3 would win."""
    compiler = _window_cz_compiler()
    mobile, static = compiler._choose_swap(1, 3, forced=False)
    assert compiler.qubit_of[static] == 1
    assert mobile in compiler.columns[1].atoms


def test_swap_choice_ranks_columns_among_live_ones():
    """As above, but column 1 has deposited every atom into a site. Column
    0 is then the live column next to 20's, so sending 1 into it keeps
    CZ(1, 20) runnable, and the nearer column wins."""
    compiler = _window_cz_compiler()
    emptied = compiler.columns[1]
    occupied = set(compiler.placement.site_of_qubit.values())
    free = [s for s in compiler.clear_sites if s not in occupied]
    for atom, site in zip(list(emptied.atoms), free):
        compiler._trapchange_action(emptied, atom, site)
    assert emptied.atoms == []
    assert emptied not in compiler.columns
    assert compiler._places()[20] == 1
    mobile, static = compiler._choose_swap(1, 3, forced=False)
    assert compiler.qubit_of[static] == 1
    assert mobile in compiler.columns[0].atoms


def test_swap_choice_converges_where_an_unguarded_lookahead_livelocks():
    # A lookahead choice without the split-next-CZ rule was seen to swap
    # qubits 112 and 169 back and forth here until the round budget
    # raised SchedulerError.
    circ = random_circuit(random.Random(1), 200, 2000)
    sched, _, _, _ = _compile(circ)
    assert sched.swap_count <= circ.count("cz")


def _head_compiler(gates):
    """`_three_column_compiler` on `_BOUND_LOAD` + `gates`, with the load's
    gates done."""
    circ = Circuit(24, _BOUND_LOAD + gates)
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    return compiler


def test_head_static_pair_swaps_after_one_layer_while_a_column_places():
    """Static 1 and 3 head the circuit with CZ(1, 3); column 2 places
    CZ(16, 17), CZ(18, 19) and CZ(20, 21), one a layer, so no round is
    empty and the progress guard never runs. The first layer begins no
    SWAP. The second begins, before it plans, the SWAP the guard would
    force for CZ(1, 3), and column 2 still places."""
    compiler = _head_compiler([cz(1, 3), cz(16, 17), cz(18, 19), cz(20, 21)])
    head = len(_BOUND_LOAD)
    assert compiler.frontier.first_pending() == head
    assert compiler._cz_layer() == 1
    assert compiler.swap_count == 0
    mobile, static = compiler._choose_swap(1, 3, forced=True)
    assert compiler.frontier.first_pending() == head
    assert compiler._cz_layer() == 2
    assert compiler.swap_count == 1
    assert compiler.frontier.swap_qubits(0) == (compiler.qubit_of[mobile],
                                                compiler.qubit_of[static])
    illum = [e for e in compiler.events if isinstance(e, Illumination)]
    assert [len(e.pairs) for e in illum] == [1, 1]
    assert all(e.pairs[0].qubits[0] in (16, 18, 20) for e in illum)


def test_executable_static_pair_behind_the_head_begins_no_swap():
    """CZ(16, 17) heads the circuit, but an in-flight SWAP holds 16 and 17
    at its first rotation. Static 1 and 3 can run CZ(1, 3), which is not
    the first unexecuted gate: no layer begins a SWAP for it."""
    compiler = _head_compiler([cz(16, 17), cz(1, 3)])
    compiler._begin_swap(16, 17)
    for _ in range(3):
        compiler._cz_layer()
        assert compiler.frontier.first_pending() == len(_BOUND_LOAD)
        assert compiler.frontier.executable_cz(1, 3)
    assert compiler.frontier.swap_ids() == [0]


def test_head_static_pair_made_mobile_by_a_layer_swap_is_not_forced():
    """CZ(1, 3) heads the circuit. In the first layer column 0's atom 0
    conflicts with column 2's atom 16, and the lookahead SWAP trades 0
    for static 1 or 3, which resolves both CZs. From then on CZ(1, 3) is
    locked or runs as a placement, so the circuit completes with that one
    SWAP, none forced."""
    compiler = _head_compiler([cz(1, 3), cz(0, 16)])
    compiler._cz_layer()
    assert compiler.frontier.swap_qubits(0) in ((0, 1), (0, 3))
    for _ in range(40):
        if compiler.frontier.done():
            break
        compiler._u3_rounds()
        if not compiler.frontier.done():
            compiler._cz_layer()
    assert compiler.frontier.done()
    assert compiler.swap_count == 1


# Pachinqo's total SWAPs and illuminations over the broad set when
# the bounds were last recorded. A change to SWAP insertion or to layer
# planning may lower them; one that raises either fails here.
BROAD_SET_SWAPS = 290
BROAD_SET_ILLUMINATIONS = 2396


def test_broad_set_swap_total_stays_within_its_record(broad_set_schedules):
    """The broad set (`corpus.broad_set`: 25 random circuits of 10-40
    qubits on the four grids), compiled without validation; its SWAPs
    and illuminations are counted."""
    swaps = sum(sched.swap_count for sched in broad_set_schedules)
    illuminations = sum(isinstance(ev, Illumination)
                        for sched in broad_set_schedules for ev in sched.events)
    assert swaps <= BROAD_SET_SWAPS
    assert illuminations <= BROAD_SET_ILLUMINATIONS


# Pachinqo's totals over the scale set when the records were last
# set. A change to SWAP insertion, layer planning or packing may lower
# them; one that raises any fails here. The set is validated in CI, not
# here, to keep this suite's time.
SCALE_SET_SWAPS = 1140
SCALE_SET_ILLUMINATIONS = 4367
SCALE_SET_RUNTIME_US = 27917.4
SCALE_SET_NEG_LOG10_ESP = 53.353


def test_scale_set_totals_stay_within_their_records(scale_set_schedules,
                                                    params):
    """The scale set (`corpus.scale_set`: 12 random circuits of 60-150
    qubits on large-square), compiled without validation, so that gains
    at 10-40 qubits cannot hide losses at scale."""
    swaps = sum(sched.swap_count for sched in scale_set_schedules)
    illuminations = sum(isinstance(ev, Illumination)
                        for sched in scale_set_schedules for ev in sched.events)
    runtime = sum(sched.end_time for sched in scale_set_schedules)
    neg_log10_esp = -sum(math.log10(esp(sched, params))
                         for sched in scale_set_schedules)
    assert swaps <= SCALE_SET_SWAPS
    assert illuminations <= SCALE_SET_ILLUMINATIONS
    assert runtime <= SCALE_SET_RUNTIME_US
    assert neg_log10_esp <= SCALE_SET_NEG_LOG10_ESP


def test_preemptive_swap_packs_independent_rotations():
    # A swap's components in one layer touch distinct qubits and run in
    # template order; the rotations of steps 2-3 and 5-6 share a layer.
    circ = _STATIC_PAIR
    sched, layout, grid, params = _compile(circ, params=_FULL_COLUMN)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    steps_by_layer: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ev in sched.events:
        if isinstance(ev, U3LayerEvent):
            parts = [(g.origin, (g.qubit,)) for g in ev.gates if g.origin]
        elif isinstance(ev, Illumination):
            parts = [(p.origin, p.qubits) for p in ev.pairs if p.origin]
        else:
            continue
        for (sid, step), qubits in parts:
            steps_by_layer.setdefault((sid, ev.layer), []).append(
                (step, qubits))
    assert sched.swap_count == 1
    layers = list(steps_by_layer.values())
    for comps in layers:
        steps = [step for step, _ in comps]
        assert steps == sorted(steps)
        qubits = [q for _, qs in comps for q in qs]
        assert len(qubits) == len(set(qubits))
    steps = [[step for step, _ in comps] for comps in layers]
    assert steps == [[0], [1], [2, 3], [4], [5, 6], [7], [8]]


def test_zero_swaps_on_staircases():
    for n in (4, 8, 16, 32):
        sched, _, _, _ = _compile(staircase(n))
        assert sched.swap_count == 0, f"chain n={n}"


def test_every_gate_executes_exactly_once():
    circ = random_circuit(random.Random(0), 8, 80)
    sched, _, _, _ = _compile(circ)
    native_u3 = sum(
        1 for e in sched.events if isinstance(e, U3LayerEvent)
        for g in e.gates if g.origin is None)
    native_cz = sum(
        1 for e in sched.events if isinstance(e, Illumination)
        for p in e.pairs if p.origin is None)
    assert native_u3 == circ.count("u3")
    assert native_cz == circ.count("cz")


def test_onecache_restores_home_positions():
    """Every live onecache column stands on its home slot in the right
    cache, where the load left it, whenever a U3 layer runs before the
    epilogue: no move phase merges across a rotation layer."""
    circ = staircase(8, 2)
    sched, layout, grid, params = _compile(circ, technique="onecache")
    assert validate_schedule(sched, layout, grid, params, circ) == []
    epilogue = max(ev.layer for ev in sched.events)
    pos: dict[int, tuple[float, dict[int, float]]] = {}  # column -> x, ys
    live: set[int] = set()  # the columns holding atoms after the load
    homes = None
    u3_layers = 0
    for ev in sched.events:
        if ev.layer == epilogue:
            break
        if ev.layer > 0 and homes is None:
            homes = {c: pos.get(c) for c in live}
        if isinstance(ev, TrapChange):
            live = ({tr.column for tr in ev.transfers}
                    if ev.direction == SLM_TO_AOD else set())
        elif isinstance(ev, ColumnMove):
            pos[ev.column] = ev.to_x, {a: ty for a, _, ty in ev.atoms}
        elif isinstance(ev, U3LayerEvent):
            assert {c: pos.get(c) for c in live} == homes, ev.layer
            u3_layers += 1
    assert homes and u3_layers >= 2
    assert all(layout.right_cache.contains(x, y)
               for x, ys in homes.values() for y in ys.values())


def test_trapchange_resolves_conflict_with_extra_tc():
    # Mobile 0 and 2 share a column; with every pair site crowded, their
    # CZ cannot run as an AOD pair and takes the trap change.
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(0, 2)])
    params = PhysParams()
    layout = build_layout(4, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = _PairlessCompiler(circ, "trapchange", grid, layout, params).run()
    assert sched.swap_count == 0
    assert sched.trap_change_count == 7  # 6 + one mid-circuit deposit
    mid = [e for e in sched.events
           if isinstance(e, TrapChange) and 0 < e.layer
           and e.layer < max(ev.layer for ev in sched.events)]
    assert mid
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, err = equivalence_check(sched, circ)
    assert ok, err


def test_trapchange_falls_back_to_swap_when_no_room():
    # Fill the static side completely so no free site exists: use a small
    # custom grid via a 2-site monkeypatched capacity is overkill; instead
    # rely on extraction: conflict among statics with full columns.
    circ = _STATIC_PAIR
    sched, layout, grid, params = _compile(circ, technique="trapchange",
                                           params=_FULL_COLUMN)
    assert sched.swap_count == 1
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, _ = equivalence_check(sched, circ)
    assert ok


def test_trapchange_extracts_static_atom_into_column():
    """With every clear site held (`full_sites_extraction`), the conflict
    inside the two-atom column 24 extracts one static atom into it."""
    circ = full_sites_extraction()
    sched, layout, grid, params = _compile(circ, technique="trapchange")
    last_layer = sched.events[-1].layer
    extractions = [e for e in sched.events
                   if isinstance(e, TrapChange) and e.direction == SLM_TO_AOD
                   and 0 < e.layer < last_layer]
    assert len(extractions) == 1
    assert extractions[0].transfers[0].column == 24
    assert validate_schedule(sched, layout, grid, params, circ) == []


def test_extraction_takes_a_static_on_the_lowest_site_row():
    """`full_sites_extraction` seats static 1 on the lowest site row, at
    (175, 65), and its static partner 3 above it, at (175, 80); both next
    run a CZ with a static, and the scan takes the first site in site
    order. When the extraction is planned, the layer's relocation has
    parked column 24 on the cache rows (65, 67 um), one of them level with
    the lowest site row; the trap change hangs those atoms below compute
    first (`_hung`), so that row is no reason to refuse the site."""
    circ = full_sites_extraction()
    sched, layout, grid, params = _compile(circ, technique="trapchange")
    assert min(y for _, y in grid.sites) == 65.0
    last_layer = sched.events[-1].layer
    pickup = next(e for e in sched.events
                  if isinstance(e, TrapChange) and e.direction == SLM_TO_AOD
                  and 0 < e.layer < last_layer)
    (tr,) = pickup.transfers
    assert (tr.atom, tr.x, tr.y) == (1, 175.0, 65.0)
    assert validate_schedule(sched, layout, grid, params, circ) == []


class _PairlessCompiler(Compiler):
    """Plans each AOD pair with an obstacle on every free clear site, so
    no pair can form."""

    def _crowded(self, plan, *args):
        """`plan(*args)` with stand-in obstacle atoms, numbered past the
        real ones, one on each free clear site."""
        occupied = {site for site, _ in self._static_atoms()}
        free = [self.grid.sites[s] for s in self.clear_sites if s not in occupied]
        real = self.plan.obstacles, self.atom_x, self.atom_y
        n = len(self.atom_x)
        self.plan.obstacles = real[0] + list(range(n, n + len(free)))
        self.atom_x = real[1] + [x for x, _ in free]
        self.atom_y = real[2] + [y for _, y in free]
        try:
            return plan(*args)
        finally:
            self.plan.obstacles, self.atom_x, self.atom_y = real

    def _pair_site(self, *args):
        return self._crowded(super()._pair_site, *args)


class _CrowdedCompiler(_PairlessCompiler):
    """Also plans each mid-circuit trap change crowded, so no deposit is
    possible; records each plan."""

    def __init__(self, *args):
        super().__init__(*args)
        self.plans = []

    def _plan_trapchange(self, col, conflict):
        self.plans.append(self._crowded(super()._plan_trapchange, col, conflict))
        return self.plans[-1]


def test_trapchange_extracts_when_every_free_site_is_crowded():
    """A same-side conflict whose column finds every free clear site
    blocked, for an AOD pair as for a deposit, extracts a static atom
    into the column. Qubits 2i are mobile and 2i+1 static, so after the
    pairs run, CZ(24, 26) conflicts in column 3, and static 25 (right of
    column 2's placement, clear of the parked column's atoms) has a
    static next partner, 27. Their later CZs with mobile 0 and 2, in
    column 0, keep the load from moving either into column 3's free
    slots: each move would trade the static pair's CZ for one across
    columns 0 and 3."""
    params = PhysParams()
    circ = Circuit(28, [cz(2 * i, 2 * i + 1) for i in range(14)]
                   + [cz(24, 26), cz(25, 27), cz(0, 27), cz(2, 25)])
    layout = build_layout(28, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = _CrowdedCompiler(circ, "trapchange", grid, layout, params)
    assert compiler.placement.grouping.slm_qubits == list(range(1, 28, 2))
    sched = compiler.run()
    assert compiler.plans[0] == (25, compiler.placement.site_of_qubit[25])
    last_layer = sched.events[-1].layer
    extractions = [e for e in sched.events
                   if isinstance(e, TrapChange) and e.direction == SLM_TO_AOD
                   and 0 < e.layer < last_layer]
    assert [(t.atom, t.column) for e in extractions for t in e.transfers] == [(25, 3)]
    assert validate_schedule(sched, layout, grid, params, circ) == []


def test_extraction_leaves_no_obstacle_at_the_vacated_site():
    """Obstacles are atom ids read at their current positions, so once an
    extracted atom is carried off its site the site is clear."""
    params = PhysParams()
    circ = Circuit(4, [cz(0, 1), cz(2, 3)])
    layout = build_layout(4, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "trapchange", grid, layout, params)
    compiler._apply_initialization()
    compiler.plan = compiler._plan_layer()
    site, atom = compiler._static_atoms()[0]
    sx, sy = grid.sites[site]
    r2 = params.crosstalk_radius ** 2

    def site_clear():
        return kernels.clear_from(compiler.plan.obstacles, compiler.atom_x,
                                  compiler.atom_y, sx, sy, r2)

    assert not site_clear()
    compiler._trapchange_action(compiler.columns[0], atom, site)
    compiler._relocate_all(RIGHT)
    assert compiler.atom_x[atom] != sx
    assert site_clear()


def test_onecache_compiles_sixty_qubit_circuit():
    circ = random_circuit(random.Random(0), 60, 200)
    sched, layout, grid, params = _compile(circ, technique="onecache")
    assert validate_schedule(sched, layout, grid, params, circ) == []


@pytest.mark.parametrize("grid_kind", GRIDS)
@pytest.mark.parametrize("n, n_gates", [(60, 200), (100, 100)])
def test_onecache_compiles_and_validates_past_fifty_four_qubits(grid_kind, n,
                                                                n_gates):
    """`random_circuit(Random(0), n, n_gates)`, from the sweep k = 0..5,
    n in {60, 70, 80, 100}, g in {100, 200} on the four grids. With static
    qubits seated in site-row order, onecache's progress guard found no
    actionable gate on each of these 8 cases: the columns an isolation
    layer tucks into memory reached past the static atom's site. Seated
    centre-out (`assign_atoms`), they compile and validate."""
    circ = random_circuit(random.Random(0), n, n_gates)
    sched, layout, grid, params = _compile(circ, technique="onecache",
                                           grid_kind=grid_kind)
    assert validate_schedule(sched, layout, grid, params, circ) == []


def test_measurement_epilogue_structure():
    circ = staircase(5)
    sched, _, _, _ = _compile(circ)
    measures = [e for e in sched.events if isinstance(e, Measure)]
    assert 1 <= len(measures) <= 2
    atoms = [a for m in measures for a, _, _, _ in m.atoms]
    assert sorted(atoms) == list(range(5))
    last_layer = sched.events[-1].layer
    epilogue_tcs = [e for e in sched.events
                    if isinstance(e, TrapChange) and e.layer == last_layer]
    assert len(epilogue_tcs) == 3


def test_serial_movement_is_slower():
    circ = staircase(12, 3)
    fast, _, _, params = _compile(circ)
    slow, _, _, _ = _compile(circ, serial=True)
    assert slow.end_time > fast.end_time
    # movement distance itself is unchanged
    assert movement_total(slow) == movement_total(fast)


def test_compile_requires_basis_circuit(params):
    from pachinqo.circuit import Gate

    circ = Circuit(2, [Gate("h", (0,))])
    layout = build_layout(2, "auto", params)
    grid = generate_grid("large-square", layout, params)
    with pytest.raises(ValueError, match="lowered"):
        Compiler(circ, "pachinqo", grid, layout, params)


def test_unknown_technique_rejected(params):
    layout = build_layout(2, "auto", params)
    grid = generate_grid("large-square", layout, params)
    with pytest.raises(ValueError, match="technique"):
        Compiler(Circuit(2, [cz(0, 1)]), "sabre", grid, layout, params)


def test_placement_hangs_the_other_atoms_below_compute():
    """One column of four atoms, one static partner: the placed atom 0
    stands level with its partner, and atoms 2, 3 and 4 hang below
    compute, out of the pulse's reach, in slot order."""
    params = PhysParams()
    circ = Circuit(5, [cz(0, 1), cz(2, 1), cz(3, 1), cz(4, 1)])
    layout = build_layout(5, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    sched = compiler.run()
    assert compiler.placement.columns[0].atoms[0][0] == 0
    illum = next(e for e in sched.events if isinstance(e, Illumination))
    assert illum.pairs[0].qubits == (0, 1)
    (place,) = [e for e in sched.events
                if isinstance(e, ColumnMove) and e.t_end == illum.t_start]
    ys = {a: ty for a, _, ty in place.atoms}
    assert [a for a, _, _ in place.atoms] == [0, 2, 3, 4]
    assert ys[0] == illum.pairs[0].positions[0][1]
    assert [ys[a] for a in (2, 3, 4)] == [hang_y(layout, params, j) for j in range(3)]
    assert all(layout.memory.contains(place.to_x, ys[a]) for a in (2, 3, 4))


def test_retreat_fallback_tucks_beside_blocker():
    """A column blocked from the opposite cache, whose memory spot is not
    legal either, parks at storage pitch from the blocking column and drops
    into memory."""
    from pachinqo.machine import PhysParams
    from pachinqo.scheduler import LEFT

    params = PhysParams()
    circ = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)])
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    compiler._apply_initialization()
    col0, col1 = compiler.columns[0], compiler.columns[1]
    # place column 1 in compute by hand; column 0 now cannot reach the
    # right cache (direction LEFT retreats rightward)
    col1.x = col1.found_x = 105.0
    for a in col1.atoms:
        compiler.atom_x[a] = 105.0
    compiler.direction = LEFT
    compiler.plan = compiler._plan_layer()
    assert compiler.plan.order[-2:] == [col1, col0]
    assert compiler._retreat(col0)
    moves = _flushed_moves(compiler)
    assert len(moves) == 1, "a move must be emitted"
    to_x, atoms = moves[0].to_x, moves[0].atoms
    assert to_x == col0.x == 105.0 - params.storage_pitch
    mem = layout.memory
    assert all(mem.y0 <= ty <= mem.y1 for _, _, ty in atoms)


def _flushed_moves(compiler):
    """Close the compiler's open move phase on an empty event list, so that
    its record is not composed with the load's; returns the record's
    moves, if any."""
    compiler.events = []
    compiler._flush_moves()
    return [m for record in compiler.events for m in record.values()]


def test_onecache_retreat_tucks_in_at_memory_edge():
    """With one cache there is no opposite cache: an idle column with no
    live column on its left, whose memory spot would block a later
    column's placement, tucks in at memory's left margin, into memory."""
    from pachinqo.machine import ZONE_MARGIN, PhysParams

    params = PhysParams()
    circ = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)])
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "onecache", grid, layout, params)
    compiler._apply_initialization()
    assert compiler.cache_slots[LEFT] == []
    col0 = compiler.columns[0]
    compiler.plan = compiler._plan_layer()
    from_x = col0.x
    assert compiler._retreat(col0)
    moves = _flushed_moves(compiler)
    assert len(moves) == 1
    m = moves[0]
    cid, fx, to_x, atoms = m.column, m.from_x, m.to_x, m.atoms
    assert fx == from_x
    assert cid == col0.cid and to_x == layout.memory.x0 + ZONE_MARGIN
    mem = layout.memory
    assert [ty for _, _, ty in atoms] == [
        mem.y0 + ZONE_MARGIN + i * params.storage_pitch for i in range(len(atoms))]


def _three_column_compiler(circ=None, technique="pachinqo", by_row=True):
    """Three columns of four mobile atoms, parked on the right cache; the
    static partners of columns 0, 1 and 2 stand at x = 100-145, 160-205
    and 220-265. `circ` must begin with the twelve CZs that load them,
    and keep the columns as loaded (`_BOUND_LOAD`).

    The load seats static qubits centre-out, here in the two site columns
    x = 175 and 190 (`assign_atoms`). The tests below need partners along
    the whole first site row, so static 2i + 1 is then put on the row's
    i-th site, left to right; with `by_row` false, on the i-th site
    column by column, bottom to top, from x = 100 (so 1 to 15 fill the
    first site column)."""
    params = PhysParams()
    circ = circ or Circuit(24, [cz(2 * i, 2 * i + 1) for i in range(12)])
    layout = build_layout(24, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, technique, grid, layout, params)
    compiler._apply_initialization()
    assert [c.atoms for c in compiler.columns] == [
        [0, 2, 4, 6], [8, 10, 12, 14], [16, 18, 20, 22]]
    row = sorted(compiler.clear_sites,
                 key=lambda s: grid.sites[s][::-1] if by_row else grid.sites[s])
    for q, site in zip(compiler.placement.grouping.slm_qubits, row):
        compiler.atom_site[q] = compiler.placement.site_of_qubit[q] = site
        compiler.atom_x[q], compiler.atom_y[q] = grid.sites[site]
    if by_row:
        assert [compiler.atom_x[q] for q in (1, 23)] == [100.0, 265.0]
    else:
        assert {compiler.atom_x[q] for q in range(1, 16, 2)} == {100.0}
    return compiler


def _retreat_in_order(compiler, side):
    """Plan a layer on `side` from where the columns stand, relocate, and
    retreat every column in processing order; closes the move phase and
    returns each column's x."""
    order = list(compiler.columns)
    if side == LEFT:
        order.reverse()
    compiler.direction = side
    compiler.plan = compiler._plan_layer()
    assert compiler.plan.order == order
    compiler._relocate_all(side)
    for col in order:
        assert compiler._retreat(col)
    compiler._flush_moves()
    return [c.x for c in compiler.columns]


def test_retreat_takes_the_cache_slot_next_to_compute_that_leaves_room():
    """A retreating column takes the opposite cache's free slot nearest
    compute that still leaves one slot on its compute side per later
    column, on both sides. The last column, with nothing after it, parks
    in memory under where it stood, the shorter move. CZ(0, 1) is done,
    so column 0's nearest placement lies right of memory's first slot,
    which the columns before it must therefore leave free."""
    compiler = _three_column_compiler()
    compiler.frontier.advance(compiler.circuit.gates[0])
    left, right = compiler.cache_slots[LEFT], compiler.cache_slots[RIGHT]
    mem = compiler.layout.memory
    from pachinqo.machine import ZONE_MARGIN

    # RIGHT layer: columns retreat into the left cache, whose compute
    # edge is its last slot.
    xs = _retreat_in_order(compiler, RIGHT)
    assert xs == [left[-3], left[-2], mem.x1 - ZONE_MARGIN]
    # LEFT layer, from the left cache: packed against its compute edge,
    # the columns retreat into the right cache, whose compute edge is its
    # first slot.
    compiler._relocate_all(LEFT)
    compiler._flush_moves()
    assert [c.x for c in compiler.columns] == left[-3:]
    xs = _retreat_in_order(compiler, LEFT)
    assert xs == [mem.x0 + ZONE_MARGIN, right[1], right[2]]
    col = compiler.columns[0]
    assert [compiler.atom_y[a] for a in col.atoms] == [
        hang_y(compiler.layout, compiler.params, j) for j in range(4)]


@pytest.mark.parametrize("start_x, parks_in_memory", [(150.0, True),
                                                      (170.0, False)])
def test_memory_parking_refused_past_a_later_columns_target(start_x,
                                                            parks_in_memory):
    """Column 0 stood at start_x when the layer began. Memory under it is
    the shorter move, but column 1 plans to place at 161.5 (its partner
    at 160 plus the interaction offset, the side nearer the right cache
    it comes from): parking at 170 would block that, so the column takes
    a cache slot instead. Only CZ(8, 9) is left to place."""
    compiler = _three_column_compiler()
    for g in compiler.circuit.gates:
        if g.qubits != (8, 9):
            compiler.frontier.advance(g)
    col0 = compiler.columns[0]
    col0.x = col0.found_x = start_x
    for a in col0.atoms:
        compiler.atom_x[a] = start_x
    compiler.plan = compiler._plan_layer()
    assert compiler.plan.later[col0.cid][0] == 160.0 + INTERACTION_OFFSET
    compiler._relocate_all(RIGHT)
    assert compiler._retreat(col0)
    if parks_in_memory:
        assert col0.x == start_x
        assert [compiler.atom_y[a] for a in col0.atoms] == [
            hang_y(compiler.layout, compiler.params, j) for j in range(4)]
    else:
        assert col0.x == compiler.cache_slots[LEFT][-3]


def _records(parts):
    """Events in sequence, untimed as the compiler emits them: a pickup
    trap change, then each part, a phase given as a list of (cid, from x,
    to x, [(atom, from y, to y)]) and emitted as its record, "u3" for an
    empty U3 layer, or ("cz", atom, atom) for an illumination. The pickup
    loads every atom of the first phase into its column where that phase
    finds it."""
    first = parts[0]
    events = [TrapChange(0.0, 0.0, 0, SLM_TO_AOD, [
        TrapTransfer(a, fx, fy, column=cid)
        for cid, fx, _, atoms in first for a, fy, _ in atoms])]
    for part in parts:
        if part == "u3":
            events.append(U3LayerEvent(0.0, 0.0, 1, []))
        elif part[0] == "cz":
            pair = CzEntry((0, 1), part[1:], ((0.0, 0.0), (0.0, 0.0)))
            events.append(Illumination(0.0, 0.0, 1, [pair]))
        else:
            events.append({cid: ColumnMove(0.0, 0.0, 1, cid, fx, tx, list(atoms))
                           for cid, fx, tx, atoms in part})
    return events


def _hand_built(parts, layout, params, serial=False):
    """The events of `parts` (`_records`), timed as `run()` times its
    events."""
    return retime(_records(parts), params, serial)


# Ten qubits, whose geometry the hand-built events use: compute spans x
# 90-280 and y 55-185, memory lies under it at y 5-55.
_HOLD_CIRCUIT = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)])


def _hold_layout():
    """The layout and parameters of `_HOLD_CIRCUIT`."""
    params = PhysParams()
    return build_layout(10, "auto", params), params


def _hold(parts, serial=False, one_cache=False):
    """The hand-built events of `parts`, timed as `run()` would, and the
    same events held by `hold_columns` alone, then timed: (built, held)."""
    layout, params = _hold_layout()
    held = hold_columns(_records(parts), layout, params, serial, one_cache)
    return _hand_built(parts, layout, params, serial), retime(held, params, serial)


def _column_moves(events, cid):
    return [(ev.from_x, ev.to_x, ev.atoms) for ev in events
            if isinstance(ev, ColumnMove) and ev.column == cid]


# Column 0 holds atoms 0 and 2, column 1 atoms 4 and 6. Hung below
# compute they stand at ys 45 and 43; tucked into memory, at 15 and 17.
_HUNG = (45.0, 43.0)
_TUCKED = (15.0, 17.0)


def _col(cid, fx, tx, from_ys, to_ys):
    atoms = (0, 2) if cid == 0 else (4, 6)
    return (cid, fx, tx, list(zip(atoms, from_ys, to_ys)))


def test_merge_composes_back_to_back_records():
    """Column 0 moves A -> B in one record and B -> C in the next, with no
    event between. Merged, they are one record holding the single move
    A -> C, with the later record's layer."""
    placed = (100.0, 110.0)
    parts = [[_col(0, 150.0, 120.0, _HUNG, _TUCKED)],
             [_col(0, 120.0, 200.0, _TUCKED, placed)]]
    events = _records(parts)
    for m in events[2].values():
        m.layer = 2
    assert compose(events)[1:] == [
        {0: ColumnMove(0.0, 0.0, 2, 0, 150.0, 200.0,
                       list(zip((0, 2), _HUNG, placed)))}]


def test_merge_drops_a_round_trip_and_an_emptied_record():
    """Three back-to-back records: column 0 goes A -> B, then back to A
    with its ys restored, and column 1 moves only in the third. The first
    two leave nothing, and the timed schedule has one move phase, holding
    column 1's move, where it had three."""
    placed = (100.0, 110.0)
    parts = [[_col(0, 150.0, 120.0, _HUNG, _TUCKED)],
             [_col(0, 120.0, 150.0, _TUCKED, _HUNG)],
             [_col(1, 200.0, 161.5, _HUNG, placed)]]
    layout, params = _hold_layout()
    merged = compose(_records(parts))
    assert merged[1:] == [
        {1: ColumnMove(0.0, 0.0, 1, 1, 200.0, 161.5,
                       list(zip((4, 6), _HUNG, placed)))}]
    merged = retime(merged, params, False)
    assert [type(ev) for ev in merged] == [TrapChange, ColumnMove]
    unmerged = _hand_built(parts, layout, params)
    assert len({(ev.t_start, ev.t_end) for ev in unmerged
                if isinstance(ev, ColumnMove)}) == 3
    assert merged[-1].t_end < unmerged[-1].t_end


def _back_to_back(events):
    """How many move records of `events` stand right after another."""
    return sum(isinstance(a, dict) and isinstance(b, dict)
               for a, b in zip(events, events[1:]))


@pytest.mark.parametrize("technique", scheduler.TECHNIQUES)
def test_no_two_move_records_stand_back_to_back(technique):
    """`compose` runs after packing, so the hold pass finds no two move
    records back to back, though the epilogue's phase and, with one cache,
    the return home follow a phase with no event between or with a U3
    layer that packing drops. Packed as they were emitted, they stand
    so."""
    circ = random_circuit(random.Random(3), 10, 60)
    params = PhysParams()
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, technique, grid, layout, params)
    packed = pack_rotations(compiler.emit(), circ.num_qubits)
    apart = _back_to_back(packed)
    assert _back_to_back(compose(packed)) == 0 < apart


def test_hold_drops_a_tuck_and_return():
    """An idle column that tucks into memory while column 1 places, and
    returns where it stood once the pulse has fired, emits no move: it
    waits where it stood. Column 1's moves, and every time, stay."""
    placed = (100.0, 110.0)
    parts = [[_col(0, 150.0, 120.0, _HUNG, _TUCKED),
              _col(1, 200.0, 161.5, _HUNG, placed)],
             ("cz", 4, 9),
             [_col(0, 120.0, 150.0, _TUCKED, _HUNG),
              _col(1, 161.5, 200.0, placed, _HUNG)]]
    built, held = _hold(parts)
    assert len(_column_moves(built, 0)) == 2
    assert _column_moves(held, 0) == []
    assert _column_moves(held, 1) == _column_moves(built, 1)
    assert held[-1].t_end == built[-1].t_end


def _crossed_hold():
    """Column 1 places at x = 140, left of where column 0 stood (150)
    before it tucked in at 120; both return once the pulse has fired.
    Returns the events as built and as held (`_hold`)."""
    placed = (100.0, 110.0)
    parts = [[_col(0, 150.0, 120.0, _HUNG, _TUCKED),
              _col(1, 200.0, 140.0, _HUNG, placed)],
             ("cz", 4, 9),
             [_col(0, 120.0, 150.0, _TUCKED, _HUNG),
              _col(1, 140.0, 200.0, placed, _HUNG)]]
    return _hold(parts)


def test_hold_refused_where_a_neighbour_crosses_the_held_x():
    """Held at 150, column 0 would stand right of column 1 while the pulse
    fires, so it does not wait there. It waits instead at the memory x
    nearest 150 that leaves a storage pitch of room to column 1 (138), on
    the hang rows, 12 um from where it stood each way in place of 60 um
    (30 across, 30 down). Column 1's moves, and every time, stay."""
    built, held = _crossed_hold()
    wait = list(zip((0, 2), _HUNG, _HUNG))
    assert _column_moves(held, 0) == [(150.0, 138.0, wait),
                                      (138.0, 150.0, wait)]
    assert _column_moves(held, 1) == _column_moves(built, 1)
    assert [(ev.t_start, ev.t_end) for ev in held] == \
        [(ev.t_start, ev.t_end) for ev in built]


def _validated(events):
    """The validator's violations of `events`, read as a schedule of
    `_HOLD_CIRCUIT` on its layout."""
    layout, params = _hold_layout()
    grid = generate_grid("large-square", layout, params)
    sched = Schedule("pachinqo", grid.kind, params, "hold", 10, events=events)
    return validate_schedule(sched, layout, grid, params, _HOLD_CIRCUIT)


def test_validator_catches_a_wait_that_a_neighbour_crosses():
    """A mutant of the held schedule above that waits in memory at x = 145,
    which column 1 passes on its way to 140, gets the validator's
    `ordering` violation in the phase before the pulse; the held schedule
    gets none. The hand-built events break other rules, which the test
    does not read."""
    _, held = _crossed_hold()
    mutant = [copy.copy(ev) for ev in held]
    moves = [i for i, ev in enumerate(mutant)
             if isinstance(ev, ColumnMove) and ev.column == 0]
    mutant[moves[0]].to_x = mutant[moves[1]].from_x = 145.0
    cz_at = next(i for i, ev in enumerate(held) if isinstance(ev, Illumination))
    assert not [v for v in _validated(held) if v.code == "ordering"]
    crossed = [v.event for v in _validated(mutant)
               if v.code == "ordering"]
    assert crossed and moves[0] <= crossed[0] < cz_at


def test_tucked_column_waits_on_the_hang_rows():
    """Column 1 places at x = 100, memory's near margin, left of where
    column 0 stood (110), and column 0 tucks in beside it at 98, inside the
    margin, as a blocked retreat does. No memory x inside the margin leaves
    a storage pitch of room left of 100, so column 0 waits at 98 on the
    hang rows in place of memory's bottom rows: 12 um across each way, and
    no climb."""
    placed = (100.0, 110.0)
    parts = [[_col(0, 110.0, 98.0, _HUNG, _TUCKED),
              _col(1, 200.0, 100.0, _HUNG, placed)],
             ("cz", 4, 9),
             [_col(0, 98.0, 110.0, _TUCKED, _HUNG),
              _col(1, 100.0, 200.0, placed, _HUNG)]]
    built, held = _hold(parts)
    wait = list(zip((0, 2), _HUNG, _HUNG))
    assert _column_moves(held, 0) == [(110.0, 98.0, wait),
                                      (98.0, 110.0, wait)]
    assert _column_moves(held, 1) == _column_moves(built, 1)


def _emptied_neighbour_events():
    """Three columns: column 1 deposits its atoms where it stands (180)
    after the first phase. Column 0 then places atom 0 at x = 210, right of
    where column 2 stood (200), while column 2, idle, tucks into memory at
    230; both return once the pulse has fired. Column 2's first move
    stands still."""
    col2 = (8, 9)
    placed = (100.0, _HUNG[1])
    events = _records([
        [_col(0, 120.0, 150.0, _HUNG, _HUNG), _col(1, 160.0, 180.0, _HUNG, _HUNG),
         (2, 200.0, 200.0, list(zip(col2, _HUNG, _HUNG)))],
        [_col(0, 150.0, 210.0, _HUNG, placed),
         (2, 200.0, 230.0, list(zip(col2, _HUNG, _TUCKED)))],
        ("cz", 0, 1),
        [_col(0, 210.0, 150.0, placed, _HUNG),
         (2, 230.0, 200.0, list(zip(col2, _TUCKED, _HUNG)))]])
    events.insert(2, TrapChange(0.0, 0.0, 1, AOD_TO_SLM, [
        TrapTransfer(a, 180.0, y) for a, y in zip((4, 6), _HUNG)]))
    return events


def test_hold_bounds_a_wait_by_the_live_column_past_an_emptied_one():
    """Column 2's nearest live column on the left, while it is idle, is
    column 0: the pass skips column 1, which holds no atom by then. Column
    0 stands at 210 while the pulse fires, so column 2 does not wait at
    200; it waits at the memory x nearest 200 that leaves a storage pitch
    of room to column 0 (212), on the hang rows, 12 um from where it stood
    each way in place of 30 across and 30 down. Column 0's moves, and
    every time, stay."""
    layout, params = _hold_layout()
    built = retime(_emptied_neighbour_events(), params, False)
    held = retime(hold_columns(_emptied_neighbour_events(), layout, params,
                               False, False), params, False)
    wait = list(zip((8, 9), _HUNG, _HUNG))
    assert _column_moves(held, 2) == [(200.0, 212.0, wait),
                                      (212.0, 200.0, wait)]
    assert _column_moves(held, 0) == _column_moves(built, 0)
    assert [(ev.t_start, ev.t_end) for ev in held] == \
        [(ev.t_start, ev.t_end) for ev in built]


@pytest.mark.parametrize("serial", [False, True])
def test_hold_refused_where_it_would_lengthen_the_schedule(serial):
    """Column 0 moves 110 um, then 55 um on; column 1, which the pulse
    pairs, 55 um, then 5 um. Held, column 0 moves 165 um in the second
    phase. With concurrent movement that phase would take 3 units where
    the two took 2 + 1 before, less the 1 column 1 keeps in the first, so
    the hold is refused. With serial movement the phases are sums, and by
    the triangle inequality a hold never lengthens them: here it leaves
    the schedule exactly as long."""
    parts = [[_col(0, 100.0, 210.0, _HUNG, _HUNG),
              _col(1, 215.0, 270.0, _HUNG, _HUNG)],
             ("cz", 4, 9),
             [_col(0, 210.0, 265.0, _HUNG, _HUNG),
              _col(1, 270.0, 275.0, _HUNG, _HUNG)]]
    built, held = _hold(parts, serial)
    wait = [(100.0, 265.0, list(zip((0, 2), _HUNG, _HUNG)))]
    assert _column_moves(held, 0) == (
        wait if serial else _column_moves(built, 0))
    assert held[-1].t_end == pytest.approx(built[-1].t_end, abs=1e-9)


@pytest.mark.parametrize("technique, at_home, holds", [
    ("onecache", True, False), ("onecache", False, False),
    ("pachinqo", False, True)])
def test_onecache_holds_across_a_u3_layer_only_at_home(technique, at_home,
                                                      holds):
    """Column 0 tucks into memory, a U3 layer runs, and it returns. With
    one cache a U3 layer ends every column's span, since the columns stand
    home whenever one runs (`_fire`), so the column never waits through it,
    not even where the load left it; with two caches it may wait anywhere.
    A held column's two phases drop out and the U3 layer starts that much
    earlier."""
    layout, params = _hold_layout()
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(_HOLD_CIRCUIT, technique, grid, layout, params)
    home = compiler.placement.columns[0]
    atoms = [a for a, *_ in home.atoms]
    if at_home:
        x, ys = home.atoms[0][2], [ty for *_, ty in home.atoms]
    else:
        x, ys = 150.0, [45.0 - 2 * j for j in range(len(atoms))]
    tucked = [15.0 + 2 * i for i in range(len(atoms))]
    parts = [[(0, x, 120.0, list(zip(atoms, ys, tucked)))], "u3",
             [(0, 120.0, x, list(zip(atoms, tucked, ys)))]]
    built, held = _hold(parts, one_cache=compiler.one_cache)
    moves = _column_moves(held, 0)
    assert moves == ([] if holds else _column_moves(built, 0))
    u3 = next(ev for ev in held if isinstance(ev, U3LayerEvent))
    assert (u3.t_start == held[0].t_end) == holds


def test_schedule_json_roundtrip():
    from pachinqo.schedule import schedule_from_json

    circ = random_circuit(random.Random(21), 6, 50)
    sched, _, _, params = _compile(circ)
    text = schedule_to_json(sched)
    loaded = schedule_from_json(text, params)
    assert schedule_to_json(loaded) == text


def test_schedule_json_deterministic():
    circ = random_circuit(random.Random(9), 10, 90)
    a, _, _, _ = _compile(circ)
    b, _, _, _ = _compile(circ)
    assert schedule_to_json(a) == schedule_to_json(b)


def _event_dict(ev):
    """An event as the dict whose `json.dumps(indent=1)` text the
    schedule writer must reproduce."""
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


def _reference_json(schedule):
    """The whole-document encoding `schedule_to_json` must reproduce."""
    doc = {
        "meta": {
            "technique": schedule.technique,
            "grid": schedule.grid,
            "params_hash": schedule.params_hash(),
            "source_name": schedule.source_name,
            "num_qubits": schedule.num_qubits,
            "serial_movement": schedule.serial_movement,
            "swap_count": schedule.swap_count,
            "trap_change_count": schedule.trap_change_count,
        },
        "events": [_event_dict(ev) for ev in schedule.events],
        "final_mapping": {str(q): a for q, a in
                          sorted(schedule.final_mapping.items())},
    }
    return json.dumps(doc, indent=1)


def _compiled_schedule(**overrides):
    sched, _, _, _ = _compile(random_circuit(random.Random(4), 7, 60))
    for name, value in overrides.items():
        setattr(sched, name, value)
    return sched


NAN, INF = float("nan"), float("inf")


def _hand_built_schedule():
    """Every event kind, with the scalar forms `json` treats specially:
    int and float zero, -0.0, tiny and huge floats, NaN, +-inf, a None
    column, origin tuples, and empty entry lists."""
    return Schedule(
        "pachinqo", "large-square", PhysParams(), "hand", 3,
        events=[
            ColumnMove(0, 0.5, 0, 2, -0.0, 1e22,
                       [(0, 1e-7, -INF), (1, NAN, 3)]),
            ColumnMove(0.5, 1.0, 1, 0, 4.0, 4.0, []),
            U3LayerEvent(1.0, 2.0, 1, [
                U3Entry(0, 0, (1, 0, 0)),
                U3Entry(1, 2, (0.5, -0.0, NAN), origin=(3, 1)),
                U3Entry(2, 1, (INF, -INF, 1e-7), origin=(0, 0)),
            ]),
            U3LayerEvent(2.0, 2.0, 2, []),
            Illumination(2.0, 2.25, 2, [
                CzEntry((0, 1), (0, 1), ((1.5, -0.0), (3, 1e22))),
                CzEntry((2, 0), (1, 0), ((NAN, INF), (-INF, 2.0)),
                        origin=(1, 2)),
            ]),
            Illumination(2.25, 2.5, 3, []),
            TrapChange(2.5, 3.0, 3, SLM_TO_AOD, [
                TrapTransfer(0, 1.0, -0.0, column=4),
                TrapTransfer(1, 1e-7, 1e22),
            ]),
            TrapChange(3.0, 3.0, 4, AOD_TO_SLM, []),
            Measure(3.0, 4.0, 5, [(0, 1, -0.0, NAN), (2, 0, 1, INF)]),
            Measure(4.0, 4, 6, []),
        ],
        final_mapping={0: 1, 1: 0, 2: 2},
    )


@pytest.mark.parametrize("make", [
    _hand_built_schedule,
    lambda: _compiled_schedule(),
    lambda: _compiled_schedule(final_mapping={}),
    lambda: _compiled_schedule(source_name='say "hi"\nto caf\u00e9 \u2603'),
    lambda: Schedule("onecache", "star", PhysParams(), "empty", 0),
    lambda: Schedule("trapchange", "triangle", PhysParams(), 'q"\n\u00e9', 2,
                     serial_movement=True, final_mapping={1: 5, 0: 3}),
], ids=["hand-built", "compiled", "empty-mapping", "odd-name", "no-events",
        "no-events-odd-name"])
def test_schedule_json_matches_reference_encoding(make):
    sched = make()
    text = schedule_to_json(sched)
    assert text == _reference_json(sched)
    if not sched.events:
        assert '"events": []' in text
    if not sched.final_mapping:
        assert '"final_mapping": {}' in text


def test_schedule_records_have_no_instance_dict():
    sched = _hand_built_schedule()
    records = [sched, *sched.events]
    for ev in sched.events:
        records += getattr(ev, "gates", []) + getattr(ev, "pairs", [])
        records += getattr(ev, "transfers", [])
    assert len(records) == 18
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_schedule_json_peak_memory_is_bounded_by_output():
    sched, _, _, _ = _compile(random_circuit(random.Random(5), 10, 300))
    text = schedule_to_json(sched)
    tracemalloc.start()
    try:
        schedule_to_json(sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(text), (peak, len(text))


def test_techniques_and_grids_all_compile_and_verify():
    rng = random.Random(31)
    circ = random_circuit(rng, 9, 70)
    for technique in ("pachinqo", "degreesplit", "onecache", "trapchange"):
        for grid_kind in ("large-square", "small-square", "triangle", "star"):
            sched, layout, grid, params = _compile(circ, technique, grid_kind)
            assert validate_schedule(sched, layout, grid, params, circ) == []
            ok, err = equivalence_check(sched, circ)
            assert ok, (technique, grid_kind, err)
