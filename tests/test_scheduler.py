"""Scheduler behavior: layer structure, variants, conflicts, determinism."""
import copy
import json
import math
import random
import tracemalloc

import pytest

from pachinqo import kernels
from pachinqo.circuit import Circuit, cz, u3
from pachinqo.machine import (
    INTERACTION_OFFSET,
    PhysParams,
    build_layout,
    generate_grid,
)
from pachinqo.metrics import movement_phase_time, movement_total
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
    ordered_phase_moves,
    schedule_to_json,
)
from pachinqo.scheduler import Compiler, SchedulerError, toggle_direction, LEFT, RIGHT
from pachinqo.verifier import equivalence_check, validate_schedule

from corpus import full_sites_extraction, random_circuit, staircase


def _compile(circ, technique="pachinqo", grid_kind="large-square", params=None,
             serial=False):
    params = params or PhysParams()
    layout = build_layout(circ.num_qubits, "auto", params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    sched = Compiler(circ, technique, grid, layout, params, serial).run()
    return sched, layout, grid, params


def test_toggle_direction():
    assert toggle_direction(RIGHT) == LEFT
    assert toggle_direction(LEFT) == RIGHT


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


class _IlluminationBlindPacking(Compiler):
    """Packs rotations as if no illumination touched any atom."""

    def _pack_rotations(self):
        illuminations = [ev for ev in self.events if isinstance(ev, Illumination)]
        pairs = [ev.pairs for ev in illuminations]
        for ev in illuminations:
            ev.pairs = []
        super()._pack_rotations()
        for ev, kept in zip(illuminations, pairs):
            ev.pairs = kept


def test_packing_past_an_illumination_fails_the_dependency_check():
    circ = Circuit(3, [u3(0, 1, 0, 0), cz(0, 1), u3(1, 2, 0, 0), cz(1, 2)])
    params = PhysParams()
    layout = build_layout(3, "auto", params)
    grid = generate_grid("large-square", layout, params)
    sched = _IlluminationBlindPacking(circ, "pachinqo", grid, layout,
                                      params).run()
    violations = validate_schedule(sched, layout, grid, params, circ)
    assert "dependency" in {v.code for v in violations}
    assert validate_schedule(_compile(circ)[0], layout, grid, params,
                             circ) == []


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
    ok, tvd = equivalence_check(sched, circ)
    assert ok, tvd


def test_swap_updates_final_mapping():
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    sched, _, _, _ = _compile(circ)
    assert sched.final_mapping != {q: q for q in range(4)}


def test_static_static_conflict_resolved():
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    ok, tvd = equivalence_check(sched, circ)
    assert ok, tvd


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
    compiler._reset_obstacles()
    first_x = min(compiler.grid.sites[s][0] for s in compiler.clear_sites)
    staged = []
    plan = compiler._plan_layer([col], RIGHT)
    assert plan.placements == {}
    assert compiler._find_action(col, staged, None, None,
                                 {col.cid: (first_x, 1)}, plan) == "idle"
    assert compiler.swap_count == 0 and staged == []
    assert compiler._find_action(col, staged, None, None,
                                 {col.cid: (math.inf, 0)}, plan) == "placed"
    assert [p.qubits for p in staged] == [(0, 2)]


def test_conflict_with_the_column_just_before_waits_for_an_aod_pair():
    """In a right-side layer, column 0 places CZ(0, 1), and its atom 6
    waits for CZ(6, 8) with column 1's atom 8. Column 0 has used its turn,
    so column 1 stays idle rather than begin a SWAP; the next layer runs
    the columns right to left, and CZ(6, 8) runs as a horizontal pair."""
    circ = Circuit(24, _BOUND_LOAD + [cz(0, 1), cz(6, 8)])
    compiler = _three_column_compiler(circ)
    for g in circ.gates[:len(_BOUND_LOAD)]:
        compiler.frontier.advance(g)
    assert compiler.direction == RIGHT
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    assert [p.qubits for p in illum.pairs] == [(0, 1)]
    assert compiler.swap_count == 0
    assert compiler.direction == LEFT
    compiler._cz_layer()
    illum = [e for e in compiler.events if isinstance(e, Illumination)][-1]
    assert [p.qubits for p in illum.pairs] == [(6, 8)]
    (x6, y6), (x8, y8) = illum.pairs[0].positions
    assert (x8, y8) == (x6 + INTERACTION_OFFSET, y6)
    assert compiler.swap_count == 0
    assert compiler.frontier.done()


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
    plan = compiler._plan_layer(compiler.columns, RIGHT)
    assert {cid: atom for cid, (_, atom, _, _) in plan.placements.items()} == {
        0: 0, 1: 8}
    compiler._cz_layer()
    (illum,) = [e for e in compiler.events if isinstance(e, Illumination)]
    assert sorted(p.qubits for p in illum.pairs) == [(0, 1), (8, 5)]


def test_two_columns_place_on_both_sides_of_one_site_column():
    """Static 1 and 25 share the site column x = 100. Once the loads have
    run, column 1's CZ(8, 1) places at 98.5 and column 3's CZ(24, 25) at
    101.5, both in one illumination, and the schedule validates."""
    circ = Circuit(26, [cz(2 * i, 2 * i + 1) for i in range(13)] + [cz(8, 1)])
    sched, layout, grid, params = _compile(circ)
    assert validate_schedule(sched, layout, grid, params, circ) == []
    (illum,) = [e for e in sched.events if isinstance(e, Illumination)
                and (8, 1) in [p.qubits for p in e.pairs]]
    assert {p.qubits: p.positions for p in illum.pairs} == {
        (8, 1): ((100.0 - INTERACTION_OFFSET, 65.0), (100.0, 65.0)),
        (24, 25): ((100.0 + INTERACTION_OFFSET, 80.0), (100.0, 80.0)),
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
    compiler._reset_obstacles()
    assert compiler._try_place(col, 2, 3, px - INTERACTION_OFFSET) is None
    placement = compiler._try_place(col, 2, 3, px + INTERACTION_OFFSET)
    assert placement is not None and placement.ys[2] == py


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


def test_swap_choice_keeps_a_window_cz_inside_one_column():
    """Static 1 and 3 conflict, and 1's next CZ is with mobile 12 in
    column 1. Sending 1 into column 1 leaves CZ(1, 12) a vertical AOD
    pair, which costs nothing; counted by static and mobile sides alone,
    it would cost the same in either column, and moving 3 would win."""
    circ = Circuit(16, [cz(2 * i, 2 * i + 1) for i in range(8)]
                   + [cz(1, 3), cz(1, 12)])
    compiler = _loaded(circ, 8)
    assert [c.atoms for c in compiler.columns] == [[0, 2, 4, 6],
                                                   [8, 10, 12, 14]]
    mobile, static = compiler._choose_swap(1, 3, forced=False)
    assert compiler.qubit_of[static] == 1
    assert mobile in compiler.columns[1].atoms and mobile != 12


def test_swap_choice_converges_where_an_unguarded_lookahead_livelocks():
    # A lookahead choice without the split-next-CZ rule was seen to swap
    # qubits 112 and 169 back and forth here until the round budget
    # raised SchedulerError.
    circ = random_circuit(random.Random(1), 200, 2000)
    sched, _, _, _ = _compile(circ)
    assert sched.swap_count <= circ.count("cz")


def test_preemptive_swap_packs_independent_rotations():
    # A swap's components in one layer touch distinct qubits and run in
    # template order; the rotations of steps 2-3 and 5-6 share a layer.
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    sched, layout, grid, params = _compile(circ)
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
    ok, tvd = equivalence_check(sched, circ)
    assert ok, tvd


def test_trapchange_falls_back_to_swap_when_no_room():
    # Fill the static side completely so no free site exists: use a small
    # custom grid via a 2-site monkeypatched capacity is overkill; instead
    # rely on extraction: conflict among statics with full columns.
    circ = Circuit(4, [cz(0, 1), cz(2, 3), cz(1, 3)])
    sched, layout, grid, params = _compile(circ, technique="trapchange")
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


class _PairlessCompiler(Compiler):
    """Plans each AOD pair with an obstacle on every free clear site, so
    no pair can form."""

    def _crowded(self, plan, *args):
        """`plan(*args)` with stand-in obstacle atoms, numbered past the
        real ones, one on each free clear site."""
        occupied = {site for site, _ in self._static_atoms()}
        free = [self.grid.sites[s] for s in self.clear_sites if s not in occupied]
        real = self.obstacles, self.atom_x, self.atom_y
        n = len(self.atom_x)
        self.obstacles = real[0] + list(range(n, n + len(free)))
        self.atom_x = real[1] + [x for x, _ in free]
        self.atom_y = real[2] + [y for _, y in free]
        try:
            return plan(*args)
        finally:
            self.obstacles, self.atom_x, self.atom_y = real

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
    pairs run, CZ(24, 26) conflicts in column 3, and static 27 (in the
    second site row, clear of the parked column's atoms) has a static
    next partner, 25."""
    params = PhysParams()
    circ = Circuit(28, [cz(2 * i, 2 * i + 1) for i in range(14)]
                   + [cz(24, 26), cz(25, 27)])
    layout = build_layout(28, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = _CrowdedCompiler(circ, "trapchange", grid, layout, params)
    assert compiler.placement.grouping.slm_qubits == list(range(1, 28, 2))
    sched = compiler.run()
    assert compiler.plans[0] == (27, compiler.placement.site_of_qubit[27])
    last_layer = sched.events[-1].layer
    extractions = [e for e in sched.events
                   if isinstance(e, TrapChange) and e.direction == SLM_TO_AOD
                   and 0 < e.layer < last_layer]
    assert [(t.atom, t.column) for e in extractions for t in e.transfers] == [(27, 3)]
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
    compiler._reset_obstacles()
    site, atom = compiler._static_atoms()[0]
    sx, sy = grid.sites[site]
    r2 = params.crosstalk_radius ** 2

    def site_clear():
        return kernels.clear_from(compiler.obstacles, compiler.atom_x,
                                  compiler.atom_y, sx, sy, r2)

    assert not site_clear()
    compiler._trapchange_action(compiler.columns[0], atom, site)
    compiler._relocate_all(RIGHT)
    assert compiler.atom_x[atom] != sx
    assert site_clear()


@pytest.mark.xfail(raises=SchedulerError, strict=True,
                   reason="onecache's progress guard finds no actionable "
                          "gate on many circuits of 54+ qubits")
def test_onecache_compiles_sixty_qubit_circuit():
    circ = random_circuit(random.Random(0), 60, 200)
    sched, layout, grid, params = _compile(circ, technique="onecache")
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


def test_spread_alternates_above_below():
    # One column of four atoms, one static partner: the active atom sits at
    # the site row while the rest spread +10, -10, +20 around it.
    circ = Circuit(5, [cz(0, 1), cz(2, 1), cz(3, 1), cz(4, 1)])
    sched, layout, _, params = _compile(circ)
    illum = next(e for e in sched.events if isinstance(e, Illumination))
    assert illum.pairs[0].qubits == (0, 1)
    active_y = illum.pairs[0].positions[0][1]
    place = [e for e in sched.events
             if isinstance(e, ColumnMove) and e.t_end == illum.t_start]
    assert len(place) == 1
    ys = {a: ty for a, _, ty in place[0].atoms}
    r = params.crosstalk_radius
    assert ys[0] == active_y
    spread = sorted(ys[a] - active_y for a in (2, 3, 4))
    assert spread == [-r, r, 2 * r]


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
    later = compiler._plan_retreats(compiler._plan_layer([col1, col0], LEFT))
    assert compiler._retreat(col0, LEFT, later)
    moves = _flushed_moves(compiler)
    assert len(moves) == 1, "a move must be emitted"
    to_x, atoms = moves[0].to_x, moves[0].atoms
    assert to_x == col0.x == 105.0 - params.storage_pitch
    mem = layout.memory
    assert all(mem.y0 <= ty <= mem.y1 for _, _, ty in atoms)


def _flushed_moves(compiler):
    """Close the compiler's open move phase; returns the moves it emits."""
    n = len(compiler.events)
    compiler._flush_moves()
    return [e for e in compiler.events[n:] if isinstance(e, ColumnMove)]


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
    later = compiler._plan_retreats(compiler._plan_layer(compiler.columns, RIGHT))
    from_x = col0.x
    assert compiler._retreat(col0, RIGHT, later)
    moves = _flushed_moves(compiler)
    assert len(moves) == 1
    m = moves[0]
    cid, fx, to_x, atoms = m.column, m.from_x, m.to_x, m.atoms
    assert fx == from_x
    assert cid == col0.cid and to_x == layout.memory.x0 + ZONE_MARGIN
    mem = layout.memory
    assert [ty for _, _, ty in atoms] == [
        mem.y0 + ZONE_MARGIN + i * params.storage_pitch for i in range(len(atoms))]


def _three_column_compiler(circ=None):
    """Three columns of four mobile atoms, parked on the right cache; the
    static partners of columns 0, 1 and 2 stand at x = 100-145, 160-205
    and 220-265. `circ` must begin with the twelve CZs that load them,
    and keep the columns as loaded (`_BOUND_LOAD`)."""
    params = PhysParams()
    circ = circ or Circuit(24, [cz(2 * i, 2 * i + 1) for i in range(12)])
    layout = build_layout(24, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    compiler._apply_initialization()
    assert [c.atoms for c in compiler.columns] == [
        [0, 2, 4, 6], [8, 10, 12, 14], [16, 18, 20, 22]]
    return compiler


def _retreat_in_order(compiler, side):
    """Plan a layer on `side` from where the columns stand, relocate, and
    retreat every column in processing order; closes the move phase and
    returns each column's x."""
    order = list(compiler.columns)
    if side == LEFT:
        order.reverse()
    later = compiler._plan_retreats(compiler._plan_layer(order, side))
    compiler._relocate_all(side)
    for col in order:
        assert compiler._retreat(col, side, later)
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
        compiler._hang_y(j) for j in range(4)]


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
    later = compiler._plan_retreats(compiler._plan_layer(compiler.columns, RIGHT))
    assert later[col0.cid][0] == 160.0 + INTERACTION_OFFSET
    compiler._relocate_all(RIGHT)
    assert compiler._retreat(col0, RIGHT, later)
    if parks_in_memory:
        assert col0.x == start_x
        assert [compiler.atom_y[a] for a in col0.atoms] == [
            compiler._hang_y(j) for j in range(4)]
    else:
        assert col0.x == compiler.cache_slots[LEFT][-3]


def _hand_built(parts, params, serial=False):
    """Events in sequence: a pickup trap change, then each part, a phase
    given as a list of (cid, from x, to x, [(atom, from y, to y)]), "u3"
    for an empty U3 layer, or ("cz", atom, atom) for an illumination. The
    pickup loads every atom of the first phase into its column where that
    phase finds it."""
    first = parts[0]
    t = params.trap_change_time
    events = [TrapChange(0.0, t, 0, SLM_TO_AOD, [
        TrapTransfer(a, fx, fy, column=cid)
        for cid, fx, _, atoms in first for a, fy, _ in atoms])]
    for part in parts:
        if part == "u3":
            events.append(U3LayerEvent(t, t + params.u3_time, 1, []))
        elif part[0] == "cz":
            pair = CzEntry((0, 1), part[1:], ((0.0, 0.0), (0.0, 0.0)))
            events.append(Illumination(t, t + params.cz_time, 1, [pair]))
        else:
            dur = movement_phase_time(part, params, serial)
            events += ordered_phase_moves(part, t, t + dur, 1)
        t = events[-1].t_end
    return events


def _hold_compiler(technique="pachinqo", serial=False):
    """A compiler for 10 qubits, whose geometry the hand-built events use:
    compute spans x 90-280 and y 55-185, memory lies under it at y 5-55."""
    params = PhysParams()
    circ = Circuit(10, [cz(2 * i, 2 * i + 1) for i in range(5)])
    layout = build_layout(10, "auto", params)
    grid = generate_grid("large-square", layout, params)
    return Compiler(circ, technique, grid, layout, params, serial)


def _hold(compiler, parts):
    """Run `Compiler._hold_columns` alone on the hand-built events of
    `parts`; returns the events as built. The compiler keeps them held."""
    built = _hand_built(parts, compiler.params, compiler.serial)
    compiler.events = [copy.copy(ev) for ev in built]
    compiler.t = built[-1].t_end
    compiler._hold_columns()
    return built


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
    compiler = _hold_compiler()
    built = _hold(compiler, parts)
    assert len(_column_moves(built, 0)) == 2
    assert _column_moves(compiler.events, 0) == []
    assert _column_moves(compiler.events, 1) == _column_moves(built, 1)
    assert compiler.events[-1].t_end == compiler.t == built[-1].t_end


def test_hold_refused_where_a_neighbour_crosses_the_held_x():
    """Column 1 places at x = 140, left of where column 0 stood (150)
    before it tucked in at 120. Held at 150, column 0 would stand right
    of column 1 while the pulse fires, so both its moves stay."""
    placed = (100.0, 110.0)
    parts = [[_col(0, 150.0, 120.0, _HUNG, _TUCKED),
              _col(1, 200.0, 140.0, _HUNG, placed)],
             ("cz", 4, 9),
             [_col(0, 120.0, 150.0, _TUCKED, _HUNG),
              _col(1, 140.0, 200.0, placed, _HUNG)]]
    compiler = _hold_compiler()
    built = _hold(compiler, parts)
    assert _column_moves(compiler.events, 0) == _column_moves(built, 0)
    assert [(ev.t_start, ev.t_end) for ev in compiler.events] == \
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
    compiler = _hold_compiler(serial=serial)
    built = _hold(compiler, parts)
    held = [(100.0, 265.0, list(zip((0, 2), _HUNG, _HUNG)))]
    assert _column_moves(compiler.events, 0) == (
        held if serial else _column_moves(built, 0))
    assert compiler.t == pytest.approx(built[-1].t_end, abs=1e-9)


@pytest.mark.parametrize("technique, at_home, holds", [
    ("onecache", True, True), ("onecache", False, False),
    ("pachinqo", False, True)])
def test_onecache_holds_across_a_u3_layer_only_at_home(technique, at_home,
                                                      holds):
    """Column 0 tucks into memory, a U3 layer runs, and it returns. With
    one cache the columns stand home whenever a U3 layer runs, so the
    column may wait through it only where the load left it; with two
    caches it may wait anywhere. A held column's two phases drop out and
    the U3 layer starts that much earlier."""
    compiler = _hold_compiler(technique)
    home = compiler.placement.columns[0]
    atoms = [a for a, *_ in home.atoms]
    if at_home:
        x, ys = home.atoms[0][2], [ty for *_, ty in home.atoms]
    else:
        x, ys = 150.0, [45.0 - 2 * j for j in range(len(atoms))]
    tucked = [15.0 + 2 * i for i in range(len(atoms))]
    parts = [[(0, x, 120.0, list(zip(atoms, ys, tucked)))], "u3",
             [(0, 120.0, x, list(zip(atoms, tucked, ys)))]]
    built = _hold(compiler, parts)
    moves = _column_moves(compiler.events, 0)
    assert moves == ([] if holds else _column_moves(built, 0))
    u3 = next(ev for ev in compiler.events if isinstance(ev, U3LayerEvent))
    assert (u3.t_start == compiler.events[0].t_end) == holds


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
            ok, tvd = equivalence_check(sched, circ)
            assert ok, (technique, grid_kind, tvd)
