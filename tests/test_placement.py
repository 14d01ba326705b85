"""Grouping heuristics and atom assignment (the load plan), and the
compiler's emission of that plan as the initialization events."""
import itertools
import math
import random

import pytest

from pachinqo.circuit import Circuit, cz, u3
from pachinqo.machine import (
    CapacityError,
    PhysParams,
    SlmGrid,
    aod_capacity,
    build_layout,
    generate_grid,
    memory_rows,
    pair_clear_sites,
)
from pachinqo import placement
from pachinqo.placement import (
    Grouping,
    assign_atoms,
    degree_split_group,
    greedy_maxcut_group,
    needs_swap,
    pack_columns,
)
from pachinqo.schedule import AOD_TO_SLM, SLM_TO_AOD, ColumnMove, TrapChange
from pachinqo.scheduler import Compiler, retime
from pachinqo.verifier import validate_schedule

from corpus import (
    GRIDS,
    corpus_cases,
    full_sites_extraction,
    random_circuit,
    staircase,
)


def _circ(n, pairs):
    return Circuit(n, [cz(a, b) for a, b in pairs])


def _cut(grouping, pairs):
    aod = set(grouping.aod_qubits)
    return sum(1 for a, b in pairs if (a in aod) != (b in aod))


# ---------------------------------------------------------------------------
# greedy maxcut grouping

def test_greedy_single_cz():
    g = greedy_maxcut_group(_circ(2, [(0, 1)]), 10, 10)
    assert g.aod_qubits == [0]
    assert g.slm_qubits == [1]


def test_greedy_path_cuts_all_edges():
    pairs = [(0, 1), (1, 2), (2, 3)]
    g = greedy_maxcut_group(_circ(4, pairs), 10, 10)
    assert set(g.aod_qubits) == {0, 2}
    assert set(g.slm_qubits) == {1, 3}
    assert _cut(g, pairs) == 3


def test_greedy_triangle_leaves_one_edge_uncut():
    pairs = [(0, 1), (1, 2), (0, 2)]
    g = greedy_maxcut_group(_circ(3, pairs), 10, 10)
    assert set(g.aod_qubits) == {0, 2}
    assert set(g.slm_qubits) == {1}
    assert _cut(g, pairs) == 2


def test_greedy_untouched_qubits_go_mobile_first():
    g = greedy_maxcut_group(_circ(5, [(1, 3)]), 10, 10)
    assert g.aod_qubits == [1, 0, 2, 4]
    assert g.slm_qubits == [3]


def test_greedy_overflow_falls_back_to_other_group():
    # With no mobile room at all, everything lands static.
    g = greedy_maxcut_group(_circ(2, [(0, 1)]), 2, 0)
    assert g.slm_qubits == [0, 1]


def test_greedy_capacity_error():
    with pytest.raises(CapacityError):
        greedy_maxcut_group(_circ(4, [(0, 1)]), 1, 1)


def test_greedy_full_cut_on_staircases():
    for n in (4, 8, 16):
        circ = staircase(n, rounds=2)
        pairs = [g.qubits for g in circ.gates if g.kind == "cz"]
        g = greedy_maxcut_group(circ, 100, 100)
        assert _cut(g, pairs) == len(pairs)


def test_greedy_full_cut_on_stars():
    pairs = [(0, k) for k in range(1, 8)]
    g = greedy_maxcut_group(_circ(8, pairs), 100, 100)
    assert _cut(g, pairs) == len(pairs)


def _exact_maxcut(n, pairs):
    best = 0
    for bits in range(2 ** (n - 1)):  # fix qubit n-1's side by symmetry
        cut = sum(1 for a, b in pairs
                  if ((bits >> a) & 1 if a < n - 1 else 0)
                  != ((bits >> b) & 1 if b < n - 1 else 0))
        best = max(best, cut)
    return best


def test_greedy_within_exact_maxcut_bound():
    rng = random.Random(5)
    ratios = []
    for _ in range(10):
        n = 12
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(18)]
        g = greedy_maxcut_group(_circ(n, pairs), 100, 100)
        got, best = _cut(g, pairs), _exact_maxcut(n, pairs)
        assert got <= best
        ratios.append(got / best)
    assert min(ratios) > 0.5  # sanity: the heuristic is not degenerate


# ---------------------------------------------------------------------------
# column packing

def _cross_column_czs(circ, mobile, per_column):
    column = {q: i // per_column for i, q in enumerate(mobile)}
    return sum(1 for a, b in circ.cz_pairs()
               if a in column and b in column and column[a] != column[b])


def test_packing_keeps_frequent_partners_in_one_column():
    # Grouping order puts 0 and 8 in columns 0 and 2; the earliest
    # exchange that joins them moves 8 to position 1 and 1 to position 8.
    circ = _circ(10, [(i, 9) for i in range(9)] + [(0, 8)] * 3)
    assert greedy_maxcut_group(circ, 10, 10).aod_qubits == [
        0, 8, 2, 3, 4, 5, 6, 7, 1]
    # With CZ(3, 4) too, joining 0 and 8 (two CZs) goes before joining 3
    # and 4 (one), which then moves 4 to position 2. Taking the first
    # exchange that lowers the count would join 3 and 4 first, moving 3.
    circ = _circ(10, [(i, 9) for i in range(9)] + [(3, 4)] + [(8, 0)] * 2)
    assert greedy_maxcut_group(circ, 10, 10).aod_qubits == [
        0, 8, 4, 3, 2, 5, 6, 7, 1]


@pytest.mark.parametrize("grid_kind", GRIDS)
def test_packing_only_reorders_the_mobile_columns(grid_kind, params,
                                                  monkeypatch):
    """`pack_columns` against the order it is given, a grouping's mobile
    list with packing switched off: never more CZs between mobile qubits
    in different columns, the same mobile set, the same sites, columns
    full but the last, and the same order on a second run. Degree split
    does not pack."""
    per_col = params.max_atoms_per_column
    rng = random.Random(20)
    fewer = 0
    for _ in range(6):
        n = rng.randint(8, 40)
        circ = random_circuit(rng, n, rng.randint(4 * n, 10 * n))
        layout = build_layout(n, "auto", params, grid_kind)
        grid = generate_grid(grid_kind, layout, params)
        caps = len(pair_clear_sites(grid, params)), aod_capacity(layout, params)
        split = degree_split_group(circ, *caps)
        with monkeypatch.context() as m:
            m.setattr(placement, "pack_columns", lambda c, mobile, k: mobile)
            plain = greedy_maxcut_group(circ, *caps, per_col)
            assert (degree_split_group(circ, *caps).aod_qubits
                    == split.aod_qubits)
        packed = Grouping(plain.slm_qubits,
                          pack_columns(circ, plain.aod_qubits, per_col))
        assert sorted(packed.aod_qubits) == sorted(plain.aod_qubits)
        cross = _cross_column_czs(circ, packed.aod_qubits, per_col)
        assert cross <= _cross_column_czs(circ, plain.aod_qubits, per_col)
        fewer += cross < _cross_column_czs(circ, plain.aod_qubits, per_col)
        assert pack_columns(circ, plain.aod_qubits, per_col) == packed.aod_qubits
        a, b = (assign_atoms(g, grid, layout, params) for g in (packed, plain))
        assert a.site_of_qubit == b.site_of_qubit
        sizes = [len(g.atoms) for g in a.columns]
        assert sizes == [len(g.atoms) for g in b.columns]
        assert all(k == per_col for k in sizes[:-1])
    assert fewer


# ---------------------------------------------------------------------------
# filling free column slots

def _swap_czs(circ, grouping, per_column):
    """The CZs that need a SWAP at load time (`needs_swap`), every column
    holding atoms."""
    place = {q: None for q in grouping.slm_qubits}
    place.update((q, i // per_column) for i, q in enumerate(grouping.aod_qubits))
    return sum(needs_swap(place[a], place[b]) for a, b in circ.cz_pairs())


def _unfilled(monkeypatch, *args):
    """greedy_maxcut_group(*args) with the fill switched off."""
    with monkeypatch.context() as m:
        m.setattr(placement, "fill_free_slots", lambda c, g, cap, k: g)
        return greedy_maxcut_group(*args)


def test_needs_swap_rule():
    assert needs_swap(None, None)
    assert not needs_swap(None, 3) and not needs_swap(3, None)
    assert not needs_swap(2, 2) and not needs_swap(2, 3) and not needs_swap(3, 2)
    assert needs_swap(1, 3) and needs_swap(3, 1)


def test_fill_moves_static_pairs_into_free_slots(monkeypatch):
    """MaxCut makes 1, 3, 5, 7 and 9 static and 0, 2, 4, 6, 8 mobile, in
    columns [0, 2, 4, 6] and [8], so the four CZs among static qubits
    need a SWAP. Moving 3 or 7 (or 9, with CZ(7, 9) twice) into the last
    column settles two of them; 3 comes first in the static list, then 7.
    No move is left that lowers the count, and the columns stay two."""
    circ = _circ(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9),
                      (1, 3), (3, 5), (7, 9), (7, 9)])
    plain = _unfilled(monkeypatch, circ, 96, 124)
    assert plain == Grouping([1, 3, 5, 7, 9], [0, 2, 4, 6, 8])
    assert _swap_czs(circ, plain, 4) == 4
    g = greedy_maxcut_group(circ, 96, 124)
    assert g.slm_qubits == [1, 5, 9]
    assert sorted(g.aod_qubits) == [0, 2, 3, 4, 6, 7, 8]
    assert _swap_czs(circ, g, 4) == 0
    # With room for one more mobile qubit, the tie goes to the earlier.
    assert greedy_maxcut_group(circ, 96, 6).slm_qubits == [1, 5, 7, 9]


def test_fill_keeps_full_columns_and_moves_that_do_not_help(monkeypatch):
    """Greedy's grouping comes back unchanged when its columns are full,
    and when no move lowers the count: in columns of two, moving static 1
    or 3 into column 2 settles CZ(1, 3) but leaves its CZ with its mobile
    partner, in column 0, two columns apart."""
    full = _circ(8, [(0, 1), (2, 3), (4, 5), (6, 7), (1, 3), (5, 7)])
    g = greedy_maxcut_group(full, 96, 124)
    assert g == _unfilled(monkeypatch, full, 96, 124)
    assert g == Grouping([1, 3, 5, 7], [0, 2, 4, 6])
    assert _swap_czs(full, g, 4) == 2
    idle = _circ(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (1, 3)])
    g = greedy_maxcut_group(idle, 96, 124, 2)
    assert g == _unfilled(monkeypatch, idle, 96, 124, 2)
    assert g == Grouping([1, 3, 5, 7, 9], [0, 2, 4, 6, 8])
    assert _swap_czs(idle, g, 2) == 1


def test_fill_never_raises_the_swap_count_or_adds_a_column(params,
                                                           monkeypatch):
    """Over the acceptance corpus, on each case's grid and capacities."""
    per_col = params.max_atoms_per_column
    fell = 0
    for circ, _, grid_kind in corpus_cases():
        layout = build_layout(circ.num_qubits, "auto", params, grid_kind)
        grid = generate_grid(grid_kind, layout, params)
        caps = len(pair_clear_sites(grid, params)), aod_capacity(layout, params)
        filled = greedy_maxcut_group(circ, *caps, per_col)
        plain = _unfilled(monkeypatch, circ, *caps, per_col)
        assert (math.ceil(len(filled.aod_qubits) / per_col)
                == math.ceil(len(plain.aod_qubits) / per_col))
        after, before = (_swap_czs(circ, g, per_col) for g in (filled, plain))
        assert after <= before
        fell += after < before
    assert fell


# ---------------------------------------------------------------------------
# degree split grouping

def test_degree_split_star_center_first():
    g = degree_split_group(_circ(4, [(0, 1), (0, 2), (0, 3)]), 10, 10)
    assert g.aod_qubits[0] == 0


def test_degree_split_tie_breaks_to_low_index():
    g = degree_split_group(_circ(4, [(0, 1), (2, 3)]), 10, 10)
    assert g.aod_qubits == [0, 1]


def test_degree_split_path_of_four():
    g = degree_split_group(_circ(4, [(0, 1), (1, 2), (2, 3)]), 10, 10)
    assert set(g.aod_qubits) == {1, 2}


def test_groupings_are_deterministic():
    rng = random.Random(1)
    circ = random_circuit(rng, 14, 120)
    for fn in (greedy_maxcut_group, degree_split_group):
        a = fn(circ, 100, 100)
        b = fn(circ, 100, 100)
        assert (a.slm_qubits, a.aod_qubits) == (b.slm_qubits, b.aod_qubits)


# ---------------------------------------------------------------------------
# atom assignment

def test_assign_slm_qubits_take_sites_in_order(default_layout, default_grid, params):
    """Static qubits take the clear sites centre-out, one site column at a
    time: by distance of the site's x from the middle of the sites' x
    range, then x, then y. The middle, 182.5, lies between the site
    columns x = 175 and 190, and the lower x goes first."""
    g = greedy_maxcut_group(_circ(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), 96, 124)
    p = assign_atoms(g, default_grid, default_layout, params)
    xs = [default_grid.sites[s][0] for s in pair_clear_sites(default_grid, params)]
    assert (min(xs) + max(xs)) / 2 == 182.5
    assert [default_grid.sites[p.site_of_qubit[q]] for q in g.slm_qubits] == [
        (175.0, 65.0), (175.0, 80.0), (175.0, 95.0), (175.0, 110.0)]


def test_assign_seats_centre_out(default_layout, params):
    """On a hand-made row of sites at x = 0-40, x_mid = 20: 20 first, then
    10 before 30 (equal distance, lower x first), then 0 before 40; within
    a site column, lower y first. Clear sites given in any order give the
    same seats."""
    grid = SlmGrid("large-square", ((40.0, 0.0), (30.0, 0.0), (20.0, 5.0),
                                    (20.0, 0.0), (10.0, 0.0), (0.0, 0.0)))
    g = Grouping(list(range(6)), [])
    for clear in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]):
        p = assign_atoms(g, grid, default_layout, params, clear)
        assert [grid.sites[p.site_of_qubit[q]] for q in range(6)] == [
            (20.0, 0.0), (20.0, 5.0), (10.0, 0.0), (30.0, 0.0), (0.0, 0.0),
            (40.0, 0.0)]


def test_assign_packs_columns_of_four(default_layout, default_grid, params):
    g = greedy_maxcut_group(Circuit(9, []), 96, 124)
    assert len(g.aod_qubits) == 9
    p = assign_atoms(g, default_grid, default_layout, params)
    assert [len(m.atoms) for m in p.columns] == [4, 4, 1]
    assert [m.column for m in p.columns] == [0, 1, 2]


def test_assign_zero_mobile_qubits(default_layout, default_grid, params):
    g = greedy_maxcut_group(_circ(2, [(0, 1)]), 96, 0)
    p = assign_atoms(g, default_grid, default_layout, params)
    assert p.columns == []


@pytest.mark.parametrize("technique", ["pachinqo", "trapchange"])
def test_columns_as_tall_as_memory_compile_and_validate(technique):
    """A column as tall as memory (16 rows on the default layout) loads
    from one memory column and hangs every atom inside memory, so its
    schedule validates."""
    params = PhysParams(max_atoms_per_column=16)
    circ = random_circuit(random.Random(0), 60, 300)
    layout = build_layout(60, "auto", params)
    grid = generate_grid("large-square", layout, params)
    assert memory_rows(layout, params) == 16
    compiler = Compiler(circ, technique, grid, layout, params)
    assert max(len(g.atoms) for g in compiler.placement.columns) == 16
    sched = compiler.run()
    assert validate_schedule(sched, layout, grid, params, circ) == []


def test_columns_taller_than_memory_rejected():
    """One atom more per column than memory has rows would load and hang
    atoms outside memory: assignment refuses it."""
    params = PhysParams(max_atoms_per_column=17)
    layout = build_layout(60, "auto", params)
    grid = generate_grid("large-square", layout, params)
    g = greedy_maxcut_group(random_circuit(random.Random(0), 60, 300),
                            len(pair_clear_sites(grid, params)),
                            aod_capacity(layout, params), 17)
    with pytest.raises(CapacityError, match="17 exceeds the 16 memory rows"):
        assign_atoms(g, grid, layout, params)


def test_assignment_deterministic(default_layout, default_grid, params):
    circ = random_circuit(random.Random(2), 16, 100)
    g = greedy_maxcut_group(circ, 96, 124)
    p1 = assign_atoms(g, default_grid, default_layout, params)
    p2 = assign_atoms(g, default_grid, default_layout, params)
    assert p1.site_of_qubit == p2.site_of_qubit
    assert (p1.ferries, p1.columns) == (p2.ferries, p2.columns)


# ---------------------------------------------------------------------------
# initialization: the compiler loads the plan

def _loaded(circ, layout, grid, params, aod_capacity=500):
    """A compiler that has run initialization for `circ` grouped greedily
    with the given mobile capacity, and its events timed as `run()` would
    time them."""
    compiler = Compiler(circ, "pachinqo", grid, layout, params)
    g = greedy_maxcut_group(circ, 500, aod_capacity)
    compiler.placement = assign_atoms(g, grid, layout, params)
    compiler._apply_initialization()
    return compiler, retime(compiler.events, params, False)


def test_init_exactly_three_trap_changes(default_layout, default_grid, params):
    # Cases with both groups, an empty static group and an empty mobile one.
    for circ, aod_capacity in ((staircase(6), 500), (_circ(2, [(0, 1)]), 500),
                               (Circuit(3, []), 500), (_circ(2, [(0, 1)]), 0)):
        compiler, events = _loaded(circ, default_layout, default_grid, params,
                                   aod_capacity)
        assert compiler.trap_change_count == 3
        assert sum(1 for e in events if isinstance(e, TrapChange)) == 3


def test_init_movement_positive_with_static_group(default_layout, default_grid, params):
    _, events = _loaded(staircase(6), default_layout, default_grid, params)
    moves = [e for e in events if isinstance(e, ColumnMove)]
    assert moves
    assert events[-1].t_end > 3 * params.trap_change_time


def test_init_timestamps_nondecreasing(default_layout, default_grid, params):
    _, events = _loaded(staircase(8, 2), default_layout, default_grid, params)
    starts = [e.t_start for e in events]
    assert starts == sorted(starts)


def _assert_state_equals_replay(compiler, grid):
    """The compiler's machine state is what its events did: replaying the
    transfers and column moves (each move phase's record, before
    `retime`) gives every atom's position, its site or column, and the
    live columns left to right by cid."""
    pos, col, site = {}, {}, {}
    for ev in compiler.events:
        if isinstance(ev, TrapChange):
            for tr in ev.transfers:
                if ev.direction == AOD_TO_SLM:
                    assert pos[tr.atom] == (tr.x, tr.y)
                    del col[tr.atom]
                    site[tr.atom] = grid.sites.index((tr.x, tr.y))
                else:
                    assert pos.get(tr.atom, (tr.x, tr.y)) == (tr.x, tr.y)
                    pos[tr.atom] = (tr.x, tr.y)
                    col[tr.atom] = tr.column
                    site.pop(tr.atom, None)
        elif isinstance(ev, (dict, ColumnMove)):
            for m in ev.values() if isinstance(ev, dict) else [ev]:
                for a, fy, ty in m.atoms:
                    assert col[a] == m.column and pos[a] == (m.from_x, fy)
                    pos[a] = (m.to_x, ty)

    n = compiler.circuit.num_qubits
    assert sorted(pos) == list(range(n))
    for a in range(n):
        assert (compiler.atom_x[a], compiler.atom_y[a]) == pos[a]
        assert compiler.atom_site[a] == site.get(a)
    assert [c.cid for c in compiler.columns] == list(range(len(compiler.columns)))
    assert {a: c.cid for c in compiler.columns for a in c.atoms} == col
    xs = [c.x for c in compiler.columns if c.atoms]
    assert xs == sorted(set(xs))


@pytest.mark.parametrize("technique", ["pachinqo", "onecache"])
@pytest.mark.parametrize("n,seed", [(8, 4), (30, 5)])
def test_init_state_equals_replayed_events(params, technique, n, seed):
    circ = random_circuit(random.Random(seed), n, 6 * n)
    layout = build_layout(n, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, technique, grid, layout, params)
    compiler._apply_initialization()
    assert compiler.trap_change_count == 3
    _assert_state_equals_replay(compiler, grid)


def test_trapchange_state_equals_replayed_events(params):
    """After every layer of a trapchange compile with a mid-circuit deposit
    and an extraction, before readout, the state still equals the replay."""
    circ = full_sites_extraction()
    layout = build_layout(circ.num_qubits, "auto", params)
    grid = generate_grid("large-square", layout, params)
    compiler = Compiler(circ, "trapchange", grid, layout, params)
    compiler._measurement = lambda: None
    compiler.emit()
    mid = {ev.direction for ev in compiler.events
           if isinstance(ev, TrapChange) and ev.layer > 0}
    assert mid == {AOD_TO_SLM, SLM_TO_AOD}
    _assert_state_equals_replay(compiler, grid)
