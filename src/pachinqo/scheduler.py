"""Layer-by-layer schedule compiler for the zoned atom array.

Placement plans the load out of memory; the compiler emits it with the
trap-change and column-move emitters every later layer uses, and is the
only code that emits events or changes machine state. Two emitters build
every trap transfer: `_pick_up` lifts atoms out of their SLM traps into
columns (the load, the readout's ferries, a trapchange extraction) and
`_deposit` drops atoms where they stand (onto sites, or into readout).
Column slots and storage rows are the zones' storage grid, which
`machine.slot_x` and `machine.slot_y` own. The frontier owns each qubit's
cursor: the compiler asks it for the CZ a qubit waits for
(`Frontier.next_cz`) and for its next CZ partner (`next_partner`).

Execution alternates U3 layers (parallel single-qubit rotations, location
independent) with CZ layers. While compiling, a U3 layer runs every
exposed rotation, so each CZ layer sees every CZ they unblock. Each move
phase is one record in the event list, its moves by cid, appended as the
phase closes. `Compiler.emit` returns that list; `Compiler.run` then
runs the decision-free passes of `postpass` on it, in order, and builds
the schedule. `pack_rotations` moves each rotation, SWAP steps included,
to any U3 layer between the illuminations on its atom before and after
it, keeping each atom's and each SWAP's order, so that the U3 layers
left each carry every rotation due there and are few (an
earliest-deadline interval cover); the layers left empty are dropped.
It changes no move, pair, SWAP or trap change, only when rotations run.
`compose` then composes each run of back-to-back move records into one,
whether the compiler emitted them so or packing dropped the U3 layer
between them. `hold_columns` lets an idle column wait, until its next
move, at the nearest legal spot: where it stands, else in memory on the
hang rows nearest its path, else, if a retreat tucked it onto memory's
bottom rows, on the hang rows above. A spot is legal when nothing in
between involves the column, it waits outside compute, no other column
crosses it, no phase grows and no atom travels further (keeping atoms
near where they are next needed, as in ZAC: Lin, Tan & Cong, HPCA
2025). No pass makes a decision or keeps a clock: the passes edit only
the event list. A last step (`retime`, here) is the only one that orders
a record's moves and times them: it emits each record's moves in a
replay-safe order (`replay_order`) and sets every event's start and end,
in order, from the cost model. Movement timing (`serial_movement`) is
read only by `hold_columns` and `retime`: it decides nothing in the
compiler.

A CZ layer plans with all columns relocated to the starting cache's
slots next to compute, then processes them from the cache side nearest
compute. It first chooses its placements as one set (`_plan_layer`, as
Enola picks each stage's gates together: Tan, Lin & Cong, ASP-DAC 2025).
A column can place next to the static partner of one executable CZ, or
of its in-flight SWAP's CZ step, INTERACTION_OFFSET left or right of the
partner; the chosen xs must increase along the processing order, since
AOD columns cannot cross (the order constraint of DPQA: Tan, Bluvstein,
Lukin & Cong, Quantum 2024). The plan is the longest such chain, the
least travel breaking ties. Each planned column then places at its x if
the clearance check still passes there, its other atoms hung below
compute (`_settle`), out of reach of the pulse. A column with a CZ it
could place but no placement waits for a later layer; any other column
runs an AOD pair, changes traps or begins a SWAP (below), and every
column that neither places nor pairs retreats out of the way of the
columns after it. A retreat takes the legal spot nearest where the layer
found the column: the opposite cache's slot nearest compute that leaves
room for the later columns, or memory under the column when no later
planned placement (or in-flight SWAP's CZ step) lies beyond it (keeping
atoms near where they are next needed, as in ZAC: Lin, Tan & Cong, HPCA
2025); failing both, it drops into memory beside the column that blocks
the way. Once every column has had its turn, the columns standing in
compute (those that placed or paired) stage every further pair of two
mobile atoms that fits where they stand (`_fill`, below), unless a column
found no legal retreat or a trap change fired. One illumination then
fires every staged pair at once. Start sides toggle right-left-right so
no column gets standing priority; a layer in which a column finds no
legal retreat keeps the same side. The layer's whole state is one
record, `Compiler.plan` (`_LayerPlan`), which `_plan_layer` builds and
the next layer replaces: the order and side, each column atom's CZ, the
placements and retreat bounds, the obstacles, the staged pairs and
their busy atoms, and the standing columns. Each column's turn
(`_find_action`, `_pair`, `_join`, `_retreat`) and `_fill` read and
extend it; an isolation layer gets a record with no columns.

Move phases are fused. The compiler applies every move to its state at
once and keeps where the open phase found each column: the column's
`found_x` and each atom's `found_y`. Closing the phase emits its record:
one untimed move per column that is not where the phase found it,
straight from there to where the column is now, by cid; the current
state is where the next phase finds the columns. A CZ layer's relocation
is therefore planned but never travelled: it shares its phase with the
placements and retreats that follow, as an isolation layer's parking
shares its phase with the one placement. Retreats measure travel from
the same found positions. A trap change closes the phase before it; the
measurement epilogue and onecache's return home open phases of their
own, which `compose` composes with the move phase next to them when no
event is left between. Both ends of a phase are strictly x-ordered,
so straight concurrent moves never cross columns. A CZ layer that stages
no pair and changes no trap puts every column back where the phase found
it (`_stay`), so it emits no move; the progress guard starts from there.

A CZ between two mobile atoms runs as an AOD pair when the column has
nothing to place: both atoms stand within the interaction radius over a
free clear site, one INTERACTION_OFFSET above the other when they share
a column, or side by side, the lower cid's on the left, when the
partner's column is the next in the layer's order (which then takes no
turn of its own). When the partner's column is the one just before and
stands in compute, the column joins it: it moves INTERACTION_OFFSET past
that column, toward the layer's far side, and the pair forms side by
side at the clear site row nearest where the open phase found the atom
(`_join`), if that x lies between the column's neighbours and short of
every later column's wanted x. Otherwise the column stays idle: the next
layer runs the columns in the reverse order, so the pair can form then.
The site is the one nearest where the open phase found the columns,
among those that are clear of obstacles and leave every later column's
wanted x reachable, as retreats do (`_free_site`, the one search for a
free clear site, which also finds a trapchange deposit's site); a pair
within one column that the neighbouring columns or that reach rule keep
from every site also waits for the next layer. A round that executes
nothing emits nothing, so the progress guard (`_guard`) waits for a
second one, in which such a pair can form. Each column's other atoms
hang below compute as for a placement.

A column takes one turn per layer but may run several pairs. After the
turns, `_fill` lifts further atoms of the standing columns into pairs
where the columns stand, with no move in x: two atoms of one column one
above the other, or two atoms of standing columns INTERACTION_OFFSET
apart side by side, each pair at the clear site row nearest where the
open phase found its first atom. Zoned arrays entangle any two atoms in
blockade range under the global Rydberg pulse (Bluvstein et al., Nature
2024), and DPQA schedules several AOD-AOD gates per pulse the same way
(Tan, Bluvstein, Lukin & Cong, Quantum 2024), so every technique gets
pairs.

Other conflicts (a partner two or more columns away, or two static
operands), and pairs with no site, insert SWAPs executed preemptively,
one component per layer, except that a U3 layer also runs a swap's next
rotation when it acts on another qubit (template steps 2-3 and 5-6
share a layer). A column begins the SWAP for its own conflict in its
turn. A CZ of two static atoms belongs to no column, so it gets its SWAP
from the head rule (`_head_swap`): when the circuit's first unexecuted
gate is such a CZ, executable, and was already first when the last CZ
layer began, the next CZ layer begins, before it plans, the SWAP the
guard would force for it (`_force_swap`), and the other columns keep
working while it runs (SABRE, below, routes a blocked front-layer gate
as soon as it blocks). The guard stays the fallback for a static pair
the head rule has not reached, after two rounds that executed nothing.
The frontier is the only record of an in-flight SWAP:
its two qubits, its gate template and its step. The qubits' atoms do
not change until the SWAP completes, so the compiler keeps nothing of
its own. Each SWAP is chosen by lookahead, as in SABRE (Li, Ding &
Xie, ASPLOS 2019): either operand of the conflicting CZ may trade places
with a qubit from the other side, taking its site or column, and the
trade that leaves the fewest of the next SWAP_WINDOW CZs conflicting,
weighted by decay, wins (`_choose_swap`). A CZ conflicts unless exactly
one operand is static, or both are mobile in one column or in
neighbouring columns, counting only columns that hold atoms (the pairs
a layer can run): `placement.needs_swap`, by which greedy grouping also
fills free column slots at load time. It packs the mobile qubits into
columns (`pack_columns`) by a stricter count, every CZ across columns.
The techniques differ only in three values set in
`Compiler.__init__`: the grouping function (degreesplit), whether a
conflict tries a mid-circuit trap change before a SWAP (trapchange), and
whether there is one cache (onecache). With one cache every layer starts
from the right cache, idle columns tuck into memory instead of crossing
to an opposite cache, isolation layers park the columns left of the
placed one in memory, and columns are back home whenever a U3 layer runs.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from . import kernels
from .circuit import END, Circuit, Frontier, Gate
from .machine import (
    INTERACTION_OFFSET,
    PhysParams,
    SlmGrid,
    ZoneLayout,
    aod_capacity,
    build_layout,
    cache_column_slots,
    generate_grid,
    hang_y,
    inner_x,
    pair_clear_sites,
    slot_x,
    slot_y,
)
from .metrics import fixed_durations, movement_phase_time
from .placement import (
    InitialPlacement,
    MemoryGroup,
    assign_atoms,
    degree_split_group,
    greedy_maxcut_group,
    needs_swap,
)
from .postpass import compose, hold_columns, pack_rotations, travels
from .schedule import (
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
)

TECHNIQUES = ("pachinqo", "degreesplit", "onecache", "trapchange")

RIGHT = 1   # columns start in the right cache, processed left-most first
LEFT = -1

# A SWAP choice scores the conflicting CZ and the next SWAP_WINDOW
# unexecuted CZs, the k-th weighted SWAP_DECAY**k (SABRE's extended set).
SWAP_WINDOW = 20
SWAP_DECAY = 0.5


class SchedulerError(RuntimeError):
    """Internal contract violation; indicates a compiler bug."""


def replay_order(moves) -> list[ColumnMove]:
    """One phase's moves in a replay-safe order, without the no-op ones.

    Column positions are strictly ordered before the phase and its targets
    preserve that order. Emitting rightward movers from the right and
    leftward movers from the left keeps the column x ordering strictly
    increasing after every single event, so a step-by-step replay never
    sees a crossing.
    """
    stationary, rightward, leftward = [], [], []
    for m in sorted(moves, key=lambda m: m.from_x):
        if m.to_x > m.from_x:
            rightward.append(m)
        elif m.to_x < m.from_x:
            leftward.append(m)
        elif travels(m):
            stationary.append(m)
    return stationary + rightward[::-1] + leftward


def retime(events: list, params: PhysParams, serial: bool) -> list:
    """`events` timed: each move phase's record turned into its moves in
    a replay-safe order (`replay_order`), and every event timed in order
    from the cost model, each starting where the one before it ends: a
    move phase lasts `movement_phase_time` of its moves in that order
    under `serial` timing, and any other event its `fixed_durations`; a
    record with no move left emits nothing. The only step that orders or
    times a move."""
    duration = fixed_durations(params)
    out, t = [], 0.0
    for ev in events:
        if isinstance(ev, dict):
            group = replay_order(ev.values())
            if not group:  # its moves were all held away
                continue
            dur = movement_phase_time(group, params, serial)
        else:
            group, dur = [ev], duration[type(ev)]
        for m in group:
            m.t_start, m.t_end = t, t + dur
        out += group
        t += dur
    return out


@dataclass(eq=False)
class _Column:
    cid: int
    x: float
    atoms: list[int] = field(default_factory=list)  # atom ids, slot order
    found_x: float = field(init=False)  # x where the open phase found it

    def __post_init__(self):
        self.found_x = self.x


@dataclass
class _LayerPlan:
    """A CZ layer's whole state, `Compiler.plan`, replaced once per layer:
    `_plan_layer` builds a CZ layer's, and an isolation layer gets one
    with no columns. It holds the layer's processing order and side, the
    CZ each column atom waits for when the layer starts (`_cz_target`,
    read once per layer), the placement chosen for each planned column,
    by cid, as (gate, atom, partner atom, x), and the atoms a placement
    keeps crosstalk_radius from, at first the static atoms; each atom
    that stands for a pair joins them."""

    order: list[_Column]
    side: int
    targets: dict[int, tuple[Gate, int, bool] | None]
    placements: dict[int, tuple[Gate, int, int, float]]
    obstacles: list[int]
    # Per cid of the order, the bounds `_retreat` and the AOD pairs obey
    # (`_plan_retreats`).
    later: dict[int, tuple[float, int]] = field(default_factory=dict)
    # The pairs the layer's illumination fires, and their atoms, busy for
    # the rest of the layer (`_stage`).
    staged: list[CzEntry] = field(default_factory=list)
    busy: set[int] = field(default_factory=set)
    # The cids of the columns standing in compute: those that have placed
    # or paired so far this layer.
    standing: set[int] = field(default_factory=set)


class Compiler:
    def __init__(self, circuit: Circuit, technique: str, grid: SlmGrid,
                 layout: ZoneLayout, params: PhysParams,
                 serial_movement: bool = False):
        if technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {technique!r}")
        if not circuit.is_basis():
            raise ValueError("compile requires a circuit lowered to the basis")
        self.circuit = circuit
        self.technique = technique
        self.grid = grid
        self.layout = layout
        self.params = params
        self.serial = serial_movement

        n = circuit.num_qubits
        # The only technique-dependent values; nothing below compares names.
        self.one_cache = technique == "onecache"
        self.trap_change_first = technique == "trapchange"
        self.clear_sites = pair_clear_sites(grid, params)
        capacities = len(self.clear_sites), aod_capacity(layout, params)
        if technique == "degreesplit":
            grouping = degree_split_group(circuit, *capacities)
        else:
            grouping = greedy_maxcut_group(circuit, *capacities,
                                           params.max_atoms_per_column)
        self.placement: InitialPlacement = assign_atoms(grouping, grid, layout,
                                                        params, self.clear_sites)
        # Per offset of a site's second spot ((0, 0) for a deposit, which
        # has one, or an AOD pair's): (x, y, site) of every clear site whose
        # spots both lie in compute, by x, and those xs (`_free_site`).
        by_x = sorted((*grid.sites[s], s) for s in self.clear_sites)
        comp = layout.compute
        self.sites_by_x: dict[tuple[float, float], tuple[list, list]] = {}
        for dx, dy in ((0.0, 0.0), (0.0, INTERACTION_OFFSET), (INTERACTION_OFFSET, 0.0)):
            fit = [(x, y, s) for x, y, s in by_x
                   if comp.contains(x, y) and comp.contains(x + dx, y + dy)]
            self.sites_by_x[dx, dy] = fit, [x for x, _, _ in fit]
        # The clear sites' rows, ascending: the ys at which a standing
        # column's pair of mobile atoms may form (`_fill`, `_join`).
        self.pair_rows = sorted({grid.sites[s][1] for s in self.clear_sites})

        # Mutable machine state. Atom ids equal initial qubit ids. An atom
        # is held by its site in atom_site, or else by a column's atoms.
        self.atom_x = [0.0] * n
        self.atom_y = [0.0] * n
        self.found_y = [0.0] * n  # y where the open move phase found each atom
        self.atom_site: list[int | None] = [None] * n
        self.qubit_of = list(range(n))
        self.atom_of = list(range(n))
        # The live columns, those that hold atoms, in cid order, which is
        # also left-to-right order.
        self.columns: list[_Column] = []
        self.next_cid = len(self.placement.ferries) + len(self.placement.columns)

        self.frontier = Frontier(circuit)
        # The circuit's first unexecuted gate when the last CZ layer began
        # (`_head_swap`).
        self.head = END
        # The index of each qubit pair's first CZ: the progress guard tries
        # executable CZs in this order.
        self.first_cz: dict[frozenset[int], int] = {}
        for i, g in enumerate(circuit.gates):
            if g.kind == "cz":
                self.first_cz.setdefault(frozenset(g.qubits), i)
        self.swap_count = 0
        self.trap_change_count = 0

        # Untimed until `retime`, each move phase as its record: a dict of
        # its moves by cid (`_flush_moves`).
        self.events: list = []
        self.layer = 0
        self.direction = RIGHT
        # The current CZ layer's state (`_cz_layer`, `_isolation_layer`),
        # empty before the first.
        self.plan = _LayerPlan([], RIGHT, {}, {}, [])
        # Each zone's storage-row ys, as many as a column holds, and each
        # cache's column-slot xs, ascending.
        self.rows = {z: [slot_y(z, params, j) for j in range(params.max_atoms_per_column)]
                     for z in layout.zones()}
        n_slots = cache_column_slots(layout, params)
        self.cache_slots = {side: [slot_x(self._cache(side), params, i)
                                   for i in range(n_slots)] for side in (RIGHT, LEFT)}
        # Isolation layers park the columns left of the placed one on the
        # park slots: the left cache's, or, with one cache, from memory's
        # left edge at storage pitch.
        if self.one_cache:
            self.cache_slots[LEFT] = []
            self.park_zone = layout.memory
            self.park_slots = [layout.memory.x0 + i * params.storage_pitch
                               for i in range(n_slots)]
        else:
            self.park_zone = layout.left_cache
            self.park_slots = self.cache_slots[LEFT]

    # ------------------------------------------------------------------
    # setup helpers
    def _apply_initialization(self) -> None:
        """Load every atom out of memory in three trap changes: ferries lift
        the static group, carry it over its site columns and dissolve into
        the sites; then the mobile group is lifted into its AOD columns,
        which park in the right cache."""
        atoms = [a for col in self._load(self.placement.ferries) for a in col.atoms]
        self._deposit(atoms)
        for a in atoms:
            self.atom_site[a] = self.placement.site_of_qubit[a]
        self.columns = self._load(self.placement.columns)

    def _load(self, groups: list[MemoryGroup]) -> list[_Column]:
        """Pick groups of SLM-held atoms (a memory column, or a site column
        at readout) up into new columns in one trap change and move each
        over its targets in one phase."""
        cols = [_Column(g.column, g.mem_x) for g in groups]
        for g in groups:
            for a, my, _, _ in g.atoms:
                self.atom_x[a], self.atom_y[a] = g.mem_x, my
                self.found_y[a] = my
        self._pick_up([(col, a) for g, col in zip(groups, cols) for a, *_ in g.atoms])
        for g, col in zip(groups, cols):
            self._move_column(col, g.atoms[0][2],
                              {a: ty for a, _, _, ty in g.atoms})
        self._flush_moves(cols)
        return cols

    # ------------------------------------------------------------------
    # event emission
    def _flush_moves(self, cols: list[_Column] | None = None) -> None:
        """Close the open movement phase: append its record, one untimed
        move by cid for each of `cols` (by default every column) that is
        not where the phase found it, from there to where it is now, unless
        no column moved. The current state opens the next phase."""
        moves = {}
        for col in self.columns if cols is None else cols:
            m = ColumnMove(0.0, 0.0, self.layer, col.cid, col.found_x, col.x,
                           [(a, self.found_y[a], self.atom_y[a]) for a in col.atoms])
            if travels(m):
                moves[col.cid] = m
            col.found_x = col.x
        self.found_y = list(self.atom_y)
        if moves:
            self.events.append(moves)

    def _move_column(self, col: _Column, to_x: float,
                     y_targets: dict[int, float]) -> None:
        """Move a column within the open phase and apply the move."""
        for a in col.atoms:
            self.atom_x[a] = to_x
            self.atom_y[a] = y_targets.get(a, self.atom_y[a])
        col.x = to_x

    def _pick_up(self, picked: list[tuple[_Column, int]]) -> None:
        """Lift each (column, atom) out of its SLM trap, where the atom
        stands, into the column's next slot, in one trap change."""
        self._trap_change(SLM_TO_AOD, [
            TrapTransfer(a, self.atom_x[a], self.atom_y[a], column=col.cid)
            for col, a in picked])
        for col, a in picked:
            self.atom_site[a] = None
            col.atoms.append(a)

    def _deposit(self, atoms: list[int]) -> None:
        """Drop each atom into an SLM trap where it stands, in one trap
        change; the caller records where it now sits."""
        self._trap_change(AOD_TO_SLM, [
            TrapTransfer(a, self.atom_x[a], self.atom_y[a]) for a in atoms])

    def _trap_change(self, direction: str,
                     transfers: list[TrapTransfer]) -> None:
        """Emit and count one trap change."""
        self.events.append(TrapChange(0.0, 0.0, self.layer, direction, transfers))
        self.trap_change_count += 1

    def _fire(self) -> None:
        """Close a CZ layer: its move phase ends, one illumination fires
        every staged pair, and with one cache the columns return home in
        a phase of their own, so that a U3 layer after it runs with every
        column home. When no U3 layer runs after it, or packing drops those
        that do, `compose` composes the return with the next layer's
        phase."""
        self._flush_moves()
        if self.plan.staged:
            self.events.append(Illumination(0.0, 0.0, self.layer, self.plan.staged))
        if self.one_cache:
            self._relocate_all(RIGHT)
            self._flush_moves()

    def _static_atoms(self) -> list[tuple[int, int]]:
        """(site, atom) for every site-held atom, in site order."""
        return sorted((s, a) for a, s in enumerate(self.atom_site) if s is not None)

    def _column_of(self, atom: int) -> _Column:
        return next(c for c in self.columns if atom in c.atoms)

    # ------------------------------------------------------------------
    # geometry helpers
    def _cache(self, side: int):
        return self.layout.right_cache if side == RIGHT else self.layout.left_cache

    def _parked_ys(self, col: _Column, zone) -> dict[int, float]:
        """`col`'s atoms on `zone`'s storage rows, in slot order."""
        return dict(zip(col.atoms, self.rows[zone]))

    def _hung(self, col: _Column, fixed: dict[int, float]) -> dict[int, float]:
        """`col`'s target ys: `fixed`'s atoms at their ys, and the j-th other
        atom in slot order hung below compute at `hang_y(j)`."""
        others = (a for a in col.atoms if a not in fixed)
        return {**{a: hang_y(self.layout, self.params, j)
                   for j, a in enumerate(others)}, **fixed}

    def _neighbors(self, col: _Column) -> tuple[float, float]:
        """Current x of the live columns either side of `col`."""
        k = self.columns.index(col)
        lo = self.columns[k - 1].x if k else -math.inf
        hi = self.columns[k + 1].x if k + 1 < len(self.columns) else math.inf
        return lo, hi

    # ------------------------------------------------------------------
    # compilation entry point
    def run(self) -> Schedule:
        """Compile: emit the events, run the post-passes on them in order,
        and build the schedule."""
        events = compose(pack_rotations(self.emit(), self.circuit.num_qubits))
        events = hold_columns(events, self.layout, self.params, self.serial, self.one_cache)
        return self.schedule(retime(events, self.params, self.serial))

    def emit(self) -> list:
        """The load, every layer and the measurement epilogue: returns the
        event list, untimed, each move phase's record appended as it
        closes."""
        self._apply_initialization()
        guard_budget = 60 * (len(self.circuit.gates) + self.circuit.num_qubits + 10)
        rounds = idle = 0  # idle: rounds in a row that executed nothing
        while not self.frontier.done():
            rounds += 1
            if rounds > guard_budget:
                raise SchedulerError("compilation did not converge")
            executed = self._u3_rounds()
            if self.frontier.done():
                break
            executed += self._cz_layer()
            idle = 0 if executed else idle + 1
            # A layer that executes nothing emits nothing, and the next
            # runs the columns in the reverse order, where a waiting pair
            # can form; the guard forces progress after two.
            if idle == 2:
                self._guard()
                idle = 0
        self._measurement()
        return self.events

    def schedule(self, events: list) -> Schedule:
        """The schedule of the emitted compile with its timed `events`."""
        return Schedule(
            technique=self.technique, grid=self.grid.kind, params=self.params,
            source_name=self.circuit.source_name, num_qubits=self.circuit.num_qubits,
            serial_movement=self.serial, events=events,
            final_mapping=dict(enumerate(self.atom_of)),
            swap_count=self.swap_count, trap_change_count=self.trap_change_count)

    # ------------------------------------------------------------------
    # U3 layers
    def _u3_rounds(self) -> int:
        """Greedy U3 layers until no rotation is frontier-exposed. Each
        layer runs every exposed rotation, so the next CZ layer sees every
        CZ they unblock; `pack_rotations` later moves rotations into fewer
        layers."""
        executed = 0
        while True:
            entries = []
            for q in self.frontier.executable_u3s():
                g = self.circuit.gates[self.frontier.next_gate(q)]
                entries.append(U3Entry(q, self.atom_of[q], g.params))
                self.frontier.advance(g)
            for sid in self.frontier.swap_ids():
                # Run the swap's consecutive rotations together: template
                # steps 2-3 and 5-6, each pair on its two qubits.
                qubits = self.frontier.swap_qubits(sid)
                g = self.frontier.swap_gate(sid)
                while g.kind == "u3":
                    q = g.qubits[0]
                    entries.append(U3Entry(q, self.atom_of[q], g.params, g.origin))
                    if self.frontier.advance(g) is not None:
                        self._complete_swap(*qubits)
                        break
                    g = self.frontier.swap_gate(sid)
            if not entries:
                return executed
            self.layer += 1
            self.events.append(U3LayerEvent(0.0, 0.0, self.layer, entries))
            executed += len(entries)

    def _complete_swap(self, qa: int, qb: int) -> None:
        """Exchange the atoms of the qubits of a SWAP that just completed,
        at its last step (`Frontier.advance`). The validator exchanges
        them at step 7, wire a's last. Exchanging there too could not let
        qubit b's next CZ be planned any earlier: step 7's atoms are busy
        for the rest of its CZ layer, and step 8 always runs in the first
        U3 layer after step 7's illumination, before the next CZ layer
        plans."""
        aa, ab = self.atom_of[qa], self.atom_of[qb]
        self.atom_of[qa], self.atom_of[qb] = ab, aa
        self.qubit_of[aa], self.qubit_of[ab] = qb, qa

    # ------------------------------------------------------------------
    # CZ layers
    def _park(self, cols: list[_Column], zone, xs: list[float]) -> None:
        """Park `cols` on `zone`'s storage rows, the k-th at x `xs[k]`."""
        for col, x in zip(cols, xs):
            self._move_column(col, x, self._parked_ys(col, zone))

    def _relocate_all(self, side: int) -> None:
        """Move every column, within the open phase, to the `side` cache
        parking slots next to compute. With one cache, no column ever
        empties, so `_relocate_all(RIGHT)` puts every column on its home
        slot."""
        slots = self.cache_slots[side]
        if side == LEFT:  # the slots next to compute
            slots = slots[len(slots) - len(self.columns):]
        self._park(self.columns, self._cache(side), slots)

    def _cz_layer(self) -> int:
        """Run one CZ layer from `self.direction`'s cache: plan it
        (`_plan_layer`, whose record is the layer's state), then give
        every live column that is not yet standing its action in
        processing order (`_find_action`), retreating each column that
        neither placed nor paired, stage the further pairs the standing
        columns can run where they stand (`_fill`, unless a column was
        stuck or a trap change fired), and fire. Before planning, the head
        rule (`_head_swap`) may begin the SWAP of a static pair that has
        headed the circuit for a whole CZ layer. Every column gets its
        turn, but a column an AOD pair took along stands already. Returns
        the number of columns that executed a CZ, changed traps or began
        a SWAP, plus one if the head rule began one."""
        self.layer += 1
        executed = self._head_swap()
        plan = self.plan = self._plan_layer()
        # Plan against every column parked on the layer's side, but let
        # each column travel once, straight to where the layer leaves it.
        self._relocate_all(plan.side)

        trap_changes = self.trap_change_count
        stuck = False  # a column found no legal retreat
        order = plan.order
        for k, col in enumerate(order):
            if col.cid in plan.standing:
                continue
            prev = order[k - 1] if k else None
            nxt = order[k + 1] if k + 1 < len(order) else None
            executed += self._find_action(col, prev, nxt)
            # Clear the way, unless the column stands or a deposit took
            # its last atom.
            if col.cid not in plan.standing and col.atoms and not self._retreat(col):
                stuck = True
                break
        trap_changed = self.trap_change_count != trap_changes
        if not (stuck or trap_changed):
            self._fill()
        if not plan.staged and not trap_changed:
            self._stay()
        self._fire()
        if not (self.one_cache or stuck):
            self.direction = -self.direction
        return executed

    def _head_swap(self) -> int:
        """The head rule: begin the SWAP `_guard` would force
        (`_force_swap`) for the circuit's first unexecuted gate g if g is
        an executable CZ of two static atoms and was already first when
        the last CZ layer began. No column begins a SWAP for g, so without
        this rule it waits for two rounds that execute nothing. Waiting
        one layer first leaves a layer SWAP the chance to move either
        operand into a column. Returns 1 if a SWAP began, else 0."""
        head, self.head = self.head, self.frontier.first_pending()
        if head != self.head or head == END:
            return 0
        gate = self.circuit.gates[head]
        if gate.kind != "cz" or not self.frontier.executable_cz(*gate.qubits):
            return 0
        if any(self.atom_site[self.atom_of[q]] is None for q in gate.qubits):
            return 0
        return int(self._force_swap(*gate.qubits))

    def _stay(self) -> None:
        """Put every column and atom back where the open phase found it, so
        that closing the phase emits no move: a CZ layer that stages no
        pair and changes no trap has nothing to move for."""
        for col in self.columns:
            self._move_column(col, col.found_x,
                              {a: self.found_y[a] for a in col.atoms})

    def _fill(self) -> None:
        """Stage each further CZ of two mobile atoms that the layer's
        standing columns can run where they stand, once every column has
        had its turn.

        The standing columns go in cid order, their atoms in slot order.
        An atom that is not busy qualifies when its `_cz_target` is an
        executable CZ, not a SWAP step, whose partner is mobile and not
        busy. The pair stands one above the other, at (x, y) and
        (x, y + INTERACTION_OFFSET), when both atoms share a column, or
        side by side at y when the partner's column stands exactly
        INTERACTION_OFFSET away; no column moves in x. y is the pair row
        nearest where the open phase found the atom at which both spots
        lie in compute and clear of every obstacle (`_clear_row`), and
        both atoms then become obstacles."""
        busy = self.plan.busy
        cols = [c for c in self.columns if c.cid in self.plan.standing]
        for col in cols:
            for atom in col.atoms:
                if atom in busy:
                    continue
                target = self._cz_target(atom)
                if target is None or target[2]:
                    continue
                gate, partner, _ = target
                if (partner in busy or self.atom_site[partner] is not None
                        or not self.frontier.executable_cz(*gate.qubits)):
                    continue
                if partner in col.atoms:
                    other, dx, dy = col, 0.0, INTERACTION_OFFSET
                else:
                    other = next((c for c in cols if partner in c.atoms), None)
                    if other is None or abs(other.x - col.x) != INTERACTION_OFFSET:
                        continue
                    dx, dy = other.x - col.x, 0.0
                y = self._clear_row(col.x, atom, dx, dy)
                if y is None:
                    continue
                self._stand([(col, atom, y), (other, partner, y + dy)])
                self._stage(gate, atom, partner)

    def _clear_row(self, x: float, atom: int, dx: float, dy: float) -> float | None:
        """The pair row y nearest where the open phase found `atom`, the
        lower on a tie, at which (x, y) and (x + dx, y + dy) both lie in
        compute and clear of every obstacle; None if there is none."""
        comp = self.layout.compute
        r2 = self.params.crosstalk_radius ** 2
        fy = self.found_y[atom]
        for y in sorted(self.pair_rows, key=lambda r: (abs(r - fy), r)):
            if all(comp.contains(px, py) and kernels.clear_from(
                    self.plan.obstacles, self.atom_x, self.atom_y, px, py, r2)
                   for px, py in ((x, y), (x + dx, y + dy))):
                return y
        return None

    def _stand(self, atoms: list[tuple[_Column, int, float]]) -> None:
        """Lift each (column, atom, y) to y where its column stands, within
        the open phase; the atoms become obstacles."""
        for col, atom, y in atoms:
            self._move_column(col, col.x, {atom: y})
            self.plan.obstacles.append(atom)

    # -- per-column decision -------------------------------------------
    def _can_place(self, target: tuple[Gate, int, bool]) -> bool:
        """Whether a column atom could place its `_cz_target` now: an
        in-flight SWAP's CZ step, or an executable CZ with a static
        partner."""
        gate, partner, is_swap = target
        return is_swap or (self.atom_site[partner] is not None
                           and self.frontier.executable_cz(*gate.qubits))

    def _plan_layer(self) -> _LayerPlan:
        """The record of a CZ layer from `self.direction`'s cache: its
        live columns in processing order, from the cache side nearest
        compute, the placements chosen together as one chain along that
        order, the retreat bounds (`_plan_retreats`) and the static atoms
        as its obstacles.

        A column atom can place its in-flight SWAP's CZ step, or an
        executable CZ with a static partner. Each such CZ offers two xs,
        one INTERACTION_OFFSET either side of the partner; a column takes
        at most one, and `side * x` strictly increases along the order,
        since columns cannot cross. A static atom's next CZ has one
        partner, so each static partner serves at most one placement. The
        chain with the most placements wins, then the least summed travel
        from where the open phase found each column (|dx| of the column
        plus |dy| of its CZ atom), then the first found: a longest
        increasing subsequence over the candidates, columns in order and
        atoms in slot order."""
        side = self.direction
        order = self.columns[::side]  # LEFT reverses the cid order
        targets: dict[int, tuple[Gate, int, bool] | None] = {}
        # Per candidate: side * x, its chain's rank (-placements, travel),
        # the index of the chain's previous candidate or -1, and its
        # column's cid and placement.
        nodes: list[tuple[float, tuple[int, float], int, int, tuple]] = []
        for col in order:
            new = []
            for atom in col.atoms:
                target = targets[atom] = self._cz_target(atom)
                if target is None or not self._can_place(target):
                    continue
                gate, partner, _ = target
                px = self.atom_x[partner]
                dy = abs(self.atom_y[partner] - self.found_y[atom])
                for x in (px - INTERACTION_OFFSET, px + INTERACTION_OFFSET):
                    key, step = side * x, abs(x - col.found_x) + dy
                    rank, prev = (-1, step), -1
                    for i, (k, (n, t), *_) in enumerate(nodes):
                        if k < key and (n - 1, t + step) < rank:
                            rank, prev = (n - 1, t + step), i
                    new.append((key, rank, prev, col.cid, (gate, atom, partner, x)))
            nodes.extend(new)
        placements = {}
        i = min(range(len(nodes)), key=lambda i: nodes[i][1], default=-1)
        while i >= 0:
            _, _, i, cid, placement = nodes[i]
            placements[cid] = placement
        plan = _LayerPlan(order, side, targets, placements,
                          [atom for _, atom in self._static_atoms()])
        plan.later = self._plan_retreats(plan)
        return plan

    def _find_action(self, col: _Column, prev: _Column | None,
                     nxt: _Column | None) -> bool:
        """Pick and apply this column's action for the current layer, and
        say whether it acted: placed, paired, changed traps or began a
        SWAP. A column that places or pairs stands in compute
        (`plan.standing`); a trap change closes the phase with the column
        over the site, so the next phase finds it there.

        A planned column places at its planned x if the clearance check
        still passes there. A column left with a CZ it could place (not
        planned, its plan refused by the check, or its partner busy)
        waits for a later layer: it begins no SWAP and no trap change.
        Otherwise its highest atom whose executable CZ has a mobile
        partner conflicts. If the partner is in `prev`, the column just
        before in the layer's order, the column joins `prev` when `prev`
        stands in compute (`_join`); else, or if the join finds no legal
        x or clear row, it stays idle: the next layer, in the reverse
        order, can run it as an AOD pair. Else it tries an AOD pair
        (`_pair`, with `nxt`, the next column of the order, or within the
        column; it may also wait), then (trapchange) a trap change, then
        a SWAP."""
        plan = self.plan
        planned = plan.placements.get(col.cid)
        if planned is not None and self._try_place(col, planned[2], planned[3]):
            gate, atom, partner_atom, x = planned
            self._settle(col, x, {atom: self.atom_y[partner_atom]})
            self._stage(gate, atom, partner_atom)
            plan.standing.add(col.cid)
            return True
        conflict: tuple[int, int, int] | None = None  # (atom, q, partner q)
        for atom in sorted(col.atoms, key=lambda a: -self.atom_y[a]):
            target = plan.targets.get(atom)
            if target is None:
                continue
            if self._can_place(target):
                return False
            gate, partner_atom, _ = target
            if conflict is None and self.frontier.executable_cz(*gate.qubits):
                conflict = (atom, self.qubit_of[atom], self.qubit_of[partner_atom])
        if conflict is None:
            return False
        atom, q, p = conflict
        partner_atom = self.atom_of[p]
        if prev is not None and partner_atom in prev.atoms:
            stood = prev.cid in plan.standing and self._join(col, prev, atom, partner_atom)
        else:
            stood = self._pair(col, nxt, atom, partner_atom)
        if stood:
            self._stage(self.circuit.gates[self.frontier.next_gate(q)], atom, partner_atom)
            plan.standing.add(col.cid)
            return True
        if stood is not None:  # the join or the pair waits
            return False
        if self.trap_change_first:
            tc = self._plan_trapchange(col, conflict)
            if tc is not None:
                self._trapchange_action(col, *tc)
                return True
        choice = self._choose_swap(q, p, forced=False)
        if choice is not None:
            self._begin_swap(*choice)
        return choice is not None

    # -- placement geometry ----------------------------------------------
    def _try_place(self, col: _Column, partner_atom: int, x: float) -> bool:
        """Whether `col` can place at x level with `partner_atom`: between its
        neighbours and clear of every obstacle but the partner."""
        lo, hi = self._neighbors(col)
        return lo < x < hi and kernels.clear_from_except(
            self.plan.obstacles, self.atom_x, self.atom_y, x,
            self.atom_y[partner_atom], self.params.crosstalk_radius ** 2, partner_atom)

    def _settle(self, col: _Column, x: float, fixed: dict[int, float]) -> None:
        """Move `col` to x and `_hung` ys within the open phase; the atoms of
        `fixed` become obstacles."""
        self._move_column(col, x, self._hung(col, fixed))
        self.plan.obstacles.extend(fixed)

    def _stage(self, gate: Gate, atom: int, partner_atom: int) -> None:
        """Stage `gate` on two atoms where they now stand, for the layer's
        illumination; both stay busy for the rest of the layer."""
        self.plan.busy.update((atom, partner_atom))
        atoms = (atom, partner_atom)
        if gate.qubits != (self.qubit_of[atom], self.qubit_of[partner_atom]):
            atoms = atoms[::-1]
        positions = tuple((self.atom_x[a], self.atom_y[a]) for a in atoms)
        self.plan.staged.append(CzEntry(gate.qubits, atoms, positions, gate.origin))
        self.frontier.advance(gate)

    # -- AOD pairs ----------------------------------------------------------
    def _pair(self, col: _Column, nxt: _Column | None, atom: int,
              partner_atom: int) -> bool | None:
        """Stand the CZ of two mobile atoms as an AOD pair over a free
        clear site: one above the other when both are in `col`, side by
        side, the lower cid's on the left, when the partner is in `nxt`,
        the next column of the layer's order, which then stands too
        (`plan.standing`). True if the pair stands; None when the partner
        is in neither column or no site fits (`_pair_site`), except that
        a pair within `col` that only the neighbouring columns or a later
        column's wanted x keep from every site waits (False): the next
        layer runs the columns in the reverse order."""
        if partner_atom in col.atoms:
            atoms = sorted((atom, partner_atom), key=lambda a: self.atom_y[a])
            cols, last = [col, col], col
            offset = (0.0, INTERACTION_OFFSET)
        elif nxt is not None and partner_atom in nxt.atoms:
            atoms, cols, last = [atom, partner_atom], [col, nxt], nxt
            if nxt.cid < col.cid:
                atoms.reverse()
                cols.reverse()
            offset = (INTERACTION_OFFSET, 0.0)
        else:
            return None
        # Between the columns' outer neighbours and short of every x a
        # later column wants (`later`, as `_retreat` obeys).
        lo, hi = self._neighbors(cols[0])[0], self._neighbors(cols[1])[1]
        reach = self.plan.later[last.cid][0]
        if self.plan.side == RIGHT:
            hi = min(hi, reach)
        else:
            lo = max(lo, -reach)
        spots = self._pair_site(atoms, cols, offset, lo, hi)
        if spots is None:
            if cols[0] is cols[1] and self._pair_site(
                    atoms, cols, offset, -math.inf, math.inf) is not None:
                return False
            return None
        if cols[0] is cols[1]:
            (x, y0), (_, y1) = spots
            self._settle(col, x, dict(zip(atoms, (y0, y1))))
            return True
        for a, c, (x, y) in zip(atoms, cols, spots):
            self._settle(c, x, {a: y})
        self.plan.standing.add(nxt.cid)
        return True

    def _join(self, col: _Column, prev: _Column, atom: int, partner_atom: int) -> bool:
        """Stand `atom` of `col` beside `partner_atom` of `prev`, the column
        just before in the layer's order, which stands in compute: `col`
        moves to x = prev.x + side * INTERACTION_OFFSET, for the layer's
        side, and the pair forms at the clear pair row nearest where the
        open phase found `atom`, the lower on a tie. False, changing
        nothing, when the partner is busy, x is not strictly between
        `col`'s neighbours or not short of every x a later column wants
        (`plan.later`), or no row is clear."""
        side = self.plan.side
        x = prev.x + side * INTERACTION_OFFSET
        lo, hi = self._neighbors(col)
        if (partner_atom in self.plan.busy or not lo < x < hi
                or side * x >= self.plan.later[col.cid][0]):
            return False
        y = self._clear_row(x, atom, prev.x - x, 0.0)
        if y is None:
            return False
        self._settle(col, x, {atom: y})
        self._stand([(prev, partner_atom, y)])
        return True

    def _pair_site(self, atoms: list[int], cols: list[_Column],
                   offset: tuple[float, float], lo: float, hi: float
                   ) -> list[tuple[float, float]] | None:
        """Where the pair `atoms` (of `cols`) stands: the first at a free
        clear site, the second `offset` from it; the site `_free_site`
        finds nearest where the open phase found the columns, or None."""
        found = self._free_site(offset, lo, hi, lambda spots: max(
            abs(x - c.found_x) + abs(y - self.found_y[a])
            for (x, y), c, a in zip(spots, cols, atoms)))
        return None if found is None else found[1]

    def _free_site(self, offset: tuple[float, float], lo: float, hi: float,
                   cost) -> tuple[int, list[tuple[float, float]]] | None:
        """The free clear site whose spots (the site, and `offset` from it)
        both lie in compute, strictly between lo and hi in x, and clear of
        every obstacle, of least `cost(spots)`, the lower site on a tie, as
        (site, spots); None if there is none."""
        occupied = {s for s in self.atom_site if s is not None}
        dx, dy = offset
        # The sites with lo < x < hi; the offset spot is checked on its own.
        sites, xs = self.sites_by_x[offset]
        i, j = bisect.bisect_right(xs, lo), bisect.bisect_left(xs, hi)
        candidates = []
        for sx, sy, site in sites[i:j]:
            if site not in occupied and lo < sx + dx < hi:
                spots = [(sx, sy), (sx + dx, sy + dy)] if dx or dy else [(sx, sy)]
                candidates.append((cost(spots), site, spots))
        r2 = self.params.crosstalk_radius ** 2
        for _, site, spots in sorted(candidates):
            if all(kernels.clear_from(self.plan.obstacles, self.atom_x, self.atom_y,
                                      x, y, r2) for x, y in spots):
                return site, spots
        return None

    # -- retreat ----------------------------------------------------------
    def _plan_retreats(self, plan: _LayerPlan) -> dict[int, tuple[float, int]]:
        """What `_retreat` decides from: per cid of the plan's order, the
        nearest placement x any live column after it could want, as
        `side * x` (a suffix minimum), and how many live columns follow
        it. A column wants its planned x, and an atom whose in-flight
        SWAP waits for its CZ step wants the nearer x beside that step's
        partner."""
        later = {}
        reach = math.inf
        side = plan.side
        for live, col in enumerate(reversed(plan.order)):
            later[col.cid] = reach, live
            planned = plan.placements.get(col.cid)
            if planned is not None:
                reach = min(reach, side * planned[3])
            for atom in col.atoms:
                target = plan.targets.get(atom)
                if target is not None and target[2]:
                    reach = min(reach, side * self.atom_x[target[1]] - INTERACTION_OFFSET)
        return later

    def _cz_target(self, atom: int) -> tuple[Gate, int, bool] | None:
        """(gate, partner atom, whether it is a SWAP step) for the CZ column
        atom `atom` waits for (`Frontier.next_cz`): its in-flight SWAP's CZ
        step if its qubit moves in that SWAP, or its next gate if that is a
        CZ; else None."""
        q = self.qubit_of[atom]
        gate = self.frontier.next_cz(q)
        # The SWAP's first qubit is the one whose atom moves (`_begin_swap`).
        if gate is None or (gate.origin is not None and
                            self.frontier.swap_qubits(gate.origin.swap_id)[0] != q):
            return None
        q0, q1 = gate.qubits
        return gate, self.atom_of[q1 if q0 == q else q0], gate.origin is not None

    def _retreat(self, col: _Column) -> bool:
        """Clear the way for the columns processed after this one in the
        layer, at the legal spot nearest where the open phase found the
        column, by the layer's side and `plan.later` (`_plan_retreats`).
        Two spots compete: the opposite cache's free slot nearest compute
        that still leaves a free slot on its compute side for each later
        live column, and memory under the
        column's found x (inside memory's margin), legal only when every
        placement a later column could want lies beyond it. If neither is
        legal, the column tucks in beside the blocking column and drops
        into memory, at memory's near margin if no live column is on its
        near side. Returns False if no legal spot exists, in which case
        the column stays parked (and blocks the rest of the layer). With
        one cache there is no opposite cache, so an idle column always
        drops into memory. Where the column waits until its next move is
        refined later by `hold_columns`, which sees the whole event list:
        it may wait where it stood, nearer in memory, or on the hang rows
        rather than memory's bottom rows. Those spots are not chosen here,
        because the layer's travel tie-breaks read this spot and later
        SWAP choices would change (ROADMAP item 1)."""
        mem = self.layout.memory
        side = self.plan.side
        lo, hi = self._neighbors(col)
        reach, n_later = self.plan.later[col.cid]
        x0 = col.found_x
        spots = []
        # Live columns are x-ordered by cid, so every slot in (lo, hi) is
        # free.
        slots = self.cache_slots[-side]
        i, j = bisect.bisect_right(slots, lo), bisect.bisect_left(slots, hi)
        if i < j:
            k = max(i, j - 1 - n_later) if side == RIGHT else min(j - 1, i + n_later)
            spots.append((slots[k], self._parked_ys(col, self._cache(-side))))
        mem_x0, mem_x1 = inner_x(mem)
        x = min(max(x0, mem_x0), mem_x1)
        if lo < x < hi and side * x < reach:
            spots.append((x, self._hung(col, {})))
        if spots:
            def travel(spot):
                x, ys = spot
                return abs(x - x0) + max(abs(y - self.found_y[a])
                                         for a, y in ys.items())
            x, ys = min(spots, key=travel) if len(spots) > 1 else spots[0]
            self._move_column(col, x, ys)
            return True
        # Blocked: tuck in beside the neighbor and drop into memory.
        if side == RIGHT:
            x = mem_x0 if lo == -math.inf else lo + self.params.storage_pitch
        else:
            x = hi - self.params.storage_pitch
        if not (mem.x0 <= x <= mem.x1) or not (lo < x < hi):
            return False
        self._move_column(col, x, self._parked_ys(col, mem))
        return True

    # -- inserted swaps -----------------------------------------------------
    def _next_partner_static(self, q: int) -> bool | None:
        """Whether q's next CZ partner sits in a static trap; None if q has
        no CZ left."""
        p = self.frontier.next_partner(q)
        return None if p is None else self.atom_site[self.atom_of[p]] is not None

    def _places(self) -> list[int | None]:
        """Per qubit, where it stands once its in-flight SWAP ends: None on
        a site, else its column's rank among the live columns in cid
        order, the order `_cz_layer` runs them in."""
        rank_of = {a: r for r, col in enumerate(self.columns) for a in col.atoms}
        places = []
        for q in range(self.circuit.num_qubits):
            atom = self.atom_of[q]
            if q in self.frontier.lock:
                qa, qb = self.frontier.swap_qubits(self.frontier.lock[q])
                atom = self.atom_of[qb if q == qa else qa]
            places.append(None if self.atom_site[atom] is not None else rank_of[atom])
        return places

    def _choose_swap(self, q: int, p: int,
                     forced: bool) -> tuple[int, int] | None:
        """The SWAP that resolves the conflicting CZ (q, p), as (mobile
        atom, static atom) for `_begin_swap`, or None if no qubit can take
        part.

        A CZ conflicts when `needs_swap` says so for its operands'
        `_places`: unless exactly one operand is static, or both are mobile
        in one AOD column or in neighbouring ones (an AOD pair).
        A candidate exchanges one operand o of the CZ with an unlocked
        qubit x on the other side, o taking x's site or column and x
        taking o's. Its cost is the decayed count of window CZs that
        conflict once every in-flight SWAP has ended and the exchange is
        made: the conflicting CZ, then the first SWAP_WINDOW CZs not yet
        executed, the k-th weighted SWAP_DECAY**k. Only the CZs of o and x
        are rescored per candidate. An x whose own next CZ is split now
        would be pulled away from it: a forced choice (the progress guard)
        ranks such an x last, any other skips it. Lowest cost wins, then
        moving q rather than p, the nearer x and the lower atom id.
        """
        gates = self.circuit.gates
        conflict = self.frontier.next_gate(q)
        window = [conflict] + [i for i in self.frontier.pending_czs(SWAP_WINDOW + 1)
                               if i != conflict][:SWAP_WINDOW]
        places = self._places()

        # qubit -> [(weight, other operand, conflicting now)] over the window
        touching: dict[int, list[tuple[float, int, bool]]] = {}
        cost0 = 0.0
        w = 1.0
        for i in window:
            a, b = gates[i].qubits
            now = needs_swap(places[a], places[b])
            if now:
                cost0 += w
            touching.setdefault(a, []).append((w, b, now))
            touching.setdefault(b, []).append((w, a, now))
            w *= SWAP_DECAY

        def moved(y: int, to: int | None, other: int) -> float:
            # Cost change from y taking place `to`, over the window CZs y
            # shares with neither `other`: a CZ of y and other only trades
            # its operands' places.
            return sum(wk * (needs_swap(to, places[z]) - was)
                       for wk, z, was in touching.get(y, ()) if z != other)

        mobile = places[q] is not None
        if mobile:
            others = [a for _, a in self._static_atoms()]
        else:
            others = [a for col in self.columns for a in col.atoms]
        best = None
        for x_atom in others:
            x = self.qubit_of[x_atom]
            if x in self.frontier.lock:
                continue
            # x is static exactly when q is mobile.
            partner_static = self._next_partner_static(x)
            ineligible = partner_static is not None and partner_static != mobile
            if ineligible and not forced:
                continue
            xx, xy = self.atom_x[x_atom], self.atom_y[x_atom]
            for o in (q, p):
                o_atom = self.atom_of[o]
                cost = (cost0 + moved(o, places[x], x)
                        + moved(x, places[o], o))
                d = (self.atom_x[o_atom] - xx) ** 2 + (self.atom_y[o_atom] - xy) ** 2
                key = (ineligible, cost, o != q, d, x_atom)
                if best is None or key < best[0]:
                    best = key, o_atom
        if best is None:
            return None
        (*_, x_atom), o_atom = best
        return (o_atom, x_atom) if mobile else (x_atom, o_atom)

    def _begin_swap(self, aod_atom: int, slm_atom: int) -> None:
        """Start a SWAP; its qubits go to the frontier mobile first, the
        order `_cz_target`, `_places` and `_guard` read them in."""
        self.frontier.begin_swap(self.swap_count, self.qubit_of[aod_atom],
                                 self.qubit_of[slm_atom])
        self.swap_count += 1

    # -- trapchange variant ---------------------------------------------
    def _plan_trapchange(self, col: _Column,
                         conflict) -> tuple[int, int] | None:
        """(atom, site) of a mid-circuit trap change: the conflicted atom
        deposited into a free clear site, or else a statically-conflicted
        atom extracted from its site into this column's free slot."""
        atom = conflict[0]
        ax, ay = self.atom_x[atom], self.atom_y[atom]
        lo, hi = self._neighbors(col)
        found = self._free_site((0.0, 0.0), lo, hi, lambda spots: (
            (spots[0][0] - ax) ** 2 + (spots[0][1] - ay) ** 2))
        if found is not None:
            return atom, found[0]
        if len(col.atoms) < self.params.max_atoms_per_column:
            for site, s_atom in self._static_atoms():
                s = self.qubit_of[s_atom]
                if s in self.frontier.lock or s_atom in self.plan.busy:
                    continue
                if not self._next_partner_static(s):
                    continue  # no CZ left, or a mobile partner: no help
                if lo < self.grid.sites[site][0] < hi:
                    return s_atom, site
        return None

    def _trapchange_action(self, col: _Column, atom: int, site: int) -> None:
        """Apply a mid-circuit trap change: the open phase closes with the
        column over the site, and the trap change follows. It deposits
        `atom` if the column holds it, and else extracts it from `site`."""
        deposit = self.atom_site[atom] is None
        sx, sy = self.grid.sites[site]
        # Over the site, with the column's other atoms hung below compute
        # (an extracted atom is not in the column yet).
        self._settle(col, sx, {atom: sy} if deposit else {})
        self._flush_moves()
        if deposit:
            self._deposit([atom])
            self.atom_site[atom] = site
            col.atoms.remove(atom)
            if not col.atoms:
                self.columns.remove(col)
        else:  # extract
            self._pick_up([(col, atom)])

    # ------------------------------------------------------------------
    # progress guard
    def _isolation_feasible(self, mobile_atom: int, static_atom: int) -> bool:
        """Whether an isolation layer can reach the static atom's site: the
        last of the columns parked left of the mobile one must stay left of
        the placement. Always true with a dual cache, whose left cache lies
        left of compute; with one cache it bounds how far left a site can
        be serviced.
        """
        k = self.columns.index(self._column_of(mobile_atom))
        lo_after = self.park_slots[k - 1] if k else -math.inf
        return lo_after < self.atom_x[static_atom] + INTERACTION_OFFSET

    def _guard(self) -> None:
        """Forced progress when two rounds in a row executed nothing.

        Pending inserted-SWAP CZ steps and frontier-executable CZ gates are
        serviced in an isolation layer: every other column parks out of the
        way, so the placement is geometrically guaranteed. Same-trap
        conflicts fall back to a forced swap initiation. Pairs are tried in
        the order of their first CZ in the circuit. The head rule
        (`_head_swap`) begins most static pairs' SWAPs earlier, while other
        columns still work; the guard is the fallback for a static pair
        that does not head the circuit, or has headed it for less than a
        CZ layer, when every column is stuck.
        """
        for sid in self.frontier.swap_ids():
            gate = self.frontier.swap_gate(sid)
            qa, qb = self.frontier.swap_qubits(sid)
            mobile, static = self.atom_of[qa], self.atom_of[qb]
            if gate.kind == "cz" and self._isolation_feasible(mobile, static):
                self._isolation_layer(mobile, static, gate)
                return
        gates = self.circuit.gates
        ready = [i for i in self.frontier.pending_czs(len(gates))
                 if self.frontier.executable_cz(*gates[i].qubits)]
        for i in sorted(ready, key=lambda i: self.first_cz[frozenset(gates[i].qubits)]):
            q1, q2 = gates[i].qubits
            a1, a2 = self.atom_of[q1], self.atom_of[q2]
            s1, s2 = self.atom_site[a1] is not None, self.atom_site[a2] is not None
            if s1 != s2:
                mobile, static = (a2, a1) if s1 else (a1, a2)
                if self._isolation_feasible(mobile, static):
                    self._isolation_layer(mobile, static, gates[i])
                    return
                continue
            if self._force_swap(q1, q2):
                return
        raise SchedulerError("progress guard found no actionable gate")

    def _force_swap(self, q1: int, q2: int) -> bool:
        """Begin the forced SWAP for the executable CZ (q1, q2) of two
        atoms on the same side, preferring to move the lower qubit;
        whether one began."""
        choice = self._choose_swap(min(q1, q2), max(q1, q2), forced=True)
        if choice is not None:
            self._begin_swap(*choice)
        return choice is not None

    def _isolation_layer(self, active_atom: int, partner_atom: int,
                         gate: Gate) -> None:
        """One CZ layer with a single column placed and all others parked;
        its record (`Compiler.plan`) has no columns."""
        self.layer += 1
        self.plan = _LayerPlan([], self.direction, {}, {},
                               [atom for _, atom in self._static_atoms()])
        col = self._column_of(active_atom)
        self._park_others(col)
        x = self.atom_x[partner_atom] + INTERACTION_OFFSET
        if not self._try_place(col, partner_atom, x):
            raise SchedulerError("isolation placement failed")
        self._settle(col, x, {active_atom: self.atom_y[partner_atom]})
        self._stage(gate, active_atom, partner_atom)
        self._fire()

    def _park_others(self, col: _Column) -> None:
        """Park every column but `col` out of its way, within the open
        phase."""
        # Left of it on the park slots; right of it up to the right cache's
        # far edge.
        k = self.columns.index(col)
        left, right = self.columns[:k], self.columns[k + 1:]
        slots = self.cache_slots[RIGHT]
        self._park(left, self.park_zone, self.park_slots)
        self._park(right, self.layout.right_cache, slots[len(slots) - len(right):])

    # ------------------------------------------------------------------
    # measurement epilogue
    def _measurement(self) -> None:
        """Readout: deposit mobile atoms in the readout cache, measure,
        then ferry the compute atoms over and measure them. Three serial
        trap changes, mirroring initialization."""
        if self.frontier.lock:
            raise SchedulerError("measurement reached with active swaps")
        self.layer += 1
        params = self.params
        rc = self.layout.right_cache

        self._relocate_all(RIGHT)
        self._flush_moves()

        # TC a: deposit every mobile atom where it is parked.
        mobile = [a for col in self.columns for a in col.atoms]
        self.columns = []
        self._deposit_and_measure(mobile)

        # TC b: pick the compute atoms up, one ferry column per site
        # column, and park the ferries on the readout slots in a y band
        # above the atoms already deposited there, so positions never
        # collide.
        by_x: dict[float, list[int]] = {}
        for _, atom in self._static_atoms():
            by_x.setdefault(self.atom_x[atom], []).append(atom)
        y_base = slot_y(rc, params, params.max_atoms_per_column)
        groups = []
        for i, x in enumerate(sorted(by_x)):
            groups.append(MemoryGroup(self.next_cid, x, [
                (a, self.atom_y[a], slot_x(rc, params, i),
                 y_base + j * params.storage_pitch) for j, a in enumerate(by_x[x])]))
            self.next_cid += 1
        ferries = self._load(groups)

        # TC c: deposit in readout and measure.
        self._deposit_and_measure([a for col in ferries for a in col.atoms])

    def _deposit_and_measure(self, atoms: list[int]) -> None:
        """Readout trap change for `atoms` where they stand, then measure."""
        self._deposit(atoms)
        if atoms:
            self.events.append(Measure(0.0, 0.0, self.layer, sorted(
                (a, self.qubit_of[a], self.atom_x[a], self.atom_y[a]) for a in atoms)))


def compile_circuit(circuit: Circuit, technique: str = "pachinqo",
                    grid_kind: str = "large-square",
                    params: PhysParams | None = None,
                    layout: ZoneLayout | None = None,
                    serial_movement: bool = False) -> Schedule:
    """Compile a basis circuit into a full timed schedule."""
    params = params or PhysParams()
    if layout is None:
        layout = build_layout(circuit.num_qubits, "auto", params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    return Compiler(circuit, technique, grid, layout, params, serial_movement).run()
