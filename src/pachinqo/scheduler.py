"""Layer-by-layer schedule compiler for the zoned atom array.

Placement plans the load out of memory; the compiler emits it with the
trap-change and column-move emitters every later layer uses, and is the
only code that emits events or changes machine state.

Execution alternates U3 layers (parallel single-qubit rotations, location
independent) with CZ layers. While compiling, a U3 layer runs every
exposed rotation, so each CZ layer sees every CZ they unblock. Once every
event is emitted, one pass (`_pack_rotations`) lets each native rotation
wait, up to the next event on its atom, so that the U3 layers left each
carry every rotation due there and are as few as possible; the layers
left empty are dropped. It changes no move, pair, SWAP or trap change,
only when rotations run. A second pass (`_merge_phases`) then emits each
run of move phases with no event between them, which a dropped layer can
leave, as one phase. A last pass (`_hold_columns`) lets an idle column
wait where it stands until its next move, which then takes it straight
to its next target, when nothing in between involves it, it waits
outside compute, no other column crosses it and no phase grows (keeping
atoms near where they are next needed, as in ZAC: Lin, Tan & Cong, HPCA
2025). No pass changes a decision.

A CZ layer plans with all columns relocated to the starting cache's
slots next to compute, then processes them from the cache side nearest
compute. It first chooses its placements as one set (`_plan_layer`, as
Enola picks each stage's gates together: Tan, Lin & Cong, ASP-DAC 2025).
A column can place next to the static partner of one executable CZ, or
of its in-flight SWAP's CZ step, INTERACTION_OFFSET left or right of the
partner; the chosen xs must increase along the processing order, since
AOD columns cannot cross (the order constraint of DPQA: Tan, Bluvstein,
Lukin & Cong, Quantum 2024). The plan is the longest such chain, the
least travel breaking ties. Each planned column then places at its x,
spreading its uninvolved atoms apart, if the clearance check still
passes there. A column with a CZ it could place but no placement waits
for a later layer; any other column runs an AOD pair, changes traps or
begins a SWAP (below), and every column that neither places nor pairs
retreats out of the way of the columns after it. A retreat takes the legal spot
nearest where the layer found the column: the opposite cache's slot
nearest compute that leaves room for the later columns, or memory under
the column when no later planned placement (or in-flight SWAP's CZ
step) lies beyond it (keeping atoms near where they are next needed, as
in ZAC: Lin, Tan & Cong, HPCA 2025); failing both, it drops into memory
beside the column that blocks the way. One illumination then fires
every staged pair at once. Start sides toggle right-left-right so no
column gets standing priority; a layer in which a column finds no legal
retreat keeps the same side.

Move phases are fused. The compiler applies every move to its state at
once and keeps one record of where the open phase found each column: the
column's `found_x` and each atom's `found_y`. Closing the phase emits one
move per column that is not where the phase found it, straight from there
to where the column is now, and the current state becomes the next
phase's record. A CZ layer's relocation is therefore planned but never
travelled: it shares its phase with the placements and retreats that
follow, as an isolation layer's parking shares its phase with the one
placement. Retreats measure travel from the same record. A trap change
closes the phase before it; the measurement epilogue and onecache's return
home open phases of their own, which `_merge_phases` joins to the move
phase next to them when no event is left between. Both ends of a phase
are strictly x-ordered, so straight concurrent moves never cross
columns. A CZ layer that stages no pair and changes no trap puts every
column back where the phase found it (`_stay`), so it emits no move; the
progress guard starts from there.

A CZ between two mobile atoms runs as an AOD pair when the column has
nothing to place: both atoms stand within the interaction radius over a
free clear site, one INTERACTION_OFFSET above the other when they share
a column, or side by side, the lower cid's on the left, when the
partner's column is the next in the layer's order (which then takes no
turn of its own). When the partner's column is the one just before, and
it placed or paired this layer, the column stays idle instead: the next
layer runs the columns in the reverse order, so the pair can form then.
The site is the one nearest where the open phase found the columns,
among those that are clear of obstacles and leave every later column's
wanted x reachable, as retreats do; a pair within one column that the
neighbouring columns or that reach rule keep from every site also waits
for the next layer. A round that executes nothing emits nothing, so the
progress guard waits for a second one, in which such a pair can form.
Each column's other atoms spread as for a placement (`_spread`). Zoned
arrays entangle any two atoms in blockade range under the global
Rydberg pulse (Bluvstein et al., Nature 2024), and DPQA schedules
AOD-AOD gates the same way (Tan, Bluvstein, Lukin & Cong, Quantum 2024),
so every technique gets pairs.

Other conflicts (a partner in a column further away, or two static
operands), and pairs with no site, insert SWAPs executed preemptively,
one component per layer, except that a U3 layer also runs a swap's next
rotation when it acts on another qubit (template steps 2-3 and 5-6
share a layer). The frontier is the only record of an in-flight SWAP:
its two qubits, its gate template and its step. The qubits' atoms do
not change until the SWAP completes, so the compiler keeps nothing of
its own. Each SWAP is chosen by lookahead, as in SABRE (Li, Ding &
Xie, ASPLOS 2019): either operand of the conflicting CZ may trade places
with a qubit from the other side, taking its site or column, and the
trade that leaves the fewest of the next SWAP_WINDOW CZs conflicting,
weighted by decay, wins (`_choose_swap`). A CZ conflicts unless exactly
one operand is static or both are mobile in one column, the rule by
which greedy grouping also packs the mobile qubits into columns
(`pack_columns`).
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
from .circuit import Circuit, Frontier, Gate
from .machine import (
    INTERACTION_OFFSET,
    PhysParams,
    SlmGrid,
    ZONE_MARGIN,
    ZoneLayout,
    aod_capacity,
    build_layout,
    cache_column_slots,
    generate_grid,
    pair_clear_sites,
)
from .metrics import move_duration, movement_phase_time
from .placement import (
    InitialPlacement,
    MemoryGroup,
    assign_atoms,
    degree_split_group,
    greedy_maxcut_group,
)
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
    ordered_phase_moves,
    replay_order,
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


def toggle_direction(direction: int) -> int:
    return -direction


@dataclass
class _Column:
    cid: int
    x: float
    atoms: list[int] = field(default_factory=list)  # atom ids, slot order
    found_x: float = field(init=False)  # x where the open phase found it

    def __post_init__(self):
        self.found_x = self.x


@dataclass
class _LayerPlan:
    """A CZ layer's plan (`_plan_layer`): its processing order and side,
    the CZ each column atom waits for when the layer starts (`_cz_target`,
    read once per layer), and the placement chosen for each planned
    column, by cid, as (gate, atom, partner atom, x)."""

    order: list[_Column]
    side: int
    targets: dict[int, tuple[Gate, int, bool] | None]
    placements: dict[int, tuple[Gate, int, int, float]]


@dataclass
class _Phase:
    """A move phase as `_hold_columns` reads and edits it: its times, the
    U3 layers before it, its moves by cid in emission order and, once
    read, their durations; the index of the state after it; and for each
    column whose next move follows with no event involving it in
    between, that move's phase."""

    t_start: float
    t_end: float
    u3_before: int
    moves: dict[int, ColumnMove] = field(default_factory=dict)
    durations: dict[int, float] | None = None
    state: int = 0
    next_move: dict[int, int] = field(default_factory=dict)
    changed: bool = False


@dataclass
class _Placement:
    """A feasible column placement: its x and every atom's target y, the
    CZ atoms first, the rest spread in compute or hung below it."""

    x: float
    ys: dict[int, float]


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
        # Per AOD pair offset: (x, y, site) of every clear site that keeps
        # both atoms of the pair in compute, by x, and those xs.
        by_x = sorted((*grid.sites[s], s) for s in self.clear_sites)
        comp = layout.compute
        self.pair_sites: dict[tuple[float, float], tuple[list, list]] = {}
        for dx, dy in ((0.0, INTERACTION_OFFSET), (INTERACTION_OFFSET, 0.0)):
            fit = [(x, y, s) for x, y, s in by_x
                   if comp.contains(x, y) and comp.contains(x + dx, y + dy)]
            self.pair_sites[dx, dy] = fit, [x for x, _, _ in fit]

        # Mutable machine state. Atom ids equal initial qubit ids. An atom
        # is held by its site in atom_site, or else by a column's atoms.
        self.atom_x = [0.0] * n
        self.atom_y = [0.0] * n
        self.found_y = [0.0] * n  # y where the open move phase found each atom
        self.atom_site: list[int | None] = [None] * n
        self.qubit_of = list(range(n))
        self.atom_of = list(range(n))
        # Indexed by cid, which is also left-to-right order.
        self.columns: list[_Column] = []
        self.next_cid = len(self.placement.ferries) + len(self.placement.columns)

        self.frontier = Frontier(circuit)
        # The index of each qubit pair's first CZ: the progress guard tries
        # executable CZs in this order.
        self.first_cz: dict[frozenset[int], int] = {}
        for i, g in enumerate(circuit.gates):
            if g.kind == "cz":
                self.first_cz.setdefault(frozenset(g.qubits), i)
        self.swap_count = 0
        self.trap_change_count = 0

        self.events: list = []
        self.t = 0.0
        self.layer = 0
        self.direction = RIGHT
        # Atoms a CZ layer's placements keep crosstalk_radius from.
        self.obstacles: list[int] = []
        # Each cache's column-slot x, ascending.
        n_slots = cache_column_slots(layout, params)
        self.cache_slots = {side: [self._cache_slot_x(side, i) for i in range(n_slots)]
                            for side in (RIGHT, LEFT)}
        # Isolation layers park the columns left of the placed one from
        # park_x0 rightward at storage pitch: in the left cache, or in
        # memory when there is one cache.
        if self.one_cache:
            self.cache_slots[LEFT] = []
            self.park_zone = layout.memory
            self.park_x0 = layout.memory.x0
        else:
            self.park_zone = layout.left_cache
            self.park_x0 = self._cache_slot_x(LEFT, 0)
        self.busy: set[int] = set()

    # ------------------------------------------------------------------
    # setup helpers
    def _apply_initialization(self) -> None:
        """Load every atom out of memory in three trap changes: ferries lift
        the static group, carry it over its site columns and dissolve into
        the sites; then the mobile group is lifted into its AOD columns,
        which park in the right cache."""
        ferries = self._load(self.placement.ferries)
        self._to_sites([(a, self.placement.site_of_qubit[a])
                        for col in ferries for a in col.atoms])
        self.columns = self._load(self.placement.columns)

    def _load(self, groups: list[MemoryGroup]) -> list[_Column]:
        """Pick groups of SLM-held atoms (a memory column, or a site column
        at readout) up into new columns in one trap change and move each
        over its targets in one phase."""
        cols = []
        transfers = []
        for g in groups:
            cols.append(_Column(g.column, g.mem_x, [a for a, *_ in g.atoms]))
            for a, my, _, _ in g.atoms:
                self.atom_x[a], self.atom_y[a] = g.mem_x, my
                self.found_y[a] = my
                self.atom_site[a] = None
                transfers.append(TrapTransfer(a, g.mem_x, my, column=g.column))
        self._trap_change(SLM_TO_AOD, transfers)
        for g, col in zip(groups, cols):
            self._move_column(col, g.atoms[0][2],
                              {a: ty for a, _, _, ty in g.atoms})
        self._flush_moves(cols)
        return cols

    # ------------------------------------------------------------------
    # event emission with phase timing
    def _flush_moves(self, cols: list[_Column] | None = None) -> None:
        """Close the open movement phase: one move for each of `cols` (by
        default every column) that is not where the phase found it, from
        there to where it is now. The current state opens the next phase."""
        moves = []
        for col in self.columns if cols is None else cols:
            atoms = [(a, self.found_y[a], self.atom_y[a]) for a in col.atoms]
            if col.x != col.found_x or any(fy != ty for _, fy, ty in atoms):
                moves.append((col.cid, col.found_x, col.x, atoms))
            col.found_x = col.x
        self.found_y = list(self.atom_y)
        if not moves:
            return
        dur = movement_phase_time(moves, self.params, self.serial)
        evs = ordered_phase_moves(moves, self.t, self.t + dur, self.layer)
        self.events.extend(evs)
        self.t += dur

    def _move_column(self, col: _Column, to_x: float,
                     y_targets: dict[int, float]) -> None:
        """Move a column within the open phase and apply the move."""
        for a in col.atoms:
            self.atom_x[a] = to_x
            self.atom_y[a] = y_targets.get(a, self.atom_y[a])
        col.x = to_x

    def _to_sites(self, placed: list[tuple[int, int]]) -> None:
        """Deposit each (atom, site) into its site, over which the atom
        already stands, in one trap change."""
        self._trap_change(AOD_TO_SLM, [
            TrapTransfer(a, self.atom_x[a], self.atom_y[a]) for a, _ in placed])
        for a, site in placed:
            self.atom_site[a] = site

    def _trap_change(self, direction: str,
                     transfers: list[TrapTransfer]) -> None:
        """Emit and count one trap change at the current time."""
        dur = self.params.trap_change_time
        self.events.append(TrapChange(self.t, self.t + dur, self.layer,
                                      direction, transfers))
        self.t += dur
        self.trap_change_count += 1

    def _fire(self, staged: list[CzEntry]) -> None:
        """Close a CZ layer: its move phase ends, one illumination fires
        every staged pair, and with one cache the columns return home in
        a phase of their own, so that a U3 layer after it runs with every
        column home. When no U3 layer is left after it, `_merge_phases`
        joins the return to the next layer's phase."""
        self._flush_moves()
        if staged:
            self.events.append(Illumination(self.t, self.t + self.params.cz_time,
                                            self.layer, staged))
            self.t += self.params.cz_time
        if self.one_cache:
            self._relocate_all(RIGHT)
            self._flush_moves()

    def _reset_obstacles(self) -> None:
        """Static compute atoms are a CZ layer's initial obstacle set."""
        self.obstacles = [atom for _, atom in self._static_atoms()]

    def _static_atoms(self) -> list[tuple[int, int]]:
        """(site, atom) for every site-held atom, in site order."""
        return sorted((s, a) for a, s in enumerate(self.atom_site) if s is not None)

    def _column_of(self, atom: int) -> _Column:
        return next(c for c in self.columns if atom in c.atoms)

    # ------------------------------------------------------------------
    # geometry helpers
    def _cache(self, side: int):
        return self.layout.right_cache if side == RIGHT else self.layout.left_cache

    def _cache_slot_x(self, side: int, i: int) -> float:
        return self._cache(side).x0 + ZONE_MARGIN + i * self.params.storage_pitch

    def _parked_ys(self, col: _Column, zone) -> dict[int, float]:
        base = zone.y0 + ZONE_MARGIN
        return {a: base + i * self.params.storage_pitch
                for i, a in enumerate(col.atoms)}

    def _hang_y(self, j: int) -> float:
        """Parking depth below compute for spread overflow atoms."""
        return self.layout.memory.y1 - ZONE_MARGIN - j * self.params.storage_pitch

    def _neighbors(self, cid: int) -> tuple[float, float]:
        """Current x of the nearest nonempty columns either side of cid."""
        lo = -math.inf
        for c in reversed(self.columns[:cid]):
            if c.atoms:
                lo = c.x
                break
        hi = math.inf
        for c in self.columns[cid + 1:]:
            if c.atoms:
                hi = c.x
                break
        return lo, hi

    # ------------------------------------------------------------------
    # compilation entry point
    def run(self) -> Schedule:
        self._apply_initialization()
        guard_budget = 60 * (len(self.circuit.gates) + self.circuit.num_qubits + 10)
        rounds = 0
        idle = 0  # rounds in a row that executed nothing
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
        self._pack_rotations()
        self._merge_phases()
        self._hold_columns()
        schedule = Schedule(
            technique=self.technique,
            grid=self.grid.kind,
            params=self.params,
            source_name=self.circuit.source_name,
            num_qubits=self.circuit.num_qubits,
            serial_movement=self.serial,
            events=self.events,
            final_mapping={q: self.atom_of[q] for q in range(self.circuit.num_qubits)},
            swap_count=self.swap_count,
            trap_change_count=self.trap_change_count,
        )
        return schedule

    # ------------------------------------------------------------------
    # U3 layers
    def _u3_rounds(self) -> int:
        """Greedy U3 layers until no rotation is frontier-exposed. Each
        layer runs every exposed rotation, so the next CZ layer sees every
        CZ they unblock; `_pack_rotations` later moves the native ones that
        need not run yet into fewer layers."""
        executed = 0
        while True:
            native = self.frontier.executable_u3s()
            swap_due = [sid for sid in self.frontier.swap_ids()
                        if self.frontier.swap_gate(sid).kind == "u3"]
            if not native and not swap_due:
                return executed
            self.layer += 1
            entries = []
            for q in native:
                g = self.circuit.gates[self.frontier.next_gate(q)]
                entries.append(U3Entry(q, self.atom_of[q], g.params))
                self.frontier.advance(g)
            used = set(native)
            for sid in swap_due:
                # Run the swap's consecutive rotations on distinct qubits
                # together: template steps 2-3 and 5-6.
                qubits = self.frontier.swap_qubits(sid)
                g = self.frontier.swap_gate(sid)
                while g.kind == "u3" and g.qubits[0] not in used:
                    q = g.qubits[0]
                    used.add(q)
                    entries.append(U3Entry(q, self.atom_of[q], g.params,
                                           (sid, g.origin.step)))
                    if self.frontier.advance(g) is not None:
                        self._complete_swap(*qubits)
                        break
                    g = self.frontier.swap_gate(sid)
            self.events.append(
                U3LayerEvent(self.t, self.t + self.params.u3_time, self.layer, entries)
            )
            self.t += self.params.u3_time
            executed += len(entries)

    def _complete_swap(self, qa: int, qb: int) -> None:
        """Exchange the atoms of the qubits of a SWAP that just completed."""
        aa, ab = self.atom_of[qa], self.atom_of[qb]
        self.atom_of[qa], self.atom_of[qb] = ab, aa
        self.qubit_of[aa], self.qubit_of[ab] = qb, qa

    def _pack_rotations(self) -> None:
        """Run the native rotations in the fewest U3 layers, once every
        event is emitted.

        A native rotation commutes with every event that leaves its atom
        alone, so it may run in any U3 layer from its own up to the last
        one before the next illumination pairing its atom or U3 layer
        rotating it; measures follow every U3 layer. Layers holding a SWAP
        step stay. By earliest deadline, each native rotation takes the
        earliest kept layer in its window, or else keeps its deadline
        layer (a greedy interval cover). Each layer left empty is dropped,
        and every later event starts u3_time earlier per dropped layer;
        every other event and layer number stays as it was."""
        k = sum(isinstance(ev, U3LayerEvent) for ev in self.events)
        # Scanning backward, bound[atom] is the last U3 layer (counted from
        # 0) before the next event on the atom.
        bound = [k - 1] * self.circuit.num_qubits
        placed: list[list] = [[] for _ in range(k)]  # (from layer, slot, entry)
        native = []  # (deadline, from layer, slot, entry)
        for ev in reversed(self.events):
            if isinstance(ev, U3LayerEvent):
                k -= 1
                for j, g in enumerate(ev.gates):
                    if g.origin is None:
                        native.append((bound[g.atom], k, j, g))
                    else:
                        placed[k].append((k, j, g))
                    bound[g.atom] = k - 1
            elif isinstance(ev, Illumination):
                for p in ev.pairs:
                    bound[p.atoms[0]] = bound[p.atoms[1]] = k - 1
        kept = [i for i, here in enumerate(placed) if here]
        for deadline, start, j, g in sorted(native):
            i = bisect.bisect_left(kept, start)
            if i == len(kept) or kept[i] > deadline:
                kept.insert(i, deadline)
            placed[kept[i]].append((start, j, g))
        events, dropped = [], 0
        layers = iter(placed)
        for ev in self.events:
            if isinstance(ev, U3LayerEvent):
                here = next(layers)
                if not here:
                    dropped += 1
                    continue
                ev.gates = [g for *_, g in sorted(here)]
            if dropped:
                ev.t_start -= dropped * self.params.u3_time
                ev.t_end -= dropped * self.params.u3_time
            events.append(ev)
        self.events = events
        self.t -= dropped * self.params.u3_time

    def _merge_phases(self) -> None:
        """Emit each run of back-to-back move phases as one phase, once
        rotations are packed.

        Packing can drop the U3 layer between two move phases (onecache's
        return home and the next CZ layer's phase), and then columns
        travel home and straight out again. Both ends of the run are
        strictly x-ordered states, so one phase in which each column moves
        straight from where the first phase found it to where the last
        left it never crosses columns, and by the triangle inequality no
        |dx| or |dy| grows. The merged phase takes the last phase's layer
        number and its duration from the cost model; every later event
        starts earlier by the time saved. Nothing merges across any other
        event."""
        events: list = []
        saved = 0.0

        def emit(evs: list) -> None:
            for e in evs:
                e.t_start -= saved
                e.t_end -= saved
            events.extend(evs)

        run: list[ColumnMove] = []
        for ev in self.events:
            if isinstance(ev, ColumnMove):
                run.append(ev)
                continue
            if run and run[0].t_start != run[-1].t_start:
                first, last = {}, {}
                for m in run:
                    first.setdefault(m.column, m)
                    last[m.column] = m
                moves = [(cid, m.from_x, last[cid].to_x,
                          [(a, fy, ty) for (a, fy, _), (_, _, ty)
                           in zip(m.atoms, last[cid].atoms)])
                         for cid, m in first.items()]
                dur = movement_phase_time(moves, self.params, self.serial)
                t0, t1 = run[0].t_start, run[-1].t_end
                emit(ordered_phase_moves(moves, t0, t0 + dur, run[-1].layer))
                saved += t1 - t0 - dur
            else:
                emit(run)
            emit([ev])
            run = []
        emit(run)
        self.events = events
        self.t -= saved

    def _hold_columns(self) -> None:
        """Let each idle column wait where it stands until its next move,
        once every event is emitted.

        Take two consecutive moves of column c: m in phase a (A -> B) and
        m' in phase b (B -> C). The pass drops m and emits m' as A -> C,
        each atom starting from its y at A, when no illumination pair or
        trap-change transfer between the two phases involves c; every atom
        of c at A stands outside compute, so no pulse in between reaches
        it; with one cache, A is c's home slot if a U3 layer runs in
        between; A's x lies strictly between the xs of c's nearest live
        columns by cid after every phase and trap change from a up to b,
        so no two columns cross; and phase a without m plus phase b with
        A -> C take no longer than the two phases did. Candidates are
        taken in time order, so holds chain. A phase left with no move is
        dropped, and every later event starts earlier by the time saved.
        No pair, SWAP, trap change or U3 layer changes, and by the
        triangle inequality no column travels further."""
        comp = self.layout.compute
        params = self.params
        width = self.next_cid
        # Each AOD column's home: where the load left it.
        home = {g.column: (g.atoms[0][2], [ty for *_, ty in g.atoms])
                for g in self.placement.columns}

        def durations(ph: _Phase) -> dict[int, float]:
            """Each move's duration in phase ph, by cid, read once."""
            if ph.durations is None:
                ph.durations = {
                    c: move_duration(m.to_x - m.from_x,
                                     [ty - fy for _, fy, ty in m.atoms], params)
                    for c, m in ph.moves.items()}
            return ph.durations

        def time_without(ph: _Phase, cid: int) -> float:
            """The concurrent time of phase ph without cid's move."""
            return max((v for c, v in ph.durations.items() if c != cid), default=0.0)

        # Replay the events once: the move phases, and after each phase
        # and each trap change the x of every live column by cid (None
        # for a column holding no atom).
        items: list = []  # each phase, and every event but the moves
        phases: list[_Phase] = []
        states: list[list[float | None]] = []
        xs: list[float | None] = [None] * width
        count = [0] * width
        column_of: dict[int, int] = {}
        last: dict[int, int] = {}  # column -> phase of its last move, if uninvolved since
        u3_layers = 0
        phase = None
        for ev in self.events:
            if phase is not None and not (isinstance(ev, ColumnMove)
                                          and ev.t_start == phase.t_start):
                phase.state = len(states)
                states.append(list(xs))
                phase = None
            if isinstance(ev, ColumnMove):
                if phase is None:
                    phase = _Phase(ev.t_start, ev.t_end, u3_layers)
                    phases.append(phase)
                    items.append(phase)
                cid = ev.column
                phase.moves[cid] = ev
                xs[cid] = ev.to_x
                if cid in last:
                    phases[last[cid]].next_move[cid] = len(phases) - 1
                last[cid] = len(phases) - 1
                continue
            items.append(ev)
            if isinstance(ev, U3LayerEvent):
                u3_layers += 1
            elif isinstance(ev, Illumination):
                for p in ev.pairs:
                    for a in p.atoms:
                        last.pop(column_of.get(a), None)
            elif isinstance(ev, TrapChange):
                for tr in ev.transfers:
                    if ev.direction == SLM_TO_AOD:
                        cid = column_of[tr.atom] = tr.column
                        count[cid] += 1
                        xs[cid] = tr.x
                    else:
                        cid = column_of.pop(tr.atom)
                        count[cid] -= 1
                        if not count[cid]:
                            xs[cid] = None
                    last.pop(cid, None)
                states.append(list(xs))
        if phase is not None:
            phase.state = len(states)
            states.append(list(xs))

        def between(state: list[float | None], cid: int, x: float) -> bool:
            """Whether x lies strictly between cid's nearest live columns."""
            k = cid - 1
            while k >= 0 and state[k] is None:
                k -= 1
            if k >= 0 and state[k] >= x:
                return False
            k = cid + 1
            while k < width and state[k] is None:
                k += 1
            return k == width or x < state[k]

        for pa in phases:
            for cid in sorted(pa.next_move):
                ma = pa.moves.get(cid)
                if ma is None:
                    continue
                fx, pb = ma.from_x, phases[pa.next_move[cid]]
                span = range(pa.state, pb.state)
                if not all(between(states[s], cid, fx) for s in span):
                    continue
                if any(comp.contains(fx, fy) for _, fy, _ in ma.atoms):
                    continue
                if (self.one_cache and pb.u3_before > pa.u3_before
                        and home.get(cid) != (fx, [fy for _, fy, _ in ma.atoms])):
                    continue
                mb = pb.moves[cid]
                start = {a: fy for a, fy, _ in ma.atoms}
                held = [(a, start[a], ty) for a, _, ty in mb.atoms]
                d = move_duration(mb.to_x - fx, [ty - fy for _, fy, ty in held],
                                  params)
                da, db = durations(pa)[cid], durations(pb)[cid]
                if self.serial:
                    # Phase times are sums, so by the triangle inequality
                    # no hold lengthens them.
                    longer = d > da + db
                else:
                    ta, tb = max(pa.durations.values()), max(pb.durations.values())
                    longer = (time_without(pa, cid) if da == ta else ta) + max(
                        time_without(pb, cid) if db == tb else tb, d) > ta + tb
                if longer:
                    continue
                del pa.moves[cid], pa.durations[cid]
                if mb.to_x == fx and all(fy == ty for _, fy, ty in held):
                    del pb.moves[cid], pb.durations[cid]
                else:
                    mb.from_x, mb.atoms = fx, held
                    pb.durations[cid] = d
                for s in span:
                    states[s][cid] = fx
                pa.changed = pb.changed = True

        events: list = []
        saved = 0.0
        for item in items:
            if not isinstance(item, _Phase):
                item.t_start -= saved
                item.t_end -= saved
                events.append(item)
                continue
            t0, t1 = item.t_start - saved, item.t_end - saved
            moves = list(item.moves.values())
            if item.changed:
                durs = item.durations.values()
                dur = sum(durs, 0.0) if self.serial else max(durs, default=0.0)
                saved += t1 - t0 - dur
                t1 = t0 + dur
                moves = replay_order(moves)
            for m in moves:
                m.t_start, m.t_end = t0, t1
            events.extend(moves)
        self.events = events
        self.t -= saved

    # ------------------------------------------------------------------
    # CZ layers
    def _park(self, cols: list[_Column], zone, x0: float, first: int = 0) -> None:
        """Park `cols` in `zone`, the k-th at x `x0 + (first + k) * storage_pitch`."""
        for i, col in enumerate(cols, first):
            self._move_column(col, x0 + i * self.params.storage_pitch,
                              self._parked_ys(col, zone))

    def _relocate_all(self, side: int) -> None:
        """Move every nonempty column, within the open phase, to the `side`
        cache parking slots next to compute. With one cache, no column
        ever empties, so `_relocate_all(RIGHT)` puts every column on its
        home slot."""
        cache = self._cache(side)
        live = [c for c in self.columns if c.atoms]
        first = 0 if side == RIGHT else len(self.cache_slots[RIGHT]) - len(live)
        self._park(live, cache, cache.x0 + ZONE_MARGIN, first)

    def _cz_layer(self) -> int:
        """Run one CZ layer from `self.direction`'s cache: plan the
        placements (`_plan_layer`), then give every live column its action
        in processing order (`_find_action`), retreating each column that
        neither placed nor paired, and fire. Every column gets its turn.
        Returns the number of columns that executed a CZ, changed traps or
        began a SWAP."""
        self.layer += 1
        self.busy.clear()
        staged: list[CzEntry] = []
        executed = 0

        side = self.direction
        order = [c for c in self.columns if c.atoms]
        if side == LEFT:
            order.reverse()
        plan = self._plan_layer(order, side)
        later = self._plan_retreats(plan)
        # Plan against every column parked on `side`, but let each column
        # travel once, straight to where the layer leaves it.
        self._relocate_all(side)
        self._reset_obstacles()

        trap_changes = self.trap_change_count
        stuck = False  # a column found no legal retreat
        paired = None  # the column an AOD pair took along with its own
        done = None  # the column just before, if it placed or paired
        for k, col in enumerate(order):
            if col is paired:
                done = col
                continue
            nxt = order[k + 1] if k + 1 < len(order) else None
            action = self._find_action(col, staged, done, nxt, later, plan)
            done = col if action == "placed" else None
            executed += action != "idle"
            if action == "paired":
                paired = nxt
            if action in ("placed", "paired"):
                continue
            # Clear the way, unless a deposit took the column's last atom.
            if col.atoms and not self._retreat(col, side, later):
                stuck = True
                break
        if not staged and self.trap_change_count == trap_changes:
            self._stay()
        self._fire(staged)
        if not (self.one_cache or stuck):
            self.direction = toggle_direction(self.direction)
        return executed

    def _stay(self) -> None:
        """Put every column and atom back where the open phase found it, so
        that closing the phase emits no move: a CZ layer that stages no
        pair and changes no trap has nothing to move for."""
        for col in self.columns:
            self._move_column(col, col.found_x,
                              {a: self.found_y[a] for a in col.atoms})

    # -- per-column decision -------------------------------------------
    def _can_place(self, target: tuple[Gate, int, bool]) -> bool:
        """Whether a column atom could place its `_cz_target` now: an
        in-flight SWAP's CZ step, or an executable CZ with a static
        partner."""
        gate, partner, is_swap = target
        return is_swap or (self.atom_site[partner] is not None
                           and self.frontier.executable_cz(*gate.qubits))

    def _plan_layer(self, order: list[_Column], side: int) -> _LayerPlan:
        """Choose the layer's placements together, as one chain along
        `order`.

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
        return _LayerPlan(order, side, targets, placements)

    def _find_action(self, col: _Column, staged: list[CzEntry],
                     done: _Column | None, nxt: _Column | None,
                     later: dict[int, tuple[float, int]], plan: _LayerPlan):
        """Pick and apply this column's action for the current layer:
        "placed", "paired" (an AOD pair with `nxt`, the next column of the
        layer's order, which it takes along), "tc" (a trap change closed
        the phase with the column over the site, so the next phase finds
        it there), "swap" (a SWAP began) or "idle".

        A planned column places at its planned x if the clearance check
        still passes there. A column left with a CZ it could place (not
        planned, its plan refused by the check, or its partner busy)
        waits for a later layer: it begins no SWAP and no trap change.
        Otherwise its highest atom whose executable CZ has a mobile
        partner conflicts. If the partner is in `done`, the column just
        before that placed or paired this layer, the column stays idle:
        the next layer, in the reverse order, can run it as an AOD pair.
        Else it tries an AOD pair (`_pair`, which may also wait), then
        (trapchange) a trap change, then a SWAP."""
        planned = plan.placements.get(col.cid)
        if planned is not None:
            gate, atom, partner_atom, x = planned
            placement = self._try_place(col, atom, partner_atom, x)
            if placement is not None:
                self._settle(col, placement)
                self._stage(gate, atom, partner_atom, staged)
                return "placed"
        conflict: tuple[int, int, int] | None = None  # (atom, q, partner q)
        for atom in sorted(col.atoms, key=lambda a: -self.atom_y[a]):
            target = plan.targets.get(atom)
            if target is None:
                continue
            if self._can_place(target):
                return "idle"
            gate, partner_atom, _ = target
            if conflict is None and self.frontier.executable_cz(*gate.qubits):
                conflict = (atom, self.qubit_of[atom], self.qubit_of[partner_atom])
        if conflict is None:
            return "idle"
        atom, q, p = conflict
        partner_atom = self.atom_of[p]
        if done is not None and partner_atom in done.atoms:
            return "idle"
        action = self._pair(col, nxt, atom, partner_atom, later, plan.side)
        if action == "wait":
            return "idle"
        if action is not None:
            self._stage(self.circuit.gates[self.frontier.next_gate(q)],
                        atom, partner_atom, staged)
            return action
        if self.trap_change_first:
            tc = self._plan_trapchange(col, conflict)
            if tc is not None:
                self._trapchange_action(col, *tc)
                return "tc"
        choice = self._choose_swap(q, p, forced=False)
        if choice is None:
            return "idle"
        self._begin_swap(*choice)
        return "swap"

    # -- placement geometry ----------------------------------------------
    def _try_place(self, col: _Column, active_atom: int, partner_atom: int,
                   x: float) -> _Placement | None:
        """`col` at x, `active_atom` level with its partner, if x lies
        between the column's neighbours and clear of every obstacle but
        the partner; None otherwise."""
        r2 = self.params.crosstalk_radius ** 2
        sy = self.atom_y[partner_atom]
        lo, hi = self._neighbors(col.cid)
        if not (lo < x < hi):
            return None
        if not kernels.clear_from_except(self.obstacles, self.atom_x, self.atom_y,
                                         x, sy, r2, partner_atom):
            return None
        return self._spread(col, x, {active_atom: sy})

    def _spread(self, col: _Column, x: float,
                fixed: dict[int, float]) -> _Placement:
        """`col` at x with the atoms of `fixed` at their ys; each other atom
        takes the first clear spread position around the first fixed y, or
        hangs below compute."""
        r2 = self.params.crosstalk_radius ** 2
        comp = self.layout.compute
        ys = dict(fixed)
        anchor, *taken = fixed.values()
        hang = 0
        for a in sorted((a for a in col.atoms if a not in fixed),
                        key=lambda a: -self.atom_y[a]):
            y = self._spread_y(x, anchor, taken, comp, r2)
            if y is None:
                y = self._hang_y(hang)
                hang += 1
            else:
                taken.append(y)
            ys[a] = y
        return _Placement(x, ys)

    def _spread_y(self, x: float, active_y: float, taken: list[float],
                  comp, r2: float) -> float | None:
        """First clear alternating-offset spread position, if any."""
        r = self.params.crosstalk_radius
        for k in range(1, 64):
            mag = (k + 1) // 2 * r
            y = active_y + mag if k % 2 else active_y - mag
            if not (comp.y0 <= y <= comp.y1):
                continue
            if mag > max(comp.y1 - comp.y0, 1) + r:
                break
            if any(abs(y - t) < r for t in taken):
                continue
            if not kernels.clear_from(self.obstacles, self.atom_x, self.atom_y,
                                      x, y, r2):
                continue
            return y
        return None

    def _settle(self, col: _Column, plan: _Placement) -> None:
        """Move `col` to `plan` within the open phase; its atoms in compute
        become obstacles."""
        self._move_column(col, plan.x, plan.ys)
        self.obstacles.extend(a for a, y in plan.ys.items()
                              if self.layout.compute.contains(plan.x, y))

    def _stage(self, gate: Gate, atom: int, partner_atom: int,
               staged: list[CzEntry]) -> None:
        """Stage `gate` on two atoms where they now stand; both stay busy
        for the rest of the layer."""
        self.busy.update((atom, partner_atom))
        atoms = (atom, partner_atom)
        if gate.qubits != (self.qubit_of[atom], self.qubit_of[partner_atom]):
            atoms = atoms[::-1]
        positions = tuple((self.atom_x[a], self.atom_y[a]) for a in atoms)
        origin = (gate.origin.swap_id, gate.origin.step) if gate.origin else None
        staged.append(CzEntry(gate.qubits, atoms, positions, origin))
        self.frontier.advance(gate)

    # -- AOD pairs ----------------------------------------------------------
    def _pair(self, col: _Column, nxt: _Column | None, atom: int,
              partner_atom: int, later: dict[int, tuple[float, int]],
              side: int) -> str | None:
        """Run the CZ of two mobile atoms as an AOD pair over a free clear
        site: one above the other when both are in `col` ("placed"), side
        by side, the lower cid's on the left, when the partner is in `nxt`
        ("paired"). None when the partner is in neither column or no site
        fits (`_pair_site`), except that a pair within `col` that only the
        neighbouring columns or a later column's wanted x keep from every
        site is "wait": the next layer runs the columns in the reverse
        order."""
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
        lo, hi = self._neighbors(cols[0].cid)[0], self._neighbors(cols[1].cid)[1]
        reach = later[last.cid][0]
        if side == RIGHT:
            hi = min(hi, reach)
        else:
            lo = max(lo, -reach)
        spots = self._pair_site(atoms, cols, offset, lo, hi)
        if spots is None:
            if cols[0] is cols[1] and self._pair_site(
                    atoms, cols, offset, -math.inf, math.inf) is not None:
                return "wait"
            return None
        if cols[0] is cols[1]:
            (x, y0), (_, y1) = spots
            self._settle(col, self._spread(col, x, dict(zip(atoms, (y0, y1)))))
            return "placed"
        for a, c, (x, y) in zip(atoms, cols, spots):
            self._settle(c, self._spread(c, x, {a: y}))
        return "paired"

    def _pair_site(self, atoms: list[int], cols: list[_Column],
                   offset: tuple[float, float], lo: float, hi: float
                   ) -> list[tuple[float, float]] | None:
        """Where the pair `atoms` (of `cols`) stands: the first at a free
        clear site, the second `offset` from it. Of the sites whose two
        positions lie in compute, strictly between lo and hi in x, and
        clear of obstacles, the one nearest where the open phase found the
        columns; None if there is none."""
        occupied = {s for s in self.atom_site if s is not None}
        dx, dy = offset
        # The sites with lo < x < hi; the offset spot is checked on its own.
        sites, xs = self.pair_sites[offset]
        i, j = bisect.bisect_right(xs, lo), bisect.bisect_left(xs, hi)
        (a0, a1), (c0, c1) = atoms, cols
        candidates = []
        for sx, sy, site in sites[i:j]:
            if site in occupied:
                continue
            tx, ty = sx + dx, sy + dy
            if not lo < tx < hi:
                continue
            travel = max(abs(sx - c0.found_x) + abs(sy - self.found_y[a0]),
                         abs(tx - c1.found_x) + abs(ty - self.found_y[a1]))
            candidates.append((travel, site, [(sx, sy), (tx, ty)]))
        r2 = self.params.crosstalk_radius ** 2
        for *_, spots in sorted(candidates):
            if all(kernels.clear_from(self.obstacles, self.atom_x, self.atom_y,
                                      x, y, r2) for x, y in spots):
                return spots
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
        reach, live = math.inf, 0
        side = plan.side
        for col in reversed(plan.order):
            later[col.cid] = reach, live
            live += bool(col.atoms)
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
        atom `atom` waits for: its in-flight SWAP's CZ step, or its next
        gate if that is a CZ; else None. `_plan_layer` runs it once per
        column atom per layer, so it reads the frontier's cursors
        directly."""
        q = self.qubit_of[atom]
        frontier = self.frontier
        if q not in frontier.lock:
            cursor, by_qubit = frontier._pos[q], frontier._by_qubit[q]
            if cursor < len(by_qubit):
                gate = self.circuit.gates[by_qubit[cursor]]
                if gate.kind == "cz":
                    q0, q1 = gate.qubits
                    return gate, self.atom_of[q1 if q0 == q else q0], False
            return None
        sid = frontier.lock[q]
        gate = frontier.swap_gate(sid)
        qa, qb = frontier.swap_qubits(sid)
        if gate.kind == "cz" and q == qa:  # qa's atom is the mobile one
            return gate, self.atom_of[qb], True
        return None

    def _retreat(self, col: _Column, side: int,
                 later: dict[int, tuple[float, int]]) -> bool:
        """Clear the way for the columns processed after this one, at the
        legal spot nearest where the open phase found the column, by
        `later` (`_plan_retreats`). Two spots compete: the opposite cache's
        free slot nearest compute that still leaves a free slot on its
        compute side for each later live column, and memory under the
        column's found x (inside memory's margin), legal only when every
        placement a later column could want lies beyond it. If neither is
        legal, the column tucks in beside the blocking column and drops
        into memory, at memory's near margin if no live column is on its
        near side. Returns False if no legal spot exists, in which case
        the column stays parked (and blocks the rest of the layer). With
        one cache there is no opposite cache, so an idle column always
        drops into memory."""
        mem = self.layout.memory
        lo, hi = self._neighbors(col.cid)
        reach, n_later = later[col.cid]
        x0 = col.found_x
        spots = []
        # Live columns are x-ordered by cid, so every slot in (lo, hi) is
        # free.
        slots = self.cache_slots[-side]
        i, j = bisect.bisect_right(slots, lo), bisect.bisect_left(slots, hi)
        if i < j:
            k = max(i, j - 1 - n_later) if side == RIGHT else min(j - 1, i + n_later)
            spots.append((slots[k], self._parked_ys(col, self._cache(-side))))
        x = min(max(x0, mem.x0 + ZONE_MARGIN), mem.x1 - ZONE_MARGIN)
        if lo < x < hi and side * x < reach:
            spots.append((x, {a: self._hang_y(n) for n, a in enumerate(col.atoms)}))
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
            x = mem.x0 + ZONE_MARGIN if lo == -math.inf else lo + self.params.storage_pitch
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
        for i in self.frontier._by_qubit[q][self.frontier._pos[q]:]:
            g = self.circuit.gates[i]
            if g.kind == "cz":
                p = g.qubits[0] if g.qubits[1] == q else g.qubits[1]
                return self.atom_site[self.atom_of[p]] is not None
        return None

    def _places(self) -> list[int | None]:
        """Per qubit, where it stands once its in-flight SWAP ends: None on
        a site, else its column's cid."""
        cid_of = {a: col.cid for col in self.columns for a in col.atoms}
        places = []
        for q in range(self.circuit.num_qubits):
            atom = self.atom_of[q]
            if q in self.frontier.lock:
                qa, qb = self.frontier.swap_qubits(self.frontier.lock[q])
                atom = self.atom_of[qb if q == qa else qa]
            places.append(None if self.atom_site[atom] is not None else cid_of[atom])
        return places

    def _choose_swap(self, q: int, p: int,
                     forced: bool) -> tuple[int, int] | None:
        """The SWAP that resolves the conflicting CZ (q, p), as (mobile
        atom, static atom) for `_begin_swap`, or None if no qubit can take
        part.

        A CZ needs no SWAP when exactly one operand is static, or when both
        are mobile in one AOD column (an AOD pair); any other CZ conflicts.
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

        def conflicts(u: int | None, v: int | None) -> bool:
            if u is None or v is None:
                return u is v
            return u != v

        # qubit -> [(weight, other operand, conflicting now)] over the window
        touching: dict[int, list[tuple[float, int, bool]]] = {}
        cost0 = 0.0
        w = 1.0
        for i in window:
            a, b = gates[i].qubits
            now = conflicts(places[a], places[b])
            if now:
                cost0 += w
            touching.setdefault(a, []).append((w, b, now))
            touching.setdefault(b, []).append((w, a, now))
            w *= SWAP_DECAY

        def moved(y: int, to: int | None, other: int) -> float:
            # Cost change from y taking place `to`, over the window CZs y
            # shares with neither `other`: a CZ of y and other only trades
            # its operands' places.
            return sum(wk * (conflicts(to, places[z]) - was)
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
        atom, q, p = conflict
        params = self.params
        r2 = params.crosstalk_radius ** 2
        lo, hi = self._neighbors(col.cid)
        static = self._static_atoms()
        occupied = {site for site, _ in static}
        best = None
        for site in self.clear_sites:
            if site in occupied:
                continue
            sx, sy = self.grid.sites[site]
            if not (lo < sx < hi):
                continue
            if not kernels.clear_from(self.obstacles, self.atom_x, self.atom_y,
                                      sx, sy, r2):
                continue
            d = (sx - self.atom_x[atom]) ** 2 + (sy - self.atom_y[atom]) ** 2
            key = (d, site)
            if best is None or key < best:
                best = key
        if best is not None:
            return atom, best[1]
        if len(col.atoms) < params.max_atoms_per_column:
            for site, s_atom in static:
                s = self.qubit_of[s_atom]
                if s in self.frontier.lock or s_atom in self.busy:
                    continue
                if not self._next_partner_static(s):
                    continue  # no CZ left, or a mobile partner: no help
                sx, sy = self.grid.sites[site]
                if not (lo < sx < hi):
                    continue
                if any(abs(self.atom_y[a] - sy) < params.storage_pitch
                       for a in col.atoms):
                    continue
                return s_atom, site
        return None

    def _trapchange_action(self, col: _Column, atom: int, site: int) -> None:
        """Apply a mid-circuit trap change: the open phase closes with the
        column over the site, and the trap change follows. It deposits
        `atom` if the column holds it, and else extracts it from `site`."""
        deposit = self.atom_site[atom] is None
        sx, sy = self.grid.sites[site]
        # Over the site, with the column's other atoms tucked below compute
        # (an extracted atom is not in the column yet).
        hanging = [a for a in col.atoms if a != atom]
        y_targets = {a: self._hang_y(j) for j, a in enumerate(hanging)}
        if deposit:
            y_targets[atom] = sy
        self._move_column(col, sx, y_targets)
        self._flush_moves()
        if deposit:
            self._to_sites([(atom, site)])
            col.atoms.remove(atom)
            self.obstacles.append(atom)
        else:  # extract
            self._trap_change(SLM_TO_AOD,
                              [TrapTransfer(atom, sx, sy, column=col.cid)])
            self.atom_site[atom] = None
            col.atoms.append(atom)

    # ------------------------------------------------------------------
    # progress guard
    def _isolation_feasible(self, mobile_atom: int, static_atom: int) -> bool:
        """Whether an isolation layer can reach the static atom's site: the
        last of the columns parked left of the mobile one must stay left of
        the placement. Always true with a dual cache, whose left cache lies
        left of compute; with one cache it bounds how far left a site can
        be serviced.
        """
        cid = self._column_of(mobile_atom).cid
        k = sum(1 for c in self.columns[:cid] if c.atoms)
        lo_after = self.park_x0 + (k - 1) * self.params.storage_pitch if k else -math.inf
        return lo_after < self.atom_x[static_atom] + INTERACTION_OFFSET

    def _guard(self) -> None:
        """Forced progress when two rounds in a row executed nothing.

        Pending inserted-SWAP CZ steps and frontier-executable CZ gates are
        serviced in an isolation layer: every other column parks out of the
        way, so the placement is geometrically guaranteed. Same-trap
        conflicts fall back to a forced swap initiation. Pairs are tried in
        the order of their first CZ in the circuit.
        """
        for sid in self.frontier.swap_ids():
            gate = self.frontier.swap_gate(sid)
            qa, qb = self.frontier.swap_qubits(sid)
            mobile, static = self.atom_of[qa], self.atom_of[qb]
            if gate.kind == "cz" and self._isolation_feasible(mobile, static):
                self._isolation_layer(mobile, static, gate)
                return
        gates = self.circuit.gates
        for i in sorted(self.frontier.executable_czs(),
                        key=lambda i: self.first_cz[frozenset(gates[i].qubits)]):
            q1, q2 = gates[i].qubits
            a1, a2 = self.atom_of[q1], self.atom_of[q2]
            s1, s2 = self.atom_site[a1] is not None, self.atom_site[a2] is not None
            if s1 != s2:
                mobile, static = (a2, a1) if s1 else (a1, a2)
                if self._isolation_feasible(mobile, static):
                    self._isolation_layer(mobile, static, gates[i])
                    return
                continue
            # Same side: force a swap, preferring to move the lower qubit.
            choice = self._choose_swap(min(q1, q2), max(q1, q2), forced=True)
            if choice is not None:
                self._begin_swap(*choice)
                return
        raise SchedulerError("progress guard found no actionable gate")

    def _isolation_layer(self, active_atom: int, partner_atom: int,
                         gate: Gate) -> None:
        """One CZ layer with a single column placed and all others parked."""
        self.layer += 1
        self.busy.clear()
        col = self._column_of(active_atom)
        self._park_others(col)
        self._reset_obstacles()
        plan = self._try_place(col, active_atom, partner_atom,
                               self.atom_x[partner_atom] + INTERACTION_OFFSET)
        if plan is None:
            raise SchedulerError("isolation placement failed")
        staged: list[CzEntry] = []
        self._settle(col, plan)
        self._stage(gate, active_atom, partner_atom, staged)
        self._fire(staged)

    def _park_others(self, col: _Column) -> None:
        """Park every nonempty column but `col` out of its way, within the
        open phase."""
        # Left of it from park_x0 rightward; right of it up to the right
        # cache's far edge.
        left = [c for c in self.columns[:col.cid] if c.atoms]
        right = [c for c in self.columns[col.cid + 1:] if c.atoms]
        self._park(left, self.park_zone, self.park_x0)
        rc = self.layout.right_cache
        self._park(right, rc, rc.x0 + ZONE_MARGIN,
                   len(self.cache_slots[RIGHT]) - len(right))

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
        mobile = []
        for col in self.columns:
            mobile.extend(col.atoms)
            col.atoms = []
        self._deposit_and_measure(mobile)

        # TC b: pick the compute atoms up, one ferry column per site
        # column, and park the ferries on the readout slots in a y band
        # above the atoms already deposited there, so positions never
        # collide.
        by_x: dict[float, list[int]] = {}
        for _, atom in self._static_atoms():
            by_x.setdefault(self.atom_x[atom], []).append(atom)
        y_base = rc.y0 + ZONE_MARGIN + params.max_atoms_per_column * params.storage_pitch
        groups = []
        for i, x in enumerate(sorted(by_x)):
            groups.append(MemoryGroup(self.next_cid, x, [
                (a, self.atom_y[a], self._cache_slot_x(RIGHT, i),
                 y_base + j * params.storage_pitch) for j, a in enumerate(by_x[x])]))
            self.next_cid += 1
        ferries = self._load(groups)

        # TC c: deposit in readout and measure.
        self._deposit_and_measure([a for col in ferries for a in col.atoms])

    def _deposit_and_measure(self, atoms: list[int]) -> None:
        """Readout trap change for `atoms` where they stand, then measure."""
        at = [(a, self.atom_x[a], self.atom_y[a]) for a in atoms]
        self._trap_change(AOD_TO_SLM, [TrapTransfer(a, x, y) for a, x, y in at])
        if at:
            self.events.append(Measure(
                self.t, self.t, self.layer,
                sorted((a, self.qubit_of[a], x, y) for a, x, y in at)))


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
    compiler = Compiler(circuit, technique, grid, layout, params, serial_movement)
    return compiler.run()
