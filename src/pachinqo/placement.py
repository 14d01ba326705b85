"""Qubit grouping (greedy MaxCut or degree split) and atom assignment:
the plan for loading atoms out of memory.

The plan is fitted to the rule by which the compiler inserts SWAPs
(`needs_swap`): greedy grouping fills free AOD column slots with static
qubits where that leaves fewer CZs needing a SWAP, and static qubits take
their sites centre-out, one site column at a time.

All atoms start in memory SLM columns. The qubit-to-atom mapping is free
at load time, so atoms are laid out in memory pre-grouped: one memory
column per target site column (for the static group) or per target AOD
column (for the mobile group). Placement only plans this load; the
compiler emits it, running every pickup and deposit as one parallel trap
change, so initialization takes exactly three serial trap changes
regardless of circuit size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .machine import (
    CapacityError,
    PhysParams,
    SlmGrid,
    ZoneLayout,
    cache_column_slots,
    memory_column_slots,
    memory_rows,
    pair_clear_sites,
    slot_x,
    slot_y,
)
from .circuit import Circuit
from .metrics import movement_phase_time  # noqa: F401  (perfbench/tracing.py wraps this name)

@dataclass
class Grouping:
    slm_qubits: list[int]
    aod_qubits: list[int]

    def __post_init__(self):
        if set(self.slm_qubits) & set(self.aod_qubits):
            raise ValueError("slm and aod groups overlap")


class _Grouper:
    """Fills the static and mobile groups, each up to its capacity."""

    def __init__(self, num_qubits: int, site_capacity: int, aod_capacity: int):
        if site_capacity + aod_capacity < num_qubits:
            raise CapacityError(f"{num_qubits} qubits exceed capacity "
                                f"{site_capacity}+{aod_capacity}")
        # Keyed by mobile: True for the AOD group, False for the SLM one.
        self.caps = {False: site_capacity, True: aod_capacity}
        self.groups: dict[bool, list[int]] = {False: [], True: []}
        self.of: dict[int, bool] = {}

    def place(self, q: int, mobile: bool) -> None:
        """Put q in the mobile group if `mobile`, else in the static one,
        or in the other group when that one is full; `__init__`'s capacity
        check leaves room for every qubit."""
        if len(self.groups[mobile]) >= self.caps[mobile]:
            mobile = not mobile
        self.groups[mobile].append(q)
        self.of[q] = mobile

    def finish(self, num_qubits: int) -> Grouping:
        # Qubits no CZ gate ever touched go mobile first: they never need
        # compute proximity, which keeps SLM sites for interacting qubits.
        for q in range(num_qubits):
            if q not in self.of:
                self.place(q, True)
        return Grouping(self.groups[False], self.groups[True])


def needs_swap(u: int | None, v: int | None) -> bool:
    """Whether a CZ between qubits at places u and v needs a SWAP: a place
    is None for a static qubit, else the rank of the qubit's AOD column
    among the columns that hold atoms.

    A CZ runs as it stands when exactly one operand is static (a
    placement) or both are mobile in one column or in neighbouring ones
    (an AOD pair); two static operands, or mobile ones two or more
    columns apart, need a SWAP. The compiler's SWAP choice
    (`Compiler._choose_swap`) and the load plan (`greedy_maxcut_group`)
    both score CZs by this rule."""
    if u is None or v is None:
        return u is v
    return abs(u - v) > 1


def greedy_maxcut_group(circuit: Circuit, site_capacity: int,
                        aod_capacity: int,
                        per_column: int = PhysParams.max_atoms_per_column
                        ) -> Grouping:
    """Greedy MaxCut over the CZ interaction graph, in circuit order,
    fitted to the SWAP rule (`needs_swap`).

    First CZ touching two fresh qubits sends the first operand mobile and
    the second static; a gate with one grouped operand sends the other to
    the complementary group; full groups fall back to whichever side still
    has room. The mobile list is then packed into AOD columns of
    `per_column` (`pack_columns`), and the free slots of its last column
    are filled from the static list (`fill_free_slots`).
    """
    g = _Grouper(circuit.num_qubits, site_capacity, aod_capacity)
    for a, b in circuit.cz_pairs():
        ga, gb = g.of.get(a), g.of.get(b)
        if ga is None and gb is None:
            g.place(a, True)
            g.place(b, False)
        elif ga is not None and gb is None:
            g.place(b, not ga)
        elif gb is not None and ga is None:
            g.place(a, not gb)
    grouping = g.finish(circuit.num_qubits)
    grouping.aod_qubits = pack_columns(circuit, grouping.aod_qubits, per_column)
    return fill_free_slots(circuit, grouping, aod_capacity, per_column)


def fill_free_slots(circuit: Circuit, grouping: Grouping, aod_capacity: int,
                    per_column: int) -> Grouping:
    """`grouping` with static qubits moved into the free slots of its last
    AOD column, each move lowering the count of CZs that need a SWAP.

    MaxCut puts the operands of most CZs on opposite sides, but a CZ
    between two static qubits needs a SWAP, and the last column may have
    slots to spare. While it has one (and the AOD capacity room), the
    static qubit whose move into it lowers that count the most moves
    there, the earlier in the static list on a tie; the fill stops when
    no move lowers the count. Each CZ counts with its multiplicity. A
    move changes the verdict only on the moved qubit's own CZs, so each
    candidate is scored from those alone, as `Compiler._choose_swap`
    scores its exchanges. No column is added, so a grouping whose columns
    are full comes back as it was; after a fill the mobile list is packed
    again (`pack_columns`)."""
    static, mobile = list(grouping.slm_qubits), list(grouping.aod_qubits)
    n_cols = math.ceil(len(mobile) / per_column)
    slots = min(n_cols * per_column, aod_capacity)
    # weight[q][r]: the CZs of static q with r.
    weight: dict[int, dict[int, int]] = {q: {} for q in static}
    for a, b in circuit.cz_pairs():
        for q, r in ((a, b), (b, a)):
            if q in weight:
                weight[q][r] = weight[q].get(r, 0) + 1
    place: dict[int, int | None] = {q: None for q in static}
    place.update((q, i // per_column) for i, q in enumerate(mobile))
    last = n_cols - 1
    while len(mobile) < slots and static:
        change, i = min(
            (sum(w * (needs_swap(last, place[r]) - needs_swap(None, place[r]))
                 for r, w in weight[q].items()), i)
            for i, q in enumerate(static))
        if change >= 0:
            break
        q = static.pop(i)
        mobile.append(q)
        place[q] = last
    if len(mobile) == len(grouping.aod_qubits):
        return grouping
    return Grouping(static, pack_columns(circuit, mobile, per_column))


def pack_columns(circuit: Circuit, mobile: list[int],
                 per_column: int) -> list[int]:
    """`mobile` reordered so that fewer CZs join mobile qubits in
    different AOD columns, the k-th column being the k-th run of
    `per_column` qubits.

    Two mobile atoms in one column always run their CZ as an AOD pair;
    two in different columns pair only when their columns meet in a
    layer's order, and need a SWAP otherwise. So frequent partners are
    kept in one column, as ZAC's reuse-aware placement keeps interacting
    qubits together (Lin, Tan & Cong, HPCA 2025). Starting from `mobile`'s
    order, while exchanging two qubits in different columns lowers the
    count of CZs between mobile qubits in different columns, the exchange
    that lowers it most is made, the lowest pair of positions on a tie.
    Column sizes stay as they were.

    The count takes in every CZ across columns on purpose, although the
    SWAP rule (`needs_swap`) lets a CZ across neighbouring columns pass:
    a pair of neighbours waits for a layer in which one column comes just
    before the other. On the perfbench workloads (seeds 1-10, before the
    load filled free slots and seated static qubits centre-out), counting
    only CZs between columns two or more apart gave `deep` 41 SWAPs
    against 38, and counting those first and every CZ across columns
    second gave `wide` 39 against 34.
    """
    pos = {q: i for i, q in enumerate(mobile)}
    weight: dict[int, dict[int, int]] = {q: {} for q in mobile}
    for a, b in circuit.cz_pairs():
        if a in pos and b in pos:
            weight[a][b] = weight[a].get(b, 0) + 1
            weight[b][a] = weight[b].get(a, 0) + 1
    n_cols = math.ceil(len(mobile) / per_column)
    # to_col[q][c]: the CZs of q with the qubits now in column c.
    to_col = {q: [0] * n_cols for q in mobile}
    for q in mobile:
        for r, w in weight[q].items():
            to_col[q][pos[r] // per_column] += w
    packed = list(mobile)
    while True:
        # An exchange of a (column ca) and b (column cb) lowers the count
        # only if a has a partner in cb or b one in ca, so it suffices to
        # try each qubit against the columns of its partners.
        best = None
        for a in mobile:
            i = pos[a]
            ca, ta = i // per_column, to_col[a]
            for r in weight[a]:
                cb = pos[r] // per_column
                if cb == ca:
                    continue
                for j in range(cb * per_column,
                               min((cb + 1) * per_column, len(packed))):
                    b = packed[j]
                    tb = to_col[b]
                    gain = (ta[cb] + tb[ca] - ta[ca] - tb[cb]
                            - 2 * weight[a].get(b, 0))
                    if gain > 0:
                        key = (-gain, min(i, j), max(i, j))
                        if best is None or key < best:
                            best = key
        if best is None:
            return packed
        _, i, j = best
        a, b = packed[i], packed[j]
        ca, cb = i // per_column, j // per_column
        packed[i], packed[j] = b, a
        pos[a], pos[b] = j, i
        for r, w in weight[a].items():
            to_col[r][ca] -= w
            to_col[r][cb] += w
        for r, w in weight[b].items():
            to_col[r][cb] -= w
            to_col[r][ca] += w


def degree_split_group(circuit: Circuit, site_capacity: int,
                       aod_capacity: int) -> Grouping:
    """Highest weighted-degree qubits go mobile, the rest static.

    Degree is the number of CZ gates touching the qubit (parallel edges
    add weight). Ties break toward the lower index. The AOD takes at most
    ceil(n/2) qubits so capacity pressure matches the greedy grouping.
    """
    degree = [0] * circuit.num_qubits
    for a, b in circuit.cz_pairs():
        degree[a] += 1
        degree[b] += 1
    order = sorted(range(circuit.num_qubits), key=lambda q: (-degree[q], q))
    n_aod = min(aod_capacity, math.ceil(circuit.num_qubits / 2))
    g = _Grouper(circuit.num_qubits, site_capacity, aod_capacity)
    for q in order[:n_aod]:
        g.place(q, True)
    for q in order[n_aod:]:
        g.place(q, False)
    return g.finish(circuit.num_qubits)


@dataclass
class MemoryGroup:
    """One SLM-held column to load (a memory column, or a site column at
    readout) and where its atoms are headed."""

    column: int  # cid of the ferry / final AOD column that lifts it
    mem_x: float
    # (atom_id, memory y, target x, target y)
    atoms: list[tuple[int, float, float, float]] = field(default_factory=list)


@dataclass
class InitialPlacement:
    grouping: Grouping
    site_of_qubit: dict[int, int]  # static qubits -> grid site index
    # One group per target site column, whose ferry deposits it there, and
    # one per mobile column; the compiler loads them in three trap changes.
    ferries: list[MemoryGroup]
    columns: list[MemoryGroup]


def assign_atoms(grouping: Grouping, grid: SlmGrid, layout: ZoneLayout,
                 params: PhysParams,
                 clear_sites: list[int] | None = None) -> InitialPlacement:
    """Deterministic atom assignment: static qubits, in the order of
    `grouping.slm_qubits`, take clear grid sites (`clear_sites`, by
    default `pair_clear_sites` of the grid) centre-out, one site column
    at a time: by the distance of the site's x from the middle of the
    clear sites' x range, then x, then y. Mobile qubits fill AOD columns
    of `max_atoms_per_column` in the order of `grouping.aod_qubits`
    (which greedy grouping has packed, `pack_columns`), parked in the
    right cache. Atom ids equal qubit ids (the load mapping is
    arbitrary, so identity is used).

    Centre-out seats keep the site columns at both ends of compute free:
    columns travel less to reach static atoms, and onecache's isolation
    layer, which tucks the columns left of the placed one into memory,
    stays left of them. Over `random_circuit(Random(k), n, g)`, k = 0..5,
    n in {60, 70, 80, 100}, g in {100, 200}, on the four grids, onecache
    raised `SchedulerError` 75 times with row-major seats and never with
    centre-out ones."""
    usable = pair_clear_sites(grid, params) if clear_sites is None else clear_sites
    if len(grouping.slm_qubits) > len(usable):
        raise CapacityError(
            f"insufficient SLM capacity: {len(grouping.slm_qubits)} static "
            f"qubits, {len(usable)} clear sites on the {grid.kind} grid"
        )
    xs = [grid.sites[s][0] for s in usable]
    x_mid = (min(xs, default=0.0) + max(xs, default=0.0)) / 2
    # Distances are rounded so that mirror sites tie despite float error.
    seats = sorted(usable, key=lambda s: (round(abs(grid.sites[s][0] - x_mid), 9),
                                          *grid.sites[s]))
    site_of_qubit = {q: seats[i] for i, q in enumerate(grouping.slm_qubits)}

    # A column loads from a memory column and hangs its atoms below compute
    # in one, so it holds no more atoms than memory has rows.
    per_col = params.max_atoms_per_column
    rows = memory_rows(layout, params)
    if per_col > rows:
        raise CapacityError(
            f"max_atoms_per_column {per_col} exceeds the {rows} memory rows")
    n_cols = math.ceil(len(grouping.aod_qubits) / per_col)
    if n_cols > cache_column_slots(layout, params):
        raise CapacityError("AOD columns exceed cache parking slots")

    # Memory loading plan. Static atoms group by target site x so each
    # ferry column delivers one site column; mobile atoms group by their
    # final AOD column. Groups sit left to right at storage pitch.
    by_site_x: dict[float, list[int]] = {}
    for q in grouping.slm_qubits:
        x = grid.sites[site_of_qubit[q]][0]
        by_site_x.setdefault(x, []).append(q)

    mem = layout.memory
    n_groups = len(by_site_x) + n_cols
    if n_groups > memory_column_slots(layout, params):
        raise CapacityError("memory columns exhausted by initialization plan")
    rc = layout.right_cache

    ferries: list[MemoryGroup] = []
    n_ferries = len(by_site_x)
    for i, x in enumerate(sorted(by_site_x)):
        # Ferry cids start after the final AOD column cids.
        cid = n_cols + i
        qubits = sorted(by_site_x[x], key=lambda q: grid.sites[site_of_qubit[q]][1])
        if len(qubits) > rows:
            raise CapacityError("memory column height exhausted")
        g = MemoryGroup(cid, slot_x(mem, params, i))
        for k, q in enumerate(qubits):
            sx, sy = grid.sites[site_of_qubit[q]]
            g.atoms.append((q, slot_y(mem, params, k), sx, sy))
        ferries.append(g)
    # Mobile column c parks at right-cache slot c, one atom per slot.
    columns: list[MemoryGroup] = []
    for c in range(n_cols):
        g = MemoryGroup(c, slot_x(mem, params, n_ferries + c))
        for k, q in enumerate(grouping.aod_qubits[c * per_col:(c + 1) * per_col]):
            g.atoms.append((q, slot_y(mem, params, k),
                            slot_x(rc, params, c), slot_y(rc, params, k)))
        columns.append(g)

    return InitialPlacement(grouping, site_of_qubit, ferries, columns)
