"""Qubit grouping (greedy MaxCut or degree split) and atom assignment:
the plan for loading atoms out of memory.

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
    ZONE_MARGIN,
    ZoneLayout,
    cache_column_slots,
    memory_column_slots,
    memory_rows,
    pair_clear_sites,
)
from .circuit import Circuit
from .metrics import movement_phase_time  # noqa: F401  (perfbench/tracing.py wraps this name)

AOD = "aod"
SLM = "slm"


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
        self.caps = {SLM: site_capacity, AOD: aod_capacity}
        self.groups: dict[str, list[int]] = {SLM: [], AOD: []}
        self.of: dict[int, str] = {}

    def place(self, q: int, want: str) -> None:
        """Put q in `want`, or in the other group when `want` is full;
        `__init__`'s capacity check leaves room for every qubit."""
        g = want if len(self.groups[want]) < self.caps[want] else (
            SLM if want == AOD else AOD)
        self.groups[g].append(q)
        self.of[q] = g

    def finish(self, num_qubits: int) -> Grouping:
        # Qubits no CZ gate ever touched go mobile first: they never need
        # compute proximity, which keeps SLM sites for interacting qubits.
        for q in range(num_qubits):
            if q not in self.of:
                self.place(q, AOD)
        return Grouping(self.groups[SLM], self.groups[AOD])


def greedy_maxcut_group(circuit: Circuit, site_capacity: int,
                        aod_capacity: int,
                        per_column: int = PhysParams.max_atoms_per_column
                        ) -> Grouping:
    """Greedy MaxCut over the CZ interaction graph, in circuit order.

    First CZ touching two fresh qubits sends the first operand mobile and
    the second static; a gate with one grouped operand sends the other to
    the complementary group; full groups fall back to whichever side still
    has room. The mobile list is then packed into AOD columns of
    `per_column` (`pack_columns`), which only reorders it: the static
    list, and so every site, and the column sizes stay.
    """
    g = _Grouper(circuit.num_qubits, site_capacity, aod_capacity)
    for a, b in circuit.cz_pairs():
        ga, gb = g.of.get(a), g.of.get(b)
        if ga is None and gb is None:
            g.place(a, AOD)
            g.place(b, SLM)
        elif ga is not None and gb is None:
            g.place(b, SLM if ga == AOD else AOD)
        elif gb is not None and ga is None:
            g.place(a, SLM if gb == AOD else AOD)
    grouping = g.finish(circuit.num_qubits)
    grouping.aod_qubits = pack_columns(circuit, grouping.aod_qubits, per_column)
    return grouping


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
        g.place(q, AOD)
    for q in order[n_aod:]:
        g.place(q, SLM)
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
    """Deterministic atom assignment: static qubits take clear grid sites
    (`clear_sites`, by default `pair_clear_sites` of the grid) in
    grouping-by-site order; mobile qubits fill AOD columns of
    `max_atoms_per_column` in the order of `grouping.aod_qubits` (which
    greedy grouping has packed, `pack_columns`), parked in the right
    cache. Atom ids equal qubit ids (the load mapping is arbitrary, so
    identity is used)."""
    usable = pair_clear_sites(grid, params) if clear_sites is None else clear_sites
    if len(grouping.slm_qubits) > len(usable):
        raise CapacityError(
            f"insufficient SLM capacity: {len(grouping.slm_qubits)} static "
            f"qubits, {len(usable)} clear sites on the {grid.kind} grid"
        )
    site_of_qubit = {q: usable[i] for i, q in enumerate(grouping.slm_qubits)}

    per_col = params.max_atoms_per_column
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
    rows = memory_rows(layout, params)
    rc = layout.right_cache
    pitch = params.storage_pitch

    ferries: list[MemoryGroup] = []
    n_ferries = len(by_site_x)
    for i, x in enumerate(sorted(by_site_x)):
        # Ferry cids start after the final AOD column cids.
        cid = n_cols + i
        mem_x = mem.x0 + ZONE_MARGIN + i * pitch
        qubits = sorted(by_site_x[x], key=lambda q: grid.sites[site_of_qubit[q]][1])
        if len(qubits) > rows:
            raise CapacityError("memory column height exhausted")
        g = MemoryGroup(cid, mem_x)
        for k, q in enumerate(qubits):
            sx, sy = grid.sites[site_of_qubit[q]]
            g.atoms.append((q, mem.y0 + ZONE_MARGIN + k * pitch, sx, sy))
        ferries.append(g)
    # Mobile column c parks at right-cache slot c, one atom per slot.
    columns: list[MemoryGroup] = []
    for c in range(n_cols):
        mem_x = mem.x0 + ZONE_MARGIN + (n_ferries + c) * pitch
        g = MemoryGroup(c, mem_x)
        home_x = rc.x0 + ZONE_MARGIN + c * pitch
        for k, q in enumerate(grouping.aod_qubits[c * per_col:(c + 1) * per_col]):
            g.atoms.append((q, mem.y0 + ZONE_MARGIN + k * pitch,
                            home_x, rc.y0 + ZONE_MARGIN + k * pitch))
        columns.append(g)

    return InitialPlacement(grouping, site_of_qubit, ferries, columns)
