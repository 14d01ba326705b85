"""Independent schedule validation and a dense state-vector oracle.

The validator replays the event list with its own position/mapping
tracking and its own distance arithmetic (deliberately sharing no
placement code with the scheduler), checking: AOD column ordering, tandem
column membership (a pickup of an atom that a column already holds is
reported at its trap change), illumination blockade geometry (both atoms
of a pair inside compute, the only zone the Rydberg pulse reaches,
within the interaction radius and clear of other compute atoms'
crosstalk), zone containment,
deposits into compute landing on a free grid site,
dependency order of executed gates (a native CZ names its gate's qubits
in the gate's order, and no gate runs on an atom already measured) and
each rotation's angles (a native
U3 bit for bit equal to its circuit gate, a SWAP step to its template
step), single measurement per atom, the
qubit each measurement names (the replayed mapping's qubit for that
atom), and timing: every event starts where the previous one (or move
phase) ended, lasts what the cost model says, each column moves at most
once per move phase and each atom rotates at most once per U3 layer (a
phase or layer is timed as concurrent work, so a second hop or rotation
would go uncounted), and the schedule's end time
is the sum of its layer times, so the reported runtime is checked rather
than only emitted. The reported counts are checked the same way: the
schedule's `swap_count` against the inserted-SWAP ids its events run, and
its `trap_change_count` against its trap-change events. Zone and order
checks run at the event that changes
positions: each pickup and column move zone-checks the atoms it places,
and column order is checked after each column move and trap change.

The oracle is the independent cross-check for circuits of up to
EQUIVALENCE_QUBIT_CAP qubits: it runs the circuit and the schedule's
gates on |0...0> and seeded random product states and compares the
amplitudes up to one global phase, so a dropped phase-only gate shows.

Convention: atom ids equal the qubits initially mapped onto them; the
mapping then evolves only through completed inserted SWAPs.

The validator is pure Python. numpy is imported only inside the
state-vector oracle's functions, so parsing, compiling and validating
never load it.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import Circuit, decompose_swap
from .machine import PhysParams, SlmGrid, ZoneLayout
from .metrics import layer_time, movement_phase_time
from .schedule import (
    AOD_TO_SLM,
    SLM_TO_AOD,
    ColumnMove,
    Illumination,
    Measure,
    Schedule,
    TrapChange,
    U3LayerEvent,
)

if TYPE_CHECKING:
    import numpy as np

ORACLE_QUBIT_CAP = 12
EQUIVALENCE_QUBIT_CAP = 10
# The oracle compares amplitudes on |0...0> and this many seeded random
# product states, to this tolerance.
EQUIVALENCE_RANDOM_STATES = 2
EQUIVALENCE_SEED = 2021
AMPLITUDE_TOLERANCE = 1e-9
# The SWAP template's gate kinds and angles, step by step.
_SWAP_STEPS = tuple((g.kind, g.params) for g in decompose_swap(0, 1))


@dataclass
class Violation:
    code: str  # ordering|tandem|blockade|zone-bounds|site|dependency|double-measure|timing|double-move|count
    event: int
    description: str

    def __str__(self) -> str:
        return f"[{self.code}] event {self.event}: {self.description}"


class _Replay:
    def __init__(self, schedule: Schedule, layout: ZoneLayout, grid: SlmGrid,
                 params: PhysParams, circuit: Circuit):
        self.sched = schedule
        self.layout = layout
        self.sites = set(grid.sites)
        self.params = params
        self.circuit = circuit
        n = circuit.num_qubits
        self.pos: dict[int, tuple[float, float]] = {}
        self.col_x: dict[int, float] = {}
        self.col_atoms: dict[int, set[int]] = {}
        self.atom_of = list(range(n))
        self.cursor = [0] * n
        self.by_qubit: list[list[int]] = [[] for _ in range(n)]
        for i, g in enumerate(circuit.gates):
            for q in g.qubits:
                self.by_qubit[q].append(i)
        # swap id -> (qubits seen so far, next template step)
        self.swaps: dict[int, tuple[tuple[int, ...], int]] = {}
        self.locked: dict[int, int] = {}
        self.swap_ids: set[int] = set()  # every inserted SWAP replayed
        self.measured: set[int] = set()
        self.violations: list[Violation] = []
        # Timing: the end of the previous event or move phase, and the
        # open phase (consecutive moves sharing (t_start, t_end)) with the
        # columns it has moved.
        self.clock = 0.0
        self.phase: list[ColumnMove] = []
        self.phase_columns: set[int] = set()
        self.phase_at = 0
        self.duration = {TrapChange: params.trap_change_time,
                         Illumination: params.cz_time,
                         U3LayerEvent: params.u3_time,
                         Measure: 0.0}

    def bad(self, code: str, i: int, msg: str) -> None:
        self.violations.append(Violation(code, i, msg))

    # -- helpers --------------------------------------------------------
    def _check_ordering(self, i: int) -> None:
        xs = [self.col_x[c] for c in sorted(self.col_atoms)
              if self.col_atoms[c]]
        for a, b in zip(xs, xs[1:]):
            if b <= a:
                self.bad("ordering", i,
                         f"column x positions not strictly increasing: {a} >= {b}")
                return

    def _place(self, i: int, atom: int, x: float, y: float) -> None:
        """Record that event i puts `atom` at (x, y), which lies in a zone."""
        self.pos[atom] = (x, y)
        if not self.layout.in_any_zone(x, y):
            self.bad("zone-bounds", i,
                     f"atom {atom} at ({x:.2f}, {y:.2f}) outside all zones")

    def _check_span(self, i: int, what: str, t_start: float, t_end: float,
                    duration: float) -> None:
        if abs(t_start - self.clock) > 1e-9:
            self.bad("timing", i, f"{what} starts at {t_start}, the previous "
                     f"one ended at {self.clock}")
        if abs(t_end - t_start - duration) > 1e-9:
            self.bad("timing", i, f"{what} lasts {t_end - t_start} us, "
                     f"expected {duration}")
        self.clock = t_end

    def _close_phase(self) -> None:
        if not self.phase:
            return
        moves = [(m.column, m.from_x, m.to_x, m.atoms) for m in self.phase]
        first = self.phase[0]
        self._check_span(self.phase_at, "move phase", first.t_start,
                         first.t_end, movement_phase_time(
                             moves, self.params, self.sched.serial_movement))
        self.phase = []
        self.phase_columns.clear()

    def _unknown_qubits(self, i: int, qubits, what: str) -> bool:
        """Report each of `qubits` that is not a circuit qubit; whether
        there was one."""
        unknown = [q for q in qubits if q not in range(len(self.atom_of))]
        for q in unknown:
            self.bad("dependency", i, f"{what} names unknown qubit {q}")
        return bool(unknown)

    def _check_unmeasured(self, i: int, atom: int, what: str) -> None:
        if atom in self.measured:
            self.bad("dependency", i, f"{what} on atom {atom} after its readout")

    def _expected_gate(self, q: int) -> int | None:
        c = self.cursor[q]
        return self.by_qubit[q][c] if c < len(self.by_qubit[q]) else None

    def _native_u3(self, i: int, qubit: int, atom: int, angles) -> None:
        if self._unknown_qubits(i, (qubit,), "u3"):
            return
        if qubit in self.locked:
            self.bad("dependency", i, f"locked qubit {qubit} ran a native u3")
            return
        if self.atom_of[qubit] != atom:
            self.bad("dependency", i,
                     f"u3 on qubit {qubit} used atom {atom}, "
                     f"mapped atom is {self.atom_of[qubit]}")
        gi = self._expected_gate(qubit)
        if gi is None or self.circuit.gates[gi].kind != "u3":
            self.bad("dependency", i, f"unexpected u3 on qubit {qubit}")
            return
        # Lowering precedes compiling, so the angles are copied, bit for bit.
        if tuple(angles) != self.circuit.gates[gi].params:
            self.bad("dependency", i, f"u3 on qubit {qubit} has angles "
                     f"{tuple(angles)}, gate {gi} has "
                     f"{self.circuit.gates[gi].params}")
        self.cursor[qubit] += 1

    def _native_cz(self, i: int, qubits, atoms) -> None:
        if self._unknown_qubits(i, qubits, f"cz {tuple(qubits)}"):
            return
        q1, q2 = qubits
        if q1 in self.locked or q2 in self.locked:
            self.bad("dependency", i, f"locked qubit in native cz {qubits}")
            return
        if (self.atom_of[q1], self.atom_of[q2]) != tuple(atoms):
            self.bad("dependency", i, f"cz {qubits} on wrong atoms {atoms}")
        g1, g2 = self._expected_gate(q1), self._expected_gate(q2)
        if g1 is None or g1 != g2:
            self.bad("dependency", i, f"cz {qubits} not at both frontiers")
            return
        g = self.circuit.gates[g1]
        if g.kind != "cz" or set(g.qubits) != {q1, q2}:
            self.bad("dependency", i, f"cz {qubits} does not match gate {g}")
            return
        if g.qubits != (q1, q2):  # the gate ran, under the wrong name
            self.bad("dependency", i, f"cz {qubits} lists gate {g1}'s "
                     f"qubits {g.qubits} out of order")
        self.cursor[q1] += 1
        self.cursor[q2] += 1

    def _swap_component(self, i: int, origin, kind: str, qubits,
                        angles=()) -> None:
        sid, step = origin
        self.swap_ids.add(sid)
        if step not in range(len(_SWAP_STEPS)):
            self.bad("dependency", i, f"swap {sid} has no step {step}")
            return
        if self._unknown_qubits(i, qubits, f"swap {sid} step {step}"):
            return
        if sid in self.swaps:
            seen, expect = self.swaps[sid]
        else:
            seen, expect = (), 0
            if step != 0:
                self.bad("dependency", i, f"swap {sid} began at step {step}")
        if step != expect:
            self.bad("dependency", i,
                     f"swap {sid} step {step}, expected {expect}")
        # A U3 opener names one qubit; the partner shows at step 1.
        for q in qubits:
            if q in seen:
                continue
            if len(seen) == 2:
                self.bad("dependency", i,
                         f"swap {sid} touched foreign qubits {qubits}")
                break
            if q in self.locked:
                self.bad("dependency", i, f"qubit {q} double-locked")
            self.locked[q] = sid
            seen += (q,)
        want_kind, want_angles = _SWAP_STEPS[step]
        if want_kind != kind:
            self.bad("dependency", i,
                     f"swap {sid} step {step} should be {want_kind}")
        elif tuple(angles) != want_angles:
            self.bad("dependency", i, f"swap {sid} step {step} has angles "
                     f"{tuple(angles)}, the template has {want_angles}")
        self.swaps[sid] = (seen, step + 1)
        if step == len(_SWAP_STEPS) - 1:
            if len(seen) == 2:
                a, b = seen
                self.atom_of[a], self.atom_of[b] = self.atom_of[b], self.atom_of[a]
            del self.swaps[sid]
            self.locked = {q: s for q, s in self.locked.items() if s != sid}

    # -- event handlers ---------------------------------------------------
    def handle(self, i: int, ev) -> None:
        if isinstance(ev, ColumnMove):
            if self.phase and (ev.t_start, ev.t_end) != (
                    self.phase[0].t_start, self.phase[0].t_end):
                self._close_phase()
            if not self.phase:
                self.phase_at = i
            self.phase.append(ev)
            if ev.column in self.phase_columns:
                self.bad("double-move", i,
                         f"column {ev.column} moves twice in one phase")
            self.phase_columns.add(ev.column)
        else:
            self._close_phase()
            self._check_span(i, ev.kind, ev.t_start, ev.t_end,
                             self.duration[type(ev)])

        if isinstance(ev, TrapChange):
            self._trap_change(i, ev)
        elif isinstance(ev, ColumnMove):
            self._column_move(i, ev)
        elif isinstance(ev, U3LayerEvent):
            atoms: set[int] = set()
            for g in ev.gates:
                if g.atom in atoms:
                    self.bad("timing", i, f"atom {g.atom} runs two rotations "
                             "in one U3 layer")
                atoms.add(g.atom)
                self._check_unmeasured(i, g.atom, "u3")
                if g.origin is not None:
                    self._swap_component(i, g.origin, "u3", (g.qubit,),
                                         g.angles)
                else:
                    self._native_u3(i, g.qubit, g.atom, g.angles)
        elif isinstance(ev, Illumination):
            self._illumination(i, ev)
        elif isinstance(ev, Measure):
            for atom, qubit, x, y in ev.atoms:
                if atom in self.measured:
                    self.bad("double-measure", i, f"atom {atom} measured twice")
                self.measured.add(atom)
                if not self._unknown_qubits(i, (qubit,), f"measure of atom {atom}") \
                        and self.atom_of[qubit] != atom:
                    self.bad("dependency", i,
                             f"measure of atom {atom} names qubit {qubit}, "
                             f"mapped atom is {self.atom_of[qubit]}")
                if self.pos.get(atom) != (x, y):
                    self.bad("tandem", i, f"measure at stale position for {atom}")

    def _trap_change(self, i: int, ev: TrapChange) -> None:
        for tr in ev.transfers:
            if ev.direction == SLM_TO_AOD:
                if tr.column is None:
                    self.bad("tandem", i, f"pickup of {tr.atom} names no column")
                    continue
                held = self._column_holding(tr.atom)
                if held is not None:
                    self.bad("tandem", i, f"pickup of {tr.atom} into column "
                             f"{tr.column}, column {held} already holds it")
                    continue
                known = self.pos.get(tr.atom)
                if known is not None and known != (tr.x, tr.y):
                    self.bad("tandem", i,
                             f"pickup of {tr.atom} at wrong position")
                self._place(i, tr.atom, tr.x, tr.y)
                if tr.column in self.col_atoms and self.col_atoms[tr.column]:
                    if abs(self.col_x[tr.column] - tr.x) > 1e-9:
                        self.bad("tandem", i,
                                 f"atom {tr.atom} joins column {tr.column} off-x")
                self.col_x[tr.column] = tr.x
                self.col_atoms.setdefault(tr.column, set()).add(tr.atom)
            else:
                col = self._column_holding(tr.atom)
                if col is None:
                    self.bad("tandem", i, f"deposit of non-mobile atom {tr.atom}")
                    continue
                if self.pos.get(tr.atom) != (tr.x, tr.y):
                    self.bad("tandem", i, f"deposit of {tr.atom} at wrong position")
                self.col_atoms[col].discard(tr.atom)
                if self.layout.compute.contains(tr.x, tr.y):
                    self._check_site(i, tr.atom, (tr.x, tr.y))
        self._check_ordering(i)

    def _column_holding(self, atom: int) -> int | None:
        return next((c for c, atoms in self.col_atoms.items() if atom in atoms),
                    None)

    def _check_site(self, i: int, atom: int, xy: tuple[float, float]) -> None:
        """A deposit into compute lands exactly on a grid site that no other
        unmeasured atom holds."""
        if xy not in self.sites:
            self.bad("site", i, f"atom {atom} deposited at {xy}, on no site")
        elif any(p == xy and a != atom and a not in self.measured
                 for a, p in self.pos.items()):
            self.bad("site", i, f"atom {atom} deposited on occupied site {xy}")

    def _column_move(self, i: int, ev: ColumnMove) -> None:
        cid = ev.column
        if cid not in self.col_atoms:
            self.bad("tandem", i, f"move of unknown column {cid}")
            return
        if not ev.atoms:
            self.bad("tandem", i, f"column {cid} moves with no atoms")
        members = self.col_atoms[cid]
        listed = {a for a, _, _ in ev.atoms}
        if members != listed:
            self.bad("tandem", i,
                     f"column {cid} move lists {sorted(listed)}, "
                     f"members are {sorted(members)}")
        if abs(self.col_x[cid] - ev.from_x) > 1e-9:
            self.bad("tandem", i, f"column {cid} from_x mismatch")
        for a, fy, ty in ev.atoms:
            px, py = self.pos.get(a, (None, None))
            if py is not None and abs(py - fy) > 1e-9:
                self.bad("tandem", i, f"atom {a} from_y mismatch")
            self._place(i, a, ev.to_x, ty)
        self.col_x[cid] = ev.to_x
        self._check_ordering(i)

    def _illumination(self, i: int, ev: Illumination) -> None:
        r_int = self.params.interaction_radius
        r_ct = self.params.crosstalk_radius
        comp = self.layout.compute
        pair_of: dict[int, int] = {}
        for k, p in enumerate(ev.pairs):
            (a1, a2) = p.atoms
            for a, (x, y) in zip(p.atoms, p.positions):
                if a not in self.pos:
                    self.bad("blockade", i, f"pair atom {a} was never placed")
                elif self.pos[a] != (x, y):
                    self.bad("blockade", i,
                             f"pair atom {a} recorded off its tracked position")
            if a1 in self.pos and a2 in self.pos:
                d = math.dist(self.pos[a1], self.pos[a2])
                if d >= r_int:
                    self.bad("blockade", i,
                             f"pair {p.atoms} separated by {d:.3f} um")
            # The Rydberg pulse reaches the compute zone only.
            if any(a in self.pos and not comp.contains(*self.pos[a])
                   for a in p.atoms):
                self.bad("blockade", i, f"pair {p.atoms} stands outside compute")
            pair_of[a1] = k
            pair_of[a2] = k
            for a in p.atoms:
                self._check_unmeasured(i, a, f"cz {tuple(p.qubits)}")
            if p.origin is not None:
                self._swap_component(i, p.origin, "cz", p.qubits)
            else:
                self._native_cz(i, p.qubits, p.atoms)
        in_compute = [
            (a, xy) for a, xy in sorted(self.pos.items())
            if comp.contains(*xy) and a not in self.measured
        ]
        for ii in range(len(in_compute)):
            a, (ax, ay) = in_compute[ii]
            for jj in range(ii + 1, len(in_compute)):
                b, (bx, by) = in_compute[jj]
                if pair_of.get(a, -1) == pair_of.get(b, -2):
                    continue
                if (ax - bx) ** 2 + (ay - by) ** 2 < r_ct**2 - 1e-9:
                    self.bad("blockade", i,
                             f"atoms {a},{b} within crosstalk radius "
                             f"({math.dist((ax, ay), (bx, by)):.3f} um)")

    def finish(self) -> None:
        n_events = len(self.sched.events)
        self._close_phase()
        total = sum(layer_time(evs, self.params, self.sched.serial_movement)
                    for evs in self.sched.by_layer().values())
        # Both sides are running sums over every event, so rounding alone
        # grows with the event count: allow 1e-9 per event.
        if abs(self.sched.end_time - total) > 1e-9 * max(1, n_events):
            self.bad("timing", n_events - 1,
                     f"end time {self.sched.end_time} us is not the sum of "
                     f"layer times {total} us")
        for q in range(self.circuit.num_qubits):
            if self.cursor[q] != len(self.by_qubit[q]):
                self.bad("dependency", n_events - 1,
                         f"qubit {q} finished {self.cursor[q]} of "
                         f"{len(self.by_qubit[q])} gates")
        if self.swaps:
            self.bad("dependency", n_events - 1,
                     f"unfinished swaps {sorted(self.swaps)}")
        # Reports read these counters, not the events they count.
        trap_changes = sum(isinstance(ev, TrapChange) for ev in self.sched.events)
        for what, stated, replayed in (
                ("swap_count", self.sched.swap_count, len(self.swap_ids)),
                ("trap_change_count", self.sched.trap_change_count, trap_changes)):
            if stated != replayed:
                self.bad("count", n_events - 1,
                         f"{what} is {stated}, the events hold {replayed}")
        missing = set(range(self.circuit.num_qubits)) - self.measured
        if missing:
            self.bad("double-measure", n_events - 1,
                     f"atoms never measured: {sorted(missing)}")
        for q, a in self.sched.final_mapping.items():
            if not self._unknown_qubits(n_events - 1, (q,), "final mapping") \
                    and self.atom_of[q] != a:
                self.bad("dependency", n_events - 1,
                         f"final mapping of qubit {q} is {self.atom_of[q]}, "
                         f"schedule says {a}")


def validate_schedule(schedule: Schedule, layout: ZoneLayout, grid: SlmGrid,
                      params: PhysParams, circuit: Circuit) -> list[Violation]:
    """Replay the schedule against all physical and logical constraints.

    Returns every violation found (empty list means the schedule is ok).
    """
    replay = _Replay(schedule, layout, grid, params, circuit)
    for i, ev in enumerate(schedule.events):
        replay.handle(i, ev)
    replay.finish()
    return replay.violations


# ---------------------------------------------------------------------------
# dense state-vector oracle


def _apply_u3(state: np.ndarray, q: int, theta: float, phi: float,
              lam: float, n: int) -> np.ndarray:
    """U3 on qubit q of a state, or of every column of a (2**n, k) batch."""
    import numpy as np

    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    mat = np.array(
        [[ct, -np.exp(1j * lam) * st],
         [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct]],
        dtype=complex,
    )
    # qubit q is bit q (little endian): reshape (high, 2, low, batch...)
    shape = state.shape
    state = state.reshape(-1, 2, 2**q, *shape[1:])
    return np.einsum("ab,hbl...->hal...", mat, state).reshape(shape)


@functools.lru_cache(maxsize=1024)
def _cz_indices(a: int, b: int, n: int) -> np.ndarray:
    """Indices of the n-qubit basis states with bits a and b both set."""
    import numpy as np

    idx = np.arange(2**n)
    idx = np.flatnonzero((idx >> a) & (idx >> b) & 1)
    idx.flags.writeable = False
    return idx


def _apply_cz(state: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """CZ in place: flip the sign where bits a and b are both set (of every
    column, for a batch)."""
    state[_cz_indices(a, b, n)] *= -1
    return state


def _run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    n = circuit.num_qubits
    for g in circuit.gates:
        if g.kind == "u3":
            state = _apply_u3(state, g.qubits[0], *g.params, n)
        else:
            state = _apply_cz(state, g.qubits[0], g.qubits[1], n)
    return state


def statevector_oracle(circuit: Circuit, initial: int = 0) -> np.ndarray:
    """Exact output distribution of a basis circuit from a basis state.

    Returns a 2**n probability vector indexed little-endian (qubit 0 is
    the least significant bit).
    """
    import numpy as np

    n = circuit.num_qubits
    if n > ORACLE_QUBIT_CAP:
        raise ValueError(f"oracle capped at {ORACLE_QUBIT_CAP} qubits, got {n}")
    if not circuit.is_basis():
        raise ValueError("oracle requires a basis circuit")
    state = np.zeros(2**n, dtype=complex)
    state[initial] = 1.0
    return np.abs(_run_circuit(circuit, state)) ** 2


def _executed(schedule: Schedule, state: np.ndarray,
              num_qubits: int) -> np.ndarray:
    """Run the schedule's gates on `state` in atom space (atom a starts
    holding qubit a), then relabel the basis through the final
    qubit-to-atom permutation, so that bit q is qubit q again."""
    import numpy as np

    for ev in schedule.events:
        if isinstance(ev, U3LayerEvent):
            for g in ev.gates:
                state = _apply_u3(state, g.atom, *g.angles, num_qubits)
        elif isinstance(ev, Illumination):
            for p in ev.pairs:
                state = _apply_cz(state, p.atoms[0], p.atoms[1], num_qubits)
    mapping = schedule.final_mapping
    ks = np.arange(2**num_qubits)
    js = np.zeros_like(ks)
    for q in range(num_qubits):
        js |= ((ks >> mapping[q]) & 1) << q
    out = np.empty_like(state)
    out[js] = state
    return out


def executed_distribution(schedule: Schedule, num_qubits: int) -> np.ndarray:
    """Simulate the executed gate sequence from |0...0> and return the
    outcome distribution over qubit bitstrings."""
    import numpy as np

    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return np.abs(_executed(schedule, state, num_qubits)) ** 2


def _input_states(n: int) -> np.ndarray:
    """|0...0> and EQUIVALENCE_RANDOM_STATES seeded random product states,
    as the columns of one (2**n, k) array."""
    import numpy as np

    k = 1 + EQUIVALENCE_RANDOM_STATES
    # The stdlib generator: loading numpy.random would add ~2 MB of RSS.
    rng = random.Random(EQUIVALENCE_SEED)
    # qubit -> (amplitude of |0>, of |1>) -> state
    amps = np.array([[[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(k)] for _ in range(2)] for _ in range(n)])
    amps /= np.sqrt((np.abs(amps) ** 2).sum(axis=1, keepdims=True))
    amps[:, :, 0] = (1.0, 0.0)
    states = np.ones((1, k), dtype=complex)
    for q in range(n):  # qubit q is bit q: prepend it as the higher bit
        states = (amps[q][:, None, :] * states[None, :, :]).reshape(-1, k)
    return states


def equivalence_check(schedule: Schedule, circuit: Circuit
                      ) -> tuple[bool, float]:
    """Compare the schedule's executed sequence against the reference
    circuit on |0...0> and seeded random product states, amplitude by
    amplitude up to one global phase (random-stimuli equivalence checking,
    Burgholzer, Kueng & Wille, ASP-DAC 2021). Returns (equal, largest
    amplitude error)."""
    import numpy as np

    n = circuit.num_qubits
    if n > EQUIVALENCE_QUBIT_CAP:
        raise ValueError(
            f"equivalence check capped at {EQUIVALENCE_QUBIT_CAP} qubits"
        )
    states = _input_states(n)
    ref = _run_circuit(circuit, states.copy())
    got = _executed(schedule, states, n)
    overlap = np.vdot(ref, got)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    err = float(np.abs(got - phase * ref).max())
    return err < AMPLITUDE_TOLERANCE, err
