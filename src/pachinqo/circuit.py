"""Circuit IR: gates in the {U3, CZ} basis, lowering rules, and the
per-qubit dependency frontier the scheduler iterates over.

Gate lists are kept flat; list order *is* the dependency order per qubit.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

PI = math.pi

# Angles (theta, phi, lam) of the U3 realization of H.
H_ANGLES = (PI / 2, 0.0, PI)

# Fixed single-qubit lowerings to U3 angles.
_FIXED_1Q = {
    "x": (PI, 0.0, PI),
    "y": (PI, PI / 2, PI / 2),
    "z": (0.0, 0.0, PI),
    "h": H_ANGLES,
    "s": (0.0, 0.0, PI / 2),
    "sdg": (0.0, 0.0, -PI / 2),
    "t": (0.0, 0.0, PI / 4),
    "tdg": (0.0, 0.0, -PI / 4),
}


class CircuitError(ValueError):
    """Raised for malformed circuits or gate arguments."""


class SwapTag(NamedTuple):
    """Marks a gate as step `step` (0..8) of inserted SWAP `swap_id`; a
    schedule entry's `(swap_id, step)` origin."""

    swap_id: int
    step: int


@dataclass(frozen=True)
class Gate:
    """One gate. Basis circuits contain only kinds 'u3' and 'cz'.

    Raw (parsed, un-lowered) circuits may carry any supported kind; the
    scheduler only ever sees basis gates.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    origin: SwapTag | None = None

    def validate_basis(self) -> None:
        if self.kind == "u3":
            if len(self.qubits) != 1 or len(self.params) != 3:
                raise CircuitError(f"u3 needs 1 qubit and 3 angles, got {self}")
        elif self.kind == "cz":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise CircuitError(f"cz needs 2 distinct qubits, got {self}")
            if self.params:
                raise CircuitError(f"cz takes no params, got {self}")
        else:
            raise CircuitError(f"not a basis gate: {self.kind}")


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    source_name: str = ""

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                    )

    def is_basis(self) -> bool:
        return all(g.kind in ("u3", "cz") for g in self.gates)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)

    def cz_pairs(self):
        """Yield the qubit pairs of all CZ gates, in circuit order."""
        for g in self.gates:
            if g.kind == "cz":
                yield g.qubits


def u3(q: int, theta: float, phi: float, lam: float, origin: SwapTag | None = None) -> Gate:
    return Gate("u3", (q,), (theta, phi, lam), origin)


def cz(a: int, b: int, origin: SwapTag | None = None) -> Gate:
    if a == b:
        raise CircuitError("cz operands must be distinct")
    return Gate("cz", (a, b), (), origin)


def decompose_swap(a: int, b: int, swap_id: int = 0) -> list[Gate]:
    """The 9-gate SWAP template: 3 CZ + 6 U3 (CZs at steps 1, 4, 7).

    Equivalent to CX(a,b) CX(b,a) CX(a,b) with each CX as H-CZ-H.
    """
    if a == b:
        raise CircuitError("swap operands must be distinct")
    seq = [
        u3(b, *H_ANGLES),
        cz(a, b),
        u3(b, *H_ANGLES),
        u3(a, *H_ANGLES),
        cz(b, a),
        u3(a, *H_ANGLES),
        u3(b, *H_ANGLES),
        cz(a, b),
        u3(b, *H_ANGLES),
    ]
    return [replace(g, origin=SwapTag(swap_id, i)) for i, g in enumerate(seq)]


def _lower_gate(g: Gate) -> list[Gate]:
    """One rewrite step toward the basis for a gate outside it. May emit
    non-basis gates (cx)."""
    k = g.kind
    if k in _FIXED_1Q:
        return [u3(g.qubits[0], *_FIXED_1Q[k])]
    q = g.qubits[0]
    if k == "u":
        return [u3(q, *g.params)]
    if k == "u2":
        return [u3(q, PI / 2, g.params[0], g.params[1])]
    if k in ("u1", "p", "rz"):
        # rz differs from the phase gate by a global phase only.
        return [u3(q, 0.0, 0.0, g.params[0])]
    if k == "rx":
        return [u3(q, g.params[0], -PI / 2, PI / 2)]
    if k == "ry":
        return [u3(q, g.params[0], 0.0, 0.0)]
    if k == "cx":
        c, t = g.qubits
        return [u3(t, *H_ANGLES), cz(c, t), u3(t, *H_ANGLES)]
    if k == "swap":
        # A source-level SWAP is an ordinary logical gate: it lowers to
        # untagged basis gates. SwapTag bookkeeping (locks, mapping
        # exchange) applies only to compiler-inserted SWAPs.
        a, b = g.qubits
        return [replace(x, origin=None) for x in decompose_swap(a, b)]
    if k == "ccx":
        a, b, t = g.qubits
        return [
            Gate("h", (t,)),
            Gate("cx", (b, t)),
            Gate("tdg", (t,)),
            Gate("cx", (a, t)),
            Gate("t", (t,)),
            Gate("cx", (b, t)),
            Gate("tdg", (t,)),
            Gate("cx", (a, t)),
            Gate("t", (b,)),
            Gate("t", (t,)),
            Gate("h", (t,)),
            Gate("cx", (a, b)),
            Gate("t", (a,)),
            Gate("tdg", (b,)),
            Gate("cx", (a, b)),
        ]
    raise CircuitError(f"unsupported gate kind: {k}")


def _expand_to_basis(circuit: Circuit) -> Circuit:
    """Lower every raw gate to its fixed {U3, CZ} decomposition, gate by
    gate: each U3 of each template is kept."""
    out: list[Gate] = []
    for g in circuit.gates:
        pending = [g]
        while pending:
            h = pending.pop(0)
            if h.kind in ("u3", "cz"):
                h.validate_basis()
                out.append(h)
            else:
                pending = _lower_gate(h) + pending
    return Circuit(circuit.num_qubits, out, circuit.source_name)


def _u3_matrix(theta: float, phi: float, lam: float) -> tuple[complex, ...]:
    """Row-major 2x2 matrix of U3(theta, phi, lam)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (complex(c), -cmath.exp(1j * lam) * s,
            cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c)


def _fused_angles(gates: list[Gate]) -> tuple[float, float, float]:
    """U3 angles of the product of `gates` (applied in list order), up to a
    global phase.

    The product is scaled by 1/sqrt(det) into SU(2), where U3(theta, phi,
    lam) reads [[e^-i(phi+lam)/2 cos, .], [e^i(phi-lam)/2 sin,
    e^i(phi+lam)/2 cos]]. At theta = 0 or pi one phase is arg(0) = 0; the
    other entry then fixes the matrix, so no threshold is needed.
    """
    a, b, c, d = 1, 0, 0, 1
    for g in gates:
        u00, u01, u10, u11 = _u3_matrix(*g.params)
        a, b, c, d = (u00 * a + u01 * c, u00 * b + u01 * d,
                      u10 * a + u11 * c, u10 * b + u11 * d)
    root = cmath.sqrt(a * d - b * c)
    a, c, d = a / root, c / root, d / root
    theta = 2 * math.atan2(abs(c), abs(a))
    plus, minus = cmath.phase(d), cmath.phase(c)  # (phi + lam)/2, (phi - lam)/2
    return theta, plus + minus, plus - minus


def _fuse_u3_runs(circuit: Circuit) -> Circuit:
    """Merge each run of U3s on a qubit with no CZ on that qubit in between
    into one U3 at the run's first position. A run of one keeps its gate."""
    out: list[Gate] = []
    runs: dict[int, list[Gate]] = {}  # out index of a run's first U3 -> run
    open_run: list[int | None] = [None] * circuit.num_qubits
    for g in circuit.gates:
        if g.kind == "u3":
            q = g.qubits[0]
            if open_run[q] is None:
                open_run[q] = len(out)
                runs[len(out)] = []
                out.append(g)
            runs[open_run[q]].append(g)
        else:
            for q in g.qubits:
                open_run[q] = None
            out.append(g)
    for i, run in runs.items():
        if len(run) > 1:
            out[i] = u3(run[0].qubits[0], *_fused_angles(run))
    return Circuit(circuit.num_qubits, out, circuit.source_name)


def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Lower a raw circuit to {U3, CZ}: expand every gate to its fixed
    decomposition, then fuse each qubit's consecutive U3s (those with no
    CZ on that qubit between them) into one U3, equal to their product up
    to a global phase.

    Each qubit's sequence of CZs is the expansion's; the scheduler's CZ
    frontier is therefore unchanged, and only U3 layers disappear.
    """
    return _fuse_u3_runs(_expand_to_basis(circuit))


END = -1  # frontier cursor value once a qubit has no gates left


class Frontier:
    """Per-qubit cursor to the next executable gate, plus SWAP locks.

    A locked qubit participates in an in-flight inserted SWAP and may only
    execute gates tagged with its swap id, in step order. The frontier is
    the only record of an in-flight SWAP: it owns its `decompose_swap`
    template, `swap_qubits` names its two qubits in `begin_swap` order,
    `swap_gate` names its next gate, and `advance` accepts only that gate.
    """

    def __init__(self, circuit: Circuit):
        if not circuit.is_basis():
            raise CircuitError("frontier requires a basis circuit")
        self.circuit = circuit
        # Per-qubit list of gate indices, and a cursor into each list.
        self._by_qubit: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
        for i, g in enumerate(circuit.gates):
            for q in g.qubits:
                self._by_qubit[q].append(i)
        self._pos = [0] * circuit.num_qubits
        # Every gate before this index has executed (see first_pending).
        self._first_pending = 0
        # qubit -> swap_id for in-flight inserted SWAPs
        self.lock: dict[int, int] = {}
        # swap_id -> (its decompose_swap template, completed step count)
        self._swaps: dict[int, tuple[list[Gate], int]] = {}

    def next_gate(self, q: int) -> int:
        """Index into circuit.gates of q's next gate, or END."""
        lst = self._by_qubit[q]
        p = self._pos[q]
        return lst[p] if p < len(lst) else END

    def done(self) -> bool:
        """Whether every gate has executed and no SWAP is in flight."""
        return self.first_pending() == END and not self.lock

    def _executed(self, i: int) -> bool:
        # Both cursors of a CZ pass it together, so its first qubit decides.
        q = self.circuit.gates[i].qubits[0]
        lst, p = self._by_qubit[q], self._pos[q]
        return p == len(lst) or lst[p] > i

    def first_pending(self) -> int:
        """Index of the circuit's first unexecuted gate, or END. Gates only
        ever execute, so the scan resumes where the last call stopped; a
        gate whose qubit an in-flight SWAP locks has not executed."""
        gates = self.circuit.gates
        i = self._first_pending
        while i < len(gates) and self._executed(i):
            i += 1
        self._first_pending = i
        return i if i < len(gates) else END

    def pending_czs(self, limit: int) -> list[int]:
        """Indices of the first `limit` CZs not yet executed, in circuit
        order."""
        gates = self.circuit.gates
        i = self.first_pending()
        if i == END:
            return []
        out: list[int] = []
        while i < len(gates) and len(out) < limit:
            if gates[i].kind == "cz" and not self._executed(i):
                out.append(i)
            i += 1
        return out

    def next_cz(self, q: int) -> Gate | None:
        """The CZ q waits for: its in-flight SWAP's next step if q is
        locked, else its next circuit gate; None if that is not a CZ."""
        if q in self.lock:
            gate = self.swap_gate(self.lock[q])
        else:
            lst, p = self._by_qubit[q], self._pos[q]
            gate = self.circuit.gates[lst[p]] if p < len(lst) else None
        return gate if gate is not None and gate.kind == "cz" else None

    def next_partner(self, q: int) -> int | None:
        """The other qubit of q's next CZ in the circuit, past any U3 and
        whether or not q is locked; None if q has no CZ left."""
        gates = self.circuit.gates
        for i in self._by_qubit[q][self._pos[q]:]:
            g = gates[i]
            if g.kind == "cz":
                return g.qubits[0] if g.qubits[1] == q else g.qubits[1]
        return None

    def swap_ids(self) -> list[int]:
        """The in-flight SWAPs, in the order they began."""
        return list(self._swaps)

    def swap_qubits(self, swap_id: int) -> tuple[int, int]:
        """The qubits (a, b) of in-flight SWAP `swap_id`, as `begin_swap`
        got them."""
        return self._swaps[swap_id][0][1].qubits  # step 1 is CZ(a, b)

    def swap_gate(self, swap_id: int) -> Gate:
        """The next gate of in-flight SWAP `swap_id`."""
        gates, step = self._swaps[swap_id]
        return gates[step]

    def begin_swap(self, swap_id: int, a: int, b: int) -> None:
        if a in self.lock or b in self.lock:
            raise CircuitError("cannot start a swap on a locked qubit")
        if swap_id in self._swaps:
            raise CircuitError(f"swap id {swap_id} already active")
        self.lock[a] = swap_id
        self.lock[b] = swap_id
        self._swaps[swap_id] = (decompose_swap(a, b, swap_id), 0)

    def executable_u3(self, q: int) -> bool:
        """True iff q's next circuit gate is a U3 and q is not locked."""
        if q in self.lock:
            return False
        i = self.next_gate(q)
        return i != END and self.circuit.gates[i].kind == "u3"

    def executable_u3s(self) -> list[int]:
        """Every qubit for which `executable_u3` holds, in qubit order, in
        one pass."""
        gates, lock = self.circuit.gates, self.lock
        return [q for q, (lst, p) in enumerate(zip(self._by_qubit, self._pos))
                if p < len(lst) and gates[lst[p]].kind == "u3" and q not in lock]

    def executable_cz(self, q1: int, q2: int) -> bool:
        """True iff both cursors point at the same CZ(q1,q2) and neither
        qubit is locked into a SWAP."""
        if q1 in self.lock or q2 in self.lock:
            return False
        i = self.next_gate(q1)
        if i == END or i != self.next_gate(q2):
            return False
        g = self.circuit.gates[i]
        return g.kind == "cz" and set(g.qubits) == {q1, q2}

    def advance(self, gate: Gate) -> int | None:
        """Record execution of `gate`; cursors only ever move forward.

        A swap-tagged gate must equal its swap's next template gate; after
        the last one both qubits unlock and the completed swap_id is
        returned so the caller can exchange the qubit-atom mapping. The
        validator exchanges it and unlocks qubit b at step 7 already,
        wire a's last. Doing so here could not let qubit b's next CZ be
        planned any earlier: the compiler runs step 8 in the first U3
        layer after step 7's illumination, before the next CZ layer
        plans. Advancing a non-executable gate is a contract violation.
        """
        if gate.origin is not None:
            sid = gate.origin.swap_id
            gates, step = self._swaps[sid]
            if gate != gates[step]:
                raise CircuitError(f"swap {sid} expected {gates[step]}, got {gate}")
            if step + 1 == len(gates):
                for q in self.swap_qubits(sid):
                    del self.lock[q]
                del self._swaps[sid]
                return sid
            self._swaps[sid] = (gates, step + 1)
            return None

        if gate.kind == "u3":
            q = gate.qubits[0]
            if not self.executable_u3(q):
                raise CircuitError(f"u3 on qubit {q} is not executable")
            self._pos[q] += 1
        elif gate.kind == "cz":
            q1, q2 = gate.qubits
            if not self.executable_cz(q1, q2):
                raise CircuitError(f"cz{gate.qubits} is not executable")
            self._pos[q1] += 1
            self._pos[q2] += 1
        else:
            raise CircuitError(f"cannot advance non-basis gate {gate.kind}")
        return None
