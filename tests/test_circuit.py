"""Circuit IR: basis lowering, the SWAP template, and the frontier."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pachinqo.circuit import (
    END,
    Circuit,
    CircuitError,
    Frontier,
    Gate,
    H_ANGLES,
    cz,
    decompose_swap,
    decompose_to_basis,
    u3,
)

from corpus import random_circuit

PI = math.pi


# ---------------------------------------------------------------------------
# reference simulator over RAW gates (independent of the package's oracle)

def _u3_mat(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_RAW_1Q = {
    "h": _H, "x": _X,
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1, -1]).astype(complex),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(1j * PI / 4)]),
    "tdg": np.diag([1, np.exp(-1j * PI / 4)]),
}


def _raw_mat(g: Gate):
    if g.kind in _RAW_1Q:
        return _RAW_1Q[g.kind]
    if g.kind in ("u3", "u"):
        return _u3_mat(*g.params)
    if g.kind == "u2":
        return _u3_mat(PI / 2, *g.params)
    if g.kind in ("u1", "p"):
        return np.diag([1, np.exp(1j * g.params[0])])
    if g.kind == "rz":
        return np.diag([np.exp(-0.5j * g.params[0]), np.exp(0.5j * g.params[0])])
    if g.kind == "rx":
        t = g.params[0] / 2
        return np.array([[math.cos(t), -1j * math.sin(t)],
                         [-1j * math.sin(t), math.cos(t)]])
    if g.kind == "ry":
        t = g.params[0] / 2
        return np.array([[math.cos(t), -math.sin(t)],
                         [math.sin(t), math.cos(t)]])
    raise AssertionError(g.kind)


def _simulate_raw(circuit: Circuit) -> np.ndarray:
    """Probabilities from |0..0>, applying raw gates one by one."""
    n = circuit.num_qubits
    state = np.zeros((2,) * n, dtype=complex).reshape(-1)
    state[0] = 1.0

    def apply_1q(mat, q):
        nonlocal state
        s = state.reshape(-1, 2, 2**q)
        state = np.einsum("ab,hbl->hal", mat, s).reshape(-1)

    def apply_ctrl(kind, qs):
        nonlocal state
        idx = np.arange(state.size)
        if kind == "cx":
            c, t = qs
            on = ((idx >> c) & 1) == 1
            new = state.copy()
            new[idx[on]] = state[(idx ^ (1 << t))[on]]
            state = new
        elif kind == "cz":
            a, b = qs
            mask = (((idx >> a) & 1) & ((idx >> b) & 1)).astype(bool)
            state = state.copy()
            state[mask] *= -1
        elif kind == "swap":
            a, b = qs
            ba = (idx >> a) & 1
            bb = (idx >> b) & 1
            src = (idx & ~(1 << a) & ~(1 << b)) | (bb << a) | (ba << b)
            state = state[src]
        elif kind == "ccx":
            a, b, t = qs
            on = (((idx >> a) & 1) & ((idx >> b) & 1)).astype(bool)
            new = state.copy()
            new[idx[on]] = state[(idx ^ (1 << t))[on]]
            state = new
        else:
            raise AssertionError(kind)

    for g in circuit.gates:
        if len(g.qubits) == 1:
            apply_1q(_raw_mat(g), g.qubits[0])
        else:
            apply_ctrl(g.kind, g.qubits)
    return np.abs(state) ** 2


# ---------------------------------------------------------------------------
# gate and circuit basics

def test_gate_basis_validation():
    u3(0, 1, 2, 3).validate_basis()
    cz(0, 1).validate_basis()
    with pytest.raises(CircuitError):
        cz(1, 1)
    with pytest.raises(CircuitError):
        Gate("u3", (0, 1), (1, 2, 3)).validate_basis()
    with pytest.raises(CircuitError):
        Gate("cz", (0, 1), (0.5,)).validate_basis()


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(CircuitError):
        Circuit(2, [cz(0, 2)])


# ---------------------------------------------------------------------------
# SWAP template

def test_decompose_swap_shape():
    seq = decompose_swap(0, 1, swap_id=7)
    assert len(seq) == 9
    assert [g.kind for g in seq].count("cz") == 3
    assert [g.kind for g in seq].count("u3") == 6
    assert [i for i, g in enumerate(seq) if g.kind == "cz"] == [1, 4, 7]
    assert all(g.origin.swap_id == 7 for g in seq)
    assert [g.origin.step for g in seq] == list(range(9))
    for g in seq:
        if g.kind == "u3":
            assert g.params == H_ANGLES


def test_decompose_swap_rejects_equal_operands():
    with pytest.raises(CircuitError):
        decompose_swap(2, 2)


def test_swap_template_unitary_is_swap():
    # |01> -> |10> and |10> -> |01>, via the independent raw simulator
    seq = [Gate(g.kind, g.qubits, g.params) for g in decompose_swap(0, 1)]
    prep = [Gate("x", (0,))]  # |01>: qubit 0 set
    probs = _simulate_raw(Circuit(2, prep + seq))
    assert probs[0b10] == pytest.approx(1.0, abs=1e-12)
    probs = _simulate_raw(Circuit(2, [Gate("x", (1,))] + seq))
    assert probs[0b01] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# lowering

def test_cx_lowering():
    circ = decompose_to_basis(Circuit(2, [Gate("cx", (0, 1))]))
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["u3", "cz", "u3"]
    assert circ.gates[0].qubits == (1,)
    assert circ.gates[0].params == H_ANGLES
    assert circ.gates[1].qubits == (0, 1)


def test_h_lowering_angles():
    circ = decompose_to_basis(Circuit(1, [Gate("h", (0,))]))
    assert circ.gates[0].params == (PI / 2, 0.0, PI)


def test_ghz3_lowering_count():
    raw = Circuit(3, [Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cx", (1, 2))])
    circ = decompose_to_basis(raw)
    assert len(circ.gates) == 7  # 1 + 2 * 3
    assert circ.is_basis()


def test_source_swap_lowering_is_untagged():
    circ = decompose_to_basis(Circuit(2, [Gate("swap", (0, 1))]))
    assert len(circ.gates) == 9
    assert all(g.origin is None for g in circ.gates)


def test_lowering_preserves_per_qubit_order():
    rng = random.Random(11)
    raw_kinds = ["h", "x", "t", "cx", "cz", "swap"]
    for _ in range(20):
        n = rng.randint(2, 5)
        gates = []
        for _ in range(30):
            k = rng.choice(raw_kinds)
            if k in ("cx", "cz", "swap"):
                gates.append(Gate(k, tuple(rng.sample(range(n), 2))))
            else:
                gates.append(Gate(k, (rng.randrange(n),)))
        raw = Circuit(n, gates)
        low = decompose_to_basis(raw)
        assert low.is_basis()
        # CZ interactions per qubit pair survive in order
        raw_pairs = [frozenset(g.qubits) for g in raw.gates if len(g.qubits) == 2]
        # each cx/cz contributes 1 pair-gate, each swap 3
        expanded = []
        for g in raw.gates:
            if g.kind in ("cx", "cz"):
                expanded.append(frozenset(g.qubits))
            elif g.kind == "swap":
                expanded.extend([frozenset(g.qubits)] * 3)
        low_pairs = [frozenset(g.qubits) for g in low.gates if g.kind == "cz"]
        assert low_pairs == expanded


def _random_raw(n, rng):
    """A raw circuit on n qubits over every supported gate kind."""
    kinds = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "u3", "u2", "u1",
             "p", "rx", "ry", "rz", "cx", "cz", "swap", "ccx"]
    gates = []
    for _ in range(rng.randint(1, 25)):
        k = rng.choice(kinds)
        if k == "ccx":
            if n < 3:
                continue
            gates.append(Gate(k, tuple(rng.sample(range(n), 3))))
        elif k in ("cx", "cz", "swap"):
            if n < 2:
                continue
            gates.append(Gate(k, tuple(rng.sample(range(n), 2))))
        else:
            n_params = {"u3": 3, "u2": 2, "u1": 1, "p": 1,
                        "rx": 1, "ry": 1, "rz": 1}.get(k, 0)
            gates.append(Gate(k, (rng.randrange(n),),
                              tuple(rng.uniform(-PI, PI) for _ in range(n_params))))
    return Circuit(n, gates)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_lowering_preserves_semantics(n, rng):
    """Distribution of the lowered circuit matches the raw-gate product."""
    from pachinqo.verifier import _run

    raw = _random_raw(n, rng)
    expected = _simulate_raw(raw)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    low = decompose_to_basis(raw).gates
    got = np.abs(_run(state, [(g.qubits, g.params) for g in low], n)) ** 2
    assert np.abs(expected - got).max() < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_lowering_leaves_one_u3_per_qubit_between_czs(n, rng):
    """No qubit has two U3s without a CZ on that qubit between them."""
    low = decompose_to_basis(_random_raw(n, rng))
    last_was_u3 = [False] * n
    for g in low.gates:
        if g.kind == "u3":
            assert not last_was_u3[g.qubits[0]], low.gates
            last_was_u3[g.qubits[0]] = True
        else:
            for q in g.qubits:
                last_was_u3[q] = False


def _equal_up_to_phase(a, b, tol):
    overlap = np.vdot(a.reshape(-1), b.reshape(-1))
    return abs(overlap) > 0 and np.abs(a * overlap / abs(overlap) - b).max() < tol


_ANGLE_RNG = random.Random(5)
_FUSION_RUNS = {
    "h;h": [Gate("h", (0,))] * 2,
    "theta0-run3": [Gate("t", (0,)), Gate("s", (0,)), Gate("rz", (0,), (0.3,))],
    "theta-pi-run3": [Gate("h", (0,)), Gate("z", (0,)), Gate("h", (0,))],
    "theta-pi-pair": [Gate("x", (0,)), Gate("z", (0,))],
    "identity-pair": [Gate("t", (0,)), Gate("tdg", (0,))],
    "random-run5": [Gate("u3", (0,), tuple(_ANGLE_RNG.uniform(-PI, PI)
                                            for _ in range(3)))
                    for _ in range(5)],
}


@pytest.mark.parametrize("name", sorted(_FUSION_RUNS))
def test_fused_u3_equals_product_of_its_run(name):
    run = _FUSION_RUNS[name]
    low = decompose_to_basis(Circuit(1, run))
    assert [g.kind for g in low.gates] == ["u3"]
    product = np.eye(2)
    for g in run:
        product = _raw_mat(g) @ product
    assert _equal_up_to_phase(_u3_mat(*low.gates[0].params), product, 1e-12)


def test_fused_u3_equals_product_over_random_runs():
    rng = random.Random(17)
    for _ in range(500):
        run = []
        for _ in range(rng.randint(2, 4)):
            theta = rng.choice([0.0, PI, rng.uniform(0, PI)])
            run.append(u3(0, theta, rng.uniform(-PI, PI), rng.uniform(-PI, PI)))
        fused = decompose_to_basis(Circuit(1, run)).gates
        assert len(fused) == 1
        product = np.eye(2)
        for g in run:
            product = _u3_mat(*g.params) @ product
        assert _equal_up_to_phase(_u3_mat(*fused[0].params), product, 1e-12)


def test_single_u3_between_czs_keeps_its_angles():
    gates = [u3(0, 0.1, 0.2, 0.3), cz(0, 1), u3(0, 0.4, 0.5, 0.6), cz(0, 1)]
    assert decompose_to_basis(Circuit(2, gates)).gates == gates


# ---------------------------------------------------------------------------
# frontier

def test_frontier_single_cz():
    circ = Circuit(2, [cz(0, 1)])
    f = Frontier(circ)
    assert f.executable_cz(0, 1)
    f.advance(circ.gates[0])
    assert f.next_gate(0) == -1 and f.next_gate(1) == -1
    assert f.done()


def test_frontier_cz_blocked_by_pending_u3():
    circ = Circuit(2, [u3(0, 1, 1, 1), cz(0, 1)])
    f = Frontier(circ)
    assert not f.executable_cz(0, 1)
    assert f.executable_u3(0)
    f.advance(circ.gates[0])
    assert f.executable_cz(0, 1)


def test_frontier_rejects_non_executable_advance():
    circ = Circuit(2, [u3(0, 1, 1, 1), cz(0, 1)])
    f = Frontier(circ)
    with pytest.raises(CircuitError):
        f.advance(circ.gates[1])


def test_frontier_swap_lock_cycle():
    circ = Circuit(2, [cz(0, 1)])
    f = Frontier(circ)
    f.begin_swap(3, 0, 1)
    assert not f.executable_cz(0, 1)  # locked
    completed = None
    for g in decompose_swap(0, 1, swap_id=3):
        assert f.swap_gate(3) == g
        completed = f.advance(g)
    assert completed == 3
    assert not f.lock
    assert f.executable_cz(0, 1)


def test_frontier_swap_queries_follow_begin_swap():
    """`swap_ids` lists the in-flight SWAPs in the order they began and
    `swap_qubits` gives each one's qubits in `begin_swap` order, at every
    step, until `advance` completes it."""
    f = Frontier(Circuit(4, []))
    f.begin_swap(5, 3, 0)
    f.begin_swap(2, 1, 2)
    assert f.swap_ids() == [5, 2]
    for g in decompose_swap(3, 0, swap_id=5):
        assert f.swap_ids() == [5, 2]
        assert f.swap_qubits(5) == (3, 0)
        assert f.swap_qubits(2) == (1, 2)
        completed = f.advance(g)
    assert completed == 5
    assert f.swap_ids() == [2]
    for g in decompose_swap(1, 2, swap_id=2):
        assert f.swap_qubits(2) == (1, 2)
        f.advance(g)
    assert f.swap_ids() == []
    assert f.done()


def test_frontier_next_cz_is_the_cz_a_qubit_waits_for():
    """`next_cz` gives a qubit's next gate if that is a CZ, and None behind
    a U3 or past its last gate. A qubit that an in-flight SWAP locks gets
    the SWAP's next step if that is a CZ, else None, whatever its next
    circuit gate."""
    circ = Circuit(4, [u3(0, 1, 1, 1), cz(0, 1), cz(1, 2), cz(2, 3)])
    f = Frontier(circ)
    assert f.next_cz(0) is None
    assert f.next_cz(1) == circ.gates[1]
    assert f.next_cz(3) == circ.gates[3]
    f.begin_swap(7, 3, 2)
    steps = decompose_swap(3, 2, swap_id=7)
    assert f.next_cz(3) is None and f.next_cz(2) is None  # step 0 is a U3
    f.advance(steps[0])
    assert f.next_cz(3) == f.next_cz(2) == steps[1]
    for g in steps[1:]:
        f.advance(g)
    assert f.next_cz(2) == circ.gates[2]
    f.advance(circ.gates[0])
    f.advance(circ.gates[1])
    assert f.next_cz(0) is None


def test_frontier_next_partner_skips_u3s_and_ignores_the_lock():
    """`next_partner` gives the other qubit of a qubit's next circuit CZ,
    past any U3, also while an in-flight SWAP locks the qubit, and None
    once the qubit has no CZ left."""
    circ = Circuit(3, [u3(0, 1, 1, 1), u3(0, 2, 2, 2), cz(2, 0), cz(0, 1)])
    f = Frontier(circ)
    assert [f.next_partner(q) for q in range(3)] == [2, 0, 0]
    f.begin_swap(0, 0, 1)
    assert [f.next_partner(q) for q in range(3)] == [2, 0, 0]
    for g in decompose_swap(0, 1):
        f.advance(g)
    for g in circ.gates[:3]:
        f.advance(g)
    assert [f.next_partner(q) for q in range(3)] == [1, 0, None]


def test_frontier_swap_step_order_enforced():
    circ = Circuit(2, [])
    f = Frontier(circ)
    f.begin_swap(0, 0, 1)
    seq = decompose_swap(0, 1, swap_id=0)
    with pytest.raises(CircuitError):
        f.advance(seq[1])  # step 1 before step 0
    with pytest.raises(CircuitError):
        f.advance(decompose_swap(1, 0, swap_id=0)[0])  # step 0 on qubit 0


def test_frontier_matches_brute_force():
    """Executability equals 'all earlier gates touching the operands done',
    and `done()` equals 'every cursor at its end and no lock' after every
    step, a SWAP begun after the last gate included."""
    rng = random.Random(99)
    for _ in range(20):
        circ = random_circuit(rng, rng.randint(2, 8), rng.randint(10, 200))
        f = Frontier(circ)

        def brute_done():
            return (all(f.next_gate(q) == END for q in range(circ.num_qubits))
                    and not f.lock)

        done = [False] * len(circ.gates)
        order = list(range(len(circ.gates)))
        rng.shuffle(order)
        progressed = True
        while progressed:
            progressed = False
            for i in order:
                if done[i]:
                    continue
                g = circ.gates[i]
                brute = all(
                    done[j]
                    for j in range(i)
                    if set(circ.gates[j].qubits) & set(g.qubits)
                )
                if g.kind == "cz":
                    fast = (f.executable_cz(*g.qubits)
                            and f.next_gate(g.qubits[0]) == i)
                else:
                    q = g.qubits[0]
                    fast = f.executable_u3(q) and f.next_gate(q) == i
                assert fast == brute, f"gate {i} mismatch"
                if brute:
                    f.advance(g)
                    done[i] = True
                    progressed = True
                    assert f.done() == brute_done() == all(done)
        assert all(done)
        f.begin_swap(0, 0, 1)
        for g in decompose_swap(0, 1, swap_id=0):
            assert f.done() is brute_done() is False
            f.advance(g)
        assert f.done() is brute_done() is True


def test_frontier_executable_u3s_matches_per_qubit_test():
    """The one-pass scan returns exactly the qubits `executable_u3` accepts,
    in qubit order, with a SWAP holding two qubits locked."""
    rng = random.Random(5)
    circ = random_circuit(rng, 6, 80)
    f = Frontier(circ)
    f.begin_swap(0, 1, 4)
    for _ in range(40):
        ready = f.executable_u3s()
        assert ready == [q for q in range(6) if f.executable_u3(q)]
        gates = [circ.gates[f.next_gate(q)] for q in ready]
        gates += [circ.gates[i] for i in {f.next_gate(q) for q in range(6)}
                  if i != -1 and circ.gates[i].kind == "cz"
                  and f.executable_cz(*circ.gates[i].qubits)]
        if not gates:
            break
        f.advance(gates[0])
    assert 1 not in f.executable_u3s() and 4 not in f.executable_u3s()


def test_frontier_first_pending_skips_executed_gates_and_never_moves_back():
    """`first_pending` is the lowest index of a gate not yet executed, or
    END once every gate has run, whatever order executable gates run in;
    so it never decreases."""
    rng = random.Random(7)
    for _ in range(10):
        circ = random_circuit(rng, rng.randint(2, 6), rng.randint(5, 60))
        f = Frontier(circ)
        done = [False] * len(circ.gates)
        last = 0
        while not f.done():
            ready = [i for i, g in enumerate(circ.gates) if not done[i] and (
                f.executable_cz(*g.qubits) and f.next_gate(g.qubits[0]) == i
                if g.kind == "cz" else
                f.executable_u3(g.qubits[0]) and f.next_gate(g.qubits[0]) == i)]
            i = rng.choice(ready)
            f.advance(circ.gates[i])
            done[i] = True
            head = f.first_pending()
            assert head == next((j for j, d in enumerate(done) if not d), END)
            if head != END:
                assert head >= last
                last = head
        assert f.first_pending() == END


def test_frontier_first_pending_stays_on_a_gate_a_swap_locked():
    """A SWAP on the head CZ's qubits holds it: the cursor stays there while
    the SWAP's steps and a later rotation run, and moves past both the CZ
    and the rotation once the CZ runs."""
    circ = Circuit(3, [cz(0, 1), u3(2, 0.1, 0.2, 0.3), cz(1, 2)])
    f = Frontier(circ)
    f.begin_swap(0, 0, 1)
    f.advance(circ.gates[1])
    assert f.first_pending() == 0
    for g in decompose_swap(0, 1, swap_id=0):
        f.advance(g)
        assert f.first_pending() == 0
    f.advance(circ.gates[0])
    assert f.first_pending() == 2
    f.advance(circ.gates[2])
    assert f.first_pending() == END
