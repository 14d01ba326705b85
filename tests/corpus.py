"""Deterministic random-circuit corpus shared by tests and acceptance."""
from __future__ import annotations

import math
import random

from pachinqo.circuit import Circuit, cz, u3

TECHNIQUES = ("pachinqo", "degreesplit", "onecache", "trapchange")
GRIDS = ("large-square", "small-square", "triangle", "star")


def random_circuit(rng: random.Random, n: int, n_gates: int,
                   cz_fraction: float = 0.5, name: str = "rand") -> Circuit:
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < cz_fraction:
            a, b = rng.sample(range(n), 2)
            gates.append(cz(a, b))
        else:
            q = rng.randrange(n)
            gates.append(u3(q, rng.uniform(0, math.pi),
                            rng.uniform(-math.pi, math.pi),
                            rng.uniform(-math.pi, math.pi)))
    return Circuit(n, gates, name)


def staircase(n: int, rounds: int = 1, with_rotations: bool = True,
              name: str | None = None) -> Circuit:
    """TFIM-style chain: per round, a rotation on every qubit then the
    CZ(i, i+1) staircase."""
    gates = []
    for _ in range(rounds):
        if with_rotations:
            for q in range(n):
                gates.append(u3(q, 0.37, 0.0, 0.0))
        for i in range(n - 1):
            gates.append(cz(i, i + 1))
    return Circuit(n, gates, name or f"chain{n}")


def corpus_cases(count: int = 208, seed: int = 2024):
    """Yield (circuit, technique, grid) cycling through all 16 combos.

    Sizes span 4..40 qubits and 10..500 gates; a third of the draws stay
    at <= 10 qubits so the equivalence oracle gets coverage.
    """
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            n = rng.randint(4, 10)
        else:
            n = rng.randint(4, 40)
        n_gates = rng.randint(10, 500)
        circuit = random_circuit(rng, n, n_gates, name=f"corpus{i:03d}")
        technique = TECHNIQUES[i % 4]
        grid = GRIDS[(i // 4) % 4]
        yield circuit, technique, grid


def _h(q):
    return u3(q, math.pi / 2, 0.0, math.pi)


def ghz(n: int) -> Circuit:
    gates = [_h(0)]
    for i in range(n - 1):
        gates += [_h(i + 1), cz(i, i + 1), _h(i + 1)]
    return Circuit(n, gates, f"ghz{n}")


def bv_like(n: int, secret: int = 0b1011011) -> Circuit:
    """Bernstein-Vazirani structure: fan-in CZs onto the last qubit."""
    gates = [_h(q) for q in range(n)]
    for i in range(n - 1):
        if (secret >> i) & 1:
            gates += [_h(n - 1), cz(i, n - 1), _h(n - 1)]
    gates += [_h(q) for q in range(n - 1)]
    return Circuit(n, gates, f"bv{n}")


def qft_like(n: int) -> Circuit:
    """QFT-style all-to-all interaction pattern in the native basis."""
    gates = []
    for i in range(n):
        gates.append(_h(i))
        for j in range(i + 1, n):
            gates.append(u3(j, 0.0, 0.0, math.pi / 2 ** (j - i)))
            gates.append(cz(i, j))
    return Circuit(n, gates, f"qft{n}")


def ising_ring(n: int, rounds: int = 2) -> Circuit:
    gates = []
    for _ in range(rounds):
        for q in range(n):
            gates.append(u3(q, 0.4, 0.0, 0.0))
        for i in range(n):
            gates.append(cz(i, (i + 1) % n))
    return Circuit(n, gates, f"ising{n}")


def star_graph(n: int) -> Circuit:
    gates = [_h(0)]
    for k in range(1, n):
        gates.append(cz(0, k))
        gates.append(u3(k, 0.9, 0.1, -0.3))
    return Circuit(n, gates, f"star{n}")


def disjoint_pairs(n: int) -> Circuit:
    gates = []
    for i in range(0, n - 1, 2):
        gates += [_h(i), cz(i, i + 1), _h(i + 1)]
    return Circuit(n, gates, f"pairs{n}")


def full_sites_extraction() -> Circuit:
    """A trapchange circuit that extracts a static atom by construction.

    CZ(2i, 2i+1) for i < 96 makes 2i mobile and 2i+1 static, one static
    atom on each of the 96 clear sites of the default large-square layout,
    so neither an AOD pair nor a deposit has a free site. Mobile 192 and
    193 (193 goes opposite its first partner, 187) form a 25th column of
    two atoms. Once each has run its CZ with a static, CZ(192, 193)
    conflicts inside that column: trapchange extracts a static atom whose
    next CZ partner is static, as the atoms of the site column seated
    first (x = 175 um) have, in pairs, into the column's free slot. Their
    mobile partners stand in columns 0-3, so moving one into column 24 at
    load time would split a CZ as it joins a pair: the load leaves them
    static. The freed site then takes the deposit that CZ(192, 100),
    across columns 24 and 12, asks for."""
    centre = list(range(1, 16, 2))  # statics at x = 175 um
    gates = [cz(2 * i, 2 * i + 1) for i in range(96)]
    gates += [cz(192, 189), cz(193, 187)]
    gates += [cz(a, b) for a, b in zip(centre[::2], centre[1::2])]
    gates += [cz(192, 193), cz(192, 100)]
    return Circuit(194, gates, "fullsites")


def benchmark_suite() -> list[Circuit]:
    """Ten desk-scale circuits spanning the evaluated interaction shapes."""
    rng = random.Random(77)
    return [
        ghz(8),
        bv_like(9),
        qft_like(6),
        staircase(8, 3, name="tfim8"),
        staircase(16, 2, name="tfim16"),
        ising_ring(10, 2),
        star_graph(9),
        disjoint_pairs(10),
        random_circuit(rng, 12, 90, cz_fraction=0.35, name="sparse12"),
        random_circuit(rng, 10, 120, cz_fraction=0.65, name="dense10"),
    ]


def random_qasm(rng: random.Random, n: int, n_gates: int) -> str:
    """Random QASM 2.0 source over the supported gate set."""
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{n}];", f"creg c[{n}];"]
    for _ in range(n_gates):
        r = rng.random()
        if n >= 2 and r < 0.35:
            a, b = rng.sample(range(n), 2)
            lines.append(f"cx q[{a}],q[{b}];")
        elif n >= 2 and r < 0.5:
            a, b = rng.sample(range(n), 2)
            lines.append(f"cz q[{a}],q[{b}];")
        elif r < 0.7:
            g = rng.choice(one_q)
            lines.append(f"{g} q[{rng.randrange(n)}];")
        elif r < 0.85:
            lines.append(
                f"rz({rng.uniform(-3, 3):.6f}) q[{rng.randrange(n)}];")
        else:
            lines.append(
                f"u3({rng.uniform(0, 3):.6f},{rng.uniform(-3, 3):.6f},"
                f"{rng.uniform(-3, 3):.6f}) q[{rng.randrange(n)}];")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
