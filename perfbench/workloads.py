"""Seeded QASM inputs for the pipeline benchmark.

The generator is self-contained on purpose: it does not import the test
corpus, so an edit to the tests cannot change the benchmark's inputs.

Each workload has a fixed shape: circuit sizes, gate positions, gate
families, multi-qubit operands and most one-qubit targets come from a
generator keyed by the workload name alone. The run's seed draws every
one-qubit gate name and angle, and the target of each one-qubit gate in
the last SEEDED_TAIL of a circuit. Independent random circuits of one
size differ by 15-25% in SWAPs and movement, and even re-drawing a few
two-qubit operands at the end moves them by 5-8%, which would swamp the
bounds on the modelled metrics. With the shape pinned, those metrics
move by well under 1% from seed to seed, yet no two seeds give the same
inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

TECHNIQUES = ("pachinqo", "degreesplit", "onecache", "trapchange")
GRIDS = ("large-square", "small-square", "triangle", "star")

FIXED_1Q = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
PARAM_1Q = ("rz", "rx", "ry", "u1", "p", "u2", "u3")
ARITY = {"cx": 2, "cz": 2, "swap": 2, "ccx": 3}

# Cumulative gate-mix weights: (upper bound of rng.random(), gate family).
BASIC_MIX = ((0.30, "cx"), (0.50, "cz"), (0.75, "fixed"), (1.00, "param"))
DEEP_MIX = ((0.15, "cx"), (0.25, "cz"), (0.29, "ccx"), (0.33, "swap"),
            (0.67, "fixed"), (1.00, "param"))

# Share of each circuit, at its end, whose one-qubit targets the seed
# re-draws. Greedy scheduling amplifies an early change into the whole
# schedule, so the re-drawn targets sit only in the tail.
SEEDED_TAIL = 0.02

WIDE_QUBITS, WIDE_GATES = 100, 500
SWEEP_CASES = 32
DEEP_QUBITS, DEEP_GATES = 10, 1500


@dataclass(frozen=True)
class Case:
    """One pipeline input: QASM text plus the technique and grid to use."""

    name: str
    qasm: str
    technique: str
    grid: str
    num_qubits: int


def _param_gate(rng: random.Random, q: int) -> str:
    kind = rng.choice(PARAM_1Q)
    n_args = {"u3": 3, "u2": 2}.get(kind, 1)
    args = ",".join(f"{rng.uniform(-3, 3):.6f}" for _ in range(n_args))
    return f"{kind}({args}) q[{q}];"


def random_qasm(shape: random.Random, seeded: random.Random, n: int,
                n_gates: int, mix=BASIC_MIX) -> str:
    """QASM 2.0 source with `n` qubits and `n_gates` source gates.

    `shape` fixes positions, families and operands; `seeded` picks the
    one-qubit gates and re-draws the one-qubit targets in the tail.
    `shape` is consumed in the same pattern whatever `seeded` draws, so
    the shape does not depend on the seed.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{n}];", f"creg c[{n}];"]
    tail = n_gates - int(n_gates * SEEDED_TAIL)
    for i in range(n_gates):
        r = shape.random()
        family = next(f for bound, f in mix if r < bound)
        if ARITY.get(family, 1) > n:
            family = "fixed"
        if family in ARITY:
            qs = shape.sample(range(n), ARITY[family])
            lines.append(f"{family} " + ",".join(f"q[{q}]" for q in qs) + ";")
        else:
            q = shape.randrange(n)
            if i >= tail:
                q = seeded.randrange(n)
            if family == "fixed":
                lines.append(f"{seeded.choice(FIXED_1Q)} q[{q}];")
            else:
                lines.append(_param_gate(seeded, q))
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def _wide(shape, seeded) -> list[Case]:
    qasm = random_qasm(shape, seeded, WIDE_QUBITS, WIDE_GATES)
    return [Case("wide", qasm, "pachinqo", "large-square", WIDE_QUBITS)]


def _sweep(shape, seeded) -> list[Case]:
    # A fixed size ladder over 4-40 qubits and 10-110 gates; every other
    # case stays at <= 10 qubits so the equivalence oracle runs on half.
    cases = []
    for i in range(SWEEP_CASES):
        n = 4 + (i // 2) % 7 if i % 2 == 0 else 11 + (i * 7) % 30
        n_gates = 10 + (i * 37) % 101
        technique = TECHNIQUES[i % 4]
        grid = GRIDS[(i // 4) % 4]
        cases.append(Case(f"sweep{i:02d}",
                          random_qasm(shape, seeded, n, n_gates),
                          technique, grid, n))
    return cases


def _deep(shape, seeded) -> list[Case]:
    qasm = random_qasm(shape, seeded, DEEP_QUBITS, DEEP_GATES, DEEP_MIX)
    return [Case("deep", qasm, "pachinqo", "large-square", DEEP_QUBITS)]


WORKLOADS = {"wide": _wide, "sweep": _sweep, "deep": _deep}


def make_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases for `seed`; the same seed gives the same cases."""
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return WORKLOADS[workload](random.Random(f"{workload}:shape"),
                               random.Random(f"{workload}:{seed}"))
