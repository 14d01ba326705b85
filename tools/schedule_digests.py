"""Hash the schedules of fixed input sets, to show that a change leaves
every schedule byte-identical.

Prints one line per set: the sha256 of its schedules' `schedule_to_json`
texts, concatenated in case order, then the set's total SWAPs, total
illuminations, total modelled runtime and mean -log10 ESP. The sets are
the 208-case acceptance corpus, perfbench `wide`, `deep` and `sweep` at
seeds 1-10 (each set up as `perfbench/pipeline.run_case` sets it up),
the broad set and the scale set (`tests/test_scheduler.py`).

The inputs come from this checkout's `tests/corpus.py` and
`perfbench/workloads.py`, read by path; the compiler is whichever
`pachinqo` is on the path. So another tree, such as a parent commit
exported with `git archive`, can be hashed on the same inputs:

    PYTHONPATH=src python3 tools/schedule_digests.py
    PYTHONPATH=/path/to/other/tree/src python3 tools/schedule_digests.py

Equal lines mean equal schedules. The whole run takes about 25 s on a
2-vCPU machine.
"""
from __future__ import annotations

import hashlib
import importlib.util
import math
import random
import sys
from pathlib import Path

from pachinqo.circuit import decompose_to_basis
from pachinqo.machine import PhysParams, build_layout, generate_grid
from pachinqo.metrics import esp
from pachinqo.qasm import parse_qasm
from pachinqo.schedule import Illumination, schedule_to_json
from pachinqo.scheduler import Compiler

ROOT = Path(__file__).resolve().parents[1]
PARAMS = PhysParams()
PERFBENCH_SEEDS = range(1, 11)


def _module(name: str, path: Path):
    """The module at `path`, loaded under `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up by name while being built.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


CORPUS = _module("schedule_digests_corpus", ROOT / "tests" / "corpus.py")
WORKLOADS = _module("schedule_digests_workloads", ROOT / "perfbench" / "workloads.py")


def corpus_set():
    """(circuit, technique, grid kind) of the 208 acceptance corpus cases."""
    return list(CORPUS.corpus_cases(count=208, seed=2024))


def perfbench_set(workload: str):
    """The cases of a perfbench workload at every seed in PERFBENCH_SEEDS."""
    return [(decompose_to_basis(parse_qasm(case.qasm, case.name)),
             case.technique, case.grid)
            for seed in PERFBENCH_SEEDS
            for case in WORKLOADS.make_cases(workload, seed)]


def broad_set():
    """25 random circuits of n = 10, 16, 24, 32 and 40 qubits with 10n
    gates, seeds 1000n + 0..4, each on the next grid in turn, pachinqo."""
    sizes = [(n, s) for n in (10, 16, 24, 32, 40) for s in range(5)]
    return [(CORPUS.random_circuit(random.Random(1000 * n + s), n, 10 * n),
             "pachinqo", CORPUS.GRIDS[i % 4]) for i, (n, s) in enumerate(sizes)]


def scale_set():
    """12 random circuits of n = 60, 100 and 150 qubits with 10n gates,
    seeds 1-4, pachinqo on large-square."""
    return [(CORPUS.random_circuit(random.Random(s), n, 10 * n),
             "pachinqo", "large-square") for n in (60, 100, 150) for s in range(1, 5)]


SETS = {
    "corpus": corpus_set,
    "perfbench/wide": lambda: perfbench_set("wide"),
    "perfbench/deep": lambda: perfbench_set("deep"),
    "perfbench/sweep": lambda: perfbench_set("sweep"),
    "broad": broad_set,
    "scale": scale_set,
}


def totals(cases) -> tuple[str, int, int, float, float]:
    """(sha256, SWAPs, illuminations, runtime in us, mean -log10 ESP) of
    the schedules of `cases`."""
    sha = hashlib.sha256()
    swaps = illuminations = 0
    runtime = neg_log10_esp = 0.0
    for circ, technique, grid_kind in cases:
        layout = build_layout(circ.num_qubits, "auto", PARAMS, grid_kind)
        grid = generate_grid(grid_kind, layout, PARAMS)
        sched = Compiler(circ, technique, grid, layout, PARAMS, False).run()
        sha.update(schedule_to_json(sched).encode())
        swaps += sched.swap_count
        illuminations += sum(isinstance(ev, Illumination) for ev in sched.events)
        runtime += sched.end_time
        neg_log10_esp -= math.log10(esp(sched, PARAMS))
    return (sha.hexdigest(), swaps, illuminations, runtime,
            neg_log10_esp / len(cases))


def main() -> int:
    for name, cases in SETS.items():
        sha, swaps, illuminations, runtime, neg_log10_esp = totals(cases())
        print(f"{name:16s} {sha} swaps={swaps} illuminations={illuminations} "
              f"runtime_us={runtime:.1f} mean_neg_log10_esp={neg_log10_esp:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
