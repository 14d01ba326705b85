"""Hash the schedules of fixed input sets, to show that a change leaves
every schedule byte-identical.

Prints one line per set: the sha256 of its schedules' `schedule_to_json`
texts, concatenated in case order, then the set's total SWAPs, total
illuminations, total modelled runtime and mean -log10 ESP. The sets are
the 208-case acceptance corpus, perfbench `wide`, `deep` and `sweep` at
seeds 1-10, the broad set and the scale set, each as `tests/corpus.py`
defines it and compiled as `perfbench/pipeline.run_case` compiles.

The inputs come from this checkout's `tests/corpus.py` and, through it,
`perfbench/workloads.py`, read by path; the compiler is whichever
`pachinqo` is on the path. So another tree, such as a parent commit
exported with `git archive`, can be hashed on the same inputs:

    PYTHONPATH=src python3 tools/schedule_digests.py
    PYTHONPATH=/path/to/other/tree/src python3 tools/schedule_digests.py

Equal lines mean equal schedules. The whole run takes about 25 s on a
2-vCPU machine.
"""
from __future__ import annotations

import functools
import hashlib
import math
import sys
from pathlib import Path

from pachinqo.machine import PhysParams, build_layout, generate_grid
from pachinqo.metrics import esp
from pachinqo.schedule import Illumination, Schedule, schedule_to_json
from pachinqo.scheduler import Compiler

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import corpus  # noqa: E402  (this checkout's tests/corpus.py)

PARAMS = PhysParams()
PERFBENCH_SEEDS = range(1, 11)


def perfbench_set(workload: str) -> list:
    """The cases of a perfbench workload at every seed in PERFBENCH_SEEDS."""
    return [case for seed in PERFBENCH_SEEDS
            for case in corpus.perfbench_cases(workload, seed)]


SETS = {
    "corpus": corpus.corpus_cases,
    **{f"perfbench/{workload}": functools.partial(perfbench_set, workload)
       for workload in ("wide", "deep", "sweep")},
    "broad": corpus.broad_set,
    "scale": corpus.scale_set,
}


def compile_case(circ, technique: str, grid_kind: str) -> Schedule:
    """The schedule of one case, compiled as `perfbench/pipeline.run_case`
    compiles it."""
    layout = build_layout(circ.num_qubits, "auto", PARAMS, grid_kind)
    grid = generate_grid(grid_kind, layout, PARAMS)
    return Compiler(circ, technique, grid, layout, PARAMS, False).run()


def totals(schedules) -> tuple[str, int, int, float, float]:
    """(sha256, SWAPs, illuminations, runtime in us, mean -log10 ESP) of
    `schedules`, in order."""
    sha = hashlib.sha256()
    count = swaps = illuminations = 0
    runtime = neg_log10_esp = 0.0
    for sched in schedules:
        sha.update(schedule_to_json(sched).encode())
        count += 1
        swaps += sched.swap_count
        illuminations += sum(isinstance(ev, Illumination) for ev in sched.events)
        runtime += sched.end_time
        neg_log10_esp -= math.log10(esp(sched, PARAMS))
    return sha.hexdigest(), swaps, illuminations, runtime, neg_log10_esp / count


def main() -> int:
    for name, cases in SETS.items():
        sha, swaps, illuminations, runtime, neg_log10_esp = totals(
            compile_case(*case) for case in cases())
        print(f"{name:16s} {sha} swaps={swaps} illuminations={illuminations} "
              f"runtime_us={runtime:.1f} mean_neg_log10_esp={neg_log10_esp:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
