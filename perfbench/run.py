"""Pipeline benchmark for pachinqo: the command BENCHMARK.json names.

  python3 perfbench/run.py --workload {wide,sweep,deep} --seed N
                           --seconds S --trace {0,1}

Run from the root of a checkout; pachinqo is imported from its src/.
Each workload runs in child processes (worker.py), single-threaded, with
a warm-up pass left out of the timings. --trace 0 reports the end-to-end
metrics; --trace 1 runs an untraced and a traced child for S/2 seconds
each and reports the per-layer metrics and the tracing overhead. The
last line of stdout is one JSON object; see README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

WORKLOADS = ("wide", "sweep", "deep")

# Extra processes that only import pachinqo and build the inputs, so
# setup_s is a median over several set-ups rather than one.
SETUP_PROBES = 6

# Every run must end within this many seconds; children get what is left.
DEADLINE_S = 170.0

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

# Host-time medians of the untraced passes. The --trace 0 table prints
# them by these names; in the JSON they are per-layer metrics ("host."
# prefix) because host speed here drifts more between runs than any
# allowed end-to-end bound (see README.md, "Noise").
HOST_TIMES = ("e2e_s", "compile_s", "verify_s")

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "sim_runtime_us": "us",
    "neg_log10_esp": "log10", "swaps": "count", "trap_changes": "count",
    "movement_mm": "mm", "pass_rate": "fraction",
}

LAYER_UNITS = {
    "host.e2e_s": "s", "host.compile_s": "s", "host.verify_s": "s",
    "qasm.parse_s": "s", "qasm.raw_gates": "count",
    "circuit.lower_s": "s", "circuit.basis_gates": "count",
    "circuit.executable_u3_calls": "count", "circuit.next_gate_calls": "count",
    "machine.layout_s": "s", "machine.pair_clear_sites_calls": "count",
    "machine.pair_clear_sites_s": "s", "machine.in_any_zone_calls": "count",
    "placement.compiler_init_s": "s", "placement.group_s": "s",
    "placement.assign_atoms_s": "s",
    "scheduler.run_s": "s", "scheduler.events": "count",
    "scheduler.layers": "count", "scheduler.illuminations": "count",
    "scheduler.cz_per_illumination": "ratio", "scheduler.move_phases": "count",
    "kernels.clear_calls": "count", "kernels.clear_s": "s",
    "kernels.clear_pass_ratio": "ratio",
    "metrics.report_s": "s",
    "schedule.serialize_s": "s", "schedule.json_mb": "MB",
    "verifier.validate_s": "s", "verifier.replayed_events": "count",
    "verifier.equiv_s": "s", "verifier.oracle_gates": "count",
    "trace.e2e_s": "s", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """A child failed to run; the benchmark prints no result."""


class Run:
    """Children of one benchmark run and the checks on their outputs."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.problems: list[str] = []

    def child(self, *extra: str, seconds: float = 0.0) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", repr(seconds),
               *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=left,
                                  env={**os.environ, **CHILD_ENV})
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {' '.join(cmd)}") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def check_child(self, out: dict, traced: bool) -> None:
        """Outputs must repeat exactly across the warm-up and every pass."""
        name = "traced" if traced else "untraced"
        warm = out["warmup"]
        for i, p in enumerate(out["passes"]):
            self.check(p["digest"] == warm["digest"],
                       f"{name} pass {i}: schedule digest changed")
            self.check(p["modelled"] == warm["modelled"],
                       f"{name} pass {i}: modelled metrics changed")
            self.check(p["failed"] == 0,
                       f"{name} pass {i}: {p['failed']} case(s) failed "
                       f"{p['errors']}")
        if traced:
            self.check(bool(out["wrappers"]), "traced child has no wrappers")
            counts = [layer["counts"] for layer in out["layers"]]
            self.check(all(c == counts[0] for c in counts),
                       "per-layer counts differ between traced passes")
        else:
            self.check(out["wrappers"] == [],
                       f"untraced child had wrappers: {out['wrappers']}")


def host_times(out: dict) -> dict:
    """Median host times over a child's timed passes."""
    return {k: statistics.median(p[k] for p in out["passes"])
            for k in HOST_TIMES}


def end_to_end(run: Run) -> tuple[dict, dict, int, int, str]:
    setups = [run.child("--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    out = run.child(seconds=run.args.seconds)
    run.check_child(out, traced=False)
    passes = out["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "setup_s": statistics.median(setups + [out["setup_s"]]),
        "peak_rss_mb": out["peak_rss_mb"],
        **out["warmup"]["modelled"],
        "pass_rate": 1.0 - failed / attempted,
    }
    return values, host_times(out), attempted, failed, out["warmup"]["digest"]


def per_layer(run: Run) -> tuple[dict, dict, int, int, str]:
    half = run.args.seconds / 2
    plain = run.child(seconds=half)
    traced = run.child("--traced", seconds=half)
    run.check_child(plain, traced=False)
    run.check_child(traced, traced=True)
    run.check(plain["warmup"]["digest"] == traced["warmup"]["digest"],
              "traced and untraced schedule digests differ")
    layers = traced["layers"]
    counts = layers[0]["counts"]
    values = {k: statistics.median(layer["seconds"][k] for layer in layers)
              for k in layers[0]["seconds"]}
    values.update(
        (k, v) for k, v in counts.items()
        if k not in ("scheduler.cz_pairs", "kernels.clear_hits",
                     "schedule.json_bytes"))
    values["scheduler.cz_per_illumination"] = (
        counts["scheduler.cz_pairs"] / max(counts["scheduler.illuminations"], 1))
    values["kernels.clear_pass_ratio"] = (
        counts["kernels.clear_hits"] / max(counts["kernels.clear_calls"], 1))
    values["schedule.json_mb"] = counts["schedule.json_bytes"] / 1e6
    host = host_times(plain)
    values.update((f"host.{k}", v) for k, v in host.items())
    values["trace.e2e_s"] = host_times(traced)["e2e_s"]
    values["trace.overhead_s"] = values["trace.e2e_s"] - host["e2e_s"]
    attempted = sum(p["attempted"] for p in plain["passes"] + traced["passes"])
    failed = sum(p["failed"] for p in plain["passes"] + traced["passes"])
    return values, {}, attempted, failed, traced["warmup"]["digest"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(args)
    try:
        if args.trace:
            values, table_only, attempted, failed, digest = per_layer(run)
            units = LAYER_UNITS
        else:
            values, table_only, attempted, failed, digest = end_to_end(run)
            units = E2E_UNITS
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  schedule sha256 {digest}")
    if not args.trace:
        print(f"  {'fail_rate':34s} {failed / attempted:14.6g} fraction")
    for name, value in table_only.items():
        print(f"  {name:34s} {value:14.6g} s (host time, unbounded)")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:14.6g} {unit}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
