"""One workload in one process: set up, warm up, then timed passes.

Run by run.py, one process per workload, so peak RSS belongs to that
workload. Prints one JSON object on stdout. Usage:

  python3 perfbench/worker.py --workload W --seed N --seconds S
                              [--traced] [--setup-only]

--setup-only stops after the import and input generation and reports
only their time. --traced installs the wrappers of tracing.py after the
warm-up pass; without it the process never installs them.
"""
from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A median needs a few passes even when one pass outlasts --seconds.
MIN_PASSES = 3


def _import_pachinqo():
    """Import pachinqo from this checkout's src/, never an installed copy."""
    if not (SRC / "pachinqo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pachinqo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pachinqo

    if Path(pachinqo.__file__).resolve().parent != SRC / "pachinqo":
        sys.exit(f"perfbench: imported pachinqo from {pachinqo.__file__}")


def _pass_summary(results, e2e_s: float) -> dict:
    from pipeline import COMPILE_STAGES, VERIFY_STAGES

    ok = [r for r in results if not r.failed]
    digest = hashlib.sha256(
        "".join(r.schedule_sha256 for r in results).encode()).hexdigest()
    return {
        "e2e_s": e2e_s,
        "compile_s": sum(r.stage_s.get(s, 0.0)
                         for r in results for s in COMPILE_STAGES),
        "verify_s": sum(r.stage_s.get(s, 0.0)
                        for r in results for s in VERIFY_STAGES),
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "errors": sorted({r.error for r in results if r.error})[:5],
        "digest": digest,
        "modelled": {
            "sim_runtime_us": sum(r.runtime_us for r in ok),
            "neg_log10_esp": -sum(math.log10(r.esp) for r in ok) / len(ok)
            if ok else 0.0,
            "swaps": sum(r.swaps for r in ok),
            "trap_changes": sum(r.trap_changes for r in ok),
            "movement_mm": sum(r.movement_um for r in ok) / 1e3,
        },
    }


def _layer_summary(tracer) -> dict:
    """Per-layer counts and seconds of the pass the tracer just recorded."""
    c, s = tracer.calls, tracer.seconds
    stage = tracer.stage_seconds()
    return {
        "seconds": {
            "qasm.parse_s": stage["parse"],
            "circuit.lower_s": stage["lower"],
            "machine.layout_s": stage["layout"],
            "machine.pair_clear_sites_s": s["machine.pair_clear_sites"],
            "placement.compiler_init_s": stage["compiler_init"],
            "placement.group_s": s["placement.group"],
            "placement.assign_atoms_s": s["placement.assign_atoms"],
            "scheduler.run_s": stage["compile"],
            "kernels.clear_s": s["kernels.clear"],
            "metrics.report_s": stage["report"],
            "schedule.serialize_s": stage["serialize"],
            "verifier.validate_s": stage["validate"],
            "verifier.equiv_s": stage["equivalence"],
        },
        "counts": {
            "qasm.raw_gates": c["qasm.raw_gates"],
            "circuit.basis_gates": c["circuit.basis_gates"],
            "circuit.executable_u3_calls": c["circuit.executable_u3"],
            "circuit.next_gate_calls": c["circuit.next_gate"],
            "machine.pair_clear_sites_calls": c["machine.pair_clear_sites"],
            "machine.in_any_zone_calls": c["machine.in_any_zone"],
            "scheduler.events": c["scheduler.events"],
            "scheduler.layers": c["scheduler.layers"],
            "scheduler.illuminations": c["scheduler.illuminations"],
            "scheduler.cz_pairs": c["scheduler.cz_pairs"],
            "scheduler.move_phases": c["scheduler.move_phases"],
            "kernels.clear_calls": c["kernels.clear"],
            "kernels.clear_hits": c["kernels.clear.hits"],
            "schedule.json_bytes": c["schedule.json_bytes"],
            "verifier.replayed_events": c["verifier.replayed_events"],
            "verifier.oracle_gates": c["verifier.oracle_gates"],
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_pachinqo()
    from workloads import make_cases

    cases = make_cases(args.workload, args.seed)
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from pachinqo.machine import PhysParams
    from pipeline import run_case
    from tracing import Tracer, installed_wrappers

    params = PhysParams()
    warmup = _pass_summary([run_case(c, params) for c in cases], 0.0)

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    passes, layers = [], []
    t_measure = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t_measure < args.seconds:
        gc.collect()
        if tracer is not None:
            tracer.new_pass()
        t0 = perf_counter()
        results = [run_case(c, params, tracer) for c in cases]
        e2e_s = perf_counter() - t0
        passes.append(_pass_summary(results, e2e_s))
        if tracer is not None:
            layers.append(_layer_summary(tracer))

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "wrappers": installed_wrappers(),
        "setup_s": setup_s,
        "warmup": warmup,
        "passes": passes,
        "layers": layers,
        "spans": len(tracer.spans) if tracer else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
