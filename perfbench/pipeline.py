"""Drive one case through the public pipeline, as `pachinqo --validate` does
but without disk I/O, timing each stage.

Stages, in order: parse, lower, layout (build_layout + generate_grid),
compiler_init, compile (Compiler.run), report, serialize, validate,
equivalence. The first seven are what a run without `--validate` pays.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

from pachinqo import (
    build_layout,
    build_report,
    decompose_to_basis,
    generate_grid,
    parse_qasm,
    schedule_to_json,
    validate_schedule,
)
from pachinqo.schedule import Illumination
from pachinqo.scheduler import Compiler
from pachinqo.verifier import EQUIVALENCE_QUBIT_CAP, equivalence_check

COMPILE_STAGES = ("parse", "lower", "layout", "compiler_init", "compile",
                  "report", "serialize")
VERIFY_STAGES = ("validate", "equivalence")


@dataclass
class CaseResult:
    """Stage seconds and checked outputs of one case."""

    name: str
    stage_s: dict[str, float]
    error: str = ""
    schedule_sha256: str = ""
    runtime_us: float = 0.0
    esp: float = 0.0
    swaps: int = 0
    trap_changes: int = 0
    movement_um: float = 0.0
    violations: int = 0
    equivalent: bool | None = None  # None: above the oracle's qubit cap

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.violations > 0 \
            or self.equivalent is False


class _Stages:
    """Times consecutive stages; with a tracer, each is also a span."""

    def __init__(self, tracer):
        self.times: dict[str, float] = {}
        self.tracer = tracer

    def run(self, stage: str, fn, *args):
        if self.tracer is not None:
            self.tracer.begin(stage)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.times[stage] = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end()


def _layout_and_grid(circuit, case, params):
    layout = build_layout(circuit.num_qubits, "auto", params, case.grid)
    return layout, generate_grid(case.grid, layout, params)


def _equivalence(circuit, schedule):
    if circuit.num_qubits > EQUIVALENCE_QUBIT_CAP:
        return None
    equal, _tvd = equivalence_check(schedule, circuit)
    return equal


def _count_outputs(tracer, raw, circuit, schedule, text, equivalent) -> None:
    illuminations = [ev for ev in schedule.events
                     if isinstance(ev, Illumination)]
    c = tracer.calls
    c["qasm.raw_gates"] += len(raw.gates)
    c["circuit.basis_gates"] += len(circuit.gates)
    c["scheduler.events"] += len(schedule.events)
    c["scheduler.layers"] += max(ev.layer for ev in schedule.events)
    c["scheduler.illuminations"] += len(illuminations)
    c["scheduler.cz_pairs"] += sum(len(ev.pairs) for ev in illuminations)
    c["schedule.json_bytes"] += len(text)
    c["verifier.replayed_events"] += len(schedule.events)
    if equivalent is not None:
        c["verifier.oracle_gates"] += len(circuit.gates)


def run_case(case, params, tracer=None) -> CaseResult:
    """Run every stage on `case`; an exception is recorded, not raised."""
    if tracer is not None:
        tracer.begin(f"case:{case.name}")
    st = _Stages(tracer)
    try:
        raw = st.run("parse", parse_qasm, case.qasm, case.name)
        circuit = st.run("lower", decompose_to_basis, raw)
        layout, grid = st.run("layout", _layout_and_grid, circuit, case, params)
        compiler = st.run("compiler_init", Compiler, circuit, case.technique,
                          grid, layout, params, False)
        schedule = st.run("compile", compiler.run)
        report = st.run("report", build_report, schedule, params)
        text = st.run("serialize", schedule_to_json, schedule)
        violations = st.run("validate", validate_schedule, schedule, layout,
                            grid, params, circuit)
        equivalent = st.run("equivalence", _equivalence, circuit, schedule)
    except Exception as e:  # a failing case is counted, not fatal
        return CaseResult(case.name, st.times, error=f"{type(e).__name__}: {e}")
    finally:
        if tracer is not None:
            tracer.end()
    if tracer is not None:
        _count_outputs(tracer, raw, circuit, schedule, text, equivalent)
    return CaseResult(
        name=case.name,
        stage_s=st.times,
        schedule_sha256=hashlib.sha256(text.encode()).hexdigest(),
        runtime_us=report.runtime_us,
        esp=report.esp,
        swaps=report.swap_count,
        trap_changes=report.trap_change_count,
        movement_um=report.total_movement_um,
        violations=len(violations),
        equivalent=equivalent,
    )
