"""Compiler and architectural simulator for zonal-addressing Rydberg atom
arrays: QASM in, timed movement/gate schedule and cost metrics out.
"""

from .circuit import Circuit, Frontier, Gate, decompose_swap, decompose_to_basis
from .machine import (
    PhysParams,
    SlmGrid,
    ZoneLayout,
    build_layout,
    generate_grid,
    load_params,
    validate_geometry,
)
from .metrics import MetricsReport, build_report, composed_swap_error, esp
from .placement import degree_split_group, greedy_maxcut_group
from .qasm import QasmError, parse_qasm
from .schedule import Schedule, schedule_from_json, schedule_to_json
from .scheduler import TECHNIQUES, compile_circuit
from .verifier import equivalence_check, validate_schedule

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Frontier",
    "Gate",
    "MetricsReport",
    "PhysParams",
    "QasmError",
    "Schedule",
    "SlmGrid",
    "TECHNIQUES",
    "ZoneLayout",
    "build_layout",
    "build_report",
    "compile_circuit",
    "composed_swap_error",
    "decompose_swap",
    "decompose_to_basis",
    "degree_split_group",
    "equivalence_check",
    "esp",
    "generate_grid",
    "greedy_maxcut_group",
    "load_params",
    "parse_qasm",
    "schedule_from_json",
    "schedule_to_json",
    "validate_schedule",
]
