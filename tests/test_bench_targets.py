"""The names the traced benchmark wraps still exist, and are still called.

perfbench/tracing.py wraps functions by owner and attribute name from
outside the package, so renaming or removing one breaks `--trace 1` runs
without touching any package test, and code that stops calling one
through its traced name silently zeroes a per-layer counter. This loads
it by path, resolves every target, and runs one small pipeline traced.
"""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from pachinqo.machine import PhysParams, build_layout, generate_grid
from pachinqo.schedule import ColumnMove, phases
from pachinqo.scheduler import Compiler
from pachinqo.verifier import validate_schedule

from corpus import random_circuit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while being built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    assert tracing.TARGETS
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracing.TARGETS
               if not callable(getattr(tracing._owner(owner), attr, None))]
    assert missing == []


def test_every_traced_metric_is_called(tracing):
    circ = random_circuit(random.Random(5), 12, 60)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        params = PhysParams()
        layout = build_layout(circ.num_qubits, "auto", params)
        grid = generate_grid("large-square", layout, params)
        sched = Compiler(circ, "pachinqo", grid, layout, params).run()
        assert validate_schedule(sched, layout, grid, params, circ) == []
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    keys = {key for _, _, key, _ in tracing.TARGETS}
    assert sorted(k for k in keys if tracer.calls[k] == 0) == []


@pytest.mark.parametrize("technique", ["pachinqo", "onecache"])
def test_traced_move_phases_count_the_emitted_phases(tracing, technique):
    """`scheduler.move_phases` counts the move phases the compiled schedule
    holds: one cost-model call per phase, after every pass has merged or
    dropped phases."""
    circ = random_circuit(random.Random(5), 12, 60)
    params = PhysParams()
    layout = build_layout(circ.num_qubits, "auto", params)
    grid = generate_grid("large-square", layout, params)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sched = Compiler(circ, technique, grid, layout, params).run()
    finally:
        tracer.uninstall()
    moves = [run for _, run in phases(sched.events) if isinstance(run[0], ColumnMove)]
    assert tracer.calls["scheduler.move_phases"] == len(moves)
