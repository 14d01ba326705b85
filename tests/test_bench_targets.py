"""The names the traced benchmark wraps still exist.

perfbench/tracing.py wraps functions by owner and attribute name from
outside the package, so renaming or removing one breaks `--trace 1` runs
without touching any package test. This loads it by path and resolves
every target.
"""
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while being built.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracing.TARGETS
               if not callable(getattr(tracing._owner(owner), attr, None))]
    assert missing == []
