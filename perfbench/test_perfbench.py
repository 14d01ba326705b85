"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import TARGETS, Tracer, installed_wrappers  # noqa: E402
from workloads import make_cases  # noqa: E402


def _worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "deep",
         "--seed", "3", "--seconds", "0", *args],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, **run.CHILD_ENV})
    return json.loads(proc.stdout)


def test_inputs_follow_the_seed():
    for workload in run.WORKLOADS:
        a, b = make_cases(workload, 1), make_cases(workload, 2)
        assert make_cases(workload, 1) == a
        assert [c.qasm for c in a] != [c.qasm for c in b]
        # The shape is fixed: same sizes, techniques and grids.
        assert [(c.num_qubits, c.technique, c.grid, c.qasm.count(";"))
                for c in a] == [(c.num_qubits, c.technique, c.grid,
                                 c.qasm.count(";")) for c in b]


def test_sweep_covers_every_technique_and_grid():
    cases = make_cases("sweep", 1)
    assert len({(c.technique, c.grid) for c in cases}) == 16
    assert sum(c.num_qubits <= 10 for c in cases) == len(cases) // 2


def test_tracer_installs_and_restores_wrappers():
    import pachinqo.scheduler

    original = pachinqo.scheduler.assign_atoms
    tracer = Tracer()
    tracer.install()
    try:
        assert len(installed_wrappers()) == len(TARGETS)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert pachinqo.scheduler.assign_atoms is original


def test_traced_counts_repeat_and_untraced_has_no_wrappers():
    plain = _worker()
    assert plain["wrappers"] == []
    assert plain["layers"] == []
    first, second = _worker("--traced"), _worker("--traced")
    assert first["wrappers"] and second["wrappers"]
    # One span per stage (9) and one per case, for each traced pass.
    assert first["spans"] == 10 * len(first["passes"])
    counts = [layer["counts"] for out in (first, second)
              for layer in out["layers"]]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["machine.in_any_zone_calls"] > 0
    digests = {p["digest"] for out in (plain, first, second)
               for p in [out["warmup"], *out["passes"]]}
    assert len(digests) == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
