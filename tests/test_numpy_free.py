"""numpy is loaded only by the state-vector oracle.

Each check runs in a fresh interpreter, because the test process itself
has numpy loaded already.
"""
import os
import random
import subprocess
import sys
from pathlib import Path

from corpus import random_qasm

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Parse, lower, compile (every technique), report, serialize and
# validate without numpy, then run the CLI with --validate on a circuit
# above the equivalence cap. `sys.modules["numpy"] = None` makes any
# numpy import raise ImportError.
NO_NUMPY = """
import random
import sys

sys.modules["numpy"] = None

from corpus import random_circuit, random_qasm
from pachinqo import (
    TECHNIQUES, PhysParams, build_layout, build_report, decompose_to_basis,
    generate_grid, parse_qasm, schedule_to_json, validate_schedule,
)
from pachinqo.cli import main
from pachinqo.scheduler import Compiler

params = PhysParams()
circuits = [
    random_circuit(random.Random(1), 12, 60),
    decompose_to_basis(parse_qasm(random_qasm(random.Random(1), 12, 60))),
]
for circuit in circuits:
    for technique in TECHNIQUES:
        layout = build_layout(circuit.num_qubits, "auto", params, "large-square")
        grid = generate_grid("large-square", layout, params)
        schedule = Compiler(circuit, technique, grid, layout, params).run()
        build_report(schedule, params, 0.0)
        assert schedule_to_json(schedule)
        assert validate_schedule(schedule, layout, grid, params, circuit) == []

qasm, out = sys.argv[1], sys.argv[2]
rc = main(["--input", qasm, "--out-schedule", out + "/schedule.json",
           "--out-report", out + "/report.json", "--validate"])
assert rc == 0, rc
print("ok")
"""

# A fresh import leaves numpy unloaded; the oracle then imports it.
ORACLE = """
import random
import sys

from corpus import random_circuit
from pachinqo import compile_circuit, equivalence_check

assert "numpy" not in sys.modules
circuit = random_circuit(random.Random(3), 5, 40)
equal, err = equivalence_check(compile_circuit(circuit), circuit)
assert equal, err
assert "numpy" in sys.modules
print("ok")
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_compile_and_validate_run_without_numpy(tmp_path):
    qasm = tmp_path / "wide.qasm"
    qasm.write_text(random_qasm(random.Random(2), 12, 60))
    _run(NO_NUMPY, qasm, tmp_path)
    assert (tmp_path / "schedule.json").stat().st_size > 0
    assert (tmp_path / "report.json").stat().st_size > 0


def test_oracle_imports_numpy_lazily():
    _run(ORACLE)
