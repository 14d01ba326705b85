"""QASM 2.0 frontend: supported subset, errors with positions."""
import math

import pytest

from pachinqo.qasm import QasmError, parse_qasm

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_minimal_cz():
    circ = parse_qasm(HEADER + "qreg q[2];\ncz q[0],q[1];\n")
    assert circ.num_qubits == 2
    assert [(g.kind, g.qubits) for g in circ.gates] == [("cz", (0, 1))]


def test_single_h_survives_raw():
    circ = parse_qasm(HEADER + "qreg q[1];\nh q[0];\n")
    assert [(g.kind, g.qubits) for g in circ.gates] == [("h", (0,))]


def test_ghz_order():
    circ = parse_qasm(
        HEADER + "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
    )
    assert [(g.kind, g.qubits) for g in circ.gates] == [
        ("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2))
    ]


def test_parameter_expressions():
    circ = parse_qasm(
        HEADER + "qreg q[1];\nu3(pi/2, -pi, 3*pi/4) q[0];\nrz(0.25e1) q[0];\n"
    )
    assert circ.gates[0].params == pytest.approx(
        (math.pi / 2, -math.pi, 3 * math.pi / 4))
    assert circ.gates[1].params == (2.5,)


def test_register_broadcast_one_qubit():
    circ = parse_qasm(HEADER + "qreg q[3];\nh q;\n")
    assert [g.qubits for g in circ.gates] == [(0,), (1,), (2,)]


def test_two_qubit_broadcast_rejected():
    with pytest.raises(QasmError, match="broadcast"):
        parse_qasm(HEADER + "qreg q[2];\nqreg r[2];\ncx q,r;\n")


def test_multiple_qregs_flatten():
    circ = parse_qasm(HEADER + "qreg a[2];\nqreg b[2];\ncz a[1],b[0];\n")
    assert circ.num_qubits == 4
    assert circ.gates[0].qubits == (1, 2)


def test_measure_recorded_and_stripped():
    circ = parse_qasm(
        HEADER + "qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q -> c;\n"
    )
    assert len(circ.gates) == 1


def test_barrier_emits_nothing():
    circ = parse_qasm(HEADER + "qreg q[2];\nh q[0];\nbarrier q;\nh q[1];\n")
    assert len(circ.gates) == 2


def test_mid_circuit_measure_rejected():
    src = HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nh q[0];\n"
    with pytest.raises(QasmError, match="mid-circuit"):
        parse_qasm(src)


def test_measure_then_other_qubit_ok():
    src = HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nh q[1];\n"
    circ = parse_qasm(src)
    assert len(circ.gates) == 1


@pytest.mark.parametrize("stmt, match, col", [
    ("measure q[0] -> c[99];", "out of range", 19),
    ("measure q[0] -> c[abc];", "bit index must be an integer", 19),
    ("measure q[0] -> c[0.5];", "bit index must be an integer", 19),
    ("measure q -> c[0];", "2 qubit", 1),
])
def test_bad_measure_target_rejected(stmt, match, col):
    src = HEADER + "qreg q[2];\ncreg c[2];\n" + stmt + "\n"
    with pytest.raises(QasmError, match=match) as e:
        parse_qasm(src)
    assert (e.value.line, e.value.col) == (5, col)


def test_unsupported_gate_names_position():
    with pytest.raises(QasmError) as e:
        parse_qasm(HEADER + "qreg q[1];\nsx q[0];\n")
    assert "unsupported gate" in str(e.value)
    assert e.value.line == 4


def test_conditionals_rejected():
    src = HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) x q[0];\n"
    with pytest.raises(QasmError, match="unsupported statement"):
        parse_qasm(src)


def test_qubit_index_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm(HEADER + "qreg q[2];\nh q[2];\n")


def test_syntax_error_position():
    with pytest.raises(QasmError) as e:
        parse_qasm(HEADER + "qreg q[2;\n")
    assert e.value.line == 3


def test_missing_header():
    with pytest.raises(QasmError, match="OPENQASM"):
        parse_qasm("qreg q[1];\n")


def test_duplicate_operands_rejected():
    with pytest.raises(QasmError, match="duplicate"):
        parse_qasm(HEADER + "qreg q[2];\ncz q[0],q[0];\n")


def test_gate_definitions_rejected():
    with pytest.raises(QasmError, match="unsupported statement"):
        parse_qasm(HEADER + "gate foo a { h a; }\n")


def test_ccx_parses():
    circ = parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")
    assert circ.gates[0].kind == "ccx"
