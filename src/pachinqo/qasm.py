"""OpenQASM 2.0 frontend for the fixed supported gate subset.

Anything outside the subset is a hard error with a line/column position:
no best-effort lowering, no classical control. Measurements must be
terminal per qubit and are recorded then stripped (the architecture
schedules readout itself); barriers are ordering fences that dissolve
after linearization since list order already encodes dependencies.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import Circuit, Gate

# Every gate the frontend accepts, as (qubit arguments, parameters).
_GATE_ARITY = {
    "u3": (1, 3), "u2": (1, 2), "u1": (1, 1), "u": (1, 3), "p": (1, 1),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1),
    "x": (1, 0), "y": (1, 0), "z": (1, 0), "h": (1, 0),
    "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "cx": (2, 0), "cz": (2, 0), "swap": (2, 0), "ccx": (3, 0),
}


class QasmError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


@dataclass
class _Token:
    kind: str  # id | num | sym
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<num>\d+\.\d*(e[+-]?\d+)?|\.\d+(e[+-]?\d+)?|\d+(e[+-]?\d+)?)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"[^"]*")
      | (?P<sym>->|[;,\[\]()+\-*/^{}<>=])
    """,
    re.VERBOSE | re.IGNORECASE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QasmError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        if m.lastgroup != "ws":
            kind = {"num": "num", "id": "id", "str": "str"}.get(m.lastgroup, "sym")
            tokens.append(_Token(kind, m.group(), line, col))
        nl = m.group().count("\n")
        if nl:
            line += nl
            line_start = pos + m.group().rfind("\n") + 1
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, name: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.name = name
        # name -> (offset, size), for quantum and classical registers
        self.qregs: dict[str, tuple[int, int]] = {}
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_bits = 0
        self.gates: list[Gate] = []
        self._measure_marks: dict[int, int] = {}

    # -- token helpers -------------------------------------------------
    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("sym", "", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.col)
        self.i += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text != text:
            raise QasmError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def _error(self, msg: str, tok: _Token | None = None):
        tok = tok or self._peek() or self.tokens[-1]
        raise QasmError(msg, tok.line, tok.col)

    # -- grammar -------------------------------------------------------
    def parse(self) -> Circuit:
        tok = self._next()
        if tok.text.upper() != "OPENQASM":
            self._error("file must start with an OPENQASM 2.0 header", tok)
        ver = self._next()
        if ver.text != "2.0":
            self._error(f"unsupported OPENQASM version {ver.text}", ver)
        self._expect(";")
        while self._peek() is not None:
            self._statement()
        self._check_terminal_measures()
        return Circuit(self.num_qubits, self.gates, self.name)

    def _statement(self):
        tok = self._next()
        t = tok.text
        if t == "include":
            self._next()  # the quoted filename; standard gates are built in
            self._expect(";")
        elif t == "qreg":
            self._reg_decl(tok, quantum=True)
        elif t == "creg":
            # Accepted solely so `measure q -> c` can name a target;
            # classical values are never used.
            self._reg_decl(tok, quantum=False)
        elif t == "barrier":
            self._barrier()
        elif t == "measure":
            self._measure(tok)
        elif t in ("if", "reset", "gate", "opaque"):
            self._error(f"unsupported statement {t!r}", tok)
        elif tok.kind == "id":
            self._gate_call(tok)
        else:
            self._error(f"unexpected token {t!r}", tok)

    def _reg_decl(self, kw: _Token, quantum: bool):
        name_tok = self._next()
        if name_tok.kind != "id":
            self._error("expected register name", name_tok)
        self._expect("[")
        size_tok = self._next()
        if size_tok.kind != "num" or not size_tok.text.isdigit():
            self._error("register size must be an integer", size_tok)
        size = int(size_tok.text)
        self._expect("]")
        self._expect(";")
        if size < 1:
            self._error("register size must be >= 1", size_tok)
        if name_tok.text in self.qregs or name_tok.text in self.cregs:
            self._error(f"register {name_tok.text!r} already declared", name_tok)
        if quantum:
            self.qregs[name_tok.text] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name_tok.text] = (self.num_bits, size)
            self.num_bits += size

    def _register_arg(self, quantum: bool) -> list[int]:
        """One register argument: an indexed element (one index) or a
        whole register (all its indices, for broadcasting)."""
        what, regs = ("quantum", self.qregs) if quantum else ("classical", self.cregs)
        name_tok = self._next()
        if name_tok.kind != "id":
            self._error(f"expected a {what} register name", name_tok)
        if name_tok.text not in regs:
            self._error(f"unknown {what} register {name_tok.text!r}", name_tok)
        offset, size = regs[name_tok.text]
        nxt = self._peek()
        if nxt is None or nxt.text != "[":
            return list(range(offset, offset + size))
        self._next()
        idx_tok = self._next()
        if idx_tok.kind != "num" or not idx_tok.text.isdigit():
            self._error(f"{'qubit' if quantum else 'bit'} index must be an integer",
                        idx_tok)
        idx = int(idx_tok.text)
        if idx >= size:
            self._error(f"index {idx} out of range for {name_tok.text}[{size}]", idx_tok)
        self._expect("]")
        return [offset + idx]

    def _qubit_args(self) -> list[list[int]]:
        """Parse comma-separated qubit arguments until ';'."""
        args = []
        while True:
            args.append(self._register_arg(quantum=True))
            tok = self._next()
            if tok.text == ";":
                return args
            if tok.text != ",":
                self._error("expected ',' or ';'", tok)

    def _gate_call(self, name_tok: _Token):
        name = name_tok.text
        if name not in _GATE_ARITY:
            self._error(f"unsupported gate {name!r}", name_tok)
        n_qubits, n_params = _GATE_ARITY[name]
        params: tuple[float, ...] = ()
        if self._peek() is not None and self._peek().text == "(":
            self._next()
            params = tuple(self._param_list())
        if len(params) != n_params:
            self._error(f"{name} takes {n_params} parameter(s), got {len(params)}", name_tok)
        args = self._qubit_args()
        if len(args) != n_qubits:
            self._error(f"{name} takes {n_qubits} qubit argument(s), got {len(args)}", name_tok)
        lengths = {len(a) for a in args if len(a) > 1}
        if lengths:
            if n_qubits > 1:
                self._error(f"register broadcast is not supported for {name}", name_tok)
            for q in args[0]:
                self.gates.append(Gate(name, (q,), params))
        else:
            qubits = tuple(a[0] for a in args)
            if len(set(qubits)) != len(qubits):
                self._error(f"duplicate qubit operands in {name}", name_tok)
            self.gates.append(Gate(name, qubits, params))

    def _barrier(self):
        # A fence only re-asserts declaration order, which the flat gate
        # list already encodes, so it emits nothing.
        self._qubit_args()

    def _measure(self, kw: _Token):
        qubits = self._register_arg(quantum=True)
        self._expect("->")
        bits = self._register_arg(quantum=False)
        if len(bits) != len(qubits):
            self._error(f"measure of {len(qubits)} qubit(s) into {len(bits)} bit(s)", kw)
        self._expect(";")
        for q in qubits:
            # remember where the measure sits so terminality can be checked
            self._measure_marks.setdefault(q, len(self.gates))

    def _check_terminal_measures(self):
        for q, mark in self._measure_marks.items():
            for g in self.gates[mark:]:
                if q in g.qubits:
                    raise QasmError(
                        f"mid-circuit measurement: qubit {q} has gates after measure"
                    )

    # -- parameter expressions ------------------------------------------
    def _param_list(self) -> list[float]:
        params = [self._expr()]
        while True:
            tok = self._next()
            if tok.text == ")":
                return params
            if tok.text != ",":
                self._error("expected ',' or ')'", tok)
            params.append(self._expr())

    def _expr(self) -> float:
        val = self._term()
        while self._peek() is not None and self._peek().text in "+-":
            op = self._next().text
            rhs = self._term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def _term(self) -> float:
        val = self._factor()
        while self._peek() is not None and self._peek().text in "*/":
            op = self._next().text
            rhs = self._factor()
            if op == "/":
                if rhs == 0:
                    self._error("division by zero in parameter")
                val = val / rhs
            else:
                val = val * rhs
        return val

    def _factor(self) -> float:
        tok = self._next()
        if tok.text == "-":
            return -self._factor()
        if tok.text == "+":
            return self._factor()
        if tok.text == "(":
            val = self._expr()
            self._expect(")")
            return val
        if tok.kind == "num":
            return float(tok.text)
        if tok.kind == "id" and tok.text.lower() == "pi":
            return math.pi
        self._error(f"invalid parameter expression near {tok.text!r}", tok)


def parse_qasm(text: str, name: str = "") -> Circuit:
    """Parse OPENQASM 2.0 source into a raw (un-lowered) Circuit.

    Raises QasmError with a source position for syntax errors,
    unsupported constructs, out-of-range indices, and non-terminal
    measurements.
    """
    return _Parser(text, name).parse()
