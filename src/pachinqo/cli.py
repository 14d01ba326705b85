"""Command-line entry point: compile one QASM file or sweep a directory.

Single compile writes the schedule and metrics report as JSON; suite mode
writes one CSV row per (circuit, technique, grid). Exit codes: 1 parse,
usage or write error (an output path that cannot be written), 2
capacity/geometry error, 3 validation failure, 4 compile error (the
scheduler raised SchedulerError). In suite mode a file that fails to parse
or compile gets an error row instead, and so, with --validate, does a
schedule that fails the validator or the equivalence oracle; the sweep
then exits 3.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from .circuit import CircuitError, decompose_to_basis
from .machine import GRID_KINDS, CapacityError, GeometryError, build_layout, generate_grid, load_params
from .metrics import build_report
from .qasm import QasmError, parse_qasm
from .schedule import _schedule_json_chunks
from .scheduler import TECHNIQUES, Compiler, SchedulerError
from .verifier import EQUIVALENCE_QUBIT_CAP, equivalence_check, validate_schedule

CSV_HEADER = ["name", "technique", "grid", "runtime_us", "esp", "swaps",
              "trap_changes", "movement_um", "u3", "cz", "compile_ms", "error"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAPACITY = 2
EXIT_VALIDATION = 3
EXIT_COMPILE = 4


class WriteError(Exception):
    """An output file could not be written."""


@contextmanager
def _opened(path: str):
    """`path` open for writing; an OSError becomes a WriteError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as e:
        raise WriteError(f"cannot write {path}: {e.strerror or e}") from e


@contextmanager
def _opened_all(*paths: str):
    """Every path open for writing, each opened before any is written. If
    one cannot be opened, the files already opened (still empty) are
    removed, so a failed run leaves no fresh output beside a stale one."""
    with ExitStack() as stack:
        handles = []
        for path in paths:
            try:
                handles.append(stack.enter_context(_opened(path)))
            except WriteError:
                stack.close()
                for done in paths[:len(handles)]:
                    os.remove(done)
                raise
        yield handles


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pachinqo",
        description="Compile QASM circuits onto a zoned Rydberg atom array.",
    )
    p.add_argument("--input", help="QASM 2.0 file to compile")
    p.add_argument("--technique", default="pachinqo",
                   help=f"one of {', '.join(TECHNIQUES)}")
    p.add_argument("--grid", default="large-square",
                   help=f"one of {', '.join(GRID_KINDS)}")
    p.add_argument("--params",
                   default=os.environ.get("PACHINQO_PARAMS") or None,
                   help="JSON parameter file (default: $PACHINQO_PARAMS)")
    p.add_argument("--scale", default="auto",
                   choices=["default", "doubled", "auto"])
    p.add_argument("--out-schedule", default="schedule.json")
    p.add_argument("--out-report", default="report.json")
    p.add_argument("--suite-dir", help="directory of QASM files to sweep")
    p.add_argument("--out-csv", default="suite.csv")
    p.add_argument("--techniques",
                   help="comma list for suite mode (default: all)")
    p.add_argument("--grids",
                   help="comma list for suite mode (default: --grid)")
    p.add_argument("--validate", action="store_true",
                   help="run the schedule validator (and the equivalence "
                        "oracle on small circuits)")
    p.add_argument("--serial-movement", action="store_true",
                   help="time column moves serially instead of concurrently")
    return p


def _compile_file(path: str, technique: str, grid_kind: str, params,
                  scale: str, serial: bool):
    """Parse, lower, and compile one file. Returns (circuit, layout, grid,
    schedule, report), where circuit is the lowered basis circuit.

    An unreadable or non-UTF-8 file raises QasmError, like a syntax error.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise QasmError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise QasmError(f"{path} is not UTF-8 text: {e.reason} at byte "
                        f"{e.start}") from e
    raw = parse_qasm(text, name=Path(path).stem)
    t0 = time.perf_counter()
    circuit = decompose_to_basis(raw)
    layout = build_layout(circuit.num_qubits, scale, params, grid_kind)
    grid = generate_grid(grid_kind, layout, params)
    compiler = Compiler(circuit, technique, grid, layout, params, serial)
    schedule = compiler.run()
    compile_ms = (time.perf_counter() - t0) * 1e3
    report = build_report(schedule, params, compile_ms)
    return circuit, layout, grid, schedule, report


def _check(schedule, layout, grid, params, circuit):
    """The validator's violations, and the oracle's largest amplitude error
    if the schedule diverges from the circuit (None when it agrees or the
    circuit has more than EQUIVALENCE_QUBIT_CAP qubits)."""
    violations = validate_schedule(schedule, layout, grid, params, circuit)
    if circuit.num_qubits <= EQUIVALENCE_QUBIT_CAP:
        equal, err = equivalence_check(schedule, circuit)
        if not equal:
            return violations, err
    return violations, None


def run_compile(args) -> int:
    params, file_scale = load_params(args.params)
    scale = args.scale if args.scale != "auto" else (file_scale or "auto")
    try:
        circuit, layout, grid, schedule, report = _compile_file(
            args.input, args.technique, args.grid, params, scale,
            args.serial_movement)
    except (QasmError, CircuitError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (CapacityError, GeometryError) as e:
        print(f"capacity/geometry error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except SchedulerError as e:
        print(f"compile error: {e}", file=sys.stderr)
        return EXIT_COMPILE
    with _opened_all(args.out_schedule, args.out_report) as (sched_fh,
                                                            report_fh):
        sched_fh.writelines(_schedule_json_chunks(schedule))
        report_fh.write(report.to_json())
    if args.validate:
        violations, err = _check(schedule, layout, grid, params, circuit)
        for v in violations:
            print(str(v), file=sys.stderr)
        if err is not None:
            print(f"equivalence check diverged: amplitude error {err:.3e}",
                  file=sys.stderr)
        if violations or err is not None:
            return EXIT_VALIDATION
    return EXIT_OK


def run_suite(args) -> int:
    params, file_scale = load_params(args.params)
    scale = args.scale if args.scale != "auto" else (file_scale or "auto")
    techniques = (args.techniques.split(",") if args.techniques
                  else list(TECHNIQUES))
    grids = args.grids.split(",") if args.grids else [args.grid]
    for t in techniques:
        if t not in TECHNIQUES:
            print(f"unknown technique {t!r}", file=sys.stderr)
            return EXIT_PARSE
    for g in grids:
        if g not in GRID_KINDS:
            print(f"unknown grid {g!r}", file=sys.stderr)
            return EXIT_PARSE
    files = sorted(Path(args.suite_dir).glob("*.qasm"))
    if not files:
        print(f"no .qasm files in {args.suite_dir}", file=sys.stderr)
        return EXIT_PARSE

    failures = invalid = 0
    jobs = sorted(
        (f.stem, t, g, f) for f in files for t in techniques for g in grids
    )
    # Opened before the sweep, so an unwritable path fails before any compile.
    with _opened(args.out_csv) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for name, technique, grid_kind, path in jobs:
            row = [name, technique, grid_kind]
            blank = [""] * (len(CSV_HEADER) - len(row) - 1)
            try:
                circuit, layout, grid, schedule, report = _compile_file(
                    str(path), technique, grid_kind, params, scale,
                    args.serial_movement)
            except (QasmError, CircuitError, CapacityError, GeometryError,
                    SchedulerError) as e:
                failures += 1
                writer.writerow(row + blank + [str(e)])
                continue
            if args.validate:
                violations, err = _check(schedule, layout, grid, params, circuit)
                if violations or err is not None:
                    invalid += 1
                    writer.writerow(row + blank + [
                        f"validation: {len(violations)} violations" if violations
                        else f"equivalence: amplitude error {err:.3e}"])
                    continue
            writer.writerow(row + [
                repr(report.runtime_us), repr(report.esp), report.swap_count,
                report.trap_change_count, repr(report.total_movement_um),
                report.gate_counts["u3"], report.gate_counts["cz"],
                repr(report.compile_time_ms), ""])
    if invalid:
        return EXIT_VALIDATION
    return EXIT_OK if failures < len(jobs) else EXIT_PARSE


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.technique not in TECHNIQUES:
        parser.print_usage(sys.stderr)
        print(f"unknown technique {args.technique!r}", file=sys.stderr)
        return EXIT_PARSE
    if args.grid not in GRID_KINDS:
        parser.print_usage(sys.stderr)
        print(f"unknown grid {args.grid!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.suite_dir:
            return run_suite(args)
        if not args.input:
            parser.print_usage(sys.stderr)
            print("one of --input or --suite-dir is required", file=sys.stderr)
            return EXIT_PARSE
        return run_compile(args)
    except GeometryError as e:
        print(f"capacity/geometry error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except WriteError as e:
        print(f"write error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
