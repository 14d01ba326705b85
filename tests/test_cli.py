"""CLI entry point: single compile, suite sweeps, exit codes, file formats."""
import csv
import json
import random

import pytest

from pachinqo import cli
from pachinqo.cli import CSV_HEADER, _compile_file, main
from pachinqo.machine import PhysParams
from pachinqo.schedule import schedule_to_json
from pachinqo.scheduler import Compiler, SchedulerError
from pachinqo.verifier import Violation

from corpus import random_qasm

GHZ = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q -> c;
"""


@pytest.fixture
def ghz_file(tmp_path):
    f = tmp_path / "ghz3.qasm"
    f.write_text(GHZ)
    return f


def test_compile_writes_schedule_and_report(ghz_file, tmp_path):
    out_s = tmp_path / "schedule.json"
    out_r = tmp_path / "report.json"
    rc = main(["--input", str(ghz_file), "--technique", "pachinqo",
               "--grid", "large-square", "--out-schedule", str(out_s),
               "--out-report", str(out_r), "--validate"])
    assert rc == 0
    sched = json.loads(out_s.read_text())
    assert sched["meta"]["technique"] == "pachinqo"
    assert sched["meta"]["grid"] == "large-square"
    assert "params_hash" in sched["meta"]
    assert sched["final_mapping"] == {"0": 0, "1": 1, "2": 2}
    kinds = [e["kind"] for e in sched["events"]]
    assert kinds.count("trap-change") == 6
    report = json.loads(out_r.read_text())
    assert report["trap_change_count"] == 6
    assert report["swap_count"] == 0
    assert report["compile_time_ms"] > 0


def test_schedule_file_bytes_equal_schedule_to_json(tmp_path):
    src = tmp_path / "caf\u00e9.qasm"
    src.write_text(random_qasm(random.Random(12), 7, 60), encoding="utf-8")
    out_s = tmp_path / "schedule.json"
    rc = main(["--input", str(src), "--out-schedule", str(out_s),
               "--out-report", str(tmp_path / "report.json")])
    assert rc == 0
    _, _, _, schedule, _ = _compile_file(str(src), "pachinqo", "large-square",
                                         PhysParams(), "auto", False)
    assert out_s.read_bytes() == schedule_to_json(schedule).encode("utf-8")


def test_missing_input_exits_one_without_traceback(tmp_path, capsys):
    out_s = tmp_path / "s.json"
    rc = main(["--input", str(tmp_path / "nope.qasm"),
               "--out-schedule", str(out_s),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nope.qasm" in err
    assert "Traceback" not in err
    assert not out_s.exists()


def _fail_compiles_of(monkeypatch, name):
    """Make `Compiler.run` raise SchedulerError for the circuit `name`."""
    run = Compiler.run

    def failing_run(self):
        if self.circuit.source_name == name:
            raise SchedulerError("progress guard found no actionable gate")
        return run(self)

    monkeypatch.setattr(Compiler, "run", failing_run)


def test_compile_error_exits_four_without_traceback(ghz_file, tmp_path,
                                                    monkeypatch, capsys):
    _fail_compiles_of(monkeypatch, "ghz3")
    out_s = tmp_path / "s.json"
    rc = main(["--input", str(ghz_file), "--out-schedule", str(out_s),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == "compile error: progress guard found no actionable gate\n"
    assert not out_s.exists()


def test_unknown_technique_exits_one(ghz_file, capsys):
    rc = main(["--input", str(ghz_file), "--technique", "sabre"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_grid_exits_one(ghz_file):
    assert main(["--input", str(ghz_file), "--grid", "hex"]) == 1


@pytest.mark.parametrize("flags", [
    ["--scale", "bogus"],
    ["--bogus"],
    ["--suite-dir", ".", "--techniques", "pachinqo,sabre"],
    ["--suite-dir", ".", "--grids", "large-square,hex"],
], ids=["bad-scale", "unknown-flag", "unknown-technique-in-list",
        "unknown-grid-in-list"])
def test_usage_errors_exit_one_with_usage(ghz_file, capsys, flags):
    """argparse's own usage errors exit 1, the usage code, not its 2, which
    is the capacity code here, and print the usage line."""
    assert main(["--input", str(ghz_file), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pachinqo")
    assert "error:" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: pachinqo")
    assert "--techniques" in out


def test_parse_error_exits_one(tmp_path):
    f = tmp_path / "bad.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[1];\nsx q[0];\n")
    assert main(["--input", str(f), "--out-schedule",
                 str(tmp_path / "s.json"), "--out-report",
                 str(tmp_path / "r.json")]) == 1


def test_capacity_error_exits_two(tmp_path):
    lines = ["OPENQASM 2.0;", "qreg q[2000];", "cz q[0],q[1];"]
    f = tmp_path / "huge.qasm"
    f.write_text("\n".join(lines) + "\n")
    rc = main(["--input", str(f), "--scale", "default",
               "--out-schedule", str(tmp_path / "s.json"),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 2


def test_columns_taller_than_memory_exit_two(tmp_path, ghz_file, capsys):
    p = tmp_path / "params.json"
    p.write_text(json.dumps({"max_atoms_per_column": 17}))
    rc = main(["--input", str(ghz_file), "--params", str(p),
               "--out-schedule", str(tmp_path / "s.json"),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "exceeds the 16 memory rows" in capsys.readouterr().err


def test_params_file_and_env(tmp_path, ghz_file, monkeypatch):
    p = tmp_path / "params.json"
    p.write_text(json.dumps({"aod_speed": 110.0}))
    monkeypatch.setenv("PACHINQO_PARAMS", str(p))
    out_r = tmp_path / "r.json"
    rc = main(["--input", str(ghz_file),
               "--out-schedule", str(tmp_path / "s.json"),
               "--out-report", str(out_r)])
    assert rc == 0


def test_bad_params_key_exits_two(tmp_path, ghz_file):
    p = tmp_path / "params.json"
    p.write_text(json.dumps({"warp_speed": 9}))
    rc = main(["--input", str(ghz_file), "--params", str(p),
               "--out-schedule", str(tmp_path / "s.json"),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 2


@pytest.mark.parametrize("content, message", [
    (None, "cannot read params file"),
    ('{"aod_speed": 110.0', "is not valid JSON"),
    ('{"aod_speed": "fast"}', "parameter aod_speed must be a finite number"),
    ('{"aod_speed": NaN}', "parameter aod_speed must be a finite number"),
], ids=["missing", "malformed", "non-numeric", "nan"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_bad_params_file_exits_two_without_traceback(
        tmp_path, ghz_file, monkeypatch, capsys, content, message, via_env):
    p = tmp_path / "params.json"
    if content is not None:  # None leaves the file missing
        p.write_text(content)
    argv = ["--input", str(ghz_file),
            "--out-schedule", str(tmp_path / "s.json"),
            "--out-report", str(tmp_path / "r.json")]
    if via_env:
        monkeypatch.setenv("PACHINQO_PARAMS", str(p))
    else:
        argv += ["--params", str(p)]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("flag", ["--out-schedule", "--out-report"])
def test_unwritable_output_exits_one_without_traceback(
        ghz_file, tmp_path, capsys, flag):
    argv = ["--input", str(ghz_file),
            "--out-schedule", str(tmp_path / "s.json"),
            "--out-report", str(tmp_path / "r.json")]
    bad = tmp_path / "no" / "such" / "out.json"
    argv[argv.index(flag) + 1] = str(bad)
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"write error: cannot write {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # Neither output is left behind, so no fresh file sits beside a stale one.
    assert not (tmp_path / "s.json").exists()
    assert not (tmp_path / "r.json").exists()


def _make_suite(tmp_path, n_files=3, seed=0):
    rng = random.Random(seed)
    d = tmp_path / "suite"
    d.mkdir()
    for i in range(n_files):
        (d / f"c{i}.qasm").write_text(
            random_qasm(rng, rng.randint(4, 8), rng.randint(10, 40)))
    return d


def test_suite_row_count_and_header(tmp_path):
    d = _make_suite(tmp_path, n_files=3)
    out = tmp_path / "suite.csv"
    rc = main(["--suite-dir", str(d), "--out-csv", str(out),
               "--grids", "large-square"])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 3 * 4  # 3 circuits x 4 techniques x 1 grid
    names = [r[0] for r in rows[1:]]
    assert names == sorted(names)
    assert all(r[-1] == "" for r in rows[1:])


def test_suite_records_per_file_errors(tmp_path):
    d = _make_suite(tmp_path, n_files=1)
    (d / "bad.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\nreset q[0];\n")
    out = tmp_path / "suite.csv"
    rc = main(["--suite-dir", str(d), "--out-csv", str(out),
               "--techniques", "pachinqo", "--grids", "large-square"])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    bad = [r for r in rows[1:] if r[0] == "bad"]
    assert len(bad) == 1 and bad[0][-1] != ""


def test_suite_records_compile_error_as_error_row(tmp_path, monkeypatch):
    d = _make_suite(tmp_path, n_files=2)
    _fail_compiles_of(monkeypatch, "c0")
    out = tmp_path / "suite.csv"
    rc = main(["--suite-dir", str(d), "--out-csv", str(out),
               "--techniques", "pachinqo,onecache", "--grids", "large-square"])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    errors = {(r[0], r[1]): r[-1] for r in rows[1:]}
    assert len(errors) == 4
    assert errors[("c0", "pachinqo")] == errors[("c0", "onecache")] == \
        "progress guard found no actionable gate"
    assert errors[("c1", "pachinqo")] == errors[("c1", "onecache")] == ""


def test_suite_records_non_utf8_file_as_error_row(tmp_path):
    d = _make_suite(tmp_path, n_files=1)
    (d / "binary.qasm").write_bytes(b"OPENQASM 2.0;\n\xff\n")
    out = tmp_path / "suite.csv"
    rc = main(["--suite-dir", str(d), "--out-csv", str(out),
               "--techniques", "pachinqo", "--grids", "large-square"])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    errors = {r[0]: r[-1] for r in rows[1:]}
    assert errors["c0"] == ""
    assert "UTF-8" in errors["binary"]


def test_suite_unwritable_csv_exits_one_without_traceback(tmp_path, capsys,
                                                          monkeypatch):
    d = _make_suite(tmp_path, n_files=1)
    bad = tmp_path / "no" / "such" / "suite.csv"
    runs = []
    real_run = Compiler.run
    monkeypatch.setattr(Compiler, "run",
                        lambda self: runs.append(1) or real_run(self))
    rc = main(["--suite-dir", str(d), "--out-csv", str(bad),
               "--techniques", "pachinqo", "--grids", "large-square"])
    assert rc == 1
    assert runs == [], "an unwritable CSV must fail before any compile"
    err = capsys.readouterr().err
    assert err.startswith(f"write error: cannot write {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("check, error", [
    ("validate_schedule", "validation: 1 violations"),
    ("equivalence_check", "equivalence: amplitude error 5.000e-01")])
def test_suite_validate_writes_failing_jobs_as_error_rows(tmp_path, monkeypatch,
                                                         check, error):
    """With --validate, suite mode checks every job: the onecache schedule
    of c0 fails the validator (or the oracle) and gets an error row, the
    other jobs keep their metrics, and the sweep exits 3. Without the flag
    nothing is checked."""
    d = _make_suite(tmp_path, n_files=2)
    real = getattr(cli, check)
    calls = []

    def planted(schedule, *args):
        calls.append(schedule.source_name)
        if (schedule.source_name, schedule.technique) != ("c0", "onecache"):
            return real(schedule, *args)
        if check == "validate_schedule":
            return [Violation("ordering", 0, "planted")]
        return False, 0.5

    monkeypatch.setattr(cli, check, planted)
    argv = ["--suite-dir", str(d), "--techniques", "pachinqo,onecache",
            "--grids", "large-square"]
    out = tmp_path / "suite.csv"
    assert main(argv + ["--out-csv", str(out), "--validate"]) == 3
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 4 and sorted(calls) == ["c0", "c0", "c1", "c1"]
    errors = {(r[0], r[1]): r[-1] for r in rows}
    assert errors.pop(("c0", "onecache")) == error
    assert set(errors.values()) == {""}
    assert all(r[3] != "" for r in rows if r[-1] == "")
    calls.clear()
    assert main(argv + ["--out-csv", str(tmp_path / "plain.csv")]) == 0
    assert calls == []


def test_suite_rerun_is_byte_identical_modulo_compile_ms(tmp_path):
    d = _make_suite(tmp_path, n_files=2, seed=3)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["--suite-dir", str(d), "--out-csv", str(out),
                   "--grids", "large-square,triangle"])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        col = CSV_HEADER.index("compile_ms")
        for r in rows[1:]:
            r[col] = ""
        outs.append(rows)
    assert outs[0] == outs[1]


def test_validate_reports_a_wrong_rotation_above_the_oracle_cap(
        tmp_path, monkeypatch, capsys):
    """A 50-qubit schedule with one native U3's theta off by 0.7: the
    oracle does not run at this size, and --validate still exits 3."""
    src = tmp_path / "wide50.qasm"
    src.write_text(random_qasm(random.Random(4), 50, 200))
    real_run = Compiler.run

    def wrong_rotation(self):
        sched = real_run(self)
        layer = next(ev for ev in sched.events
                     if getattr(ev, "kind", "") == "u3-layer"
                     and any(g.origin is None for g in ev.gates))
        k = next(k for k, g in enumerate(layer.gates) if g.origin is None)
        g = layer.gates[k]
        layer.gates[k] = type(g)(g.qubit, g.atom,
                                 (g.angles[0] + 0.7, *g.angles[1:]), g.origin)
        return sched

    monkeypatch.setattr(Compiler, "run", wrong_rotation)
    rc = main(["--input", str(src), "--out-schedule", str(tmp_path / "s.json"),
               "--out-report", str(tmp_path / "r.json"), "--validate"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("[dependency] event ") and " has angles " in err


def test_missing_input_flags(capsys):
    assert main([]) == 1
    assert "required" in capsys.readouterr().err
