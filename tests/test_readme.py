"""README's documented library usage runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

GHZ5 = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
"""


def _library_block() -> str:
    """The first python code block of README's `## Library` section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    (tmp_path / "ghz5.qasm").write_text(GHZ5)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_block(), "README.md", "exec"), namespace)
    schedule, report = namespace["schedule"], namespace["report"]
    assert schedule.num_qubits == 5
    assert report.runtime_us == schedule.end_time > 0
    assert 0.0 < report.esp <= 1.0
    assert namespace["equal"]
