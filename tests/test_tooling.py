"""Guards for what sits outside the package but calls into it: README's examples and the benchmark tracer."""

import re
import shlex
import types
from pathlib import Path

from bures.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})
    assert (tmp_path / "coset.csv").is_file()


def test_readme_command_lines_run(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bures ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def test_perfbench_traced_names_exist():
    # run.py --trace 1 exits 2 when a name the tracer wraps is gone from the package;
    # the source is executed from a string so that nothing is written beside it
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    tracer.check_targets()
