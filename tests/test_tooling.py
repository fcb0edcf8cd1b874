"""Guards for what sits outside the package but calls into it: README's examples and the benchmark."""

import dataclasses
import re
import shlex
import sys
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


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, executed from its source text so that nothing is written beside it.

    The module is importable under ``name`` for the rest of the test, as
    harness imports tracer.
    """
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_perfbench_traced_names_exist(monkeypatch):
    # run.py --trace 1 exits 2 when a name the tracer wraps is gone from the package
    _perfbench_module("tracer", monkeypatch).check_targets()


def test_perfbench_reads_back_its_load_files(tmp_path, monkeypatch):
    # the benchmark checks what read_records returns through rec.rho.matrix and
    # rec.rho.spectrum.values, so a change to the record type must keep those
    _perfbench_module("tracer", monkeypatch)
    harness = _perfbench_module("harness", monkeypatch)
    for name, workload in harness.WORKLOADS.items():
        workload = dataclasses.replace(workload, count=6)
        bench = harness.BenchRun(workload, 1, tmp_path, ROOT / "src")
        for method in workload.load_methods:
            path = tmp_path / f"{name}-{method}.{workload.fmt}"
            bench.run_cli(bench.sample_argv(method, 3, workload.count, path), "sample", False)
            _, _, records = bench.read_records(path, False)
            bench.check_file(method, path, records)
        assert bench.failures == [], name
