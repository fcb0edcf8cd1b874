"""Guards for what sits outside the package but calls into it: README's sketch and the benchmark tracer."""

import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})
    assert (tmp_path / "coset.csv").is_file()


def test_perfbench_traced_names_exist():
    # run.py --trace 1 exits 2 when a name the tracer wraps is gone from the package;
    # the source is executed from a string so that nothing is written beside it
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    tracer.check_targets()
