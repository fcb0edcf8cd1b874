"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] overhangs the
    # parent; the grandchild [1.5, 2] must not count against the parent.
    starts = [0.0, 1.0, 3.0, 8.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tr.self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2:4] == pytest.approx([3.0, 4.0])


def test_union_length_merges_and_ignores_empty():
    assert tr.union_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3.0)
    assert tr.union_length([]) == 0.0


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    got = tr.tail_percentile(samples)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    assert sum(s > got[1] for s in samples) >= 10


def test_end_to_end_scales_times_by_the_reference_kernel():
    # Every reference ran at twice its nominal time, so the machine ran at
    # half speed: scaled times are half the wall times, and rates double.
    w = dataclasses.replace(harness.WORKLOADS["n3_stream"], count=10)
    slow = 2 * harness.REF_NOMINAL_S
    rnd = harness.Round(
        traced=False, sample_s={"coset": 1.0, "haar": 2.0}, load_s=[0.5], loaded=[10], compare_s=[0.2, 0.4],
        ref_s={"coset": [slow], "haar": [slow], "load": [slow], "compare": [slow, slow]},
    )
    bench = types.SimpleNamespace(w=w, setup=[(3.0, slow), (5.0, slow), (4.0, slow)])
    wall = harness.end_to_end(bench, [rnd], scaled=False)
    scaled = harness.end_to_end(bench, [rnd])
    assert wall["coset_rec_per_s"][0] == pytest.approx(10.0)
    assert wall["compare_s_mean"][0] == pytest.approx(0.3)
    for name in ("coset_rec_per_s", "haar_rec_per_s", "load_rec_per_s"):
        assert scaled[name][0] == pytest.approx(2 * wall[name][0]), name
    for name in ("setup_s", "compare_s_mean"):
        assert scaled[name][0] == pytest.approx(wall[name][0] / 2), name
    assert wall["setup_s"][0] == pytest.approx(4.0)


def test_tracer_records_parents_and_restores_targets():
    import bures.coset

    original = bures.coset.matmul
    tracer = tr.Tracer()
    with tracer.installed():
        assert bures.coset.matmul is not original
        with tracer.span("outer"):
            bures.coset.matmul([[1.0]], [[2.0]])
    assert bures.coset.matmul is original
    totals = tracer.drain()
    assert totals[("outer", "linalg.matmul")][0] == 1
    assert totals[("outer", "outer")][0] == 1


def test_layer_guard_names_the_missing_function(monkeypatch, capsys):
    import bures.coset

    monkeypatch.delattr(bures.coset, "matmul")
    with pytest.raises(tr.MissingLayerError, match="bures.coset.matmul"):
        tr.check_targets()
    monkeypatch.setattr(run, "_prepare_environment", dict)
    assert run.main(["--workload", "n3_stream", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "perfbench: traced layer bures.coset.matmul is missing from the package"
    ]


def _tiny_run(name, traced, workdir, seed=3):
    w = dataclasses.replace(harness.WORKLOADS[name], count=4, repro_count=2)
    workdir.mkdir(exist_ok=True)
    return harness.run(w, seed, 0, traced, workdir, ROOT / "src", ROOT, {})


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run_reports_every_metric(name, tmp_path):
    bare = _tiny_run(name, False, tmp_path / "a")
    assert bare["correct"] and bare["failed"] == 0 and bare["attempted"] > 0
    assert set(bare["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced = _tiny_run(name, True, tmp_path / "b")
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    again = _tiny_run(name, True, tmp_path / "c")
    for metric in COUNT_METRICS:
        assert traced["metrics"][metric] == again["metrics"][metric], metric


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "n3_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
