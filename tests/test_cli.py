import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bures import cli
from bures.cli import UsageError, main, read_column, read_records, write_records
from bures.errors import BuresError, InvalidStateError, NotHermitianError, ShapeError
from bures.measures import DensityMatrix, Spectrum, eigenvalue_density
from bures.sampling import SampleRecord, StateBatch, batch_sample
from bures.stats import cumulative_pairs

SPEC3 = "0.5,0.375,0.125"


def run_sample(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(
        ["sample", "--spectrum", SPEC3, "--method", "coset", "--count", "200",
         "--seed", "5", "-o", str(out)] + list(extra)
    )
    assert code == 0
    return out


# ------------------------------------------------------------------- sample


def test_sample_writes_csv_with_expected_layout(tmp_path):
    out = run_sample(tmp_path, "run.csv")
    rows = list(csv.reader(out.open()))
    header, data = rows[0], rows[1:]
    assert len(data) == 200
    assert header[:2] == ["method", "index"]
    assert header[2:11] == [f"re_{j}_{k}" for j in (1, 2, 3) for k in (1, 2, 3)]
    assert header[11:20] == [f"im_{j}_{k}" for j in (1, 2, 3) for k in (1, 2, 3)]
    assert header[20:] == ["rho_11", "rho_22", "rho_33"]
    assert data[0][0] == "coset"
    assert [row[1] for row in data[:3]] == ["0", "1", "2"]


def test_sample_reruns_are_byte_identical(tmp_path):
    a = run_sample(tmp_path, "a.csv")
    b = run_sample(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_sample_jsonl_round_trip_matches_csv(tmp_path):
    a = run_sample(tmp_path, "a.csv")
    b = run_sample(tmp_path, "b.jsonl", "--format", "jsonl")
    rec_csv = read_records(a)
    rec_jsonl = read_records(b)
    assert len(rec_csv) == len(rec_jsonl) == 200
    for rc, rj in zip(rec_csv, rec_jsonl):
        assert rc.method == rj.method and rc.index == rj.index
        assert np.array_equal(rc.rho.matrix, rj.rho.matrix)
        assert rc.observables == rj.observables


def test_sample_zero_layer_hook_writes_the_diagonal_model(tmp_path):
    # the diagonal model, the state of the all-zero chart, written and read back
    out = tmp_path / "diag.csv"
    spectrum = Spectrum([0.5, 0.375, 0.125])
    expected = np.diag(spectrum.values[::-1])
    write_records(StateBatch("coset", 0, spectrum, expected[None].astype(complex)), out, "csv")
    (record,) = read_records(out)
    assert np.array_equal(record.rho.matrix, expected)


def legacy_csv_bytes(batch):
    """The per-record csv.writer format the record files have always had."""
    lines = []
    writer = csv.writer(_Sink(lines), lineterminator="\n")
    n = batch.n_levels
    header = ["method", "index"]
    header += [f"{p}_{j}_{k}" for p in ("re", "im") for j in range(1, n + 1) for k in range(1, n + 1)]
    writer.writerow(header + [f"rho_{j}{j}" for j in range(1, n + 1)])
    for index, (m, diagonal) in enumerate(zip(batch.matrices, batch.diagonals)):
        cells = [batch.method, str(index)]
        cells += [f"{v:.17g}" for v in m.real.reshape(-1)]
        cells += [f"{v:.17g}" for v in m.imag.reshape(-1)]
        cells += [f"{v:.17g}" for v in diagonal.tolist()]
        writer.writerow(cells)
    return "".join(lines).encode()


def legacy_jsonl_bytes(batch):
    """The per-record json.dumps format the record files have always had."""
    out = []
    for index, (m, diagonal) in enumerate(zip(batch.matrices, batch.diagonals)):
        payload = {
            "method": batch.method,
            "index": index,
            "re": m.real.tolist(),
            "im": m.imag.tolist(),
            "observables": {f"rho_{j}{j}": v for j, v in enumerate(diagonal.tolist(), 1)},
        }
        out.append(json.dumps(payload, separators=(",", ":")) + "\n")
    return "".join(out).encode()


class _Sink:
    def __init__(self, lines):
        self.write = lines.append


def _edited_batch(method, edit):
    """150 N=4 states (three text blocks) with ``edit`` applied to the stack."""
    sampled = batch_sample(method, Spectrum([0.7, 0.3, 0.0, 0.0]), 150, 9)
    matrices = sampled.matrices.copy()
    edit(matrices)
    return StateBatch(method, 9, sampled.spectrum, matrices)


def _set_hermitian(m, record, j, k, value):
    """Entry (j, k) of ``record`` becomes ``value`` and its mirror the conjugate."""
    m[record, j, k] = value
    if j != k:
        m[record, k, j] = np.conj(value)


def _specials(m):
    # signed zeros, subnormals and short decimals
    _set_hermitian(m, 0, 0, 1, complex(1e-300, -0.0))
    _set_hermitian(m, 1, 2, 3, complex(-5e-324, 1.0 / 3.0))
    m[2, 0, 0] = 0.1
    m[3, 1, 1] = -0.0
    m[70, 2, 2] = complex(m[70, 2, 2].real, -0.0)


def _zero_im_pair(m):
    m[6, 0, 2], m[6, 2, 0] = m[6, 0, 2].real, m[6, 2, 0].real
    m[71, 1, 3] = complex(m[71, 1, 3].real, -0.0)
    m[71, 3, 1] = complex(m[71, 3, 1].real, 0.0)


def _zero_diagonal(m):
    m[9, 3, 3] = 0.0


@pytest.mark.parametrize("method", ["coset", "haar"])
def test_write_records_bytes_match_the_per_record_format(tmp_path, method):
    cases = {
        "specials": _edited_batch(method, _specials),
        "im-zero-pair": _edited_batch(method, _zero_im_pair),
        "zero-diagonal": _edited_batch(method, _zero_diagonal),
        "n10-zero-block": batch_sample(method, Spectrum([0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0, 0, 0]), 150, 4),
        # one N=100 record per text block
        "n100": batch_sample(method, Spectrum(np.arange(1.0, 101.0) / 5050), 3, 4),
    }
    for case, batch in cases.items():
        for fmt, legacy in (("csv", legacy_csv_bytes), ("jsonl", legacy_jsonl_bytes)):
            out = tmp_path / f"{case}.{fmt}"
            write_records(batch, out, fmt)
            assert out.read_bytes() == legacy(batch), (case, fmt)


def test_sample_renormalizes_tiny_sum_error(tmp_path):
    out = tmp_path / "renorm.csv"
    code = main(
        ["sample", "--spectrum", "0.5000000001,0.375,0.125", "--method", "haar",
         "--count", "1", "--seed", "0", "-o", str(out)]
    )
    assert code == 0


def test_sample_rejects_bad_spectra(tmp_path):
    out = str(tmp_path / "x.csv")
    args = ["sample", "--method", "haar", "--count", "1", "--seed", "0", "-o", out]
    assert main(args + ["--spectrum", "0.6,0.5"]) == 2
    assert main(args + ["--spectrum", "1.2,-0.2"]) == 2
    assert main(args + ["--spectrum", "abc"]) == 2


def test_sample_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--spectrum", SPEC3, "--method", "magic", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_sample_reports_io_failure(tmp_path):
    code = main(
        ["sample", "--spectrum", SPEC3, "--method", "haar", "--count", "1",
         "--seed", "0", "-o", str(tmp_path / "missing" / "x.csv")]
    )
    assert code == 3


# ------------------------------------------------------------------- volume


def parse_report(output):
    values = {}
    for line in output.strip().splitlines():
        name, _, value = line.partition(" = ")
        values[name.strip()] = float(value)
    return values


def test_volume_reports_closed_forms(capsys):
    assert main(["volume", "-n", "3"]) == 0
    values = parse_report(capsys.readouterr().out)
    assert values["Vol(B^2)"] == pytest.approx(math.pi, rel=1e-12)
    assert values["Vol(B^4)"] == pytest.approx(math.pi**2 / 2, rel=1e-12)
    assert values["flag_volume(3)"] == pytest.approx(math.pi**3 / 2, rel=1e-12)
    assert values["flag_volume_sz(3)"] == pytest.approx(4 * math.pi**3, rel=1e-12)
    assert values["ratio"] == pytest.approx(8.0, rel=1e-12)
    assert values["ball product"] == pytest.approx(values["flag_volume(3)"], rel=1e-12)


def test_volume_two_levels_is_a_circle_area(capsys):
    assert main(["volume", "-n", "2"]) == 0
    values = parse_report(capsys.readouterr().out)
    assert values["flag_volume(2)"] == pytest.approx(math.pi, rel=1e-12)
    assert values["ratio"] == pytest.approx(2.0, rel=1e-12)


def test_volume_ratio_grows_with_levels(capsys):
    assert main(["volume", "-n", "4"]) == 0
    values = parse_report(capsys.readouterr().out)
    assert values["ratio"] == pytest.approx(64.0, rel=1e-12)


def test_volume_rejects_small_n():
    assert main(["volume", "-n", "1"]) == 2


@pytest.mark.parametrize("n", [28, 36])
def test_volume_past_the_gamma_overflow_matches_the_ball_product(capsys, n):
    assert main(["volume", "-n", str(n)]) == 0
    values = parse_report(capsys.readouterr().out)
    assert values[f"flag_volume({n})"] == pytest.approx(values["ball product"], rel=1e-12)
    assert values[f"flag_volume_sz({n})"] == pytest.approx(values["ball product"] * values["ratio"], rel=1e-12)
    assert values["ratio"] == pytest.approx(2.0 ** (n * (n - 1) / 2), rel=1e-12)


# ------------------------------------------------------------------ compare


def test_compare_file_with_itself(tmp_path, capsys):
    out = run_sample(tmp_path, "self.csv")
    code = main(["compare", str(out), str(out), "--column", "rho_33"])
    assert code == 0
    report = capsys.readouterr().out
    assert "KS statistic = 0" in report
    pairs_file = tmp_path / "self_vs_self_pairs.csv"
    assert pairs_file.exists()
    pairs = np.loadtxt(pairs_file, delimiter=",", skiprows=1)
    assert np.array_equal(pairs[:, 0], pairs[:, 1])


def test_compare_passes_between_methods(tmp_path, capsys):
    haar = tmp_path / "haar.csv"
    coset = tmp_path / "coset.csv"
    base = ["sample", "--spectrum", "0.375,0.125,0.5", "--count", "1000"]
    assert main(base + ["--method", "haar", "--seed", "0", "-o", str(haar)]) == 0
    assert main(base + ["--method", "coset", "--seed", "1", "-o", str(coset)]) == 0
    assert main(["compare", str(haar), str(coset), "--column", "rho_33"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_flags_different_distributions(tmp_path):
    out = run_sample(tmp_path, "real.csv")
    noise = tmp_path / "noise.csv"
    rng = np.random.default_rng(1)
    with noise.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        header = ["method", "index"]
        header += [f"re_{j}_{k}" for j in (1, 2, 3) for k in (1, 2, 3)]
        header += [f"im_{j}_{k}" for j in (1, 2, 3) for k in (1, 2, 3)]
        header += ["rho_11", "rho_22", "rho_33"]
        writer.writerow(header)
        for i in range(200):
            row = ["noise", str(i)] + ["0"] * 18 + [f"{rng.uniform():.17g}" for _ in range(3)]
            writer.writerow(row)
    assert main(["compare", str(out), str(noise), "--column", "rho_33"]) == 1


def test_compare_missing_column(tmp_path):
    out = run_sample(tmp_path, "cols.csv")
    assert main(["compare", str(out), str(out), "--column", "rho_99"]) == 2


def test_compare_missing_file(tmp_path):
    out = run_sample(tmp_path, "there.csv")
    assert main(["compare", str(out), str(tmp_path / "nowhere.csv")]) == 3


def test_compare_explicit_pairs_path(tmp_path, capsys):
    out = run_sample(tmp_path, "p.csv")
    target = tmp_path / "custom_pairs.csv"
    capsys.readouterr()
    assert main(["compare", str(out), str(out), "--pairs-out", str(target)]) == 0
    assert target.exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "samples: n = 200, m = 200", "KS statistic = 0", lines[2], f"pairs written to {target}", "compare: PASS"
    ]
    assert lines[2].startswith("critical(1%) = ")


def test_compare_prints_nothing_before_an_io_failure(tmp_path, capsys):
    out = run_sample(tmp_path, "io.csv")
    capsys.readouterr()
    assert main(["compare", str(out), str(out), "--pairs-out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("I/O error:")


def _write_text(name, text):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return make


def _write_bytes(name, data):
    def make(tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    return make


#: A JSONL line whose observables are lists nested 10,000 deep.
DEEP_JSONL = '{"observables": %s%s}\n' % ("[" * 10000, "]" * 10000)


def _output(name):
    def make(tmp_path):
        return str(tmp_path / name)

    return make


SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: A 100-level spectrum with distinct eigenvalues j/5050.
SPEC100 = ",".join(repr(j / 5050) for j in range(1, 101))


def _sample_argv(spectrum, count, seed="0", method="coset"):
    return ["sample", "--spectrum", spectrum, "--method", method, "--count", count, "--seed", seed, "-o", "{f}"]


@pytest.mark.parametrize(
    "make_file, argv, code, says",
    [
        # a non-numeric cell in the compared CSV column
        (_write_text("bad.csv", "method,index,rho_33\ncoset,0,0.25\ncoset,1,abc\n"),
         ["compare", "{f}", "{f}", "--column", "rho_33"], 2, None),
        # a nan cell parses as a float but is no sample
        (_write_text("nan.csv", "method,index,rho_33\ncoset,0,0.25\ncoset,1,nan\n"),
         ["compare", "{f}", "{f}", "--column", "rho_33"], 2, None),
        # an empty JSONL file has no data rows
        (_write_text("empty.jsonl", ""), ["compare", "{f}", "{f}", "--column", "rho_33"], 2, None),
        # a JSONL line that is not JSON
        (_write_text("bad.jsonl", '{"observables": {"rho_11": 0.5}}\n{not json\n'),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, None),
        # float(True) is 1.0, but a JSON boolean is no sample
        (_write_text("bool.jsonl", '{"observables": {"rho_11": 0.5}}\n{"observables": {"rho_11": true}}\n'),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "non-numeric value True"),
        # an overflowing number stays text until its cell is converted, and is rejected then
        (_write_text("inf.jsonl", "".join(f'{{"observables": {{"rho_11": {v}}}}}\n'
                                          for v in ("0.5", "1e999", "NaN", "Infinity"))),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "non-finite value"),
        # the module runs as a script
        (None, ["volume", "-n", "3"], 0, "flag_volume(3) = "),
        # the Gamma product alone overflows here; the volumes are summed in log space
        (None, ["volume", "-n", "28"], 0, "flag_volume(28) = "),
        # flag_volume(37) is about 1e-311, a subnormal double
        (None, ["volume", "-n", "37"], 2, "leave the range of normal doubles"),
        # Gamma overflows in the ball volumes
        (None, ["volume", "-n", "200"], 2, "leave the range of normal doubles"),
        (None, ["density", "--spectrum", "1"], 2, "at least 2 levels"),
        # a JSON integer too large for a float
        (_write_text("big.jsonl", '{"observables": {"rho_11": 0.5}}\n{"observables": {"rho_11": 1%s}}\n' % ("0" * 400)),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "non-numeric value"),
        # a stack too large to allocate: numpy raises ValueError or MemoryError, by size
        (_output("x.csv"), _sample_argv(SPEC3, str(10**17)), 2, f"cannot hold {10**17} states of 3 levels"),
        (_output("x.csv"), _sample_argv(SPEC3, str(10**20)), 2, f"cannot hold {10**20} states of 3 levels"),
        (_output("x.csv"), _sample_argv(SPEC100, str(10**13)), 2, f"cannot hold {10**13} states of 100 levels"),
        # the stream key takes the seed modulo 2^64, so a seed outside [0, 2^64) would alias one inside
        (_output("x.csv"), _sample_argv(SPEC3, "1", "-1"), 2, "outside [0, 2^64)"),
        (_output("x.csv"), _sample_argv(SPEC3, "1", str(2**64)), 2, "outside [0, 2^64)"),
        (_output("x.csv"), _sample_argv(SPEC3, "1", str(2**64 - 1)), 0, "wrote 1 coset records"),
        (None, ["check-jacobian", "--points", "1", "--seed", "-1"], 2, "outside [0, 2^64)"),
        (_output("x.csv"), _sample_argv("1", "1"), 2, "at least 2 levels"),
        (_output("x.csv"), _sample_argv("1", "1", method="haar"), 2, "at least 2 levels"),
        # checked by batch_sample and flag_volume, not again by the CLI
        (_output("x.csv"), _sample_argv(SPEC3, "0"), 2, "count must be at least 1"),
        (None, ["volume", "-n", "1"], 2, "at least 2 levels"),
        # sizes whose arrays numpy refuses before taking any memory
        (None, ["check-jacobian", "-n", str(10**18), "--points", "1"], 2, f"-n {10**18}"),
        (None, ["check-euler", "--nodes", str(10**18)], 2, f"cannot hold {10**18} quadrature nodes"),
        # files that are not UTF-8 text, and a JSON line too deep for the decoder
        (_write_bytes("latin1.csv", b"method,index,rho_33\ncoset,0,0.25\ncoset,1,0.5\xb5\n"),
         ["compare", "{f}", "{f}", "--column", "rho_33"], 2, "latin1.csv: not UTF-8 text"),
        (_write_bytes("latin1.jsonl", b'{"observables": {"rho_11": 0.5}}\n{"observables": {"rho_\xb5": 0.5}}\n'),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "latin1.jsonl: not UTF-8 text"),
        (_write_text("deep.jsonl", '{"observables": {"rho_11": 0.5}}\n' + DEEP_JSONL),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "deep.jsonl, line 2: JSON nested too deeply"),
        # a CSV field longer than csv.field_size_limit() (131,072 characters)
        (_write_text("long.csv", "method,index,rho_11\ncoset,0,0.5\ncoset,1,%s\n" % ("1" * 200_000)),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "long.csv, line 3: field larger than field limit"),
        # a JSON integer beyond Python's 4,300-digit int-string limit
        (_write_text("digits.jsonl", '{"observables": {"rho_11": 0.5}}\n{"index": 1%s}\n' % ("0" * 5000)),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "digits.jsonl, line 2: "),
        # compare reads only rho_jj observables, whatever other columns a file has
        (_write_text("cols.csv", "method,index,re_1_2,rho_11\ncoset,0,0.25,0.5\ncoset,1,0.25,0.5\n"),
         ["compare", "{f}", "{f}", "--column", "index"], 2, "'index' is not a rho_jj observable"),
        (_write_text("cols.csv", "method,index,re_1_2,rho_11\ncoset,0,0.25,0.5\ncoset,1,0.25,0.5\n"),
         ["compare", "{f}", "{f}", "--column", "re_1_2"], 2, "'re_1_2' is not a rho_jj observable"),
        (_write_text("cols.jsonl", '{"index": 0, "re_1_2": 0.25, "observables": {"rho_11": 0.5, "index": 0}}\n'),
         ["compare", "{f}", "{f}", "--column", "index"], 2, "'index' is not a rho_jj observable"),
        (_write_text("cols.jsonl", '{"index": 0, "re_1_2": 0.25, "observables": {"rho_11": 0.5, "re_1_2": 0.25}}\n'),
         ["compare", "{f}", "{f}", "--column", "re_1_2"], 2, "'re_1_2' is not a rho_jj observable"),
        # a second rho_11 column would otherwise be read in place of the first
        (_write_text("dup.csv", "method,index,rho_11,rho_11\ncoset,0,0.5,0.25\ncoset,1,0.5,0.25\n"),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "column 'rho_11' present 2 times in"),
        # a JSON string is no sample, however float() would read its text
        (_write_text("str.jsonl", '{"observables": {"rho_11": 0.5}}\n{"observables": {"rho_11": "0.25"}}\n'),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "non-numeric value '0.25'"),
        (_write_text("str.jsonl", '{"observables": {"rho_11": 0.5}}\n{"observables": {"rho_11": " 1_0e-1 "}}\n'),
         ["compare", "{f}", "{f}", "--column", "rho_11"], 2, "non-numeric value ' 1_0e-1 '"),
    ],
    ids=[
        "compare-non-numeric-csv", "compare-nan-csv", "compare-empty-jsonl", "compare-malformed-jsonl",
        "compare-bool-jsonl", "compare-nonfinite-jsonl", "module-volume", "volume-n28", "volume-n37", "volume-n200",
        "density-one-level", "compare-huge-int-jsonl", "sample-count-1e17", "sample-count-1e20",
        "sample-n100-count-1e13", "sample-seed-minus-1", "sample-seed-2-64", "sample-seed-2-64-minus-1",
        "check-jacobian-seed-minus-1", "sample-coset-one-level", "sample-haar-one-level",
        "sample-count-0", "volume-n1",
        "check-jacobian-n-1e18", "check-euler-nodes-1e18", "compare-non-utf8-csv", "compare-non-utf8-jsonl",
        "compare-deep-jsonl", "compare-overlong-csv-field", "compare-jsonl-int-5000-digits",
        "compare-index-csv", "compare-re-1-2-csv", "compare-index-jsonl", "compare-re-1-2-jsonl",
        "compare-duplicate-rho-11-csv", "compare-string-jsonl", "compare-string-1_0e-1-jsonl",
    ],
)
def test_cli_module_exit_codes(tmp_path, make_file, argv, code, says):
    path = make_file(tmp_path) if make_file else None
    args = [a.replace("{f}", path) if path else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bures.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        assert says in proc.stdout
    else:
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert says is None or says in proc.stderr, proc.stderr


@pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_read_column_rejects_non_finite_jsonl_cells(tmp_path, cell):
    out = tmp_path / "inf.jsonl"
    out.write_text(f'{{"observables": {{"rho_11": 0.5}}}}\n{{"observables": {{"rho_11": {cell}}}}}\n')
    with pytest.raises(UsageError, match="non-finite value"):
        read_column(out, "rho_11")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize(
    "values",
    [[0.5, 0.375, 0.125], [0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0, 0.0, 0.0]],
    ids=["n3", "n10-zero-block"],
)
def test_read_column_matches_records(tmp_path, fmt, values):
    out = tmp_path / f"col.{fmt}"
    write_records(batch_sample("coset", Spectrum(values), 300, 8), out, fmt)
    records = read_records(out)
    for column in records[0].observables:
        want = np.array([r.observables[column] for r in records])
        assert same_bits(read_column(out, column), want)


def legacy_pairs_bytes(pairs):
    """The per-pair csv.writer format QQ sidecars have always had."""
    lines = []
    writer = csv.writer(_Sink(lines), lineterminator="\n")
    writer.writerow(["a", "b"])
    for left, right in pairs:
        writer.writerow([f"{left:.17g}", f"{right:.17g}"])
    return "".join(lines).encode()


def test_compare_pairs_bytes_match_the_per_pair_format(tmp_path):
    rng = np.random.default_rng(3)
    a = np.concatenate([[-0.0, 0.0, 5e-324, 1.0 / 3.0, 0.1], rng.uniform(size=195)])
    b = np.concatenate([[2.5e-310, -0.0, 2.0 / 3.0, 1.0, 0.2], rng.uniform(size=195)])
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.jsonl"
    a_path.write_text("method,index,rho_33\n" + "".join(f"coset,{i},{v:.17g}\n" for i, v in enumerate(a)))
    b_path.write_text("".join(json.dumps({"observables": {"rho_33": v}}) + "\n" for v in b.tolist()))
    target = tmp_path / "pairs.csv"
    assert main(["compare", str(a_path), str(b_path), "--pairs-out", str(target)]) in (0, 1)
    assert target.read_bytes() == legacy_pairs_bytes(cumulative_pairs(a, b))


# ------------------------------------------------------------------- reader


def per_record_read(path):
    """The one-record-at-a-time reader: from_matrix and SampleRecord for every record.

    The file's rho_jj cells are checked against the record's observables,
    which it derives from the matrix diagonal.
    """
    if str(path).endswith(".jsonl"):
        rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    else:
        rows = []
        for row in csv.DictReader(Path(path).read_text().splitlines()):
            n = math.isqrt(sum(k.startswith("re_") for k in row))
            entries = {p: [[float(row[f"{p}_{j}_{k}"]) for k in range(1, n + 1)] for j in range(1, n + 1)]
                       for p in ("re", "im")}
            obs = {f"rho_{j}{j}": float(row[f"rho_{j}{j}"]) for j in range(1, n + 1)}
            rows.append(dict(method=row["method"], index=row["index"], observables=obs, **entries))
    records = []
    for row in rows:
        with np.errstate(invalid="ignore"):  # 0 * inf of an infinite Im cell: from_matrix rejects the NaN
            matrix = np.asarray(row["re"], dtype=float) + 1j * np.asarray(row["im"], dtype=float)
        rho = DensityMatrix.from_matrix(matrix)
        record = SampleRecord(str(row["method"]), int(row["index"]), rho)
        for label, value in record.observables.items():
            if not abs(float(row["observables"][label]) - value) <= 1e-12:
                raise ValueError(f"{label} of record {record.index} differs from the matrix diagonal")
        records.append(record)
    return records


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_records_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is SampleRecord and g.method == w.method and g.index == w.index
        assert same_bits(g.rho.matrix, w.rho.matrix)
        assert same_bits(g.rho.spectrum.values, w.rho.spectrum.values)
        assert same_bits(g.rho.basis, w.rho.basis)
        assert g.observables == w.observables and list(g.observables) == list(w.observables)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize(
    "method, values, count",
    [
        # N=3 takes 1,820 records per parse block: 600 fit one, 2,000 span two
        ("coset", [0.5, 0.375, 0.125], 600),
        ("haar", [0.5, 0.375, 0.125], 600),
        # N=10 with a 3-fold zero block: 163 records per parse block
        ("coset", [0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0, 0.0, 0.0], 400),
        ("haar", [0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0, 0.0, 0.0], 400),
        ("coset", [0.5, 0.375, 0.125], 2000),
    ],
)
def test_read_records_matches_the_per_record_path(tmp_path, fmt, method, values, count):
    out = tmp_path / f"{method}.{fmt}"
    write_records(batch_sample(method, Spectrum(values), count, 13), out, fmt)
    assert_records_identical(read_records(out), per_record_read(out))


def test_read_records_takes_csv_columns_in_any_order(tmp_path):
    out = tmp_path / "plain.csv"
    write_records(batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 300, 4), out, "csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    order = np.random.default_rng(0).permutation(len(rows[0]))
    assert list(order) != sorted(order)
    shuffled = tmp_path / "shuffled.csv"
    with shuffled.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([row[i] for i in order] for row in rows)
    assert_records_identical(read_records(shuffled), per_record_read(out))


def edited_file(tmp_path, edit):
    """A 600-record N=3 CSV whose rows (header first) went through ``edit``."""
    out = tmp_path / "edited.csv"
    write_records(batch_sample("haar", Spectrum([0.5, 0.375, 0.125]), 600, 21), out, "csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    edit(rows)
    with out.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return out


def edit_record(index, **changes):
    """Replace the cells of record ``index`` named in ``changes`` by change(old value)."""

    def edit(rows):
        row = rows[index + 1]  # after the header
        assert row[1] == str(index)
        for label, change in changes.items():
            col = rows[0].index(label)
            row[col] = f"{change(float(row[col])):.17g}"

    return edit


def edit_record_300(**changes):
    return edit_record(300, **changes)


def in_turn(*edits):
    def edit(rows):
        for each in edits:
            each(rows)

    return edit


def plus(by):
    return lambda value: value + by


@pytest.mark.parametrize(
    "edit, error",
    [
        (edit_record_300(re_2_2=lambda value: math.nan), ShapeError),
        # one off-diagonal entry moved without its mirror
        (edit_record_300(re_1_2=plus(1e-3)), NotHermitianError),
        # the rho_jj column disagrees with the matrix
        (edit_record_300(rho_22=plus(1e-6)), ValueError),
        # a NaN rho_jj fails that check too
        (edit_record_300(rho_22=lambda value: math.nan), ValueError),
        # rho_11 and its column both moved: the trace is 1 + 1e-6
        (edit_record_300(re_1_1=plus(1e-6), rho_11=plus(1e-6)), InvalidStateError),
        # trace 1 and Hermitian, but a diagonal entry (so an eigenvalue) below zero
        (edit_record_300(re_1_1=plus(0.6), rho_11=plus(0.6), re_2_2=plus(-0.6), rho_22=plus(-0.6)),
         InvalidStateError),
        # in one parse block, record 300 fails the last check and record 301 the second:
        # the error is record 300's, as building the records one by one would give
        (in_turn(edit_record_300(rho_22=plus(1e-6)), edit_record(301, re_1_2=plus(1e-3))), ValueError),
        # infinite cells: 0 * inf in assembling the matrix and inf - inf in the rho_jj check
        # make NaNs, which must not surface as a RuntimeWarning before the error
        (edit_record_300(im_1_2=lambda value: math.inf, im_2_1=lambda value: -math.inf), ShapeError),
        (edit_record_300(re_2_2=lambda value: math.inf, rho_22=lambda value: math.inf), ShapeError),
    ],
    ids=[
        "non-finite", "non-hermitian", "rho-jj-inconsistent", "rho-jj-nan", "trace-not-one", "negative-eigenvalue",
        "first-record-wins", "inf-mirror-pair", "inf-diagonal-and-rho-jj",
    ],
)
def test_read_records_names_the_failing_record(tmp_path, edit, error):
    out = edited_file(tmp_path, edit)
    with pytest.raises(error, match="^record 300: ") as raised:
        read_records(out)
    with pytest.raises(Exception) as per_record:
        per_record_read(out)
    assert raised.type is per_record.type


def drop_column(label):
    def edit(rows):
        col = rows[0].index(label)
        rows[:] = [row[:col] + row[col + 1 :] for row in rows]

    return edit


def duplicate_column(label):
    def edit(rows):
        col = rows[0].index(label)
        for row in rows:
            row.append(row[col])

    return edit


@pytest.mark.parametrize(
    "edit, names",
    [
        (drop_column("im_2_3"), "'im_2_3'"),
        (lambda rows: rows[301].pop(), "line 302"),
        # 8 re_ labels would otherwise read as the 2x2 corner of each record
        (drop_column("re_3_3"), r"8 distinct re_j_k columns in .*edited\.csv"),
        (duplicate_column("re_1_1"), r"'re_1_1' present 2 times in .*edited\.csv"),
    ],
    ids=["header-missing-label", "short-row", "header-drops-re-3-3", "header-duplicate-re-1-1"],
)
def test_read_records_rejects_malformed_csv(tmp_path, edit, names):
    with pytest.raises(BuresError, match=names) as raised:
        read_records(edited_file(tmp_path, edit))
    assert raised.type is UsageError


def _line(k, change):
    """Edit of line ``k`` (0 is the header) of a CSV's text lines: change(line) gives the new line."""

    def edit(lines):
        lines[k] = change(lines[k])

    return edit


def _cell(k, column, change):
    """Edit of one cell of line ``k``: change(cell text) gives the new text."""

    def edit(lines):
        cells = lines[k].split(",")
        cells[column] = change(cells[column])
        lines[k] = ",".join(cells)

    return edit


def _columns_around_numbers(labels, cells):
    """Edit adding columns ``labels[:2]`` after the index and ``labels[2]`` last; data rows get ``cells``."""

    def edit(lines):
        for k, line in enumerate(lines):
            method, index, numbers = line.split(",", 2)
            extra = labels if k == 0 else cells
            lines[k] = ",".join([method, index, extra[0], extra[1], numbers, extra[2]])

    return edit


@pytest.mark.parametrize(
    "edit, outcome",
    [
        (_cell(1, 0, lambda m: f'"{m}"'), None),
        (_cell(1, 3, lambda x: f'"{x}"'), None),
        (lambda lines: lines.__setitem__(slice(None), [line + "\r" for line in lines]), None),
        (lambda lines: lines.insert(2, "   "), (UsageError, "line 3: 1 fields")),
        (lambda lines: lines.insert(2, "# a comment"), (UsageError, "line 3: 1 fields")),
        (_line(1, lambda line: line + ",extra"), None),
        (_cell(1, 1, lambda i: "1_000"), None),
        (_cell(1, 1, lambda i: str(2**70)), None),
        (_cell(1, 1, lambda i: " 7"), None),
        (_cell(1, 3, lambda x: "0.0_1"), (NotHermitianError, "record 0: ")),
        (_cell(1, 3, lambda x: "\t" + x), None),
        (_cell(1, 0, lambda m: m + " "), (ValueError, "record 0: unknown sampling method")),
        (_cell(1, 0, lambda m: " " + m), (ValueError, "record 0: unknown sampling method")),
        (_cell(1, 0, lambda m: m + m), (ValueError, "record 0: unknown sampling method")),
        (_cell(1, 0, lambda m: ""), (ValueError, "record 0: unknown sampling method")),
        # numpy drops trailing NULs from a string cell; csv keeps them
        (_cell(1, 0, lambda m: m + "\0"), (ValueError, "record 0: unknown sampling method")),
        # a quoted comma in an unused column: split at every comma, the record's numbers
        # would each move one column on, and all still parse
        (_columns_around_numbers(("note", "pad", "tail"), ('"a,b"', "0.5", "0.5")), None),
        # an unused field over csv.field_size_limit()
        (_line(2, lambda line: line + "," + "1" * 200_000), (UsageError, "line 3: field larger than field limit")),
        # a long unused field within the limit: the C pass may take it, and reads it as csv does
        (_line(2, lambda line: line + "," + "1" * 100_000), None),
        # one character over the limit, from early in the first chunk across the next two chunk boundaries
        (_line(2, lambda line: line + "," + "1" * (csv.field_size_limit() + 1)),
         (UsageError, "line 3: field larger than field limit")),
        (lambda lines: "\n".join(lines), None),
        (lambda lines: "".join(line + "\r" for line in lines), None),
    ],
    ids=[
        "quoted-method", "quoted-number", "crlf", "whitespace-line", "comment-line", "extra-trailing-field",
        "index-1_000", "index-2**70", "index-space-7", "float-0.0_1", "tab-before-number", "method-trailing-space",
        "method-leading-space", "method-cosetcoset", "method-empty", "method-trailing-nul",
        "quoted-comma-unused-column",
        "overlong-extra-field", "long-extra-field", "field-limit-plus-1-across-chunks", "no-final-newline",
        "cr-line-ends",
    ],
)
def test_csv_c_pass_and_row_parser_agree(tmp_path, monkeypatch, edit, outcome):
    out = quirk_file(tmp_path, edit)
    got, got_column = outcome_of(read_records, out), outcome_of(read_rho_33, out)
    monkeypatch.setattr(cli, "_c_pass", no_c_pass)  # every CSV now goes to the row parser
    want, want_column = outcome_of(read_records, out), outcome_of(read_rho_33, out)
    if outcome is None:
        assert_records_identical(got, want)
    else:
        error, message = outcome
        assert type(got) is type(want) is error
        assert str(got) == str(want)
        assert message in str(got)
    assert_same_column_outcome(got_column, want_column)


def quirk_file(tmp_path, edit):
    """A 4-record N=3 CSV whose text lines (header first) went through ``edit``.

    The lines are written back each ending in a newline, unless ``edit`` returns the file's text itself.
    """
    out = tmp_path / "quirk.csv"
    write_records(batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 4, 3), out, "csv")
    lines = out.read_text().splitlines()
    text = edit(lines)
    out.write_bytes((("\n".join(lines) + "\n") if text is None else text).encode())
    return out


def outcome_of(read, path):
    try:
        return read(path)
    except Exception as exc:
        return exc


def read_rho_33(path):
    return read_column(path, "rho_33")


def no_c_pass(handle, dtype, columns):
    return None


def assert_same_column_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert same_bits(got, want)
    else:
        assert type(got) is type(want)
        assert str(got) == str(want)


def _last_column_first(lines):
    lines[:] = [",".join(line.rsplit(",", 1)[::-1]) for line in lines]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_last_column_first, None),
        (_cell(2, -1, lambda x: "nan"), "non-finite value 'nan'"),
        (_cell(2, -1, lambda x: "inf"), "non-finite value 'inf'"),
        (_cell(2, -1, lambda x: "-Infinity"), "non-finite value '-Infinity'"),
        (_cell(2, -1, lambda x: "1e999"), "non-finite value '1e999'"),
        (_cell(2, -1, lambda x: ""), "non-numeric value ''"),
        (lambda lines: lines.__delitem__(slice(1, None)), "no data rows"),
        (in_turn(_last_column_first, lambda lines: lines.insert(2, "   ")), "non-numeric value '   '"),
        # the row parser reads the first bad cell, wherever the C pass stopped
        (in_turn(_cell(3, -1, lambda x: "abc"), _cell(2, -1, lambda x: "nan")), "non-finite value 'nan'"),
    ],
    ids=[
        "column-first", "nan", "inf", "minus-infinity", "1e999", "empty-cell", "header-only",
        "whitespace-line-column-first", "nan-before-non-numeric",
    ],
)
def test_read_column_c_pass_and_row_parser_agree(tmp_path, monkeypatch, edit, message):
    out = quirk_file(tmp_path, edit)
    got = outcome_of(read_rho_33, out)
    monkeypatch.setattr(cli, "_c_pass", no_c_pass)
    want = outcome_of(read_rho_33, out)
    assert_same_column_outcome(got, want)
    if message is None:
        assert isinstance(got, np.ndarray) and len(got) == 4
    else:
        assert type(got) is UsageError and message in str(got)


@pytest.mark.parametrize(
    "values, count",
    # 1,820 N=3 or 163 N=10 records per parse block
    [([0.5, 0.375, 0.125], 3700), ([0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0, 0.0, 0.0], 400)],
    ids=["n3-three-blocks", "n10-zero-block"],
)
def test_written_csv_takes_the_c_pass(tmp_path, monkeypatch, values, count):
    out = tmp_path / "written.csv"
    write_records(batch_sample("haar", Spectrum(values), count, 9), out, "csv")

    def no_row_parser(reader, header, columns, path):
        raise AssertionError("a written CSV went to the row parser")

    def no_picked_cells(reader, header, columns, path):
        raise AssertionError("a written CSV column went to the row parser")

    monkeypatch.setattr(cli, "_csv_rows", no_row_parser)
    monkeypatch.setattr(cli, "_picked_cells", no_picked_cells)
    records = read_records(out)
    assert len(records) == count
    for obj in (records[0], records[0].rho, records[0].rho.spectrum):
        assert not hasattr(obj, "__dict__"), type(obj)
    for label in records[0].observables:
        assert same_bits(read_column(out, label), np.array([r.observables[label] for r in records]))


@pytest.mark.parametrize("index", ["1.5", "true", '"7"', "null"])
def test_read_records_rejects_a_jsonl_index_that_is_not_an_integer(tmp_path, index):
    out = tmp_path / "index.jsonl"
    write_records(batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 3, 2), out, "jsonl")
    lines = out.read_text().splitlines()
    assert '"index":1,' in lines[1]
    lines[1] = lines[1].replace('"index":1,', f'"index":{index},')
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match="line 2"):
        read_records(out)


def _edited_lines(fmt, edit):
    """A 600-record N=3 file whose lines, as bytes, went through ``edit``."""

    def make(tmp_path):
        out = tmp_path / f"edited.{fmt}"
        write_records(batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 600, 2), out, fmt)
        lines = out.read_bytes().splitlines(keepends=True)
        edit(lines)
        out.write_bytes(b"".join(lines))
        return out

    return make


def _not_utf8(line):
    # 0xff never occurs in UTF-8
    def edit(lines):
        lines[line] = lines[line][:5] + b"\xff" + lines[line][5:]

    return edit


def _deep_second_line(lines):
    lines[1] = DEEP_JSONL.encode()


def _long_csv_field(lines):
    # longer than csv.field_size_limit(), 131,072 characters
    lines[300] = b"coset,299," + b"1" * 200_000 + b"\n"


def _jsonl_int_5000_digits(lines):
    # beyond Python's 4,300-digit int-string limit, which json raises as ValueError
    lines[1] = b'{"index": 1' + b"0" * 5000 + b"}\n"


@pytest.mark.parametrize(
    "make_file, names",
    [
        (_edited_lines("csv", _not_utf8(0)), "edited.csv: not UTF-8 text"),
        (_edited_lines("csv", _not_utf8(-1)), "edited.csv: not UTF-8 text"),
        (_edited_lines("jsonl", _not_utf8(0)), "edited.jsonl: not UTF-8 text"),
        (_edited_lines("jsonl", _not_utf8(-1)), "edited.jsonl: not UTF-8 text"),
        (_edited_lines("jsonl", _deep_second_line), "edited.jsonl, line 2: JSON nested too deeply"),
        (_edited_lines("csv", _long_csv_field), "edited.csv, line 301: field larger than field limit"),
        (_edited_lines("jsonl", _jsonl_int_5000_digits), "edited.jsonl, line 2: "),
    ],
    ids=[
        "csv-first-line", "csv-last-line", "jsonl-first-line", "jsonl-last-line", "jsonl-nested-10000-deep",
        "csv-overlong-field", "jsonl-int-5000-digits",
    ],
)
def test_readers_reject_undecodable_files(tmp_path, make_file, names):
    path = make_file(tmp_path)
    for read in (read_records, lambda path: read_column(path, "rho_11")):
        with pytest.raises(UsageError, match=names):
            read(path)


@pytest.mark.parametrize("fmt, name", [("csv", "named.jsonl"), ("jsonl", "named.csv")])
def test_record_files_are_recognised_by_content(tmp_path, fmt, name):
    batch = batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 300, 6)
    right, wrong = tmp_path / f"right.{fmt}", tmp_path / name
    write_records(batch, right, fmt)
    write_records(batch, wrong, fmt)
    assert_records_identical(read_records(wrong), read_records(right))
    assert same_bits(read_column(wrong, "rho_22"), read_column(right, "rho_22"))
    assert main(["compare", str(wrong), str(right), "--column", "rho_22"]) == 0


def _quote_first_method(lines):
    lines[1] = lines[1].replace(b"haar", b'"haar"', 1)


@pytest.mark.parametrize(
    "fmt, edit",
    [("csv", None), ("jsonl", None), ("csv", _quote_first_method)],
    ids=["csv", "jsonl", "csv-row-parser"],
)
def test_readers_skip_a_byte_order_mark(tmp_path, fmt, edit):
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    write_records(batch_sample("haar", Spectrum([0.5, 0.375, 0.125]), 300, 7), plain, fmt)
    lines = plain.read_bytes().splitlines(keepends=True)
    if edit is not None:  # a quoted cell: both CSV readers take the row parser, from the start again
        edit(lines)
        assert lines[1].startswith(b'"haar"')
    marked.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
    assert_records_identical(read_records(marked), read_records(plain))
    for label in ("rho_11", "rho_22", "rho_33"):
        assert same_bits(read_column(marked, label), read_column(plain, label))


def test_read_records_and_read_column_reject_malformed_jsonl(tmp_path):
    out = tmp_path / "bad.jsonl"
    write_records(batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 3, 2), out, "jsonl")
    lines = out.read_text().splitlines()
    lines[1] = "{not json"
    out.write_text("\n".join(lines) + "\n")
    for read in (read_records, lambda path: read_column(path, "rho_11")):
        with pytest.raises(UsageError, match="line 2"):
            read(out)


def _jsonl_cell(edit):
    """Edit of the second record of a JSONL file: edit(record object) changes one cell."""

    def make(tmp_path):
        out = tmp_path / "typed.jsonl"
        write_records(batch_sample("coset", Spectrum([0.5, 0.375, 0.125]), 3, 2), out, "jsonl")
        lines = out.read_text().splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record)
        out.write_text("\n".join(lines) + "\n")
        return out

    return make


@pytest.mark.parametrize(
    "make_file",
    [
        _jsonl_cell(lambda r: r["re"][0].__setitem__(0, str(r["re"][0][0]))),
        _jsonl_cell(lambda r: r["im"][1].__setitem__(0, True)),
        _jsonl_cell(lambda r: r["observables"].__setitem__("rho_22", "0")),
        _jsonl_cell(lambda r: r["observables"].__setitem__("rho_11", True)),
        _jsonl_cell(lambda r: r["re"][2].__setitem__(2, 10**400)),
        _jsonl_cell(lambda r: r.__setitem__("observables", 5)),
        _jsonl_cell(lambda r: r.__setitem__("observables", None)),
        _jsonl_cell(lambda r: r.__setitem__("observables", True)),
    ],
    ids=["re-string", "im-bool", "rho-string", "rho-bool", "re-huge-int", "observables-5", "observables-null",
         "observables-true"],
)
def test_read_records_takes_only_json_numbers(tmp_path, make_file):
    # np.array and float() would read "0.5" as 0.5 and true as 1.0
    with pytest.raises(UsageError, match="line 2"):
        read_records(make_file(tmp_path))


# ------------------------------------------------------------------- checks


def parse_max_deviation(report):
    for line in report.splitlines():
        if "max |det J - 1|" in line:
            return float(line.partition("max |det J - 1| = ")[2].partition(",")[0])
    raise AssertionError(f"no deviation line in {report!r}")


def test_check_jacobian_passes(capsys):
    assert main(["check-jacobian", "-n", "2", "--points", "100", "--seed", "3"]) == 0
    report = capsys.readouterr().out
    assert "origin: |det J - 1| = 0" in report
    assert "PASS" in report
    assert parse_max_deviation(report) < 1e-5


def test_check_jacobian_top_layer_of_five(capsys):
    assert main(["check-jacobian", "-n", "4", "--points", "100", "--seed", "3"]) == 0
    report = capsys.readouterr().out
    assert "PASS" in report
    assert parse_max_deviation(report) < 1e-4


def test_check_jacobian_rejects_bad_step():
    assert main(["check-jacobian", "--step", "0.01"]) == 2


def test_check_euler_passes(capsys):
    assert main(["check-euler"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_euler_too_few_nodes_fails(capsys):
    # three nodes leave a relative error of about 1.4e-3, far above EULER_BOUND
    assert main(["check-euler", "--nodes", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


# ------------------------------------------------------------------ density


def test_density_two_levels(capsys):
    assert main(["density", "--spectrum", "0.75,0.25"]) == 0
    value = float(capsys.readouterr().out.partition("=")[2])
    assert value == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_density_vanishes_near_degeneracy(capsys):
    assert main(["density", "--spectrum", "0.500000001,0.499999999"]) == 0
    value = float(capsys.readouterr().out.partition("=")[2])
    assert 0.0 < value < 1e-15


def test_density_three_levels_matches_library(capsys, spectrum3):
    assert main(["density", "--spectrum", SPEC3]) == 0
    value = float(capsys.readouterr().out.partition("=")[2])
    assert value == pytest.approx(eigenvalue_density(spectrum3), rel=1e-12)


def test_density_rejects_degenerate_spectrum(capsys):
    # a repeated eigenvalue has density 0; only a zero eigenvalue is rejected
    assert main(["density", "--spectrum", "0.5,0.5"]) == 0
    assert float(capsys.readouterr().out.partition("=")[2]) == 0.0
    assert main(["density", "--spectrum", "0.75,0.25,0"]) == 2
    assert "zero eigenvalue" in capsys.readouterr().err
