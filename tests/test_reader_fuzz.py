"""Seeded mutation fuzzing of the record readers.

Mutants of small valid record files go through ``read_records`` and through
``bures compare``. Whatever the mutant, the reader returns or raises one of
the exception types README documents, ``compare`` exits with a documented
code and a one-line error, and no numpy ``RuntimeWarning`` escapes. A JSONL
mutant's compared column is the one ``json.loads`` of each line gives, or
both refuse the file.
"""

import random
import re
import warnings

import numpy as np
import pytest

from bures.cli import UsageError, main, read_column, read_records, write_records
from bures.errors import ConvergenceError, InvalidStateError, NotHermitianError, ShapeError
from bures.measures import Spectrum
from bures.sampling import batch_sample

from conftest import jsonl_column

#: Fixed before the first run, and not to be tuned to what the mutants find.
SEED = 16
MUTANTS_PER_FILE = 100

#: What ``read_records`` may raise on a malformed or invalid file (README, "Library sketch").
DOCUMENTED = (UsageError, ShapeError, NotHermitianError, InvalidStateError, ConvergenceError)

#: The two record checks that raise a plain ValueError, as SampleRecord and the per-record reader do.
PLAIN_VALUE_ERROR = re.compile(r"record \d+: (unknown sampling method|rho_jj observables inconsistent with the state)")

TOKENS = [
    "inf", "-inf", "nan", "1e308", "-1e308", "1e200", "1e400", "\x00", '"', "'", "{", "}", "[", "]", ",",
    ":", "\n", "\r", " ", "1_0", "9" * 400, "\ufeff", "e", "-", ".", "true", "null", "haar", "coset",
]

NUMBERS = [
    "1e308", "-1e308", "1e200", "-1e200", "1e400", "0", "-0.0", "nan", "inf", "1e-300", "2", "-1", "0.5",
    "1_0", "9" * 400, '"0.5"', "true", "null", "0x10",
]

#: Line breaks that may lead a file, before its header or first record.
BLANK_LEADS = ["\n", "\r\n", "\r\n\r\n", "\r", "\n\n\n"]

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mutate(text: str, rng: random.Random) -> bytes:
    """``text`` after one to three random edits, as bytes (one edit may break the UTF-8)."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8)
        at = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:at] + rng.choice(TOKENS) + text[at:]
        elif op == 1:
            numbers = list(NUMBER.finditer(text))
            if numbers:
                hit = rng.choice(numbers)
                text = text[: hit.start()] + rng.choice(NUMBERS) + text[hit.end() :]
        elif op == 2:
            text = text[:at] + text[at + rng.randint(1, 40) :]
        elif op == 3:
            stop = at + rng.randint(2, 40)
            text = text[:at] + text[at:stop][::-1] + text[stop:]
        elif op == 4:
            text = text[:at]
        elif op == 7:
            text = rng.choice(BLANK_LEADS) + text
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                k = rng.randrange(len(lines))
                if op == 5:
                    lines.insert(rng.randrange(len(lines) + 1), lines[k])
                else:
                    j = rng.randrange(len(lines))
                    lines[k], lines[j] = lines[j], lines[k]
                text = "".join(lines)
    data = text.encode()
    if rng.random() < 0.05:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def _read_as_jsonl(data: bytes) -> bool:
    """Whether the readers take ``data`` as a JSONL file: UTF-8 text whose first non-blank character is "{"."""
    try:
        return data.decode("utf-8-sig").lstrip().startswith("{")
    except UnicodeDecodeError:
        return False


@pytest.mark.parametrize(
    "values, method, count, fmt",
    [
        ((0.5, 0.375, 0.125), "coset", 8, "csv"),
        ((0.5, 0.375, 0.125), "haar", 8, "jsonl"),
        # a 3-fold zero block: the reduced ladder B^6 .. B^18
        ((0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0, 0.0, 0.0), "coset", 4, "csv"),
    ],
    ids=["n3-csv", "n3-jsonl", "n10-zero-block-csv"],
)
def test_mutated_record_files_fail_cleanly(tmp_path, capsys, values, method, count, fmt):
    base = tmp_path / f"base.{fmt}"
    write_records(batch_sample(method, Spectrum(values), count, 3), base, fmt)
    text = base.read_text()
    rng = random.Random(f"{SEED}-{fmt}-{len(values)}")
    mutant = tmp_path / f"mutant.{fmt}"
    pairs = tmp_path / "pairs.csv"
    failures = []
    for k in range(MUTANTS_PER_FILE):
        data = _mutate(text, rng)
        mutant.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                read_records(mutant)
            except DOCUMENTED:
                pass
            except ValueError as exc:
                if type(exc) is not ValueError or not PLAIN_VALUE_ERROR.fullmatch(str(exc)):
                    failures.append((k, "read_records", repr(exc), data))
            except Exception as exc:
                failures.append((k, "read_records", repr(exc), data))
            capsys.readouterr()
            try:
                code = main(["compare", str(mutant), str(base), "--column", "rho_11", "--pairs-out", str(pairs)])
            except Exception as exc:
                failures.append((k, "compare", repr(exc), data))
                continue
        out, err = capsys.readouterr()
        if fmt == "jsonl" and _read_as_jsonl(data):
            want = jsonl_column(mutant, "rho_11")
            try:
                got = read_column(mutant, "rho_11")
            except UsageError as exc:
                got = exc
            if isinstance(want, str) != isinstance(got, UsageError) or (
                isinstance(want, np.ndarray) and got.tobytes() != want.tobytes()
            ):
                failures.append((k, "read_column", f"{got!r}, json.loads gives {want!r}", data))
        if code not in (0, 1, 2, 3):
            failures.append((k, "compare", f"exit {code}", data))
        elif code in (2, 3) and (out or len(err.splitlines()) != 1):
            failures.append((k, "compare", f"exit {code}: stdout {out!r}, stderr {err!r}", data))
    assert not failures, "\n".join(f"mutant {k}, {where}: {what}\n{data[:300]!r}" for k, where, what, data in failures[:5])
