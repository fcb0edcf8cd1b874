import json
import math

import numpy as np
import pytest

from bures.coset import FlagChart
from bures.measures import DensityMatrix, Spectrum
from bures.records import SampleRecord
from bures.sampling import coset_ladder, sample_ball, sample_haar_unitary, state_from_chart


def one_sample_ks(values, cdf) -> float:
    """Exact one-sample KS statistic against a callable CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    f = np.asarray([cdf(v) for v in x])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


# ------------------------------------------------------- per-record oracle
# One state per call, from the shipped primitives. ``batch_sample`` draws the
# same numbers from stream (seed, i) for record i, block by block.


def sample_flag_chart(spectrum, rng) -> FlagChart:
    """Independent uniform ball points for each layer of the spectrum's ladder."""
    return FlagChart(tuple(sample_ball(dim, rng) for dim in coset_ladder(spectrum)))


def sample_state_haar(spectrum, rng) -> SampleRecord:
    """Fixed-spectrum state conjugated by a Haar unitary."""
    unitary = sample_haar_unitary(spectrum.n_levels, rng)
    rho = DensityMatrix.from_eigensystem(spectrum, unitary[:, ::-1])
    return SampleRecord("haar", rng.stream_index, rho)


def sample_state_coset(spectrum, rng) -> SampleRecord:
    """Fixed-spectrum state conjugated by a layered coset unitary.

    Layer points are uniform on their balls, which by the unit-Jacobian
    property of the coset coordinates reproduces the unitary part of the
    Bures measure for the given spectrum.
    """
    rho = state_from_chart(spectrum, sample_flag_chart(spectrum, rng))
    return SampleRecord("coset", rng.stream_index, rho)


@pytest.fixture
def spectrum3():
    return Spectrum([0.5, 0.375, 0.125])


@pytest.fixture
def spectrum4():
    return Spectrum([0.4, 0.3, 0.2, 0.1])


@pytest.fixture
def spectrum5():
    return Spectrum([0.35, 0.25, 0.2, 0.15, 0.05])


def jsonl_column(path, column: str):
    """``read_column``'s outcome on a JSONL file, from ``json.loads`` of each whole line.

    An array of the column's values, or the text of the UsageError
    ``read_column`` documents. As there, a non-integer number stays its text
    in bytes until its cell is converted.
    """
    with open(path, encoding="utf-8-sig") as handle:
        lines = list(handle)
    cells = []
    for line, text in enumerate(lines, 1):
        if not text.strip():
            continue
        try:
            payload = json.loads(text, parse_float=str.encode)
        except json.JSONDecodeError as exc:
            return f"{path}, line {line}: malformed JSON ({exc.msg})"
        except RecursionError:
            return f"{path}, line {line}: JSON nested too deeply"
        except ValueError as exc:
            return f"{path}, line {line}: {exc}"
        if type(payload) is not dict:
            return f"{path}, line {line}: not a JSON object"
        observables = payload.get("observables")
        if type(observables) is not dict or column not in observables:
            return f"column {column!r} not present in {path}"
        if type(observables[column]) is str:
            return f"non-numeric value {observables[column]!r} in column {column!r} of {path}"
        cells.append(observables[column])
    if not cells:
        return f"no data rows in {path}"
    values = []
    for cell in cells:
        try:
            if type(cell) not in (int, float, bytes):  # true, false, null, an array or an object
                raise TypeError
            value = float(cell)
        except (TypeError, OverflowError):  # a JSON integer may overflow a float
            return f"non-numeric value {cell!r} in column {column!r} of {path}"
        if not math.isfinite(value):
            text = cell.decode() if type(cell) is bytes else cell
            return f"non-finite value {text!r} in column {column!r} of {path}"
        values.append(value)
    return np.array(values)
