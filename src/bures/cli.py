"""Command-line front end: sampling runs, volume tables, and numeric checks.

Exit codes: 0 success (and passing checks), 1 failed statistical or numeric
check, 2 invalid input, 3 I/O failure.
"""

import argparse
import collections
import contextlib
import csv
import itertools
import json
import math
import operator
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .coset import BallPoint, coset_jacobian_det, euler_coset_volume
from .errors import BuresError
from .measures import (
    Spectrum,
    _prechecked,
    ball_volume,
    density_matrices,
    eigenvalue_density,
    flag_volume,
    flag_volume_sz,
)
from .sampling import (
    METHODS,
    RngStream,
    SampleRecord,
    StateBatch,
    batch_sample,
    block_records,
    sample_interior_point,
)
from .stats import cumulative_pairs, ks_two_sample

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: Maximum |det J - 1| accepted by check-jacobian.
JACOBIAN_BOUND = 1e-4

#: Maximum relative quadrature error accepted by check-euler.
EULER_BOUND = 1e-9

#: Largest difference read_records accepts between a file's rho_jj cell and
#: the matrix diagonal, the two copies a record file holds. The test is
#: ``<= OBSERVABLE_TOL``, so a NaN cell is rejected too.
OBSERVABLE_TOL = 1e-12


class UsageError(BuresError):
    """Invalid command-line input or a malformed input file (maps to exit code 2)."""


def _parse_spectrum(text: str) -> Spectrum:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse spectrum {text!r}: {exc}") from exc
    if not values:
        raise UsageError("spectrum must contain at least one eigenvalue")
    if any(v < 0 for v in values):
        raise UsageError("spectrum eigenvalues must be nonnegative")
    total = sum(values)
    if abs(total - 1.0) >= 1e-9:
        raise UsageError(f"spectrum sums to {total:.12g}; must be within 1e-9 of 1")
    try:
        return Spectrum(np.array(values) / total)
    except BuresError as exc:
        raise UsageError(str(exc)) from exc


def _check_seed(seed: int) -> int:
    # RngStream keys on the seed modulo 2^64; a seed outside that range would
    # silently alias one inside it
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed {seed} outside [0, 2^64)")
    return seed


def _diag_labels(n: int) -> list:
    return [f"rho_{j}{j}" for j in range(1, n + 1)]


def _entry_labels(prefix: str, n: int) -> list:
    return [f"{prefix}_{j}_{k}" for j in range(1, n + 1) for k in range(1, n + 1)]


def _csv_header(n: int) -> list:
    return ["method", "index"] + _entry_labels("re", n) + _entry_labels("im", n) + _diag_labels(n)


#: Most records write_records formats as one text block. Below it the
#: sampler's byte budget sets the block (``block_records``); the cap bounds the
#: strings a block holds at once (about 2N^2 per record), so that writing stays
#: below the peak memory that reading a record file sets.
WRITE_BLOCK_CAP = 64


def _text_blocks(batch: StateBatch, fmt):
    """(stream indices, entry texts (B, 2, N, N), rho_jj texts (B, N)) per text block of ``batch``.

    Entry texts hold Re then Im of each state as ``fmt`` formats them. The
    states of a StateBatch are finite and Hermitian bit for bit, so |Re| and
    |Im| of an entry equal those of its mirror: each magnitude on and above
    the diagonal is formatted once and every entry takes its own sign. The
    rho_jj texts are those of the Re diagonal.
    """
    n = batch.n_levels
    upper = np.triu_indices(n)
    size = len(upper[0])
    slot = np.empty((n, n), dtype=np.intp)
    slot[upper] = slot[upper[::-1]] = np.arange(size)
    step = min(WRITE_BLOCK_CAP, block_records(n))
    for start in range(0, len(batch), step):
        matrices = batch.matrices[start : start + step]
        parts = np.stack((matrices.real, matrices.imag), axis=1)
        mags = np.abs(parts[:, :, upper[0], upper[1]])
        plain = np.array(list(map(fmt, mags.ravel().tolist())), dtype=object)
        signed = np.concatenate((plain, np.add("-", plain)))
        first = np.arange(2 * len(matrices)).reshape(-1, 2, 1, 1) * size
        texts = signed[first + slot + np.signbit(parts) * plain.size]
        yield batch.indices[start : start + step], texts, np.diagonal(texts[:, 0], axis1=1, axis2=2)


#: Float text of the CSV format.
_csv_float = "%.17g".__mod__


def write_records_csv(batch: StateBatch, path) -> None:
    """One header line, then per record: method, index, Re rho, Im rho (row-major), rho_jj."""
    head = batch.method + ","
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_csv_header(batch.n_levels)) + "\n")
        for indices, texts, diag in _text_blocks(batch, _csv_float):
            rows = np.concatenate((texts.reshape(len(texts), -1), diag), axis=1).tolist()
            handle.write("".join(f"{head}{index},{','.join(row)}\n" for index, row in zip(indices, rows)))


def write_records_jsonl(batch: StateBatch, path) -> None:
    """One JSON object per record: method, index, re and im as nested rows, rho_jj observables."""
    observables = ",".join(f'"{label}":%s' for label in _diag_labels(batch.n_levels))
    line = '{"method":' + json.dumps(batch.method) + ',"index":%d,"re":[[%s]],"im":[[%s]],"observables":{'
    line += observables + "}}\n"
    with open(path, "w") as handle:
        for indices, texts, diag in _text_blocks(batch, float.__repr__):
            handle.write("".join(
                line % (index, "],[".join(map(",".join, re)), "],[".join(map(",".join, im)), *rho)
                for index, (re, im), rho in zip(indices, texts.tolist(), diag.tolist())
            ))


def write_records(batch: StateBatch, path, fmt: str) -> None:
    """Write ``batch`` as a CSV or JSONL record file.

    The bytes are those of formatting each record on its own: json.dumps of
    the record object with separators (",", ":") for JSONL, a %.17g cell per
    float for CSV. Text is built a block of records at a time, formatting each
    distinct entry magnitude of the Hermitian states once. ``StateBatch``
    admits only finite, exactly Hermitian states, so every file written here
    passes ``read_records``' finiteness and Hermiticity checks.
    """
    if fmt == "csv":
        write_records_csv(batch, path)
    elif fmt == "jsonl":
        write_records_jsonl(batch, path)
    else:
        raise UsageError(f"unknown format {fmt!r}")


def read_records(path) -> list:
    """Load a CSV or JSONL record file back into SampleRecord objects.

    The file becomes arrays a block of ``block_records(N)`` records at a
    time, as the sampler makes them, each checked by ``_checked_block``, which
    names the first failing record; the records equal those the per-record
    constructors build, bit for bit. A malformed file raises UsageError naming
    the file, and the line where it is known.
    """
    records = []
    with _record_file(path) as (handle, jsonl, plain):
        blocks = _row_blocks(_jsonl_rows(handle, path)) if jsonl else _csv_blocks(handle, plain, path)
        for methods, indices, numbers in blocks:
            records += _checked_block(methods, indices, numbers, len(records))
    return records


def _levels(width: int) -> int:
    """N of a record row holding 2N^2 + N numbers: Re rho, Im rho, rho_jj."""
    return (math.isqrt(8 * width + 1) - 1) // 4


def _checked_block(methods: list, indices: list, numbers: np.ndarray, start: int) -> list:
    """SampleRecords of a block, numbered from ``start``.

    ``numbers`` holds one row per record: Re rho and Im rho (row-major), then
    the file's rho_jj cells. One vectorized pass runs the checks of
    ``DensityMatrix.from_matrix`` and ``SampleRecord``, then the file's own:
    each rho_jj cell is within OBSERVABLE_TOL of the matrix diagonal, from
    which the records derive it.
    """
    n = _levels(numbers.shape[1])
    nn = n * n
    shape = (len(numbers), n, n)
    # an infinite cell makes NaNs here (0 * inf, inf - inf), and its row fails the finiteness check first
    with np.errstate(invalid="ignore"):
        # the bits of re + 1j * im, built in one stack
        matrices = 1j * numbers[:, nn : 2 * nn].reshape(shape)
        matrices += numbers[:, :nn].reshape(shape)
        diagonals = np.diagonal(matrices, axis1=1, axis2=2).real
        off = ~(np.abs(numbers[:, 2 * nn :] - diagonals) <= OBSERVABLE_TOL).all(axis=1)
    after = [
        (np.array([m not in METHODS for m in methods], dtype=bool), ValueError, "unknown sampling method"),
        (off, ValueError, "rho_jj observables inconsistent with the state"),
    ]
    rhos = density_matrices(matrices, start, after)
    return _prechecked(SampleRecord, method=methods, index=indices, rho=rhos)


def _row_blocks(rows):
    """(methods, indices, numbers array) per block of parsed (method, index, numbers) rows.

    Every block's numbers are one buffer, refilled for the next block, so a
    block is used up before the next is drawn. A new array per block would
    be freed every block, which raises glibc's mmap threshold and lets the
    heap fragment: four reads of two 2,000-record N=10 JSONL files then
    peaked about 0.5 MB higher.
    """
    rows = iter(rows)
    buffer = None
    for first in rows:
        if buffer is None:
            buffer = np.empty((block_records(_levels(len(first[2]))), len(first[2])))
        methods, indices, numbers = zip(first, *itertools.islice(rows, len(buffer) - 1))
        buffer[: len(numbers)] = numbers
        del numbers  # the parsed rows go before the block is checked
        yield list(methods), list(indices), buffer[: len(methods)]


def _c_pass(handle, dtype, columns):
    """The rest of a plain CSV ``handle`` as one ``np.loadtxt`` table of ``columns``, or None if not taken cleanly.

    A cell ``dtype`` does not take or a warning fails the pass.
    """
    try:
        with warnings.catch_warnings():
            # a warning (no data rows; older numpy reading "7.0" as an int) is a file not taken cleanly
            warnings.simplefilter("error")
            return np.loadtxt(handle, dtype=dtype, delimiter=",", comments=None, usecols=columns, ndmin=1)
    except (ValueError, Warning):
        return None  # the caller's row parser then raises, with no loadtxt context


def _past_header(handle) -> None:
    """Put a plain CSV ``handle`` back where its csv reader stood before a C pass read on."""
    handle.seek(0)
    next(handle)  # with no quote in the file the header is one line, so the reader's line count holds


def _csv_blocks(handle, plain: bool, path):
    """(methods, indices, numbers array) per block of a CSV record file.

    The data rows of a plain file are parsed in one C pass (``_c_pass``),
    whose numbers and integers are Python's ``float`` and ``int`` of the
    texts it accepts. A method cell longer than any method stays unknown,
    however ``loadtxt`` cuts it. Any other file, or one the pass does not
    take cleanly, goes to ``_csv_rows``, which yields the same records or
    raises naming the line.
    """
    reader = csv.reader(handle)
    with _csv_errors(reader, path):
        header = next(reader, None)
    if header is None:
        return
    n = _header_levels(header, path)
    columns = _label_columns(header, _csv_header(n), path)
    width = max(map(len, METHODS)) + 1
    dtype = np.dtype([("method", f"U{width}"), ("index", np.int64), ("numbers", np.float64, (len(columns) - 2,))])
    table = _c_pass(handle, dtype, columns) if plain else None
    if table is None:
        if plain:
            _past_header(handle)
        yield from _row_blocks(_csv_rows(reader, header, columns, path))
        return
    # a known method cell becomes the METHODS string itself, which the records then share
    method_text = {method: method for method in METHODS}.get
    step = block_records(n)
    for start in range(0, len(table), step):
        block = table[start : start + step]
        methods = block["method"].tolist()
        yield list(map(method_text, methods, methods)), block["index"].tolist(), block["numbers"]


@contextlib.contextmanager
def _csv_errors(reader, path):
    """Raise a csv.Error of ``reader`` (a field over the size limit, say) as UsageError naming the line."""
    try:
        yield
    except csv.Error as exc:
        raise UsageError(f"{path}, line {reader.line_num}: {exc}") from exc


def _header_levels(header: list, path) -> int:
    """N of a CSV record header: it must hold N^2 distinct re_j_k labels."""
    count = len({label for label in header if label.startswith("re_")})
    n = math.isqrt(count)
    if n < 1:
        raise UsageError(f"no re_j_k columns in {path}")
    if n * n != count:
        raise UsageError(f"{count} distinct re_j_k columns in {path}, not N^2 for any N")
    return n


def _csv_rows(reader, header: list, columns: list, path):
    """(method, index, numbers) per data row of a CSV ``reader`` past ``header``, read from ``columns``."""
    for line, (method, index, *cells) in _picked_cells(reader, header, columns, path):
        try:
            numbers = list(map(float, cells))
            index = int(index)
        except ValueError as exc:
            raise UsageError(f"{path}, line {line}: {exc}") from exc
        yield method, index, numbers


def _label_columns(header: list, labels: list, path) -> list:
    """Column index of each of ``labels`` in a CSV header; each must appear exactly once."""
    counts = collections.Counter(header)
    for label in labels:
        if counts[label] != 1:
            where = "not present" if counts[label] == 0 else f"present {counts[label]} times"
            raise UsageError(f"column {label!r} {where} in {path}")
    columns = {label: i for i, label in enumerate(header)}
    return [columns[label] for label in labels]


def _picked_cells(reader, header: list, columns: list, path):
    """(line number, cells in ``columns``) per data row of a CSV reader past ``header``.

    ``columns`` come from ``_label_columns``, so column order is free. One
    column gives the bare cell, several a tuple. A row csv cannot parse, or
    one short of a column, raises UsageError naming the line.
    """
    pick = operator.itemgetter(*columns)
    with _csv_errors(reader, path):
        for row in reader:
            if not row:
                continue
            try:
                cells = pick(row)
            except IndexError as exc:
                raise UsageError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, the header has {len(header)}"
                ) from exc
            yield reader.line_num, cells


#: Decodes a JSONL line for read_column: the C scanner still parses all of it,
#: but leaves every non-integer number as the text it sliced out, as bytes, so
#: only the one compared cell is converted (float() on that text, as
#: json.loads does) and a JSON string, left a str, is told from a number.
_decode_deferred = json.JSONDecoder(parse_float=str.encode).decode


def _jsonl_objects(handle, path, decode=json.loads):
    """(line number, object) per non-blank line of a JSONL file, each line through ``decode``."""
    for line, text in enumerate(handle, 1):
        if not text.strip():
            continue
        try:
            payload = decode(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}, line {line}: malformed JSON ({exc.msg})") from exc
        except RecursionError as exc:
            raise UsageError(f"{path}, line {line}: JSON nested too deeply") from exc
        except ValueError as exc:  # an integer over sys.get_int_max_str_digits() digits
            raise UsageError(f"{path}, line {line}: {exc}") from exc
        if not isinstance(payload, dict):
            raise UsageError(f"{path}, line {line}: not a JSON object")
        yield line, payload


def _square(rows, n: int) -> bool:
    """Whether a JSON value is an (n, n) matrix: a list of n lists of n entries."""
    return type(rows) is list and len(rows) == n and all(type(row) is list and len(row) == n for row in rows)


def _jsonl_rows(handle, path):
    """(method, index, numbers) per line of a JSONL record file: Re rho, Im rho (row-major), rho_jj.

    The first record fixes the level count for the file. Every entry and
    observable must be a JSON number, checked by one type pass per record:
    a float conversion would also take a numeric string or a boolean.
    """
    n = labels = None
    chain = itertools.chain.from_iterable
    for line, payload in _jsonl_objects(handle, path):
        try:
            re, im, observables = payload["re"], payload["im"], payload["observables"]
            if type(observables) is not dict:
                raise UsageError(f"{path}, line {line}: observables is not a JSON object")
            if n is None:
                n = len(re) if type(re) is list else 0
                labels = _diag_labels(n)
            if n < 1 or not (_square(re, n) and _square(im, n)):
                raise UsageError(
                    f"{path}, line {line}: want re and im as two ({n}, {n}) matrices, N from the first record"
                )
            cells = [*chain(re), *chain(im), *map(observables.__getitem__, labels)]
            kinds = set(map(type, cells)) - {int, float}
            if kinds:
                names = ", ".join(sorted(kind.__name__ for kind in kinds))
                raise UsageError(f"{path}, line {line}: {names} where a JSON number belongs")
            numbers = np.array(cells, dtype=float)
            index = payload["index"]
            if type(index) is not int:  # a JSON integer: not 1.5, true, "7" or null
                raise UsageError(f"{path}, line {line}: index {index!r} is not an integer")
            method = str(payload["method"])
        except KeyError as exc:
            raise UsageError(f"{path}, line {line}: no {exc} entry") from exc
        except (TypeError, ValueError, OverflowError) as exc:  # a JSON integer may overflow a float
            raise UsageError(f"{path}, line {line}: {exc}") from exc
        yield method, index, numbers


@contextlib.contextmanager
def _record_file(path):
    """(open handle, whether it is JSONL, whether it is a plain CSV) of a record file.

    The format is told by content, not name: JSONL if the first non-blank
    character is "{". A leading byte-order mark is skipped. Text that is not
    UTF-8 raises UsageError naming the file. A CSV is read through first, in
    chunks of half ``csv.field_size_limit()`` characters, at most 65,536. It
    is plain, fit for the C pass, when no chunk holds a quote (csv's quoting)
    or a NUL (numpy cuts it off a string cell) and every full chunk holds a
    comma or a line break: a field csv refuses as too long spans a full chunk.
    """
    size = max(1, min(csv.field_size_limit() // 2, 65536))
    try:
        with open(path, encoding="utf-8-sig") as handle:
            chunks = iter(lambda: handle.read(size), "")
            head = next(filter(str.strip, chunks), "")
            jsonl = head.lstrip().startswith("{")
            # the blank chunks skipped come before the header, which csv reads itself
            plain = not jsonl and all(
                '"' not in chunk and "\0" not in chunk and ("," in chunk or "\n" in chunk or len(chunk) < size)
                for chunk in itertools.chain((head,), chunks)
            )
        # csv needs newline=""; JSONL lines of N=100 records split about 2x
        # faster with universal newlines
        with open(path, encoding="utf-8-sig", newline=None if jsonl else "") as handle:
            yield handle, jsonl, plain
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc


#: The labels read_column takes: rho_jj observables, j from 1.
_OBSERVABLE_LABEL = re.compile(r"rho_([1-9][0-9]*)\1")


def read_column(path, column: str) -> np.ndarray:
    """Extract one rho_jj observable column without validating whole records.

    A plain CSV's column takes ``_c_pass``; the row parser reads any other
    CSV, and one whose pass fails or reads a non-finite value.
    """
    if not _OBSERVABLE_LABEL.fullmatch(column):
        raise UsageError(f"column {column!r} is not a rho_jj observable")
    with _record_file(path) as (handle, jsonl, plain):
        if jsonl:
            objects = _jsonl_objects(handle, path, _decode_deferred)
            cells = [_observable(payload, column, path) for _, payload in objects]
        else:
            reader = csv.reader(handle)
            with _csv_errors(reader, path):
                header = next(reader, None)
            cells = []
            if header is not None:
                columns = _label_columns(header, [column], path)
                values = _c_pass(handle, float, columns) if plain else None
                if values is not None and np.isfinite(values).all():
                    return values
                if plain:
                    _past_header(handle)
                cells = [cell for _, cell in _picked_cells(reader, header, columns, path)]
    if not cells:
        raise UsageError(f"no data rows in {path}")
    return np.array([_cell_value(cell, column, path) for cell in cells])


def _observable(payload: dict, column: str, path):
    try:
        cell = payload["observables"][column]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"column {column!r} not present in {path}") from exc
    if isinstance(cell, str):  # a JSON string, such as "0.25", is no sample
        raise UsageError(f"non-numeric value {cell!r} in column {column!r} of {path}")
    return cell


def _cell_value(cell, column: str, path) -> float:
    """The float of a CSV cell's text or of a JSONL cell, whose non-integer number arrives as its text in bytes."""
    try:
        if isinstance(cell, bool):  # float(True) is 1.0, but a JSON true is no sample
            raise TypeError
        value = float(cell)
    except (TypeError, ValueError, OverflowError) as exc:  # a JSON integer may overflow a float
        raise UsageError(f"non-numeric value {cell!r} in column {column!r} of {path}") from exc
    if not math.isfinite(value):
        text = cell.decode() if isinstance(cell, bytes) else cell
        raise UsageError(f"non-finite value {text!r} in column {column!r} of {path}")
    return value


def cmd_sample(spectrum: Spectrum, method: str, count: int, seed: int, output_path, fmt: str) -> int:
    batch = batch_sample(method, spectrum, count, seed)
    write_records(batch, output_path, fmt)
    print(f"wrote {len(batch)} {method} records to {output_path}")
    return EXIT_OK


def cmd_volume(n: int) -> int:
    out_of_range = UsageError(f"volume tables for {n} levels leave the range of normal doubles")
    try:
        balls = [ball_volume(2 * k) for k in range(1, n)]
        flag, flag_sz = flag_volume(n), flag_volume_sz(n)
    except OverflowError as exc:
        raise out_of_range from exc
    product = math.prod(balls)
    # from N=37 flag_volume is subnormal (about 1e-311); print no such number
    values = balls + [flag, flag_sz, product]
    if not all(sys.float_info.min <= v < math.inf for v in values):
        raise out_of_range
    for k, vol in enumerate(balls, 1):
        print(f"Vol(B^{2 * k}) = {vol:.15g}")
    print(f"flag_volume({n}) = {flag:.15g}")
    print(f"flag_volume_sz({n}) = {flag_sz:.15g}")
    print(f"ratio = {flag_sz / flag:.15g}")
    print(f"ball product = {product:.15g}")
    return EXIT_OK


def cmd_compare(a_path, b_path, column: str, pairs_out=None) -> int:
    a = read_column(a_path, column)
    b = read_column(b_path, column)
    result = ks_two_sample(a, b)
    if pairs_out is None:
        stem_a = Path(a_path).stem
        stem_b = Path(b_path).stem
        pairs_out = Path(a_path).with_name(f"{stem_a}_vs_{stem_b}_pairs.csv")
    # the sidecar is written before any of the report, so an I/O failure prints none of it
    if a.size == b.size:
        pairs = cumulative_pairs(a, b)
        with open(pairs_out, "w", newline="") as handle:
            handle.write("a,b\n" + ("%.17g,%.17g\n" * len(pairs)) % tuple(pairs.ravel().tolist()))
        pairs_line = f"pairs written to {pairs_out}"
    else:
        pairs_line = "pairs skipped (sample sizes differ)"
    print(f"samples: n = {result.n}, m = {result.m}")
    print(f"KS statistic = {result.statistic:.9g}")
    print(f"critical(1%) = {result.critical_001:.9g}")
    print(pairs_line)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"compare: {verdict}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def cmd_check_jacobian(n: int, points: int, step: float, seed: int) -> int:
    if n < 1:
        raise UsageError("n must be at least 1")
    if points < 1:
        raise UsageError("points must be at least 1")
    if not 1e-8 <= step <= 1e-4:
        raise UsageError("step must lie in [1e-8, 1e-4]")
    try:
        origin = BallPoint.zero(2 * n)
    except (MemoryError, ValueError) as exc:  # numpy raises either, by size
        raise UsageError(f"-n {n}: cannot hold a ball point of dimension {2 * n} in memory") from exc
    origin_dev = abs(coset_jacobian_det(origin, step) - 1.0)
    print(f"origin: |det J - 1| = {origin_dev:.3g}")
    rng = RngStream(seed)
    worst = origin_dev
    total = 0.0
    for _ in range(points):
        point = sample_interior_point(2 * n, rng)
        dev = abs(coset_jacobian_det(point, step) - 1.0)
        worst = max(worst, dev)
        total += dev
    print(
        f"n={n}: max |det J - 1| = {worst:.3g}, mean = {total / points:.3g} "
        f"over {points} interior points (step={step:g}, seed={seed})"
    )
    ok = worst < JACOBIAN_BOUND
    print(f"check-jacobian: {'PASS' if ok else 'FAIL'} (bound {JACOBIAN_BOUND:g})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_check_euler(nodes: int = 64) -> int:
    if nodes < 2:
        raise UsageError("need at least 2 quadrature nodes")
    try:
        volume = euler_coset_volume(nodes)
    except (MemoryError, ValueError) as exc:  # numpy raises either, by size
        raise UsageError(f"cannot hold {nodes} quadrature nodes in memory") from exc
    target = ball_volume(4)
    rel = abs(volume - target) / target
    print(f"euler volume ({nodes} nodes) = {volume:.15g}")
    print(f"target Vol(B^4) = {target:.15g}")
    print(f"relative error = {rel:.3g}")
    ok = rel < EULER_BOUND
    print(f"check-euler: {'PASS' if ok else 'FAIL'} (bound {EULER_BOUND:g})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_density(spectrum: Spectrum) -> int:
    print(f"eigenvalue density = {eigenvalue_density(spectrum):.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bures",
        description="Sample fixed-spectrum density matrices and check coset-coordinate identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw states and write them to CSV or JSONL")
    p_sample.add_argument("--spectrum", required=True, help="comma-separated eigenvalues summing to 1")
    p_sample.add_argument("--method", choices=METHODS, required=True)
    p_sample.add_argument("--count", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("-o", "--output", required=True)
    p_sample.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_volume = sub.add_parser("volume", help="print ball and flag volumes for N levels")
    p_volume.add_argument("-n", "--levels", type=int, required=True)

    p_compare = sub.add_parser("compare", help="two-sample KS test between record files")
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")
    p_compare.add_argument("--column", default="rho_33")
    p_compare.add_argument("--pairs-out", default=None)

    p_jac = sub.add_parser("check-jacobian", help="verify unit Jacobian of ball coordinates")
    p_jac.add_argument("-n", type=int, default=2, help="half the ball dimension")
    p_jac.add_argument("--points", type=int, default=100)
    p_jac.add_argument("--step", type=float, default=1e-5)
    p_jac.add_argument("--seed", type=int, default=0)

    p_euler = sub.add_parser("check-euler", help="verify the Euler-angle volume quadrature")
    p_euler.add_argument("--nodes", type=int, default=64)

    p_density = sub.add_parser("density", help="eigenvalue density of the volume element")
    p_density.add_argument("--spectrum", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sample":
            spectrum = _parse_spectrum(args.spectrum)
            return cmd_sample(spectrum, args.method, args.count, _check_seed(args.seed), args.output, args.format)
        if args.command == "volume":
            return cmd_volume(args.levels)
        if args.command == "compare":
            return cmd_compare(args.file_a, args.file_b, args.column, args.pairs_out)
        if args.command == "check-jacobian":
            return cmd_check_jacobian(args.n, args.points, args.step, _check_seed(args.seed))
        if args.command == "check-euler":
            return cmd_check_euler(args.nodes)
        if args.command == "density":
            return cmd_density(_parse_spectrum(args.spectrum))
        raise UsageError(f"unknown command {args.command!r}")
    except BuresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
