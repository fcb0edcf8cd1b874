"""Record files (CSV, JSONL) and compare's QQ sidecar: one block writer, both readers, and one ``_Format`` per format."""

import collections
import contextlib
import csv
import itertools
import json
import math
import operator
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import _floattext
from .errors import UsageError
from .measures import DensityMatrix, Spectrum, density_matrices
from .sampling import BLOCK_BYTES, METHODS, StateBatch, block_records

#: Largest difference read_records accepts between a file's rho_jj cell and
#: the matrix diagonal, the two copies a record file holds. The test is
#: ``<= OBSERVABLE_TOL``, so a NaN cell is rejected too.
OBSERVABLE_TOL = 1e-12

#: Suffixes on which numpy's opener decompresses a file np.loadtxt is given by name.
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

#: The labels read_column takes: rho_jj observables, j from 1.
_OBSERVABLE_LABEL = re.compile(r"rho_([1-9][0-9]*)\1")


def observable_labels(n_levels: int) -> list:
    """The rho_jj observable labels "rho_11", "rho_22", ..., in order."""
    return [f"rho_{j}{j}" for j in range(1, n_levels + 1)]


@dataclass(frozen=True, eq=False, slots=True)
class SampleRecord:
    """One sampled state: its method, its stream index and the state itself.

    Its rho_jj observables are the real diagonal entries of the state, so
    ``observables`` derives them rather than storing a second copy.
    """

    method: str
    index: int
    rho: DensityMatrix

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")

    @property
    def observables(self) -> dict:
        """``observable_labels`` mapped to the real diagonal entries, in label order."""
        return dict(zip(observable_labels(self.rho.n_levels), np.diagonal(self.rho.matrix).real.tolist()))


def _csv_header(n: int) -> list:
    entries = [f"{j}_{k}" for j in range(1, n + 1) for k in range(1, n + 1)]
    return ["method", "index"] + [f"re_{e}" for e in entries] + [f"im_{e}" for e in entries] + observable_labels(n)


#: Most values write_records or compare's QQ sidecar formats as one text
#: block: as many as the texts of BLOCK_BYTES hold (10,922). A block takes
#: whole records (or pairs), at least one.
#: The block's word arrays and temporaries take about 330 bytes per value, so
#: writing stays below the peak that reading the same file sets; in a sweep
#: from 1,024 to 65,536 values, N=3 and N=10 writes were no faster above
#: about 8,000 values and only used more memory.
#: This is a budget of text, not ``block_records(N)``'s budget of states. In
#: blocks of ``block_records(N)`` records, N=100 JSONL writes of 40 records
#: took 0.21 instead of 0.19 s and peaked at 10.7 instead of 3.2 MB
#: (tracemalloc), and N=3 CSV writes of 5,000 records peaked at 5.5 instead
#: of 2.7 MB, no faster (median of 5, one BLAS thread, 2-CPU x86-64 VM).
WRITE_BLOCK_VALUES = BLOCK_BYTES // _floattext.WIDTH

#: Words of one float text.
_TEXT_WORDS = _floattext.WIDTH // 8


def _literal(text: str) -> np.ndarray:
    """``text`` NUL-padded to whole words."""
    raw = text.encode()
    return _floattext.words(np.frombuffer(raw.ljust(-(-len(raw) // 8) * 8, b"\0"), np.uint8))


def _run(entries, text_of, separators: list, codes) -> tuple:
    """A run of fields, each its separator, its sign and its text: (entries, texts, plain, minus).

    ``entries`` index a record's values and field i shows the sign of value
    ``entries[i]`` and text ``text_of[entries[i]]`` of the record's
    magnitudes, after ``separators[codes[i]]``. The prefix words (fields,
    words) hold that separator right-aligned, so that it touches the text
    after it: alone in ``plain``, followed by "-" in ``minus``.
    """
    entries = np.asarray(entries, dtype=np.intp).ravel()
    codes = np.asarray(codes, dtype=np.intp).ravel()
    width = -(-(max(map(len, separators)) + 1) // 8) * 8
    plain = np.array([_literal(sep.rjust(width, "\0")) for sep in separators])
    minus = np.array([_literal((sep + "-").rjust(width, "\0")) for sep in separators])
    return entries, text_of[entries], plain[codes], minus[codes]


def _text_layout(n: int, form, method: str) -> list:
    """The pieces of a record's text in format ``form``: literal words, None for the record index, and ``_run``s.

    Entry (p, j, k) of a record's stack is p * N^2 + j * N + k: Re of rho_jk
    for p = 0, Im for p = 1. The states are Hermitian bit for bit, so |Re|
    and |Im| of an entry equal those of its mirror: a record's magnitudes are
    |Re| then |Im| of the entries on and above the diagonal, row by row, and
    every entry shows the text at its own slot or its mirror's, with its own
    sign. The rho_jj cells repeat the Re diagonal.
    """
    grid = np.arange(2 * n * n).reshape(2, n, n)
    upper = np.triu_indices(n)
    size = len(upper[0])
    slot = np.empty((n, n), dtype=np.intp)
    slot[upper] = slot[upper[::-1]] = np.arange(size)
    text_of = np.concatenate((slot.ravel(), size + slot.ravel()))
    return form.layout(n, method, grid, text_of, np.diagonal(grid[0]))


def _width(piece) -> int:
    """Words of a record that ``piece`` of a layout takes."""
    if piece is None:
        return 2
    if isinstance(piece, np.ndarray):
        return len(piece)
    entries, _, plain, _ = piece
    return len(entries) * (plain.shape[1] + _TEXT_WORDS)


def _block_text(pieces: list, shortest: bool, start: int, magnitudes: np.ndarray, signs: np.ndarray) -> str:
    """The text of one block of records, built as one array of words.

    ``pieces`` lay out one record (see ``_text_layout``); the records are
    ``start`` on. ``magnitudes`` (records, texts) are the nonnegative doubles
    their texts spell (``repr`` if ``shortest``, else ``%.17g``) and
    ``signs`` (records, values) the sign bits of their values. The NUL bytes
    around the texts are dropped.
    """
    count, per_record = magnitudes.shape
    texts = _floattext.texts(magnitudes.ravel(), shortest)
    first = np.arange(count)[:, None] * per_record
    widths = [_width(piece) for piece in pieces]
    ends = np.cumsum(widths)
    cells = np.empty((count, ends[-1]), np.uint64)
    for piece, end, width in zip(pieces, ends, widths):
        into = cells[:, end - width : end]
        if piece is None:
            into[:] = _floattext.integer_texts(np.arange(start, start + count))
        elif isinstance(piece, np.ndarray):
            into[:] = piece
        else:
            entries, text_index, plain, minus = piece
            fields = into.reshape(count, len(entries), -1)
            fields[:, :, :-_TEXT_WORDS] = np.where(signs[:, entries, None], minus, plain)
            fields[:, :, -_TEXT_WORDS:] = np.take(texts, first + text_index, axis=0)
    data = _floattext.text_bytes(cells).ravel()
    return data[data != 0].tobytes().decode("ascii")


def _write_text(batch: StateBatch, handle, form) -> None:
    """Write ``batch`` a block of whole records at a time, each block one ``_block_text`` of format ``form``.

    A record's magnitudes are |Re| then |Im| of its entries on and above the
    diagonal (see ``_text_layout``).
    """
    n = batch.n_levels
    pieces = _text_layout(n, form, batch.method)
    upper = np.triu_indices(n)
    step = max(1, WRITE_BLOCK_VALUES // (2 * len(upper[0])))
    for start in range(0, len(batch), step):
        matrices = batch.matrices[start : start + step]
        parts = np.stack((matrices.real, matrices.imag), axis=1)
        magnitudes = np.abs(parts[:, :, upper[0], upper[1]]).reshape(len(parts), -1)
        signs = np.signbit(parts).reshape(len(parts), -1)
        handle.write(_block_text(pieces, form.shortest, start, magnitudes, signs))


def write_records_csv(batch: StateBatch, path) -> None:
    """``write_records`` of ``batch`` as CSV."""
    write_records(batch, path, "csv")


def write_records(batch: StateBatch, path, fmt: str) -> None:
    """Write ``batch`` as a CSV or JSONL record file.

    Per record: method, index, Re and Im rho (CSV cells under one header line,
    JSONL nested rows), then rho_jj. The bytes are those of formatting each
    record on its own: json.dumps of the record object with separators (",",
    ":") for JSONL, a %.17g cell per float for CSV. Text is built a block of
    records at a time, formatting each distinct entry magnitude of the
    Hermitian states once. ``bures._floattext`` spells the magnitudes in
    [1e-10, 1) from integer arithmetic in numpy, exactly as ``float.__repr__``
    or ``'%.17g'`` would; Python formats, value by value, every value that path
    does not prove (about 6 in 10,000 of sampled entries). Separators, signs
    and texts go into one array of words per block, whose NUL bytes are
    dropped as it is written. ``StateBatch`` admits only finite, exactly
    Hermitian states, so every file written here passes ``read_records``'
    finiteness and Hermiticity checks.
    """
    if fmt not in FORMATS:  # a tuple, so an unhashable fmt is an unknown one too
        raise UsageError(f"unknown format {fmt!r}")
    form = _FORMATS[fmt]
    with open(path, "w", newline=form.newline) as handle:
        handle.write(form.header(batch.n_levels))
        _write_text(batch, handle, form)


def write_pairs(pairs: np.ndarray, path) -> None:
    """The QQ sidecar: an ``a,b`` header, then one row of two %.17g cells per pair.

    Written by the record files' ``_block_text``, one pair a record, in
    blocks of ``WRITE_BLOCK_VALUES // 2`` pairs; the bytes are those of a
    csv.writer row per pair.
    """
    layout = [_run([0, 1], np.arange(2), ["", ","], [0, 1]), _literal("\n")]
    step = WRITE_BLOCK_VALUES // 2
    with open(path, "w", newline="") as handle:
        handle.write("a,b\n")
        for start in range(0, len(pairs), step):
            block = pairs[start : start + step]
            handle.write(_block_text(layout, False, start, np.abs(block), np.signbit(block)))


def read_records(path) -> list:
    """Load a CSV or JSONL record file back into SampleRecord objects.

    The file becomes arrays a block of ``block_records(N)`` records at a
    time, each checked by ``_checked_block``, which names the first failing
    record; the records equal those the per-record constructors build, bit
    for bit. A malformed file raises UsageError naming the file, and the
    line where it is known.
    """
    records = []
    with _record_file(path) as (handle, form, name):
        for n, methods, indices, numbers in form.blocks(handle, name, path):
            records += _checked_block(n, methods, indices, numbers, len(records))
    return records


def _checked_block(n: int, methods: list, indices: list, numbers: np.ndarray, start: int) -> list:
    """SampleRecords of a block of N-level records, numbered from ``start``.

    ``numbers`` holds one row per record: Re rho and Im rho (row-major), then
    the file's rho_jj cells. One vectorized pass runs the checks of
    ``DensityMatrix.from_matrix`` and ``SampleRecord``, then the file's own:
    each rho_jj cell is within OBSERVABLE_TOL of the matrix diagonal, from
    which the records derive it. Then the block's objects are built here from
    ``density_matrices``' arrays, unchecked (``_prechecked``).
    """
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
    values, bases = density_matrices(matrices, start, after)
    spectra = _prechecked(Spectrum, values=values)
    rhos = _prechecked(DensityMatrix, matrix=matrices, spectrum=spectra, basis=bases)
    return _prechecked(SampleRecord, method=methods, index=indices, rho=rhos)


def _prechecked(cls, **columns) -> list:
    """Instances of a slotted frozen dataclass, one per row of the field ``columns``.

    Skips ``__post_init__``, which it may because ``_checked_block``'s block
    check has passed every row on every check that can fail (see
    ``density_matrices``); re-running the checks record by record would cost
    most of what it saves. Each field is stored through its slot descriptor,
    which bypasses the frozen ``__setattr__`` as ``object.__setattr__`` does,
    one C-level ``map`` per field.
    """
    count = len(next(iter(columns.values())))
    objs = list(map(object.__new__, itertools.repeat(cls, count)))
    for name, column in columns.items():
        list(map(getattr(cls, name).__set__, objs, column))
    return objs


def _row_blocks(rows, n: int):
    """(N, methods, indices, numbers array) per block of parsed N-level (method, index, numbers) rows.

    Every block's numbers are one buffer, refilled for the next block, so a
    block is used up before the next is drawn. A new array per block would
    be freed every block, which raises glibc's mmap threshold and lets the
    heap fragment: four reads of two 2,000-record N=10 JSONL files then
    peaked about 0.5 MB higher.
    """
    rows = iter(rows)
    buffer = None
    for first in rows:
        if buffer is None:  # after the first row, which a file of N < 1 does not yield
            buffer = np.empty((block_records(n), len(first[2])))
        methods, indices, numbers = zip(first, *itertools.islice(rows, len(buffer) - 1))
        buffer[: len(numbers)] = numbers
        del numbers  # the parsed rows go before the block is checked
        yield n, list(methods), list(indices), buffer[: len(methods)]


def _c_pass(name: str, skip: int, dtype, columns):
    """``columns`` of a plain CSV after ``skip`` lines as one ``np.loadtxt`` table, or None if not taken cleanly.

    numpy reads the file anew by ``name``, ``_record_file``'s, in large chunks (a handle, line by line).
    A cell ``dtype`` does not take or a warning fails the pass.
    """
    try:
        with warnings.catch_warnings():
            # a warning (no data rows; older numpy reading "7.0" as an int) is a file not taken cleanly
            warnings.simplefilter("error")
            return np.loadtxt(name, dtype, delimiter=",", comments=None, skiprows=skip,
                              usecols=columns, ndmin=1, encoding="utf-8-sig")
    except (ValueError, Warning):
        return None  # the caller's row parser then raises, with no loadtxt context


class _CsvData:
    """A CSV file past its header, the first non-blank row or None: the one step both CSV readers take.

    The C pass reads the file anew by ``name`` (``_record_file``'s; None takes none), so the csv reader stays
    past the header for the row parser.
    """

    def __init__(self, handle, name, path):
        self.name, self.path, self.reader = name, path, csv.reader(handle)
        with _csv_errors(self.reader, path):  # as among data rows, a row of spaces is not blank
            self.header = next(filter(None, self.reader), None)

    def cells(self, labels: list, dtype, taken=None):
        """(C-pass table, None) of the ``labels`` columns if a named file's pass is clean and ``taken(table)``
        holds, else (None, ``_picked_cells``' rows), which raise naming the line."""
        columns = _label_columns(self.header, labels, self.path)
        # every row of a plain file is one line, a blank one too, so the header ends at the reader's line count
        table = None if self.name is None else _c_pass(self.name, self.reader.line_num, dtype, columns)
        if table is not None and (taken is None or taken(table)):
            return table, None
        return None, _picked_cells(self.reader, self.header, columns, self.path)


def _csv_blocks(handle, name, path):
    """(N, methods, indices, numbers array) per block of a CSV record file.

    The data rows of a file with a ``name`` are parsed in one C pass (``_c_pass``),
    whose numbers and integers are Python's ``float`` and ``int`` of the
    texts it accepts. A method cell longer than any method stays unknown,
    however ``loadtxt`` cuts it. Any other file, or one the pass does not
    take cleanly, goes to ``_csv_rows``, which yields the same records or
    raises naming the line.
    """
    data = _CsvData(handle, name, path)
    if data.header is None:
        return
    n = _header_levels(data.header, path)
    labels = _csv_header(n)
    width = max(map(len, METHODS)) + 1
    dtype = np.dtype([("method", f"U{width}"), ("index", np.int64), ("numbers", np.float64, (len(labels) - 2,))])
    table, rows = data.cells(labels, dtype)
    if table is None:
        yield from _row_blocks(_csv_rows(rows, path), n)
        return
    # a known method cell becomes the METHODS string itself, which the records then share
    method_text = {method: method for method in METHODS}.get
    step = block_records(n)
    for start in range(0, len(table), step):
        block = table[start : start + step]
        methods = block["method"].tolist()
        yield n, list(map(method_text, methods, methods)), block["index"].tolist(), block["numbers"]


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


def _csv_rows(cells, path):
    """(method, index, numbers) per data row of ``_picked_cells`` of the record columns."""
    for line, (method, index, *numbers) in cells:
        try:
            numbers = list(map(float, numbers))
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


#: Decodes read_column's JSON (an observables member, or a whole line) with
#: every non-integer number left as its text, in bytes: only the compared cell
#: is converted (float(), as json.loads does), and a JSON string stays a str.
_decode_deferred = json.JSONDecoder(parse_float=str.encode).decode
_scan_deferred = _decode_deferred.__self__.scan_once
#: json.loads's grammar, limits and errors, but no float objects: each float's text gives its length.
_check_line = json.JSONDecoder(parse_float=len).decode
_OBSERVABLES_KEY = '"observables":'


def _decode_observables(text: str):
    """A JSONL line for read_column: ``{"observables": value}``, or else the whole line's ``_decode_deferred``.

    In a line ``_check_line`` passed, ``"observables":`` after "{", "," or
    JSON whitespace is a key: its quote is not escaped, and no closing quote
    precedes a letter. If the last one's value is followed only by "}", which
    ends only an object, json keeps it: it is the top-level object's last member.
    """
    _check_line(text)
    at = text.rfind(_OBSERVABLES_KEY)
    if at > 0 and text[at - 1] in "{, \t\r\n":
        value, end = _scan_deferred(text, json.decoder.WHITESPACE.match(text, at + len(_OBSERVABLES_KEY)).end())
        if text[end:].strip(" \t\r\n") == "}":
            return {"observables": value}
    return _decode_deferred(text)


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


def _jsonl_blocks(handle, name, path):
    """(N, methods, indices, numbers array) per block of a JSONL record file; the first record fixes N."""
    objects = _jsonl_objects(handle, path)
    first = next(objects, None)
    if first is not None:
        n = len(first[1]["re"]) if type(first[1].get("re")) is list else 0
        yield from _row_blocks(_jsonl_rows(itertools.chain((first,), objects), n, path), n)


def _jsonl_rows(objects, n: int, path):
    """(method, index, numbers) per line of an N-level JSONL record file: Re rho, Im rho (row-major), rho_jj.

    Every entry and observable must be a JSON number, checked by one type
    pass per record: a float conversion would also take a numeric string or
    a boolean.
    """
    labels = observable_labels(n)
    chain = itertools.chain.from_iterable
    for line, payload in objects:
        try:
            re, im, observables = payload["re"], payload["im"], payload["observables"]
            if type(observables) is not dict:
                raise UsageError(f"{path}, line {line}: observables is not a JSON object")
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
    """(open handle, its format, the name the C pass may read it by, or None) of a record file.

    Opened once, the file is sniffed and pre-scanned, then rewound: an input that cannot be, such as a pipe or a
    FIFO (opened without blocking, so one with no writer is refused at once), raises UsageError naming it, as
    does text that is not UTF-8. A descriptor is read and closed; a byte-order mark is skipped. The format is
    JSONL if the first non-blank character is "{", else CSV. A CSV is read through in chunks of half
    ``csv.field_size_limit()`` characters, at most 65,536. It is plain when no chunk holds a quote (csv's
    quoting) or a NUL (numpy cuts it off a string cell) and every full chunk holds a comma or a line break: a
    field csv refuses as too long spans a full chunk. A plain CSV opened by a ``str`` or ``PathLike`` name whose
    suffix numpy does not decompress gets that name, joined to the working directory (a relative one may parse
    as a URL numpy downloads) but not cleaned up: past a symlink, ``..`` is not a textual step.
    """
    size = max(1, min(csv.field_size_limit() // 2, 65536))
    nonblock = getattr(os, "O_NONBLOCK", 0)
    try:
        with open(path, encoding="utf-8-sig", opener=lambda name, flags: os.open(name, flags | nonblock)) as handle:
            if not handle.seekable():
                raise UsageError(f"{path}: cannot be rewound; record files are read from regular files")
            chunks = iter(lambda: handle.read(size), "")
            head = next(filter(str.strip, chunks), "")
            form = _JSONL if head.lstrip().startswith("{") else _CSV
            # the blank chunks skipped come before the header, which csv reads itself
            plain = form is _CSV and all(
                '"' not in chunk and "\0" not in chunk and ("," in chunk or "\n" in chunk or len(chunk) < size)
                for chunk in itertools.chain((head,), chunks)
            )
            name = handle.name  # a str for a str or PathLike path, bytes or the descriptor otherwise
            taken = plain and isinstance(name, str) and os.path.splitext(name)[1] not in _DECOMPRESSED
            handle.seek(0)
            handle.reconfigure(newline=form.newline)
            yield handle, form, os.path.join(os.getcwd(), name) if taken else None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_column(path, column: str) -> np.ndarray:
    """Extract one rho_jj observable column without validating whole records.

    A plain CSV's column takes ``_c_pass``; the row parser reads any other
    CSV, and one whose pass fails or reads a non-finite value.
    """
    if not _OBSERVABLE_LABEL.fullmatch(column):
        raise UsageError(f"column {column!r} is not a rho_jj observable")
    with _record_file(path) as (handle, form, name):
        cells = form.column(handle, name, path, column)
    if isinstance(cells, np.ndarray):
        return cells
    if not cells:
        raise UsageError(f"no data rows in {path}")
    return np.array([_cell_value(cell, column, path) for cell in cells])


def _csv_column(handle, name, path, column: str):
    """The C pass's finite values of a CSV ``column``, or else its cells."""
    data = _CsvData(handle, name, path)
    if data.header is None:
        return []
    values, rows = data.cells([column], float, lambda values: np.isfinite(values).all())
    return values if values is not None else [cell for _, cell in rows]


def _jsonl_column(handle, name, path, column: str) -> list:
    return [_observable(payload, column, path) for _, payload in _jsonl_objects(handle, path, _decode_observables)]


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


def _csv_layout(n: int, method: str, grid, text_of, diagonal) -> list:
    entries = np.concatenate((grid.ravel(), diagonal))
    return [_literal(method + ","), None, _run(entries, text_of, [","], np.zeros(len(entries))), _literal("\n")]


def _jsonl_layout(n: int, method: str, grid, text_of, diagonal) -> list:
    # "" before the first entry, "," inside a row and "],[" between rows
    row = np.ones((n, n), np.intp)
    row[:, 0] = 2
    row[0, 0] = 0
    labels = observable_labels(n)
    return [
        _literal('{"method":' + json.dumps(method) + ',"index":'),
        None,
        _literal(',"re":[['),
        _run(grid[0], text_of, ["", ",", "],["], row),
        _literal(']],"im":[['),
        _run(grid[1], text_of, ["", ",", "],["], row),
        _literal(']],"observables":{'),
        _run(diagonal, text_of, [f'"{labels[0]}":'] + [f',"{label}":' for label in labels[1:]], np.arange(n)),
        _literal("}}\n"),
    ]


#: Every choice in which the formats differ: a record's pieces (``_text_layout``), floats
#: as repr (json.dumps) or %.17g, the newline to open with, the text before the
#: first record, and the readers of read_records and read_column. A CSV line
#: ends in "\n" on every platform and csv reads with newline=""; a JSONL line
#: ends in the platform's line end, and lines of N=100 records split about 2x
#: faster with universal newlines.
_Format = collections.namedtuple("_Format", "layout shortest newline header blocks column")
_CSV = _Format(_csv_layout, False, "", lambda n: ",".join(_csv_header(n)) + "\n", _csv_blocks, _csv_column)
_JSONL = _Format(_jsonl_layout, True, None, lambda n: "", _jsonl_blocks, _jsonl_column)
_FORMATS = {"csv": _CSV, "jsonl": _JSONL}
FORMATS = tuple(_FORMATS)
