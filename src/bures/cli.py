"""Command-line front end: sampling runs, volume tables, and numeric checks.

Exit codes: 0 success (and passing checks), 1 failed statistical or numeric
check, 2 invalid input, 3 I/O failure.
"""

import argparse
import contextlib
import csv
import itertools
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .coset import BallPoint, coset_jacobian_det, euler_coset_volume
from .errors import BuresError, DegenerateSpectrumError
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


#: Most records read_records parses, eigendecomposes and checks as one block.
#: Below it the sampler's byte budget sets the block (``block_records``); the
#: cap keeps a block's temporaries small next to the records it returns.
READ_BLOCK_CAP = 256


def read_records(path) -> list:
    """Load a CSV or JSONL record file back into SampleRecord objects.

    The file is parsed in blocks, each checked by ``_checked_block``, which
    names the first failing record; the records equal those the per-record
    constructors build, bit for bit. A malformed file raises UsageError
    naming the file, and the line where it is known.
    """
    records, block = [], []
    with _record_file(path) as (handle, jsonl):
        for row in _jsonl_rows(handle, path) if jsonl else _csv_rows(handle, path):
            block.append(row)
            if len(block) == min(READ_BLOCK_CAP, block_records(len(row[4]))):
                records += _checked_block(block, len(records))
                block = []
    if block:
        records += _checked_block(block, len(records))
    return records


def _checked_block(block, start: int) -> list:
    """SampleRecords of parsed (method, index, re, im, rho_jj) rows, numbered from ``start``.

    One vectorized pass runs the checks of ``DensityMatrix.from_matrix`` and
    ``SampleRecord``, then the file's own: each rho_jj cell is within
    OBSERVABLE_TOL of the matrix diagonal, from which the records derive it.
    """
    methods, indices, re, im, diagonals = zip(*block)
    n = len(diagonals[0])
    shape = (len(block), n, n)
    matrices = np.reshape(re, shape) + 1j * np.reshape(im, shape)
    off = ~(np.abs(np.array(diagonals) - np.diagonal(matrices, axis1=1, axis2=2).real) <= OBSERVABLE_TOL).all(axis=1)
    after = [
        (np.array([m not in METHODS for m in methods], dtype=bool), ValueError, "unknown sampling method"),
        (off, ValueError, "rho_jj observables inconsistent with the state"),
    ]
    rhos = density_matrices(matrices, start, after)
    return [_prechecked(SampleRecord, method=m, index=i, rho=rho) for m, i, rho in zip(methods, indices, rhos)]


def _csv_rows(handle, path):
    """(method, index, re, im, rho_jj) per row of a CSV record file, re and im flat."""
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        return
    n = math.isqrt(sum(label.startswith("re_") for label in header))
    if n < 1:
        raise UsageError(f"no re_j_k columns in {path}")
    nn = n * n
    for line, (method, index, *cells) in _picked_cells(reader, header, _csv_header(n), path):
        try:
            numbers = list(map(float, cells))
            index = int(index)
        except ValueError as exc:
            raise UsageError(f"{path}, line {line}: {exc}") from exc
        yield method, index, numbers[:nn], numbers[nn : 2 * nn], numbers[2 * nn :]


def _picked_cells(reader, header: list, labels: list, path):
    """(line number, cells under ``labels``) per data row of a CSV reader past ``header``.

    Labels are resolved to column indices once, from the header, so column
    order is free. One label gives the bare cell, several a tuple.
    """
    columns = {label: i for i, label in enumerate(header)}
    for label in labels:
        if label not in columns:
            raise UsageError(f"column {label!r} not present in {path}")
    pick = operator.itemgetter(*(columns[label] for label in labels))
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
#: but leaves every non-integer number as the text it sliced out, so only the
#: one compared cell is converted (float() on that text, as json.loads does).
_decode_deferred = json.JSONDecoder(parse_float=str).decode


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
        if not isinstance(payload, dict):
            raise UsageError(f"{path}, line {line}: not a JSON object")
        yield line, payload


def _square(rows, n: int) -> bool:
    """Whether a JSON value is an (n, n) matrix: a list of n lists of n entries."""
    return type(rows) is list and len(rows) == n and all(type(row) is list and len(row) == n for row in rows)


def _jsonl_rows(handle, path):
    """(method, index, re, im, rho_jj) per line of a JSONL record file, re and im flat.

    The first record fixes the level count for the file. Every entry and
    observable must be a JSON number, checked by one type pass per record:
    a float conversion would also take a numeric string or a boolean.
    """
    n = labels = None
    chain = itertools.chain.from_iterable
    for line, payload in _jsonl_objects(handle, path):
        try:
            re, im, observables = payload["re"], payload["im"], payload["observables"]
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
        nn = n * n
        yield method, index, numbers[:nn], numbers[nn : 2 * nn], numbers[2 * nn :]


@contextlib.contextmanager
def _record_file(path):
    """(open handle, whether it is JSONL) of a record file.

    The format is told by content, not name: JSONL if the first non-blank
    character is "{". Text that is not UTF-8 raises UsageError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            chunks = iter(lambda: handle.read(4096), "")
            jsonl = next(filter(None, map(str.lstrip, chunks)), "").startswith("{")
        # csv needs newline=""; JSONL lines of N=100 records split about 2x
        # faster with universal newlines
        with open(path, encoding="utf-8", newline=None if jsonl else "") as handle:
            yield handle, jsonl
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_column(path, column: str) -> np.ndarray:
    """Extract one named column without validating whole records."""
    with _record_file(path) as (handle, jsonl):
        if jsonl:
            objects = _jsonl_objects(handle, path, _decode_deferred)
            cells = [_observable(payload, column, path) for _, payload in objects]
        else:
            reader = csv.reader(handle)
            header = next(reader, None)
            cells = [] if header is None else [cell for _, cell in _picked_cells(reader, header, [column], path)]
    if not cells:
        raise UsageError(f"no data rows in {path}")
    return np.array([_cell_value(cell, column, path) for cell in cells])


def _observable(payload: dict, column: str, path):
    try:
        return payload["observables"][column]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"column {column!r} not present in {path}") from exc


def _cell_value(cell, column: str, path) -> float:
    try:
        if isinstance(cell, bool):  # float(True) is 1.0, but a JSON true is no sample
            raise TypeError
        value = float(cell)
    except (TypeError, ValueError, OverflowError) as exc:  # a JSON integer may overflow a float
        raise UsageError(f"non-numeric value {cell!r} in column {column!r} of {path}") from exc
    if not math.isfinite(value):
        raise UsageError(f"non-finite value {cell!r} in column {column!r} of {path}")
    return value


def cmd_sample(spectrum: Spectrum, method: str, count: int, seed: int, output_path, fmt: str) -> int:
    batch = batch_sample(method, spectrum, count, seed)
    write_records(batch, output_path, fmt)
    print(f"wrote {len(batch)} {method} records to {output_path}")
    return EXIT_OK


def cmd_volume(n: int) -> int:
    if n < 2:
        raise UsageError("volume tables need at least 2 levels")
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
    print(f"samples: n = {result.n}, m = {result.m}")
    print(f"KS statistic = {result.statistic:.9g}")
    print(f"critical(1%) = {result.critical_001:.9g}")
    if pairs_out is None:
        stem_a = Path(a_path).stem
        stem_b = Path(b_path).stem
        pairs_out = Path(a_path).with_name(f"{stem_a}_vs_{stem_b}_pairs.csv")
    if a.size == b.size:
        pairs = cumulative_pairs(a, b)
        with open(pairs_out, "w", newline="") as handle:
            handle.write("a,b\n" + ("%.17g,%.17g\n" * len(pairs)) % tuple(pairs.ravel().tolist()))
        print(f"pairs written to {pairs_out}")
    else:
        print("pairs skipped (sample sizes differ)")
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
    if spectrum.n_levels < 2:
        raise UsageError("eigenvalue density needs at least 2 levels")
    try:
        value = eigenvalue_density(spectrum)
    except DegenerateSpectrumError as exc:
        print(f"density undefined: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"eigenvalue density = {value:.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bures",
        description="Sample fixed-spectrum density matrices and check coset-coordinate identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw states and write them to CSV or JSONL")
    p_sample.add_argument("--spectrum", required=True, help="comma-separated eigenvalues summing to 1")
    p_sample.add_argument("--method", choices=("haar", "coset"), required=True)
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
            if args.count < 1:
                raise UsageError("count must be at least 1")
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
