"""Command-line front end: sampling runs, volume tables, and numeric checks.

Exit codes: 0 success (and passing checks), 1 failed statistical or numeric
check, 2 invalid input, 3 I/O failure.
"""

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .coset import BallPoint, coset_jacobian_det, euler_coset_volume
from .errors import BuresError, UsageError
from .measures import Spectrum, ball_volume, eigenvalue_density, flag_volume, flag_volume_sz
# write_records_csv is not called here; bures.cli exports it with the other record calls
from .records import FORMATS, read_column, read_records, write_pairs, write_records, write_records_csv
from .sampling import METHODS, RngStream, batch_sample, sample_interior_point
from .stats import cumulative_pairs, ks_two_sample

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: Maximum |det J - 1| accepted by check-jacobian.
JACOBIAN_BOUND = 1e-4

#: Maximum relative quadrature error accepted by check-euler.
EULER_BOUND = 1e-9


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
    return Spectrum(np.array(values) / total)


def _check_seed(seed: int) -> int:
    # RngStream keys on the seed modulo 2^64; a seed outside that range would
    # silently alias one inside it
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed {seed} outside [0, 2^64)")
    return seed


def cmd_sample(args) -> int:
    spectrum = _parse_spectrum(args.spectrum)
    batch = batch_sample(args.method, spectrum, args.count, _check_seed(args.seed))
    write_records(batch, args.output, args.format)
    print(f"wrote {len(batch)} {args.method} records to {args.output}")
    return EXIT_OK


def cmd_volume(args) -> int:
    n = args.levels
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


def cmd_compare(args) -> int:
    a_path, b_path, pairs_out = args.file_a, args.file_b, args.pairs_out
    # read first: an input with no file name (".", "/") fails here, before the sidecar's name is made of it
    a = read_column(a_path, args.column)
    b = read_column(b_path, args.column)
    if pairs_out is None:
        stem_a = Path(a_path).stem
        stem_b = Path(b_path).stem
        pairs_out = Path(a_path).with_name(f"{stem_a}_vs_{stem_b}_pairs.csv")
    for path in (a_path, b_path):
        if Path(pairs_out).exists() and Path(path).exists() and Path(pairs_out).samefile(path):
            raise UsageError(f"--pairs-out {pairs_out} is the input file {path}; it would be overwritten")
    result = ks_two_sample(a, b)
    # the sidecar is written before any of the report, so an I/O failure prints none of it
    if a.size == b.size:
        write_pairs(cumulative_pairs(a, b), pairs_out)
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


def cmd_check_jacobian(args) -> int:
    n, points, step, seed = args.n, args.points, args.step, _check_seed(args.seed)
    if n < 1:
        raise UsageError("n must be at least 1")
    if points < 1:
        raise UsageError("points must be at least 1")
    if not 1e-8 <= step <= 1e-4:
        raise UsageError("step must lie in [1e-8, 1e-4]")
    rng = RngStream(seed)
    try:
        origin_dev = worst = abs(coset_jacobian_det(BallPoint.zero(2 * n), step) - 1.0)
        total = 0.0
        for _ in range(points):
            dev = abs(coset_jacobian_det(sample_interior_point(2 * n, rng), step) - 1.0)
            worst = max(worst, dev)
            total += dev
    except BuresError:
        raise
    except (MemoryError, ValueError) as exc:  # numpy raises either, by size, for a point or its Jacobian
        raise UsageError(f"-n {n}: cannot hold the Jacobian of a ball point of dimension {2 * n} in memory") from exc
    print(f"origin: |det J - 1| = {origin_dev:.3g}")
    print(
        f"n={n}: max |det J - 1| = {worst:.3g}, mean = {total / points:.3g} "
        f"over {points} interior points (step={step:g}, seed={seed})"
    )
    ok = worst < JACOBIAN_BOUND
    print(f"check-jacobian: {'PASS' if ok else 'FAIL'} (bound {JACOBIAN_BOUND:g})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_check_euler(args) -> int:
    if args.nodes < 2:
        raise UsageError("need at least 2 quadrature nodes")
    try:
        volume = euler_coset_volume(args.nodes)
    except (MemoryError, ValueError) as exc:  # numpy raises either, by size
        raise UsageError(f"cannot hold {args.nodes} quadrature nodes in memory") from exc
    target = ball_volume(4)
    rel = abs(volume - target) / target
    print(f"euler volume ({args.nodes} nodes) = {volume:.15g}")
    print(f"target Vol(B^4) = {target:.15g}")
    print(f"relative error = {rel:.3g}")
    ok = rel < EULER_BOUND
    print(f"check-euler: {'PASS' if ok else 'FAIL'} (bound {EULER_BOUND:g})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_density(args) -> int:
    print(f"eigenvalue density = {eigenvalue_density(_parse_spectrum(args.spectrum)):.17g}")
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
    p_sample.add_argument("--format", choices=FORMATS, default="csv")
    p_sample.set_defaults(run=cmd_sample)

    p_volume = sub.add_parser("volume", help="print ball and flag volumes for N levels")
    p_volume.add_argument("-n", "--levels", type=int, required=True)
    p_volume.set_defaults(run=cmd_volume)

    p_compare = sub.add_parser("compare", help="two-sample KS test between record files")
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")
    p_compare.add_argument("--column", default="rho_33")
    p_compare.add_argument("--pairs-out", default=None)
    p_compare.set_defaults(run=cmd_compare)

    p_jac = sub.add_parser("check-jacobian", help="verify unit Jacobian of ball coordinates")
    p_jac.add_argument("-n", type=int, default=2, help="half the ball dimension")
    p_jac.add_argument("--points", type=int, default=100)
    p_jac.add_argument("--step", type=float, default=1e-5)
    p_jac.add_argument("--seed", type=int, default=0)
    p_jac.set_defaults(run=cmd_check_jacobian)

    p_euler = sub.add_parser("check-euler", help="verify the Euler-angle volume quadrature")
    p_euler.add_argument("--nodes", type=int, default=64)
    p_euler.set_defaults(run=cmd_check_euler)

    p_density = sub.add_parser("density", help="eigenvalue density of the volume element")
    p_density.add_argument("--spectrum", required=True)
    p_density.set_defaults(run=cmd_density)

    return parser


#: The parser main builds once per process; each parse_args call fills a new namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
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
