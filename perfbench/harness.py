"""Workloads, the closed-loop timing loop, output checks and metrics for the bures benchmark.

One process runs one workload. It drives the real command line in-process
through ``bures.cli.main(argv)``, one call at a time, and times each call.
Outputs are checked between calls, outside the timed region. See README.md
beside this file for what each workload and metric is for.
"""

import contextlib
import csv
import gc
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bures
import bures.cli
import numpy as np

import tracer as tr


@dataclass(frozen=True)
class Workload:
    name: str
    spectrum: tuple
    count: int  # records per `sample` call
    fmt: str
    columns: tuple  # diagonal indices j of the rho_jj columns compared
    column_groups: int  # round k compares columns[k % column_groups::column_groups]
    load_methods: tuple  # record files read back with read_records every round
    repro_count: int  # records in the fixed batch sampled twice per method

    @property
    def n_levels(self):
        return len(self.spectrum)

    @property
    def spectrum_arg(self):
        return ",".join(repr(v) for v in self.spectrum)


def _normalised(values):
    arr = np.asarray(values, dtype=float)
    return tuple(float(v) for v in arr / arr.sum())


def _diag(j):
    return f"rho_{j}{j}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "n3_stream",
            (0.5, 0.375, 0.125),
            5000,
            "csv",
            (1, 2, 3),
            1,
            ("coset",),
            50,
        ),
        Workload(
            "n100_ladder",
            _normalised(np.linspace(2.0, 1.0, 100)),
            40,
            "jsonl",
            tuple(range(10, 101, 10)),
            2,
            ("coset",),
            2,
        ),
        Workload(
            "n10_zeroblock_roundtrip",
            (0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0, 0.0, 0.0),
            2000,
            "jsonl",
            tuple(range(1, 11)),
            2,
            ("coset", "haar"),
            20,
        ),
    )
}

#: Check tolerances, fixed here rather than read from the package so that a
#: change to the package's own tolerances cannot loosen the benchmark.
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
SPECTRUM_TOL = 1e-10
DIAG_TOL = 1e-12
KS_TOL = 1e-8  # compare prints the statistic with 9 significant digits

#: Set-up is measured this many times before the first round and once after
#: every round, so that its samples spread over the run; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

#: The reference kernel: a fixed mix of interpreter loops, JSON and small
#: LAPACK calls from this file alone, which no change to the package can
#: speed up or slow down. It runs just before and just after every program
#: call, and each time metric is scaled by REF_NOMINAL_S over the mean
#: reference time around its calls (see ``end_to_end``). The shared machine
#: the benchmark was tuned on changed speed by up to 2x for seconds to
#: minutes, for every call at once; the reference slows with it, so the
#: scaled figures read what the run would have read at the kernel's nominal
#: speed. REF_NOMINAL_S is the kernel's median time on that machine.
REF_ROUNDS = 200
REF_NOMINAL_S = 0.020
_REF_MATS = np.random.default_rng(0).standard_normal((3, 8, 8))
_REF_DOC = [float(v) for v in range(64)]

#: Records per chunk when checking a file, which keeps the check's memory
#: small next to the program's.
CHECK_CHUNK = 256

_SETUP_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import bures.cli
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(bures.cli.main(sys.argv[2:]))
"""


@dataclass
class Round:
    """Timings of one round; ``files`` maps method to record file."""

    traced: bool
    files: dict = field(default_factory=dict)
    sample_s: dict = field(default_factory=dict)
    load_s: list = field(default_factory=list)  # one entry per read_records call
    loaded: list = field(default_factory=list)  # records each of those calls returned
    compare_s: list = field(default_factory=list)
    ref_s: dict = field(default_factory=dict)  # call kind -> reference times, one per call above
    compare_rejects: int = 0
    timed_s: float = 0.0
    bytes_written: int = 0
    layers: dict = field(default_factory=dict)  # tracer totals, traced rounds only


class BenchRun:
    """One benchmark process: drives the CLI, times calls, checks outputs, counts failures."""

    def __init__(self, workload, seed, workdir, src_dir, tracer=None):
        self.w = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.src_dir = str(src_dir)
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.residuals = {"herm": 0.0, "trace": 0.0, "spectrum": 0.0}
        self.setup = []  # (seconds, reference seconds) of each set-up process
        self._rng = random.Random(seed)

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def _phase(self, name, traced):
        return self.tracer.span(name) if traced else contextlib.nullcontext()

    # -- program calls -----------------------------------------------------

    def run_cli(self, argv, phase, traced):
        """(seconds, reference seconds, exit code or None, stdout) of one in-process CLI call."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        rc = None
        ref = reference_kernel()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                with self._phase(phase, traced):
                    rc = bures.cli.main(argv)
            except (Exception, SystemExit) as exc:  # any escape from main is a failure
                err.write(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
        ref = (ref + reference_kernel()) / 2
        ok_codes = (0, 1) if argv[0] == "compare" else (0,)
        if rc not in ok_codes:
            self.failures.append(f"{' '.join(argv[:2])}: exit {rc}: {err.getvalue().strip()[:200]}")
        return dt, ref, rc, out.getvalue()

    def sample_argv(self, method, seed, count, path):
        return [
            "sample", "--spectrum", self.w.spectrum_arg, "--method", method,
            "--count", str(count), "--seed", str(seed), "-o", str(path),
            "--format", self.w.fmt,
        ]

    def read_records(self, path, traced):
        """(seconds, reference seconds, records or None) of one read_records call."""
        self.attempted += 1
        ref = reference_kernel()
        t0 = time.perf_counter()
        try:
            with self._phase("load", traced):
                records = bures.cli.read_records(path)
        except Exception as exc:  # a reader failure is a counted failure, not a crash
            self.failures.append(f"read_records {path.name}: {type(exc).__name__}: {exc}")
            records = None
        dt = time.perf_counter() - t0
        return dt, (ref + reference_kernel()) / 2, records

    # -- set-up ------------------------------------------------------------

    def measure_setup(self, repeats):
        """Wall times of fresh processes that import bures and make one sample call."""
        env = {k: v for k, v in os.environ.items() if k != "BURES_THREADS"}
        path = self.workdir / f"setup.{self.w.fmt}"
        argv = self.sample_argv("coset", self.seed, 1, path)
        for _ in range(repeats):
            self.attempted += 1
            ref = reference_kernel()
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", _SETUP_SNIPPET, self.src_dir, *argv],
                    env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                self.failures.append("set-up process timed out")
                continue
            dt = time.perf_counter() - t0
            self.setup.append((dt, (ref + reference_kernel()) / 2))
            if proc.returncode != 0:
                self.failures.append(f"set-up process exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        path.unlink(missing_ok=True)

    def check_reproducible(self):
        """A small fixed batch per method, sampled twice, must give identical bytes."""
        seed = self._rng.randrange(2**31)
        for method in ("coset", "haar"):
            blobs = []
            for rep in (1, 2):
                path = self.workdir / f"repro{rep}.{self.w.fmt}"
                self.run_cli(self.sample_argv(method, seed, self.w.repro_count, path), "repro", False)
                blobs.append(path.read_bytes() if path.exists() else None)
                path.unlink(missing_ok=True)
            self.check(
                blobs[0] is not None and blobs[0] == blobs[1],
                f"{method}: two runs with seed {seed} differ",
            )

    # -- one round ---------------------------------------------------------

    def run_round(self, seeds, columns, traced):
        """Sample coset and haar, read back the workload's load files, compare ``columns``."""
        w = self.w
        rnd = Round(traced=traced)
        for method, seed in zip(("coset", "haar"), seeds):
            path = self.workdir / f"{method}.{w.fmt}"
            dt, ref, _, _ = self.run_cli(self.sample_argv(method, seed, w.count, path), f"sample.{method}", traced)
            rnd.files[method] = path
            rnd.sample_s[method] = dt
            rnd.ref_s[method] = [ref]
            rnd.timed_s += dt
            if path.exists():
                rnd.bytes_written += path.stat().st_size
        diags = {}
        for method in w.load_methods:
            path = rnd.files[method]
            dt, ref, records = self.read_records(path, traced)
            rnd.load_s.append(dt)
            rnd.ref_s.setdefault("load", []).append(ref)
            rnd.timed_s += dt
            rnd.loaded.append(len(records or ()))
            diags[method] = self.check_file(method, path, records)
            del records
        outputs = {}
        for j in columns:
            argv = ["compare", str(rnd.files["coset"]), str(rnd.files["haar"]), "--column", _diag(j)]
            dt, ref, rc, out = self.run_cli(argv, "compare", traced)
            rnd.compare_s.append(dt)
            rnd.ref_s.setdefault("compare", []).append(ref)
            rnd.timed_s += dt
            rnd.compare_rejects += rc == 1
            outputs[j] = (rc, out)
        for method, path in rnd.files.items():
            if method not in diags:
                diags[method] = self.check_file(method, path)
        self.check_compares(outputs, diags)
        for path in self.workdir.iterdir():
            path.unlink()
        return rnd

    # -- checks ------------------------------------------------------------

    def _iter_file(self, path):
        """Yield (methods, indices, matrices, diag columns) chunks parsed independently of bures."""
        n = self.w.n_levels
        labels = [_diag(j) for j in range(1, n + 1)]

        def flush(buf):
            methods, idx, re_, im_, diag = zip(*buf)
            mats = np.array(re_) + 1j * np.array(im_)
            return list(methods), list(idx), mats.reshape(-1, n, n), np.array(diag)

        buf = []
        if self.w.fmt == "jsonl":
            with open(path) as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    rec = json.loads(line)
                    obs = rec["observables"]
                    buf.append((rec["method"], rec["index"], rec["re"], rec["im"], [obs[k] for k in labels]))
                    if len(buf) == CHECK_CHUNK:
                        yield flush(buf)
                        buf = []
        else:
            with open(path, newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader)
                expect = (
                    ["method", "index"]
                    + [f"re_{j}_{k}" for j in range(1, n + 1) for k in range(1, n + 1)]
                    + [f"im_{j}_{k}" for j in range(1, n + 1) for k in range(1, n + 1)]
                    + labels
                )
                if header != expect:
                    raise ValueError(f"unexpected CSV header in {path.name}")
                nn = n * n
                for row in reader:
                    vals = [float(v) for v in row[2:]]
                    buf.append((row[0], int(row[1]), vals[:nn], vals[nn : 2 * nn], vals[2 * nn :]))
                    if len(buf) == CHECK_CHUNK:
                        yield flush(buf)
                        buf = []
        if buf:
            yield flush(buf)

    def check_file(self, method, path, loaded=None):
        """Check one record file; returns its rho_jj columns, or None if unreadable.

        Checks the count and order, Hermiticity and trace, the spectrum, and the
        diagonal columns. With ``loaded`` (what read_records returned) it also
        checks that the loaded matrices equal the file's and carry the spectrum.
        """
        want = np.sort(np.asarray(self.w.spectrum, dtype=float))
        seen, herm, trace, spec, diag_err, in_order, same = 0, 0.0, 0.0, 0.0, 0.0, True, True
        diags = []
        try:
            for methods, idx, mats, diag in self._iter_file(path):
                in_order &= all(m == method for m in methods) and idx == list(range(seen, seen + len(idx)))
                if loaded is not None:
                    for rec, mat in zip(loaded[seen : seen + len(idx)], mats):
                        same &= bool(np.array_equal(rec.rho.matrix, mat))
                        same &= bool(np.max(np.abs(rec.rho.spectrum.values[::-1] - want)) <= SPECTRUM_TOL)
                seen += len(idx)
                herm = max(herm, float(np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))))
                trace = max(trace, float(np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0))))
                eig = np.linalg.eigvalsh((mats + mats.conj().transpose(0, 2, 1)) / 2)
                spec = max(spec, float(np.max(np.abs(eig - want))))
                diag_err = max(diag_err, float(np.max(np.abs(diag - np.diagonal(mats, axis1=1, axis2=2).real))))
                diags.append(diag)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            self.check(False, f"{path.name}: unreadable: {type(exc).__name__}: {exc}")
            return None
        res = self.residuals
        res["herm"] = max(res["herm"], herm)
        res["trace"] = max(res["trace"], trace)
        res["spectrum"] = max(res["spectrum"], spec)
        count = self.w.count
        self.check(seen == count and in_order, f"{path.name}: {seen} records, want {count} in order")
        self.check(herm <= HERM_TOL and trace <= TRACE_TOL, f"{path.name}: herm {herm:.3g}, trace {trace:.3g}")
        self.check(spec <= SPECTRUM_TOL, f"{path.name}: spectrum residual {spec:.3g}")
        self.check(diag_err <= DIAG_TOL, f"{path.name}: diagonal columns off by {diag_err:.3g}")
        if loaded is not None:
            self.check(same and len(loaded) == seen, f"{path.name}: loaded records differ from the file")
        return np.concatenate(diags) if diags else np.empty((0, self.w.n_levels))

    def check_compares(self, outputs, diags):
        """Each compare's statistic and verdict must match an independent KS on the files."""
        for j, (rc, out) in outputs.items():
            ok = rc in (0, 1) and diags["coset"] is not None and diags["haar"] is not None
            if ok:
                got = _parse_compare(out)
                want = ks_statistic(diags["coset"][:, j - 1], diags["haar"][:, j - 1])
                ok = got is not None and abs(got[0] - want) <= KS_TOL and (rc == 0) == (got[0] < got[1])
            self.check(ok, f"compare {_diag(j)}: verdict or statistic wrong (exit {rc})")

    # -- the run -----------------------------------------------------------

    def run(self, seconds, traced):
        """Closed loop of back-to-back rounds for about ``seconds``, at least one round.

        Another round starts while the time used plus half the last round's
        length is within ``seconds``, so a run ends within half a round of it.

        Untraced: every round is bare. Traced: rounds come in pairs with the
        same seeds, one bare and one traced, in alternating order; the pairs
        give the tracing overhead.
        """
        rounds = []
        t0 = time.perf_counter()
        step = 0.0
        k = 0
        while not rounds or time.perf_counter() - t0 + step / 2 <= seconds:
            t_step = time.perf_counter()
            seeds = self._rng.randrange(2**31), self._rng.randrange(2**31)
            columns = self.w.columns[k % self.w.column_groups :: self.w.column_groups]
            order = (False, True) if k % 2 == 0 else (True, False)
            for is_traced in order if traced else (False,):
                if is_traced:
                    with self.tracer.installed():
                        rnd = self.run_round(seeds, columns, True)
                    rnd.layers = self.tracer.drain()
                else:
                    rnd = self.run_round(seeds, columns, False)
                rounds.append(rnd)
            if not traced:
                self.measure_setup(1)
            k += 1
            step = time.perf_counter() - t_step
        return rounds


def _parse_compare(out):
    stat = re.search(r"KS statistic = (\S+)", out)
    crit = re.search(r"critical\(1%\) = (\S+)", out)
    try:
        return float(stat.group(1)), float(crit.group(1))
    except (AttributeError, ValueError):  # a line is missing or not a number
        return None


def ks_statistic(a, b):
    """Two-sample KS distance, computed here as an independent check of `compare`."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pool = np.concatenate([a, b])
    fa = np.searchsorted(a, pool, side="right") / a.size
    fb = np.searchsorted(b, pool, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _per(num, den):
    return num / den if den else 0.0


def reference_kernel():
    """Seconds one pass of the reference kernel takes; the collector is held off meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REF_ROUNDS):
            json.loads(json.dumps(_REF_DOC))
            a = _REF_MATS[0] @ _REF_MATS[1]
            np.linalg.eigh(a + a.T)
            np.linalg.qr(_REF_MATS[2])
            x = 0
            for k in range(300):
                x += k * k
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def end_to_end(bench, rounds, scaled=True):
    """The end-to-end metrics of an untraced run.

    Scaled, each time is its wall time times REF_NOMINAL_S over the mean
    reference time around the calls it covers, a ratio of sums over the run;
    README.md gives the spreads it cut. Unscaled, each time is plain wall time.
    """
    w = bench.w

    def scale(refs):
        return REF_NOMINAL_S * len(refs) / sum(refs) if scaled else 1.0

    def total(kind, seconds):
        return sum(seconds) * scale([x for r in rounds for x in r.ref_s[kind]])

    compare_s = [t for r in rounds for t in r.compare_s]
    setup = [dt * scale([ref]) for dt, ref in bench.setup]
    sampled = w.count * len(rounds)  # per method
    return {
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "coset_rec_per_s": (_per(sampled, total("coset", [r.sample_s["coset"] for r in rounds])), "rec/s"),
        "haar_rec_per_s": (_per(sampled, total("haar", [r.sample_s["haar"] for r in rounds])), "rec/s"),
        "compare_s_mean": (total("compare", compare_s) / len(compare_s), "s"),
        "load_rec_per_s": (
            _per(sum(n for r in rounds for n in r.loaded), total("load", [t for r in rounds for t in r.load_s])),
            "rec/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(bench, rounds):
    """Per-layer metrics of a traced run.

    Times sum over all traced rounds. Counts come from the first traced round
    alone, whose seeds are fixed by the workload seed, so they repeat exactly.
    """
    w = bench.w
    traced = [r for r in rounds if r.traced]
    bare = [r for r in rounds if not r.traced]

    def totals(rs):
        acc = {}
        for r in rs:
            for key, (calls, incl, self_s) in r.layers.items():
                cur = acc.setdefault(key, [0, 0.0, 0.0])
                cur[0] += calls
                cur[1] += incl
                cur[2] += self_s
        return acc

    def pick(acc, phases, prefix):
        calls = incl = self_s = 0
        for (root, name), (c, i, s) in acc.items():
            if root in phases and (name == prefix or (prefix.endswith(".") and name.startswith(prefix))):
                calls += c
                incl += i
                self_s += s
        return calls, incl, self_s

    t_all, t_first = totals(traced), totals(traced[:1])
    recs = w.count * len(traced)  # per method
    sampled = 2 * recs
    loaded = sum(n for r in traced for n in r.loaded)
    first_loaded = sum(traced[0].loaded)
    S = ("sample.coset", "sample.haar")
    C, H, L, K = ("sample.coset",), ("sample.haar",), ("load",), ("compare",)
    us, ms = 1e6, 1e3

    rng_us = pick(t_all, S, "sampling.rng_stream")[1] + pick(t_all, S, "sampling.rng_draw")[1]
    haar_units = pick(t_first, H, "sampling.sample_haar_unitary")[0]
    qr_tries = pick(t_first, H, "linalg.qr_decompose")[0]
    read_col = pick(t_all, K, "cli.read_column")
    ks = pick(t_all, K, "stats.ks_two_sample")
    pairs = pick(t_all, K, "stats.cumulative_pairs")
    compare_times = [t for r in rounds for t in r.compare_s]
    tail = tr.tail_percentile(compare_times)
    tail_pct, tail_s = tail if tail else (50.0, statistics.median(compare_times))
    overhead = statistics.median(t.timed_s / b.timed_s - 1.0 for b, t in zip(bare, traced))
    n_compares = sum(len(r.compare_s) for r in traced)
    m = {
        "sampling.rng_us_per_rec": (_per(rng_us * us, sampled), "us/rec"),
        "sampling.rng_streams_per_rec": (_per(pick(t_first, S, "sampling.rng_stream")[0], 2 * w.count), "count"),
        "sampling.ball_us_per_rec": (_per(pick(t_all, C, "sampling.sample_ball")[1] * us, recs), "us/rec"),
        "sampling.haar_unitary_us_per_rec": (
            _per(pick(t_all, H, "sampling.sample_haar_unitary")[1] * us, recs), "us/rec"),
        "sampling.qr_attempts_per_unitary": (_per(haar_units, qr_tries), "ratio"),
        "sampling.batch_self_us_per_rec": (_per(pick(t_all, S, "sampling.batch_sample")[2] * us, sampled), "us/rec"),
        "coset.flag_unitary_us_per_rec": (_per(pick(t_all, C, "coset.flag_unitary")[1] * us, recs), "us/rec"),
        "coset.coset_unitary_calls_per_rec": (_per(pick(t_first, C, "coset.coset_unitary")[0], w.count), "count"),
        "coset.ballpoint_builds_per_rec": (_per(pick(t_first, C, "coset.ballpoint")[0], w.count), "count"),
        "measures.state_build_us_per_rec": (
            _per(pick(t_all, S, "measures.from_eigensystem")[1] * us, sampled), "us/rec"),
        "measures.from_matrix_us_per_rec": (_per(pick(t_all, L, "measures.from_matrix")[1] * us, loaded), "us/rec"),
        "linalg.calls_per_rec": (_per(pick(t_first, S, "linalg.")[0], 2 * w.count), "count"),
        "linalg.busy_us_per_rec": (_per(pick(t_all, S, "linalg.")[1] * us, sampled), "us/rec"),
        "linalg.eigh_calls_per_loaded_rec": (_per(pick(t_first, L, "linalg.hermitian_eig")[0], first_loaded), "count"),
        "cli.write_us_per_rec": (_per(pick(t_all, S, "cli.write_records")[1] * us, sampled), "us/rec"),
        "cli.bytes_per_rec": (_per(traced[0].bytes_written, 2 * w.count), "count"),
        "cli.read_column_ms_per_call": (_per(read_col[1] * ms, read_col[0]), "ms"),
        "cli.compare_s_tail": (tail_s, "s"),
        "cli.compare_tail_pct": (tail_pct, "%"),
        "cli.compare_tail_n": (len(compare_times), "samples"),
        "cli.read_records_us_per_rec": (_per(pick(t_all, L, "cli.read_records")[1] * us, loaded), "us/rec"),
        "stats.ks_ms_per_call": (_per(ks[1] * ms, ks[0]), "ms"),
        "stats.pairs_ms_per_call": (_per(pairs[1] * ms, pairs[0]), "ms"),
        "stats.ks_reject_frac": (_per(sum(r.compare_rejects for r in traced), n_compares), "frac"),
        "trace_overhead_frac": (overhead, "frac"),
        "check.herm_residual_max": (bench.residuals["herm"], "abs"),
        "check.trace_residual_max": (bench.residuals["trace"], "abs"),
        "check.spectrum_residual_max": (bench.residuals["spectrum"], "abs"),
    }
    return m, t_all


def git_revision(root):
    """Commit id read from .git without running git; 'unavailable' outside a checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def run_metadata(workload, seed, root, env_notes):
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "bures_version": getattr(bures, "__version__", "unknown"),
        "git_revision": git_revision(root),
        **env_notes,
    }


def run(workload, seed, seconds, traced, workdir, src_dir, root, env_notes):
    """One benchmark run; prints a readable report and returns the result object."""
    bench = BenchRun(workload, seed, workdir, src_dir, tr.Tracer() if traced else None)
    if not traced:
        bench.measure_setup(SETUP_REPEATS)
    bench.run_cli(bench.sample_argv("coset", seed, 1, Path(workdir) / f"warm.{workload.fmt}"), "warm", False)
    bench.check_reproducible()
    rounds = bench.run(seconds, traced)

    meta = run_metadata(workload, seed, root, env_notes)
    meta["rounds"] = len(rounds)
    print("meta " + json.dumps(meta))
    if traced:
        metrics, layer_totals = per_layer(bench, rounds)
        print(f"{'phase':<14}{'span':<34}{'calls':>10}{'incl_ms':>12}{'self_ms':>12}")
        for (phase, name), (calls, incl, self_s) in sorted(layer_totals.items()):
            print(f"{phase:<14}{name:<34}{calls:>10}{incl * 1e3:>12.1f}{self_s * 1e3:>12.1f}")
    else:
        metrics = end_to_end(bench, rounds)
        refs = [x for r in rounds for xs in r.ref_s.values() for x in xs]
        print(f"reference kernel: mean around {len(refs)} timed calls {statistics.fmean(refs) * 1e3:.2f} ms, "
              f"nominal {REF_NOMINAL_S * 1e3:.2f} ms; times below are scaled by nominal / mean")
        unscaled = end_to_end(bench, rounds, scaled=False)
        print("unscaled: " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in unscaled.items()))
        print(f"fail_frac = {_per(len(bench.failures), bench.attempted):.6g} "
              f"({len(bench.failures)} of {bench.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for message in bench.failures[:20]:
        print(f"FAILED: {message}")
    failed = len(bench.failures)
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
