"""Spans around calls into bures' public functions, recorded from outside the package.

A span is (name, start, end, parent). The tracer replaces module attributes
and class attributes with timing wrappers, so a span opens wherever a caller
looks the name up at call time; nothing under ``src/`` changes. Spans are kept
in flat in-memory arrays while work runs and are folded into per-name totals
by ``drain`` once the timed work is over.
"""

import contextlib
import importlib
import math
import time
from array import array

#: (module, attribute path as the caller looks it up, span name). The span name
#: is "<layer>.<what>"; several targets may share one span name.
TARGETS = (
    ("bures.cli", "batch_sample", "sampling.batch_sample"),
    ("bures.cli", "write_records", "cli.write_records"),
    ("bures.cli", "read_column", "cli.read_column"),
    ("bures.cli", "read_records", "cli.read_records"),
    ("bures.cli", "ks_two_sample", "stats.ks_two_sample"),
    ("bures.cli", "cumulative_pairs", "stats.cumulative_pairs"),
    ("bures.sampling", "RngStream.__init__", "sampling.rng_stream"),
    ("bures.sampling", "RngStream.standard_normal", "sampling.rng_draw"),
    ("bures.sampling", "RngStream.uniform", "sampling.rng_draw"),
    ("bures.sampling", "RngStream.complex_normal", "sampling.rng_draw"),
    ("bures.sampling", "sample_ball", "sampling.sample_ball"),
    ("bures.sampling", "sample_haar_unitary", "sampling.sample_haar_unitary"),
    ("bures.sampling", "flag_unitary", "coset.flag_unitary"),
    ("bures.sampling", "qr_decompose", "linalg.qr_decompose"),
    ("bures.coset", "coset_unitary", "coset.coset_unitary"),
    ("bures.coset", "matmul", "linalg.matmul"),
    ("bures.coset", "BallPoint.__post_init__", "coset.ballpoint"),
    ("bures.measures", "DensityMatrix.from_eigensystem", "measures.from_eigensystem"),
    ("bures.measures", "DensityMatrix.from_matrix", "measures.from_matrix"),
    ("bures.measures", "as_complex_matrix", "linalg.as_complex_matrix"),
    ("bures.measures", "hermitian_eig", "linalg.hermitian_eig"),
)

#: Percentiles tried, lowest first, when reporting a timing's tail.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie above a reported tail percentile.
MIN_BEYOND = 10


class MissingLayerError(Exception):
    """A traced name no longer exists in the package."""


def _resolve(module_name, attr_path):
    """(owner, attribute, raw value) for ``module.attr.path``; raises MissingLayerError."""
    qualified = f"{module_name}.{attr_path}"
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingLayerError(qualified) from exc
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingLayerError(qualified)
    # Class attributes are read raw so that classmethods keep their descriptor.
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        raise MissingLayerError(qualified)
    return owner, attr, raw


def check_targets():
    """Raise MissingLayerError naming the first traced name that is gone."""
    for module_name, attr_path, _ in TARGETS:
        _resolve(module_name, attr_path)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._clear()

    def _clear(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for a traced wrapper; restore the originals on exit."""
        resolved = [(*_resolve(m, a), name) for m, a, name in TARGETS]
        try:
            for owner, attr, raw, name in resolved:
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self.wrap(raw.__func__, name)))
                else:
                    setattr(owner, attr, self.wrap(raw, name))
            yield self
        finally:
            for owner, attr, raw, _ in reversed(resolved):
                setattr(owner, attr, raw)

    def drain(self):
        """Fold the recorded spans into {(root name, span name): [calls, inclusive s, self s]}.

        The root is the outermost span a span sits in; the benchmark opens one
        root per program call, so totals separate by phase. Recorded spans are
        discarded afterwards.
        """
        if self._stack:
            raise RuntimeError("drain() called with spans still open")
        n = len(self.start)
        roots = array("i", range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                roots[i] = roots[p]
        selfs = self_times(self.start, self.end, self.parent)
        totals = {}
        for i in range(n):
            key = (self.names[self.name_id[roots[i]]], self.names[self.name_id[i]])
            acc = totals.setdefault(key, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i]
            acc[2] += selfs[i]
        self._clear()
        return totals


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents):
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children never drive self time below zero.
    """
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        out[p] -= union_length((max(starts[k], lo), min(ends[k], hi)) for k in kids)
    return out


def tail_percentile(samples):
    """(percentile, value) for the highest TAIL_LADDER percentile with MIN_BEYOND samples above it.

    Nearest-rank percentiles: the p-th percentile is the ceil(p n / 100)-th
    smallest sample. Returns None when no ladder percentile qualifies.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p, xs[rank - 1])
    return best
