"""Shared pieces of the benchmark: seeded inputs, statistics, tracing,
child-process handling and the correctness checks.

Nothing here imports ``repro``: the inputs are generated by the
benchmark itself, so the program under test only ever receives arrays
and schedules.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np


class CorrectnessError(AssertionError):
    """An answer, an accounting identity or the recall floor failed."""


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


#: The ``sift`` profile of ``src/repro/datasets/synthetic.py`` (the
#: repo's stand-in for SIFT1M, whose local intrinsic dimension is 16.6 in
#: the paper's Table 3), copied here so that an edit to the program
#: cannot move the benchmark's data.
DIM = 64
LATENT = 16
CLUSTERS = 32
CENTER_SCALE = 4.0
NOISE = 0.25
DECAY = 2.0


class Mixture:
    """The ``sift`` profile's Gaussian mixture: components on random
    ``LATENT``-dimensional subspaces, mixed into ``DIM`` dimensions by
    one shared rotation, under a decaying per-dimension scale.

    The mixture itself is fixed (it is the workload's distribution); a
    run's seed only draws the rows from it, so seeds differ by sample,
    not by problem.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.centers = rng.normal(scale=CENTER_SCALE, size=(CLUSTERS, DIM))
        self.rotation, _ = np.linalg.qr(rng.normal(size=(DIM, DIM)))
        self.bases = rng.normal(scale=1.0 / np.sqrt(LATENT),
                                size=(CLUSTERS, LATENT, DIM))
        self.scales = np.exp(-DECAY * np.linspace(0.0, 1.0, DIM))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        labels = rng.integers(CLUSTERS, size=n)
        z = rng.normal(size=(n, LATENT))
        rows = self.centers[labels] + NOISE * rng.normal(size=(n, DIM))
        for c in range(CLUSTERS):
            members = labels == c
            rows[members] += z[members] @ self.bases[c]
        return (rows @ self.rotation) * self.scales


@dataclass
class Inputs:
    """Everything a workload feeds the program, derived from one seed."""

    base: np.ndarray      # rows the index is built over
    pool: np.ndarray      # query pool
    extra: np.ndarray     # rows inserted later (stream-rw)


def make_inputs(seed: int, n_base: int, n_pool: int,
                n_extra: int) -> Inputs:
    """Base rows, query pool and insert rows from one mixture, so
    queries and inserts land where the indexed data lives."""
    rows = Mixture().sample(np.random.default_rng(seed),
                            n_base + n_pool + n_extra)
    return Inputs(
        base=rows[:n_base],
        pool=rows[n_base:n_base + n_pool],
        extra=rows[n_base + n_pool:],
    )


def zipf_indices(rng: np.random.Generator, n: int, support: int,
                 exponent: float) -> np.ndarray:
    """``n`` draws from a Zipf law truncated to ``support`` ranks, with
    the rank-to-row mapping shuffled so the hot rows are arbitrary."""
    ranks = np.arange(1, support + 1, dtype=np.float64)
    p = ranks ** -exponent
    p /= p.sum()
    rows = rng.permutation(support)
    return rows[rng.choice(support, size=n, p=p)]


def repeat_share(indices: Sequence[int]) -> float:
    """Fraction of requests whose query was already seen in the run."""
    indices = np.asarray(indices)
    if indices.size == 0:
        return 0.0
    return 1.0 - np.unique(indices).size / indices.size


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def exact_top_k(base: np.ndarray, queries: np.ndarray, k: int = 10,
                ids: Optional[np.ndarray] = None,
                chunk: int = 1024) -> np.ndarray:
    """Brute-force top-``k`` ids (``ids`` maps base rows to ids)."""
    norms = np.einsum("ij,ij->i", base, base)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for lo in range(0, queries.shape[0], chunk):
        q = queries[lo:lo + chunk]
        d = norms[None, :] - 2.0 * q @ base.T
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(d, part, axis=1), axis=1)
        out[lo:lo + chunk] = np.take_along_axis(part, order, axis=1)
    return out if ids is None else np.asarray(ids)[out]


def recall_at_k(found: Sequence[np.ndarray], truth: np.ndarray) -> float:
    """Mean |found ∩ truth| / k over queries."""
    k = truth.shape[1]
    hits = sum(
        np.intersect1d(np.asarray(f)[:k], t).size for f, t in zip(found, truth)
    )
    return hits / float(k * len(truth))


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------

#: Healthy indexes here score about 0.3 (stream-rw, after its inserts
#: and deletes) and 0.6 (the others) over seeds; a broken kernel,
#: codebook or id mapping scores near k / rows, under 0.02.
RECALL_FLOOR = 0.25


def check_recall(name: str, value: float) -> None:
    if not value >= RECALL_FLOOR:
        raise CorrectnessError(
            f"{name}: recall_at_10 {value:.4f} is below the floor "
            f"{RECALL_FLOOR}"
        )


def check_accounting(name: str, submitted: int, completed: int,
                     failed: int) -> None:
    if submitted != completed + failed:
        raise CorrectnessError(
            f"{name}: submitted {submitted} != completed {completed} + "
            f"failed {failed}"
        )


def check_rows_equal(name: str, got, expected) -> None:
    """Bitwise equality of one answer row against its reference."""
    if not (np.array_equal(got.ids, expected.ids)
            and np.array_equal(got.distances, expected.distances)):
        raise CorrectnessError(f"{name}: answer differs from the reference")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent, request id).

    The parent is the innermost open span of the calling thread, so a
    table build inside a search nests under it; spans opened on other
    threads (batcher workers, shard pools) start their own trees.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid))

    def add(self, name: str, start: float, end: float,
            rid: Optional[int] = None) -> None:
        """Record a span whose interval was measured elsewhere."""
        with self._lock:
            sid = self._next
            self._next += 1
        self.spans.append((sid, name, start, end, None, rid))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations_ms(self, name: str) -> List[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s[1] == name]

    def self_time_ms(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time its children
        cover (children of one span never overlap: same thread)."""
        child_ms: Dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ms[parent] = child_ms.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            own = (end - start) - child_ms.get(sid, 0.0)
            totals[name] = totals.get(name, 0.0) + own * 1e3
        return totals

    def dump(self, path: str, summary: dict) -> None:
        """Write the spans and ``summary`` as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "rid")
        spans = [dict(zip(fields, s)) for s in self.spans]
        with open(path, "w") as handle:
            json.dump({**summary, "spans": spans}, handle)


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced run."""

    enabled = False

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        yield None

    def add(self, name, start, end, rid=None) -> None:
        pass

    def wrap(self, name: str, fn):
        return fn


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class Children:
    """Every process the benchmark starts; ``stop_all`` ends and reaps
    them (SIGTERM, then SIGKILL after a grace period)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.procs: List[subprocess.Popen] = []

    def spawn_cli(self, args: Sequence[str]) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            cwd=self.root,
            env=env,
        )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self) -> None:
        for proc in reversed(list(self.procs)):
            self.stop(proc)


def await_line(proc: subprocess.Popen, marker: str,
               timeout_s: float = 60.0) -> str:
    """The last word of the first stdout line containing ``marker``."""
    deadline = time.monotonic() + timeout_s
    seen = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        seen.append(line)
        if marker in line:
            return line.strip().rsplit(" ", 1)[-1]
    raise RuntimeError(
        f"no {marker!r} line from child; output:\n" + "".join(seen)
    )
