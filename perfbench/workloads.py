"""The four workloads, each timing calls into the public ``repro`` API.

Every workload returns a :class:`Result`: the end-to-end numbers (each
with its sample count), the per-layer numbers, exact work counts, and
request accounting.  Untraced runs use a :class:`~common.NullTracer`;
a traced run repeats the measured window with a live
:class:`~common.Tracer` and the engine's ``KernelProfile`` hook set,
then derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    DIM,
    Children,
    CorrectnessError,
    NullTracer,
    Tracer,
    await_line,
    check_accounting,
    check_recall,
    check_rows_equal,
    exact_top_k,
    make_inputs,
    median,
    pct,
    recall_at_k,
    repeat_share,
    zipf_indices,
)

from repro.api import (  # noqa: E402  (sys.path is set by run.py)
    GraphSpec,
    IndexSpec,
    ScenarioSpec,
    SearchRequest,
    ShardingSpec,
    build,
    load_index,
    save_index,
    storage_report,
)
from repro.api.registry import RPQ_QUICK_CONFIG, build_graph_from_spec
from repro.core import RPQ, RPQTrainingConfig
from repro.engine import KernelProfile, SearchContext
from repro.loadgen import (
    BatcherFarm,
    NetTarget,
    RequestMix,
    poisson_schedule,
    run_open_loop,
    summarize_run,
    trace_schedule,
    verify_outcomes,
)
from repro.quantization import TableCache
from repro.serving import partition_rows
from repro.serving.net import NetClient, ShardClient, framing

K = 10
#: Every end-to-end metric a row prints, with its unit, in print order.
#: ``BENCHMARK.json`` gates a subset; the rest spread too widely from run
#: to run on a small shared host (the tails, interpreter start-up in the
#: worker boot, the set-up-derived insert rate, per-call search time,
#: whose two beam widths make a two-mode distribution) or are 0 (errors).
UNITS = {
    "setup_s": "s",
    "recall_at_10": "ratio",
    "throughput_qps": "1/s",
    "p50_ms.lo": "ms",
    "p99_ms.lo": "ms",
    "p50_ms.hi": "ms",
    "p99_ms.hi": "ms",
    "error_rate": "ratio",
    "worker_boot_ms": "ms",
    "bytes_per_vector": "bytes",
    "insert_rows_per_s": "1/s",
    "search_p50_ms": "ms",
    "search_p99_ms": "ms",
}
#: A generator that submits later than this (p99 of its lag) is flagged.
LAG_BOUND_MS = 5.0
#: Segments per open-loop run; each is a ``lo`` stretch, a ``hi``
#: stretch and a burst (see ``point_plan``).
SEGMENTS = 6
#: Shares of the window spent at the ``lo`` and ``hi`` rates; the
#: bursts take most of the rest.
LO_SHARE, HI_SHARE = 0.5, 0.3
#: Untimed wire round trips before each serve-wire window.
WIRE_WARMUP = 30
#: Worker boots per run on the workloads that boot no worker to serve.
BOOT_ROUNDS = 3


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use; ``TINY`` is the self-test scale.

    One run (three set-ups plus an 11 s window) takes 12-34 s on one
    CPU of a shared 2-vCPU host, depending on the host's speed at the
    time.  The open-loop rates keep the one CPU mostly idle, so a
    request rarely queues behind another: a request costs about 7-11 ms
    of CPU in-process and 9-15 ms over the wire, and latency under
    queueing grows faster than the host slows (at 30/60 QPS in-process
    and 80/160 over the wire, p50 spread 0.3-0.8 of its median from run
    to run; at 8/20 QPS on one CPU, 0.03-0.24).
    """

    n_base: int = 800
    n_pool: int = 131072
    hot: int = 200
    zipf_exponent: float = 0.8
    setup_reps: int = 3
    graph: Tuple[Tuple[str, int], ...] = (("r", 12), ("search_l", 24))
    rpq_epochs: int = 2
    batch: int = 64
    beams: Tuple[int, int] = (16, 48)
    hot_rates: Tuple[float, float] = (8.0, 20.0)
    hot_burst: int = 300
    wire_rates: Tuple[float, float] = (8.0, 20.0)
    wire_burst: int = 150
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    stream_initial: int = 600
    stream_extra: int = 12000
    stream_insert: int = 8
    stream_searches: int = 4
    stream_search_batch: int = 16
    stream_consolidate_every: int = 8
    stream_ops_per_s: float = 120.0
    probe_queries: int = 1024


TINY = Sizes(
    n_base=240,
    n_pool=4096,
    hot=32,
    setup_reps=1,
    graph=(("r", 8), ("search_l", 16)),
    rpq_epochs=1,
    batch=16,
    hot_rates=(60.0, 120.0),
    hot_burst=30,
    wire_rates=(40.0, 80.0),
    wire_burst=20,
    stream_initial=120,
    stream_extra=2000,
    probe_queries=32,
)


@dataclass
class Run:
    """What one workload invocation works with."""

    name: str
    seed: int
    seconds: float
    traced: bool
    sizes: Sizes
    root: str
    workdir: str
    children: Children
    tracer: Tracer = field(default_factory=NullTracer)
    #: The traced pass of a traced run: workloads whose queries must be
    #: unseen take them from the second half of their pool.
    second_pass: bool = False


@dataclass
class Result:
    e2e: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, n: Optional[int] = None) -> None:
        assert name in UNITS, name
        self.e2e[name] = float(value)
        if n is not None:
            self.samples[name] = int(n)


# ----------------------------------------------------------------------
# Setup: spec -> ready to answer
# ----------------------------------------------------------------------


def _timed(tracer: Tracer, phases: Dict[str, float], name: str,
           fn: Callable):
    start = time.perf_counter()
    with tracer.span(name):
        out = fn()
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - start
    return out


# The program's own seeds (graph build order, RPQ training) are fixed:
# they are settings of the system under test, not inputs.
def _graph_spec(run: Run) -> GraphSpec:
    return GraphSpec(kind="vamana", seed=0, params=dict(run.sizes.graph))


def _fit_rpq(run: Run, x: np.ndarray, graph) -> object:
    config = RPQTrainingConfig(
        **dict(RPQ_QUICK_CONFIG, seed=0, epochs=run.sizes.rpq_epochs)
    )
    rpq = RPQ(8, 32, config=config, seed=0)
    rpq.fit(x, graph, training_sample=x)
    return rpq.quantizer


def build_memory(run: Run, x: np.ndarray, phases: Dict[str, float]):
    """Unsharded RPQ ``memory`` index."""
    t = run.tracer
    gspec = _graph_spec(run)
    graph = _timed(t, phases, "graphs.build",
                   lambda: build_graph_from_spec(gspec, x))
    quantizer = _timed(t, phases, "quantization.fit",
                       lambda: _fit_rpq(run, x, graph))
    spec = IndexSpec(graph=gspec)
    return _timed(t, phases, "api.assemble",
                  lambda: build(spec, data=x, graph=graph,
                                quantizer=quantizer))


def build_sharded(run: Run, x: np.ndarray, phases: Dict[str, float]):
    """2-shard ``thread`` RPQ index; one quantizer, trained on shard 0's
    rows and graph, serves both shards."""
    t = run.tracer
    gspec = _graph_spec(run)
    parts = partition_rows(x.shape[0], 2)
    graphs = _timed(t, phases, "graphs.build",
                    lambda: [build_graph_from_spec(gspec, x[p])
                             for p in parts])
    quantizer = _timed(t, phases, "quantization.fit",
                       lambda: _fit_rpq(run, x[parts[0]], graphs[0]))
    # Two pool threads even on one CPU (see ``run.pin_to_one_cpu``), so
    # the fan-out runs through the thread pool, not the serial path.
    spec = IndexSpec(graph=gspec, sharding=ShardingSpec(
        num_shards=2, backend="thread", max_workers=2))
    return _timed(t, phases, "api.assemble",
                  lambda: build(spec, data=x, quantizer=quantizer,
                                shard_parts=parts, shard_graphs=graphs))


def build_streaming(run: Run, x: np.ndarray, phases: Dict[str, float]):
    """``streaming`` index over the initial rows (RPQ trained against a
    Vamana graph of those rows, then the rows inserted)."""
    t = run.tracer
    gspec = _graph_spec(run)
    graph = _timed(t, phases, "graphs.build",
                   lambda: build_graph_from_spec(gspec, x))
    quantizer = _timed(t, phases, "quantization.fit",
                       lambda: _fit_rpq(run, x, graph))
    spec = IndexSpec(graph=gspec, scenario=ScenarioSpec(
        kind="streaming", params=dict(run.sizes.graph, seed=0)))
    return _timed(t, phases, "api.assemble",
                  lambda: build(spec, data=x, quantizer=quantizer))


def _close(obj) -> None:
    close = getattr(obj, "close", None)
    if close is not None:
        close()


def repeated_setup(run: Run, res: Result, build_once: Callable,
                   release: Callable = _close):
    """Run ``build_once`` ``setup_reps`` times; report the medians and
    keep the last stack.  ``build_once(phases)`` returns the stack;
    ``release`` tears down an earlier one."""
    reps = 1 if run.traced else run.sizes.setup_reps
    totals, all_phases, stack = [], [], None
    for _ in range(reps):
        if stack is not None:
            release(stack)
        phases: Dict[str, float] = {}
        start = time.perf_counter()
        stack = build_once(phases)
        totals.append(time.perf_counter() - start)
        all_phases.append(phases)
    res.put("setup_s", median(totals), len(totals))
    for name in all_phases[0]:
        res.layers[f"{name}_s"] = median([p[name] for p in all_phases])
    return stack


def leaves(index) -> List[object]:
    """The in-process scenario indexes under ``index``."""
    return list(getattr(index, "shards", None) or [index])


def construction_rate(res: Result, rows: int) -> None:
    """Rows per second through the lockstep construction path (the
    graph build), for workloads whose only inserts happen there."""
    res.put("insert_rows_per_s", rows / res.layers["graphs.build_s"], rows)


# ----------------------------------------------------------------------
# Instrumentation for the traced window
# ----------------------------------------------------------------------


class Instruments:
    """Spans around the layers' entry points plus the engine's own
    ``KernelProfile`` hook, for one traced window.

    ``engine.search`` wraps each scenario index's ``search_batch``;
    ``adc.tables`` wraps ``SearchContext.tables`` (cache lookup plus
    the build of any misses, once per batch) and ``adc.table_build``
    the quantizer's table build itself (misses only).
    """

    def __init__(self, tracer: Tracer, index) -> None:
        self.tracer = tracer
        self.profiles: List[KernelProfile] = []
        self._undo: List[Tuple[object, str]] = []
        self._cache0 = cache_totals(index)
        quantizers = {}
        for leaf in leaves(index):
            self._patch(leaf, "search_batch", "engine.search")
            leaf.kernel_profile = KernelProfile()
            self.profiles.append(leaf.kernel_profile)
            quantizers[id(leaf.quantizer)] = leaf.quantizer
        for q in quantizers.values():
            self._patch(q, "lookup_table_batch", "adc.table_build")
        self._tables = SearchContext.tables
        SearchContext.tables = tracer.wrap("adc.tables", self._tables)
        self.index = index

    def _patch(self, obj, attr: str, span: str) -> None:
        setattr(obj, attr, self.tracer.wrap(span, getattr(obj, attr)))
        self._undo.append((obj, attr))

    def finish(self, res: Result) -> None:
        SearchContext.tables = self._tables
        for obj, attr in self._undo:
            delattr(obj, attr)
        for leaf in leaves(self.index):
            leaf.kernel_profile = None
        kernel_layers(res, self.profiles)
        searches = self.tracer.durations_ms("engine.search")
        res.layers["engine.search_ms_per_batch"] = float(np.mean(searches))
        res.layers["adc.table_build_ms"] = float(
            np.mean(self.tracer.durations_ms("adc.tables")))
        res.counts["adc.table_builds"] = len(
            self.tracer.durations_ms("adc.table_build"))
        cache_layers(res, self._cache0, cache_totals(self.index))


def kernel_layers(res: Result, profiles: List[KernelProfile]) -> None:
    total = KernelProfile()
    for p in profiles:
        total.merge(p)
    busy = sum(total.seconds.values())
    res.layers["engine.rounds_per_batch"] = total.rounds / max(total.calls, 1)
    for stage in ("gather", "score", "rank", "truncate"):
        res.layers[f"engine.{stage}_frac"] = total.seconds[stage] / busy


def cache_totals(index) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for leaf in leaves(index):
        stats = leaf.engine_status()["table_cache"]
        for key in totals:
            totals[key] += stats[key]
    return totals


def cache_layers(res: Result, before: Dict[str, int],
                 after: Dict[str, int]) -> None:
    delta = {k: after[k] - before[k] for k in before}
    lookups = delta["hits"] + delta["misses"]
    res.layers["table_cache.hits"] = delta["hits"]
    res.layers["table_cache.misses"] = delta["misses"]
    res.layers["table_cache.evictions"] = delta["evictions"]
    res.layers["table_cache.hit_rate"] = delta["hits"] / max(lookups, 1)


def note_repeat_share(res: Result, query_rows) -> None:
    res.notes.append("repeat share (requests whose query was seen "
                     f"earlier in the run): {repeat_share(query_rows):.4f}")


def work_counts(res: Result, hops, dists) -> None:
    """Per-query kernel work: a count, exact for a given seed."""
    res.counts["hops_per_query"] = float(np.mean(hops))
    res.counts["dist_per_query"] = float(np.mean(dists))
    res.layers["engine.hops_per_query"] = res.counts["hops_per_query"]
    res.layers["engine.dist_per_query"] = res.counts["dist_per_query"]


def measure_window(run: Run, res: Result,
                   measure: Callable[[Run, Result], None]) -> None:
    """Untraced: one window.  Traced: an untraced half-window, then a
    traced one whose numbers are kept; the tracing overhead is traced
    minus untraced for every end-to-end number both halves measured."""
    if not run.traced:
        measure(run, res)
        return
    half = replace(run, seconds=run.seconds / 2.0)
    plain, traced = Result(), Result()
    measure(replace(half, tracer=NullTracer()), plain)
    measure(replace(half, second_pass=True), traced)
    res.layers.update(traced.layers)
    res.counts.update(traced.counts)
    res.e2e.update(traced.e2e)
    res.samples.update(traced.samples)
    res.notes.extend(traced.notes)
    res.attempted, res.failed = traced.attempted, traced.failed
    for name in sorted(set(plain.e2e) & set(traced.e2e)):
        diff = traced.e2e[name] - plain.e2e[name]
        res.layers[f"trace.overhead.{name}"] = diff
        res.notes.append(
            f"tracing overhead {name}: {traced.e2e[name]:.6g} traced - "
            f"{plain.e2e[name]:.6g} untraced = {diff:+.6g}")


# ----------------------------------------------------------------------
# Storage and worker boot
# ----------------------------------------------------------------------


def spawn_workers(run: Run, dirs: List[str], query: np.ndarray
                  ) -> Tuple[List[str], List[float], List[object]]:
    """Start one ``serve-shard`` per directory; per worker, the time
    from spawn to its first answer.  Returns endpoints, boot ms, procs."""
    starts, procs = [], []
    for d in dirs:
        starts.append(time.perf_counter())
        procs.append(run.children.spawn_cli(["serve-shard", "--dir", d]))
    endpoints, boots = [], []
    for start, proc in zip(starts, procs):
        endpoint = await_line(proc, "listening on")
        client = ShardClient(endpoint)
        try:
            client.search(query[None, :], K, 32, {})
        finally:
            client.close()
        boots.append((time.perf_counter() - start) * 1e3)
        endpoints.append(endpoint)
    return endpoints, boots, procs


def shard_dirs(dirpath: str, index) -> List[str]:
    n = len(getattr(index, "shards", None) or [])
    if not n:
        return [dirpath]
    return [os.path.join(dirpath, f"shard_{s:03d}") for s in range(n)]


def storage_numbers(res: Result, dirpath: str) -> None:
    report = storage_report(dirpath)
    comps = report["components"]
    res.put("bytes_per_vector", report["bytes_per_vector"],
            report["num_vectors"])
    res.counts["storage.graph_bytes"] = sum(
        v for k, v in comps.items() if "neighbors" in k or "offsets" in k)
    res.counts["storage.codes_bytes"] = sum(
        v for k, v in comps.items() if k.endswith(":codes"))
    res.counts["storage.total_bytes"] = report["total_bytes"]


def load_numbers(res: Result, dirpath: str) -> None:
    start = time.perf_counter()
    loaded = load_index(dirpath)
    res.layers["storage.load_ms"] = (time.perf_counter() - start) * 1e3
    _close(loaded)


def boot_probe(run: Run, res: Result, dirpath: str) -> None:
    """Trace mode: one fresh interpreter walks a worker's boot steps."""
    if not run.traced:
        return
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "boot_probe.py")
    out = subprocess.run(
        [sys.executable, script, "--src", os.path.join(run.root, "src"),
         "--dir", dirpath, "--dim", str(DIM)],
        capture_output=True, text=True, timeout=120, cwd=run.root,
        check=True,
    )
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    for key, value in probe.items():
        res.layers[f"boot.{key}"] = value


def save_and_boot(run: Run, res: Result, index, query: np.ndarray) -> None:
    """Persist the index as an mmap container, report its bytes, and
    time ``serve-shard`` workers (one per shard, ``BOOT_ROUNDS`` times)
    from spawn to first answer."""
    dirpath = os.path.join(run.workdir, "saved")
    start = time.perf_counter()
    save_index(index, dirpath, layout="mmap")
    res.layers["storage.save_ms"] = (time.perf_counter() - start) * 1e3
    storage_numbers(res, dirpath)
    load_numbers(res, dirpath)
    dirs = shard_dirs(dirpath, index)
    boots = []
    for _ in range(BOOT_ROUNDS):
        _, boot_ms, procs = spawn_workers(run, dirs, query)
        for proc in procs:
            run.children.stop(proc)
        boots.extend(boot_ms)
    res.put("worker_boot_ms", median(boots), len(boots))
    boot_probe(run, res, dirs[0])


# ----------------------------------------------------------------------
# Shared open-loop machinery (serve-hot, serve-wire)
# ----------------------------------------------------------------------


def point_plan(run: Run, rates: Tuple[float, float], burst: int,
               n_queries: Optional[int], first_query: int = 0):
    """Seeded schedules, profile assignments and query indices for the
    ``lo``, ``hi`` and ``burst`` points.  ``n_queries`` is the hot-set
    size for Zipf draws; ``None`` gives every request a fresh query,
    numbered from ``first_query``.

    The window runs as ``SEGMENTS`` segments of ``lo``, ``hi`` and one
    burst, so a change in the host's speed during the run hits every
    point alike; the median achieved rate of the bursts is the capacity.
    """
    rng = np.random.default_rng([run.seed, 7])
    mix = RequestMix()
    plan, next_query = [], first_query
    for _ in range(SEGMENTS):
        for label, rate, share in (("lo", rates[0], LO_SHARE),
                                   ("hi", rates[1], HI_SHARE)):
            n = max(8, int(round(rate * share * run.seconds / SEGMENTS)))
            plan.append((label, poisson_schedule(rate, n, seed=int(
                rng.integers(2**31)))))
        plan.append(("burst", trace_schedule(np.zeros(burst))))
    out = []
    for label, schedule in plan:
        n = schedule.num_requests
        assignments = mix.assign(n, seed=int(rng.integers(2**31)))
        if n_queries is None:
            idx = np.arange(next_query, next_query + n)
            next_query += n
        else:
            idx = zipf_indices(rng, n, n_queries, run.sizes.zipf_exponent)
        out.append((label, schedule, assignments, idx))
    return mix, out


def serve_points(run: Run, res: Result, make_target, mix, plan, queries,
                 reference, truth) -> List:
    """Drive every point; check answers, accounting and recall; fill the
    latency, throughput, batcher and generator numbers."""
    all_outcomes = []
    queue_waits, services, bursts = [], {}, []
    answered: Dict[int, np.ndarray] = {}   # distinct k=10 queries
    latency: Dict[str, List[float]] = {"lo": [], "hi": []}
    lag: Dict[str, List[float]] = {"lo": [], "hi": []}
    for label, schedule, assignments, idx in plan:
        target = make_target()
        try:
            outcomes = run_open_loop(
                target, schedule, mix, queries, assignments=assignments,
                query_indices=idx, timeout_s=60.0)
        finally:
            target.close()
        stats = summarize_run(schedule, outcomes)
        check_accounting(f"{run.name}/{label}", stats.submitted,
                         stats.completed, stats.failed)
        try:
            verify_outcomes(outcomes, reference)
        except AssertionError as exc:
            raise CorrectnessError(f"{run.name}/{label}: {exc}") from exc
        res.attempted += stats.scheduled
        res.failed += stats.scheduled - stats.completed
        done = [o for o in outcomes if o.ok]
        if label == "burst":
            bursts.append(stats.achieved_qps)
        else:
            latency[label].extend(o.latency_ms for o in done)
            lag[label].extend(o.submit_lag_ms for o in outcomes)
        for o in done:
            counters = _row_counters(o.row)
            enq = counters.get("batcher_enqueue_s")
            # Queue and service times are read at the fixed rates; a
            # burst's queue is its own backlog.
            if enq is not None and label != "burst":
                deq = counters["batcher_dequeue_s"]
                queue_waits.append((deq - enq) * 1e3)
                services[(o.profile, deq)] = (
                    counters["batcher_complete_s"] - deq) * 1e3
            if reference[o.profile].k == K:
                answered[o.query_index] = o.row.ids
        all_outcomes.extend(done)
    res.put("throughput_qps", median(bursts), len(bursts))
    for label in ("lo", "hi"):
        lat = latency[label]
        res.put(f"p50_ms.{label}", pct(lat, 50), len(lat))
        res.put(f"p99_ms.{label}", pct(lat, 99), len(lat))
        lag_p99 = pct(lag[label], 99)
        res.layers[f"loadgen.submit_lag_ms.max.{label}"] = max(lag[label])
        res.layers[f"loadgen.submit_lag_ms.p99.{label}"] = lag_p99
        if lag_p99 > LAG_BOUND_MS:
            res.notes.append(
                f"FLAG generator lag p99 {lag_p99:.2f} ms > "
                f"{LAG_BOUND_MS} ms at {label}")
    rows = sorted(answered)
    recall = recall_at_k([answered[q] for q in rows], truth[rows])
    check_recall(run.name, recall)
    res.put("recall_at_10", recall, len(rows))
    res.put("error_rate", res.failed / max(res.attempted, 1), res.attempted)
    service = list(services.values())
    res.put("search_p50_ms", pct(service, 50), len(service))
    res.put("search_p99_ms", pct(service, 99), len(service))
    res.layers["batcher.queue_wait_ms.mean"] = float(np.mean(queue_waits))
    res.layers["batcher.queue_wait_ms.p99"] = pct(queue_waits, 99)
    res.layers["batcher.service_ms"] = float(np.mean(service))
    res.layers["batcher.mean_batch"] = len(queue_waits) / max(len(service), 1)
    hops = [_row_counters(o.row)["hops"] for o in all_outcomes]
    dists = [_row_counters(o.row)["distance_computations"]
             for o in all_outcomes]
    work_counts(res, hops, dists)
    # In-process rows name the counter per row, wire rows per batch.
    hits = [_row_counters(o.row).get("table_cache_hit")
            or _row_counters(o.row).get("table_cache_hits", 0)
            for o in all_outcomes]
    res.counts["table_cache_hits"] = int(np.sum(hits))
    return all_outcomes


def _row_counters(row) -> dict:
    """Per-request counters of an in-process row or a wire row."""
    counters = getattr(row, "counters", None)
    return vars(row) if counters is None else counters


class ProfileRows:
    """``verify_outcomes`` reference for one profile: the unloaded batch
    over just the queries that profile was sent, addressed by pool row."""

    def __init__(self, batch, rows: np.ndarray, k: int) -> None:
        self.batch = batch
        self.pos = {int(r): i for i, r in enumerate(rows)}
        self.k = k

    def row(self, query_index: int):
        return self.batch.row(self.pos[int(query_index)])


def unloaded_reference(index, mix, queries, plan) -> Dict[str, ProfileRows]:
    used: Dict[str, set] = {p.name: set() for p in mix.profiles}
    for _, _, assignments, idx in plan:
        for a, q in zip(assignments, idx):
            used[mix.profiles[int(a)].name].add(int(q))
    reference = {}
    for p in mix.profiles:
        rows = np.array(sorted(used[p.name]), dtype=np.int64)
        batch = index.search_batch(queries[rows], k=p.k,
                                   beam_width=p.beam_width)
        reference[p.name] = ProfileRows(batch, rows, p.k)
    return reference


def batcher_spans(tracer: Tracer, outcomes) -> None:
    """Queue and service spans per request, from the batcher's own
    per-request timestamps (same clock as the tracer in-process)."""
    for o in outcomes:
        c = _row_counters(o.row)
        if "batcher_enqueue_s" in c:
            tracer.add("batcher.queue", c["batcher_enqueue_s"],
                       c["batcher_dequeue_s"], rid=o.index)
            tracer.add("batcher.service", c["batcher_dequeue_s"],
                       c["batcher_complete_s"], rid=o.index)


# ----------------------------------------------------------------------
# offline-batch
# ----------------------------------------------------------------------


def offline_batch(run: Run) -> Result:
    s = run.sizes
    data = make_inputs(run.seed, s.n_base, s.n_pool, 0)
    res = Result()
    index = repeated_setup(run, res, lambda ph: build_memory(run, data.base,
                                                             ph))
    construction_rate(res, s.n_base)
    try:
        def measure(r: Run, out: Result) -> None:
            inst = Instruments(r.tracer, index) if r.tracer.enabled else None
            _offline_window(r, out, index, data)
            if inst is not None:
                inst.finish(out)

        measure_window(run, res, measure)
        save_and_boot(run, res, index, data.pool[0])
    finally:
        _close(index)
    return res


def _offline_window(run: Run, res: Result, index, data) -> None:
    s = run.sizes
    pool = data.pool
    # Warm the interpreter and workspace pool on rows the window never
    # reaches first (the tail of the pool).
    index.search_batch(pool[-s.batch:], k=K, beam_width=s.beams[1])
    lat = {b: [] for b in s.beams}
    answered, hops, dists, firsts = [], [], [], []
    pos = pool.shape[0] // 2 if run.second_pass else 0
    served, i, failed = [], 0, 0
    start = time.perf_counter()
    deadline = start + run.seconds
    while time.perf_counter() < deadline:
        beam = s.beams[i % 2]
        rows = np.arange(pos, pos + s.batch) % pool.shape[0]
        pos += s.batch
        t0 = time.perf_counter()
        try:
            with run.tracer.span("offline.batch", rid=i):
                result = index.search_batch(pool[rows], k=K, beam_width=beam)
        except Exception as exc:  # counted, the loop goes on
            failed += s.batch
            res.notes.append(f"batch {i} failed: {exc!r}")
            i += 1
            continue
        lat[beam].append((time.perf_counter() - t0) * 1e3)
        served.append(rows)
        answered.append(result.ids)
        if i < 8:
            hops.append(result.hops)
            dists.append(result.distance_computations)
            firsts.append((rows, beam, result))
        i += 1
    wall = time.perf_counter() - start
    rows_all = np.concatenate(served)
    res.attempted = rows_all.size + failed
    res.failed = failed
    res.put("throughput_qps", rows_all.size / wall, rows_all.size)
    for label, beam in zip(("lo", "hi"), s.beams):
        res.put(f"p50_ms.{label}", pct(lat[beam], 50), len(lat[beam]))
        res.put(f"p99_ms.{label}", pct(lat[beam], 99), len(lat[beam]))
    both = lat[s.beams[0]] + lat[s.beams[1]]
    res.put("search_p50_ms", pct(both, 50), len(both))
    res.put("search_p99_ms", pct(both, 99), len(both))
    res.put("error_rate", failed / max(res.attempted, 1), res.attempted)
    note_repeat_share(res, rows_all)
    work_counts(res, np.concatenate(hops), np.concatenate(dists))
    # Answers must not depend on batch composition: the first two
    # same-beam batches, re-run as one unloaded batch, agree bitwise.
    same = [f for f in firsts if f[1] == s.beams[0]][:2]
    rows = np.concatenate([f[0] for f in same])
    ref = index.search_batch(pool[rows], k=K, beam_width=s.beams[0])
    j = 0
    for _, _, result in same:
        for r in range(result.ids.shape[0]):
            check_rows_equal(run.name, result.row(r), ref.row(j))
            j += 1
    truth = exact_top_k(data.base, pool[rows_all])
    recall = recall_at_k(np.concatenate(answered), truth)
    check_recall(run.name, recall)
    res.put("recall_at_10", recall, rows_all.size)


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------


def serve_hot(run: Run) -> Result:
    s = run.sizes
    data = make_inputs(run.seed, s.n_base, s.hot, 0)
    res = Result()
    index = repeated_setup(run, res, lambda ph: build_sharded(run, data.base,
                                                              ph))
    construction_rate(res, s.n_base)
    try:
        truth = exact_top_k(data.base, data.pool)

        def measure(r: Run, out: Result) -> None:
            mix_r, plan_r = point_plan(r, s.hot_rates, s.hot_burst, s.hot)
            # Taking the reference also fills the table cache with the
            # hot set, as a long-running server's would be.
            reference = unloaded_reference(index, mix_r, data.pool, plan_r)
            inst = Instruments(r.tracer, index) if r.tracer.enabled else None
            outcomes = serve_points(
                r, out,
                lambda: BatcherFarm(index, mix_r.profiles,
                                    max_batch_size=s.max_batch_size,
                                    max_wait_ms=s.max_wait_ms),
                mix_r, plan_r, data.pool, reference, truth)
            note_repeat_share(out, np.concatenate([p[3] for p in plan_r]))
            if inst is not None:
                inst.finish(out)
                batcher_spans(r.tracer, outcomes)
                fanout_overhead(out, index, data.pool,
                                out.layers["batcher.mean_batch"])

        measure_window(run, res, measure)
        save_and_boot(run, res, index, data.pool[0])
    finally:
        _close(index)
    return res


def fanout_overhead(res: Result, index, pool: np.ndarray,
                    mean_batch: float, reps: int = 30) -> None:
    """``ShardedIndex.search`` minus the slowest shard's direct search
    on the same batch, median over ``reps`` batches of the run's mean
    batch size."""
    b = max(1, int(round(mean_batch)))
    rng = np.random.default_rng(0)
    gaps = []
    for _ in range(reps):
        q = pool[rng.integers(0, pool.shape[0], size=b)]
        t0 = time.perf_counter()
        index.search_batch(q, k=K, beam_width=32)
        whole = time.perf_counter() - t0
        slowest = 0.0
        for shard in index.shards:
            t0 = time.perf_counter()
            shard.search_batch(q, k=K, beam_width=32)
            slowest = max(slowest, time.perf_counter() - t0)
        gaps.append((whole - slowest) * 1e3)
    res.layers["sharded.fanout_overhead_ms"] = median(gaps)


# ----------------------------------------------------------------------
# serve-wire
# ----------------------------------------------------------------------


@dataclass
class WireStack:
    index: object          # the in-process build: the unloaded reference
    dirpath: str
    client: NetClient
    procs: List[object]


def serve_wire(run: Run) -> Result:
    s = run.sizes
    _, plan = point_plan(run, s.wire_rates, s.wire_burst, None)
    n_plan = sum(p[1].num_requests for p in plan)
    # Two windows of fresh queries (untraced and traced pass), then the
    # warm-up rows, which no window reaches.
    data = make_inputs(run.seed, s.n_base, 2 * n_plan + WIRE_WARMUP, 0)
    res = Result()
    boots, saves = [], []

    def build_once(phases):
        index = build_sharded(run, data.base, phases)
        dirpath = os.path.join(run.workdir, f"wire-{len(saves)}")
        start = time.perf_counter()
        save_index(index, dirpath, layout="mmap")
        saves.append((time.perf_counter() - start) * 1e3)
        endpoints, boot_ms, procs = spawn_workers(
            run, shard_dirs(dirpath, index), data.pool[0])
        boots.extend(boot_ms)
        gateway = run.children.spawn_cli([
            "experiment", "serve", "--listen", "127.0.0.1:0",
            "--dir", dirpath, "--endpoints", ",".join(endpoints),
            "--batch-size", str(s.max_batch_size),
            "--wait-ms", str(s.max_wait_ms),
        ])
        address = await_line(gateway, "gateway listening on")
        client = NetClient(address)
        client.search(SearchRequest(queries=data.pool[:1], k=K,
                                    beam_width=32))
        return WireStack(index, dirpath, client, [gateway] + procs)

    def release(stack: WireStack) -> None:
        stack.client.close()
        for proc in stack.procs:
            run.children.stop(proc)
        _close(stack.index)

    stack = repeated_setup(run, res, build_once, release)
    construction_rate(res, s.n_base)
    try:
        res.put("worker_boot_ms", median(boots), len(boots))
        res.layers["storage.save_ms"] = median(saves)
        storage_numbers(res, stack.dirpath)
        load_numbers(res, stack.dirpath)
        truth = exact_top_k(data.base, data.pool)

        def measure(r: Run, out: Result) -> None:
            mix_r, plan_r = point_plan(r, s.wire_rates, s.wire_burst, None,
                                       n_plan if r.second_pass else 0)
            warm_up_wire(stack.client, mix_r, data.pool[-WIRE_WARMUP:])
            reference = unloaded_reference(stack.index, mix_r, data.pool,
                                           plan_r)
            outcomes = serve_points(
                r, out, lambda: NetTarget(stack.client), mix_r, plan_r,
                data.pool, reference, truth)
            note_repeat_share(out, np.concatenate([p[3] for p in plan_r]))
            lookups = 2 * len(outcomes)
            hits = out.counts["table_cache_hits"]
            out.layers["table_cache.hits"] = hits
            out.layers["table_cache.misses"] = lookups - hits
            out.layers["table_cache.hit_rate"] = hits / max(lookups, 1)
            if r.tracer.enabled:
                wire_probe(r, out, stack, data.pool)
                replay_engine(r, out, stack.index, data.pool, outcomes)

        measure_window(run, res, measure)
        boot_probe(run, res, shard_dirs(stack.dirpath, stack.index)[0])
    finally:
        release(stack)
    return res


def warm_up_wire(client: NetClient, mix, rows: np.ndarray) -> None:
    """Untimed round trips at every profile, so the gateway's
    per-profile batchers exist and the workers' code paths are warm
    before the first timed request."""
    for i, row in enumerate(rows):
        p = mix.profiles[i % len(mix.profiles)]
        client.search(SearchRequest(queries=row[None, :], k=p.k,
                                    beam_width=p.beam_width))


def wire_probe(run: Run, res: Result, stack: WireStack,
               pool: np.ndarray, n: int = 100) -> None:
    """Unloaded round trips: the framing codec timed on real requests
    and responses, and the wire's tax over an in-process search."""
    enc, dec, req_bytes, resp_bytes, tax = [], [], [], [], []
    for i in range(n):
        request = SearchRequest(queries=pool[i:i + 1], k=K, beam_width=32)
        t0 = time.perf_counter()
        with run.tracer.span("net.round_trip", rid=i):
            response = stack.client.search(request)
        rtt = time.perf_counter() - t0
        t0 = time.perf_counter()
        stack.index.search(request)
        tax.append((rtt - (time.perf_counter() - t0)) * 1e3)
        t0 = time.perf_counter()
        with run.tracer.span("framing.encode", rid=i):
            blob = framing.encode_search_request(request, i)
            reply = framing.encode_search_response(response, i)
        enc.append((time.perf_counter() - t0) * 1e6 / 2)
        req_bytes.append(len(blob))
        resp_bytes.append(len(reply))
        t0 = time.perf_counter()
        with run.tracer.span("framing.decode", rid=i):
            framing.decode_search_request(framing.decode_message(blob))
            framing.decode_search_response(framing.decode_message(reply))
        dec.append((time.perf_counter() - t0) * 1e6 / 2)
    res.layers["framing.encode_us"] = median(enc)
    res.layers["framing.decode_us"] = median(dec)
    res.layers["framing.request_bytes"] = median(req_bytes)
    res.layers["framing.response_bytes"] = median(resp_bytes)
    res.layers["net.rtt_tax_ms"] = median(tax)


def replay_engine(run: Run, res: Result, index, pool, outcomes,
                  n: int = 256) -> None:
    """The kernel runs inside the worker processes, out of reach of the
    profile hook; replay the window's first ``n`` queries through the
    same index in-process, at the window's mean batch size and with a
    cold table cache of the default size, under the hook."""
    for leaf in leaves(index):
        leaf.table_cache = TableCache()
    inst = Instruments(run.tracer, index)
    b = max(1, int(round(res.layers["batcher.mean_batch"])))
    rows = np.array([o.query_index for o in outcomes[:n]])
    for lo in range(0, rows.size, b):
        index.search_batch(pool[rows[lo:lo + b]], k=K, beam_width=32)
    # Keep the cache numbers seen over the wire; only evictions (not
    # visible in the answers) come from the replay.
    seen = {k: v for k, v in res.layers.items()
            if k.startswith("table_cache.")}
    inst.finish(res)
    res.layers.update(seen)


# ----------------------------------------------------------------------
# stream-rw
# ----------------------------------------------------------------------


def stream_ops(seed: int, sizes: Sizes) -> List[tuple]:
    """The seeded write/read op sequence.  A round inserts the next rows,
    deletes one live vertex (``u`` picks it among the live ids at that
    point, so the choice is fixed by the prefix) and runs searches at
    alternating beam widths; every few rounds it consolidates."""
    rng = np.random.default_rng([seed, 11])
    ops, row, q = [], 0, 0
    rounds = sizes.stream_extra // sizes.stream_insert
    for r in range(rounds):
        ops.append(("insert", row, sizes.stream_insert))
        row += sizes.stream_insert
        ops.append(("delete", float(rng.random())))
        for j in range(sizes.stream_searches):
            ops.append(("search", q, sizes.beams[j % 2]))
            q += sizes.stream_search_batch
        if (r + 1) % sizes.stream_consolidate_every == 0:
            ops.append(("consolidate",))
    return ops


def stream_rw(run: Run) -> Result:
    s = run.sizes
    data = make_inputs(run.seed, s.stream_initial, 4 * s.stream_extra,
                       s.stream_extra)
    res = Result()
    base = repeated_setup(
        run, res, lambda ph: build_streaming(run, data.base, ph))
    # Each pass mutates its own copy of the set-up index, so the traced
    # and untraced passes start from the same state.
    saved = os.path.join(run.workdir, "stream-base")
    save_index(base, saved)
    last = []

    def measure(r: Run, out: Result) -> None:
        idx = load_index(saved)
        inst = Instruments(r.tracer, idx) if r.tracer.enabled else None
        _stream_window(r, out, idx, data)
        if inst is not None:
            inst.finish(out)
        last.append(idx)

    measure_window(run, res, measure)
    save_and_boot(run, res, last[-1], data.pool[0])
    return res


def _stream_window(run: Run, res: Result, index, data) -> None:
    """A fixed number of ops (``stream_ops_per_s`` per second of the
    window, 0.6-1.0 window of work on a 2-CPU host), so every run of a
    seed walks the same states; it stops early only past three windows."""
    s = run.sizes
    ops = stream_ops(run.seed, s)[:int(run.seconds * s.stream_ops_per_s)]
    ids_to_row = list(range(s.stream_initial))   # vertex id -> row id
    rows_all = np.concatenate([data.base, data.extra])
    dead = set()
    lat = {b: [] for b in s.beams}
    ins_ms, del_ms, cons_ms, repack = [], [], [], []
    inserted, searched, insert_s = 0, 0, 0.0
    hops, dists = [], []
    just_wrote = False
    start = time.perf_counter()
    deadline = start + 3 * run.seconds
    n_ops = 0
    for op in ops:
        if time.perf_counter() >= deadline:
            res.notes.append(f"stopped after {n_ops} of {len(ops)} ops")
            break
        n_ops += 1
        kind = op[0]
        if kind == "insert":
            _, row, n = op
            t0 = time.perf_counter()
            with run.tracer.span("streaming.insert"):
                new = index.insert_batch(data.extra[row:row + n])
            took = time.perf_counter() - t0
            insert_s += took
            ins_ms.append(took * 1e3 / n)
            for v, r in zip(new, range(row, row + n)):
                if v != len(ids_to_row):
                    raise CorrectnessError(
                        f"{run.name}: insert returned id {v}, expected "
                        f"{len(ids_to_row)}")
                ids_to_row.append(s.stream_initial + r)
            inserted += n
            just_wrote = True
        elif kind == "delete":
            live = [v for v in range(len(ids_to_row)) if v not in dead]
            victim = live[int(op[1] * len(live))]
            t0 = time.perf_counter()
            with run.tracer.span("streaming.delete"):
                index.delete(victim)
            del_ms.append((time.perf_counter() - t0) * 1e3)
            dead.add(victim)
        elif kind == "consolidate":
            t0 = time.perf_counter()
            with run.tracer.span("streaming.consolidate"):
                index.consolidate()
            cons_ms.append((time.perf_counter() - t0) * 1e3)
            just_wrote = True
        else:
            _, q, beam = op
            queries = data.pool[q % data.pool.shape[0]:][:s.stream_search_batch]
            t0 = time.perf_counter()
            result = index.search_batch(queries, k=K, beam_width=beam)
            took = time.perf_counter() - t0
            if just_wrote and run.tracer.enabled:
                t1 = time.perf_counter()
                index.search_batch(queries, k=K, beam_width=beam)
                repack.append((took - (time.perf_counter() - t1)) * 1e3)
            just_wrote = False
            lat[beam].append(took * 1e3)
            searched += queries.shape[0]
            found = result.ids[result.ids >= 0]
            if dead.intersection(found.tolist()):
                raise CorrectnessError(
                    f"{run.name}: a deleted vertex was returned")
            if n_ops < 64:
                hops.append(result.hops)
                dists.append(result.distance_computations)
    loop_s = time.perf_counter() - start
    res.attempted = n_ops
    res.failed = 0
    for label, beam in zip(("lo", "hi"), s.beams):
        res.put(f"p50_ms.{label}", pct(lat[beam], 50), len(lat[beam]))
        res.put(f"p99_ms.{label}", pct(lat[beam], 99), len(lat[beam]))
    both = lat[s.beams[0]] + lat[s.beams[1]]
    res.put("search_p50_ms", pct(both, 50), len(both))
    res.put("search_p99_ms", pct(both, 99), len(both))
    # A request of the read/write loop is one searched query or one
    # inserted row, so a slower write path lowers this too.
    res.put("throughput_qps", (searched + inserted) / loop_s,
            searched + inserted)
    res.put("insert_rows_per_s", inserted / insert_s, inserted)
    res.put("error_rate", 0.0, n_ops)
    res.layers["streaming.insert_ms_per_row"] = float(np.mean(ins_ms))
    res.layers["streaming.delete_ms"] = float(np.mean(del_ms))
    res.layers["streaming.consolidate_ms"] = (
        float(np.mean(cons_ms)) if cons_ms else 0.0)
    if repack:
        res.layers["streaming.repack_ms"] = median(repack)
    res.notes.append(f"loop: {n_ops} ops, {inserted} rows inserted, "
                     f"{len(dead)} deleted, {len(cons_ms)} consolidations")
    note_repeat_share(res, np.arange(searched))
    work_counts(res, np.concatenate(hops), np.concatenate(dists))
    # Final state: recall over the live rows by brute force, and the
    # probe answered as one batch equals the same probe in two halves.
    live = np.array([v for v in range(len(ids_to_row)) if v not in dead])
    probe = data.pool[-s.probe_queries:]
    whole = index.search_batch(probe, k=K, beam_width=s.beams[1])
    half = s.probe_queries // 2
    for part, offset in ((probe[:half], 0), (probe[half:], half)):
        split = index.search_batch(part, k=K, beam_width=s.beams[1])
        for r in range(part.shape[0]):
            check_rows_equal(run.name, split.row(r), whole.row(offset + r))
    truth = exact_top_k(rows_all[np.array(ids_to_row)[live]], probe,
                        ids=live)
    recall = recall_at_k(whole.ids, truth)
    check_recall(run.name, recall)
    res.put("recall_at_10", recall, s.probe_queries)


WORKLOADS = {
    "offline-batch": offline_batch,
    "serve-hot": serve_hot,
    "serve-wire": serve_wire,
    "stream-rw": stream_rw,
}


def run_workload(run: Run) -> Result:
    os.makedirs(run.workdir, exist_ok=True)
    try:
        return WORKLOADS[run.name](run)
    finally:
        run.children.stop_all()
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.workdir))
        except OSError:
            pass  # another run still uses it


