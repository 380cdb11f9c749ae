"""The repository benchmark: four workloads over the RPQ serving path.

Run from the repository root::

    python3 perfbench/run.py --workload offline-batch --seed 1 \\
        --seconds 11 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 11 --trace 0

``--workload all`` runs every workload and prints one row per
workload.  The benchmark generates every input from ``--seed``, builds
the index from source under ``src/``, measures for ``--seconds``,
checks the answers, and prints, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  A traced run also writes
its spans and per-layer self times to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The benchmark and every process it starts run on one CPU (see
``pin_to_one_cpu``).

Exit status: 0 when every check passed, 1 on a correctness failure
(answers differ from the unloaded reference, request accounting does
not add up, or recall falls below the floor), 2 when the benchmark
cannot run (no ``BENCHMARK.json`` or no program to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workload_names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: tiny inputs, one set-up")
    return parser.parse_args(argv)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def pin_to_one_cpu() -> None:
    """Run the benchmark, and every process it starts, on one CPU.

    On a shared virtual machine the time to wake a thread or process on
    another vCPU can double for minutes while single-thread compute
    stays put, and the serving paths hand every request across threads
    and processes several times; on one CPU each hand-off is a local
    context switch.  Called before NumPy loads, so BLAS sizes its
    thread pool to the one CPU too.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return
    os.sched_setaffinity(0, {cpus[-1]})


def main(argv=None) -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    # SIGTERM unwinds like an exception, so child processes are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    pin_to_one_cpu()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads as wl
        from common import Children, CorrectnessError, NullTracer, Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    units = wl.UNITS
    for m in spec["end_to_end"]:
        if units.get(m["name"]) != m["unit"]:
            print(f"perfbench: BENCHMARK.json gates {m['name']} in "
                  f"{m['unit']!r}, but the benchmark reports it in "
                  f"{units.get(m['name'])!r}", file=sys.stderr)
            return 2
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = (list(wl.WORKLOADS) if args.workload == "all"
             else [args.workload])
    sizes = wl.TINY if args.tiny else wl.Sizes()

    correct, attempted, failed = True, 0, 0
    results = []
    for name in names:
        children = Children(ROOT)
        run = wl.Run(
            name=name, seed=args.seed, seconds=args.seconds,
            traced=bool(args.trace), sizes=sizes, root=ROOT,
            workdir=os.path.join(ROOT, ".perfbench_work",
                                 f"{name}-{os.getpid()}"),
            children=children,
            tracer=Tracer() if args.trace else NullTracer(),
        )
        try:
            res = wl.run_workload(run)
        except CorrectnessError as exc:
            print(f"perfbench: {name}: CORRECTNESS FAILURE: {exc}",
                  file=sys.stderr)
            correct = False
            continue
        attempted += res.attempted
        failed += res.failed
        results.append((name, res))
        if args.trace:
            self_ms = run.tracer.self_time_ms()
            res.notes.append("self time (ms) per span: " + ", ".join(
                f"{k} {v:.1f}" for k, v in sorted(self_ms.items())))
            run.tracer.dump(
                os.path.join(ROOT, ".perfbench_out",
                             f"trace-{name}-seed{args.seed}.json"),
                {"self_time_ms": self_ms, "layers": res.layers,
                 "counts": res.counts, "end_to_end": res.e2e,
                 "notes": res.notes},
            )

    for name, res in results:
        cells = [
            f"{m} {fmt(res.e2e[m])} {units[m]}"
            + (f" (n={res.samples[m]})" if m in res.samples else "")
            for m in units if m in res.e2e
        ]
        print(f"{name:<13} | " + " | ".join(cells))
        print(f"{'':<13}   work counts: " + ", ".join(
            f"{k} {fmt(v)}" for k, v in sorted(res.counts.items())))
        if args.trace:
            print(f"{'':<13}   layers: " + ", ".join(
                f"{k} {fmt(v)}" for k, v in sorted(res.layers.items())))
        for note in res.notes:
            print(f"{'':<13}   {note}")

    if not correct:
        metrics = {}
    else:
        wanted = layer_units if args.trace else {
            m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {}
        for name, res in results:
            values = {**res.layers, **res.counts} if args.trace else res.e2e
            for metric, unit in wanted.items():
                key = metric if len(results) == 1 else f"{name}:{metric}"
                metrics[key] = {"value": float(values[metric]), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
