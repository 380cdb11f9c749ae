"""The benchmark's own tests, at tiny scale (a few seconds a workload).

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They check that every workload prints every metric named in
``BENCHMARK.json`` with its unit, that the traced run writes its spans,
that the correctness checks fail a run whose reference is wrong, and
that the benchmark refuses to run without the program under test.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    """Run the benchmark CLI at tiny scale; (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "2", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    code, lines = bench("--workload", workload, "--seed", "3",
                        "--trace", "0")
    assert code == 0, lines
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(last["metrics"]) == set(expected)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == expected[name]
        assert entry["value"] > 0, name
    row = next(line for line in lines if line.startswith(workload))
    for name, unit in workloads.UNITS.items():
        assert f"| {name} " in row, name
        assert unit in row.split(f"| {name} ")[1].split("|")[0], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    code, lines = bench("--workload", workload, "--seed", "3",
                        "--trace", "1")
    assert code == 0, lines
    metrics = json.loads(lines[-1])["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(metrics) == set(expected)
    assert all(metrics[n]["unit"] == u for n, u in expected.items())
    path = os.path.join(ROOT, ".perfbench_out",
                        f"trace-{workload}-seed3.json")
    with open(path) as handle:
        trace = json.load(handle)
    assert trace["spans"] and trace["self_time_ms"]
    assert any(n.startswith("trace.overhead.") for n in trace["layers"])


def test_same_seed_gives_same_inputs():
    a = common.make_inputs(5, 50, 20, 10)
    b = common.make_inputs(5, 50, 20, 10)
    c = common.make_inputs(6, 50, 20, 10)
    assert all(np.array_equal(x, y) for x, y in
               zip((a.base, a.pool, a.extra), (b.base, b.pool, b.extra)))
    assert not np.array_equal(a.base, c.base)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_work_counts(workload):
    counts = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--seed", "4",
                            "--trace", "0")
        assert code == 0, lines
        counts.append(next(line for line in lines
                           if "work counts:" in line))
    assert counts[0] == counts[1]


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    real = workloads.unloaded_reference

    def wrong(*args, **kwargs):
        reference = real(*args, **kwargs)
        for rows in reference.values():
            rows.batch.ids[:] = rows.batch.ids[:, ::-1]
        return reference

    monkeypatch.setattr(workloads, "unloaded_reference", wrong)
    code = run.main(["--workload", "serve-hot", "--seed", "3", "--seconds",
                     "2", "--trace", "0", "--tiny"])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False
    assert "CORRECTNESS FAILURE" in out.err


def test_checks_fire_on_bad_numbers():
    class Row:
        def __init__(self, ids):
            self.ids = np.asarray(ids)
            self.distances = np.arange(len(ids), dtype=float)

    common.check_rows_equal("ok", Row([1, 2]), Row([1, 2]))
    with pytest.raises(common.CorrectnessError):
        common.check_rows_equal("swap", Row([1, 2]), Row([2, 1]))
    with pytest.raises(common.CorrectnessError):
        common.check_accounting("lost", submitted=10, completed=8, failed=1)
    with pytest.raises(common.CorrectnessError):
        common.check_recall("poor", 0.0)
    truth = common.exact_top_k(np.eye(12), np.eye(12)[:2], k=1)
    assert truth[:, 0].tolist() == [0, 1]


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert out.returncode not in (0, None)
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
