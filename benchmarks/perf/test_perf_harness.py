"""Self-test of the benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/perf

Runs every workload at smoke size twice with one seed, untraced and
then traced, and checks the result contract of BENCHMARK.json: every
metric present with its unit, no failed operation, and outputs that
repeat between the two runs.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/perf/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The --out records of one untraced and one traced smoke run."""
    out = tmp_path_factory.mktemp("perf") / "runs.jsonl"
    for trace in ("0", "1"):
        done = run_benchmark("--smoke", "--seconds", "1", "--seed", "7",
                             "--trace", trace, "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        lines = [json.loads(line) for line in done.stdout.splitlines()
                 if line.startswith("{")]
        assert len(lines) == len(WORKLOADS)
        for line in lines:
            assert set(line) == {"correct", "attempted", "failed",
                                 "metrics"}
            assert line["correct"], done.stdout
    return [json.loads(line) for line in out.read_text().splitlines()]


def _record(records, workload, trace):
    (record,) = [r for r in records
                 if r["workload"] == workload and r["trace"] == trace]
    return record


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(records, workload, trace, section):
    record = _record(records, workload, trace)
    assert record["failed"] == 0 and record["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert record["units"] == expected
    assert set(record["metrics"]) == set(expected)
    for name, value in record["metrics"].items():
        assert math.isfinite(value), name
        if section == "end_to_end":
            assert value > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_repeat(records, workload):
    untraced = _record(records, workload, 0)["digests"]
    traced = _record(records, workload, 1)["digests"]
    shared = min(len(untraced), len(traced))
    assert shared >= 1
    assert all(untraced[:shared]) and untraced[:shared] == traced[:shared]


def test_compare_accepts_a_set_against_itself(records, tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records))
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(runs), str(runs)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    assert "every shared operation matches" in done.stdout


def test_serve_windows_count_each_job_once(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    from serve_mix import record_windows
    from workloads import Outcome

    plain = SimpleNamespace(bodies={0: {}, 1: {}}, problems={},
                            latencies=[0.2, 0.3])
    traced = SimpleNamespace(
        bodies={0: {}, 1: {}},
        problems={-1: ["job_list fails its schema"],
                  1: ["job ended 'failed'"]},
        latencies=[],
    )
    outcome = Outcome()
    assert not record_windows(outcome, [plain, traced])
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert any("job_list" in p for p in outcome.problems)
    assert "a window finished no job" in outcome.problems


def test_operation_loop_records_a_failed_operation(tmp_path):
    plan = tmp_path / "plan.json"
    records = tmp_path / "records.jsonl"
    good = ["ler", "--batch", "4", "--windows", "2", "--seed", "3", "--json"]
    bad = ["ler", "--batch", "0", "--windows", "2", "--json"]
    plan.write_text(json.dumps({"warmup": good, "argvs": [bad, good],
                                "seconds": None, "limit": None,
                                "trace_dir": None}, sort_keys=True))
    done = subprocess.run(
        [sys.executable, str(HERE / "oploop.py"), str(plan), str(records)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    failed, passed = [json.loads(line)
                      for line in records.read_text().splitlines()]
    assert failed["exit"] != 0 and "shots must be positive" in failed["error"]
    assert passed["exit"] == 0 and json.loads(passed["stdout"])["arms"]
    assert all(ref > 0 for ref in failed["refs_s"] + passed["refs_s"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "ler-sharded", "--seconds", "1",
                         cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
