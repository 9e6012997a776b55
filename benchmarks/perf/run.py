"""Front-door performance benchmark of the ``repro`` package.

Runs seeded workloads against the public entry points - the ``repro``
CLI (cold starts in child processes, then ``repro.cli.main`` called
with each operation's argv in one child) and ``repro serve`` over
HTTP - for a fixed time, checks every output, and prints each metric
with its unit.  Times are scaled by a reference kernel timed around
each operation (``pace.py``), which cancels how busy the shared host
is.  The last line of stdout is one JSON object::

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"setup_s": {"value": 1.52, "unit": "s"}, ...}}

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json;
``--trace 1`` re-runs the same inputs with per-layer spans (see
``tracer.py``) and reports the per-layer metrics instead.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload ler-sharded --seed 1 \\
        --seconds 15 --trace 0 [--out results.jsonl]

``--workload all`` (the default) runs every workload in turn and
prints one result line per workload.  ``--out`` appends one JSON
record per workload run, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path


def parse_args(argv, spec) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append one JSON record per workload run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample, for "
                        "the self-test")
    args = parser.parse_args(argv)
    args.workloads = names if args.workload == "all" else [args.workload]
    return args


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(name: str, ctx, trace: bool):
    from serve_mix import measure_serve, trace_serve
    from workloads import CLI_WORKLOADS, measure_cli, trace_cli

    if name == "serve-mix":
        return (trace_serve if trace else measure_serve)(ctx)
    workload = CLI_WORKLOADS[name]
    return (trace_cli if trace else measure_cli)(workload, ctx)


def main(argv=None) -> int:
    # Children get PYTHONDONTWRITEBYTECODE; this process must not write
    # the tracked bytecode under src/ either, so set it before importing
    # anything from the benchmark or the package.
    sys.dont_write_bytecode = True
    from harness import (
        ROOT,
        SRC,
        Context,
        become_subreaper,
        pin_to_one_cpu,
    )

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    sys.path.insert(0, str(SRC))
    # The output checks import the package; do it before anything is
    # timed, so every reference kernel runs in the same process state.
    import repro.tools.validate_cli_json  # noqa: F401

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    become_subreaper()
    pin_to_one_cpu()
    tmp = Path(tempfile.mkdtemp(prefix=".perf-", dir=ROOT))
    try:
        for name in args.workloads:
            (tmp / name).mkdir()
            ctx = Context(
                seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                tmp=tmp / name, setup_reps=1 if args.smoke else 3,
            )
            outcome = run_workload(name, ctx, bool(args.trace))
            if outcome.metrics and set(outcome.metrics) != set(units):
                raise RuntimeError(
                    f"{name} emitted {sorted(outcome.metrics)}, "
                    f"BENCHMARK.json lists {sorted(units)}"
                )
            for metric, value in outcome.metrics.items():
                print(f"{name} {metric} = {value:.6g} {units[metric]}")
            for problem in outcome.problems:
                print(f"{name} PROBLEM: {problem}")
            if args.out is not None:
                record = {
                    "workload": name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "smoke": args.smoke, "correct": not outcome.problems,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed, "metrics": outcome.metrics,
                    "units": units, "digests": outcome.digests,
                    "problems": outcome.problems, "notes": outcome.notes,
                    "machine": machine(),
                }
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            print(json.dumps({
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in outcome.metrics.items()
                },
            }, sort_keys=True), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
