"""Run CLI operations one after another in one process, each timed.

    python benchmarks/perf/oploop.py PLAN.json RECORDS.jsonl

``PLAN.json`` (written by ``workloads.py``) holds ``warmup`` (one
argv), ``argvs`` (the operations, in order), ``seconds`` (or null),
``limit`` (or null) and ``trace_dir`` (or null).  The process imports
the package once and runs the warm-up operation untimed, so the timed
operations find the lazily built tables ready (``setup_s`` measures
the cold start on its own).  It then runs ``repro.cli.main(argv)`` for
each operation with stdout captured, and times the reference kernel
of ``pace.py`` before the first operation and after each one.  It
starts no operation that would end past ``seconds``, judged by the
mean so far, and stops after ``limit`` operations.  With a
``trace_dir``, the wrappers of ``tracer.py`` are installed after the
warm-up.

Each operation appends one line to ``RECORDS.jsonl``:
``{"wall_s", "refs_s": [before, after], "exit", "stdout", "error"}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter
from typing import List, Tuple

from pace import reference_s


def run_main(main, argv: List[str]) -> Tuple[float, int, str, str]:
    """One ``repro.cli.main`` call: wall time, exit code, stdout, error."""
    captured = io.StringIO()
    error = ""
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    except Exception:  # a failed operation is recorded, not fatal
        code, error = -1, traceback.format_exc(limit=4)
    wall = perf_counter() - started
    return wall, int(code or 0), captured.getvalue(), error


def run_plan(plan: dict, records) -> None:
    from repro.cli import main

    run_main(main, plan["warmup"])
    spans = None
    if plan["trace_dir"]:
        import tracer

        spans = tracer.Tracer("main", plan["trace_dir"])
        tracer.install(spans)
    seconds = plan["seconds"]
    argvs = plan["argvs"][:plan["limit"]]
    started = perf_counter()
    before = reference_s()
    for done, argv in enumerate(argvs):
        elapsed = perf_counter() - started
        if done and seconds is not None and (
            elapsed + elapsed / done > seconds
        ):
            break
        wall, code, stdout, error = run_main(main, argv)
        after = reference_s()
        records.write(json.dumps({
            "wall_s": wall, "refs_s": [before, after], "exit": code,
            "stdout": stdout, "error": error,
        }, sort_keys=True) + "\n")
        before = after
    if spans is not None:
        spans.write()


def main(argv: List[str]) -> int:
    with open(argv[0]) as handle:
        plan = json.load(handle)
    with open(argv[1], "w") as records:
        run_plan(plan, records)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
