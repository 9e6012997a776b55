"""The CLI workloads: one client running ``repro`` operations back to back.

A run starts the CLI a few times cold (``setup_s``), then runs its
operations in one process (``oploop.py``): ``repro.cli.main(argv)``
with the argv a user would type, one after the other (closed loop,
one client).  Operation ``i`` of a run gets seed
``derive_seed(seed, name, i)``, so the same run seed gives the same
inputs.  Every time is scaled by the reference kernel timed around it
(``pace.py``).

Each report is checked on its own (schema, shape, a loose range), and
the counts pooled over the run must lie in a tight band: pooling makes
the band many standard deviations wide, so a correct program never
fails it by chance.  A traced run runs the same operations untraced
and then traced, and requires identical reports.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    HERE,
    Child,
    Context,
    TraceTotals,
    derive_seed,
    digest,
    repro_argv,
    schema_problems,
)
from layers import layer_metrics
from pace import reference_s, scaled

#: Longest a single cold start may run before its group is killed.
CHILD_TIMEOUT_S = 60.0
#: Operations planned per run; the time limit ends a run long before.
PLANNED_OPS = 1000


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@dataclass(frozen=True)
class Kind:
    """One family of CLI operations: argv, checks and work done.

    ``check`` looks at one report; ``pooled`` at the per-run totals
    that ``totals`` adds up over the reports.
    """

    argv: Callable[[int], Tuple[str, ...]]
    check: Callable[[Dict], List[str]]
    totals: Callable[[Dict], Dict[str, float]]
    pooled: Callable[[Dict[str, float]], List[str]]
    work: Callable[[Dict], float]


def _ler(shots: int, windows: int, flags: Tuple[str, ...],
         band: Optional[Tuple[float, float]]) -> Kind:
    """``repro ler`` at PER 1e-2; the pooled LER of each arm in ``band``."""
    def argv(seed: int) -> Tuple[str, ...]:
        return ("ler", "--per", "1e-2", "--batch", str(shots),
                "--windows", str(windows), *flags, "--seed", str(seed))

    def check(report: Dict) -> List[str]:
        problems = []
        if len(report["arms"]) != 2:
            problems.append(f"{len(report['arms'])} arms, expected 2")
        for arm in report["arms"]:
            if arm["windows"] != shots * windows:
                problems.append(
                    f"arm windows {arm['windows']} != {shots} x {windows}"
                )
            if not 0.0 <= arm["logical_error_rate"] <= 0.25:
                problems.append(
                    f"arm LER {arm['logical_error_rate']} outside [0, 0.25]"
                )
        return problems

    def totals(report: Dict) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for number, arm in enumerate(report["arms"]):
            counts[f"arm {number} windows"] = arm["windows"]
            counts[f"arm {number} errors"] = (
                arm["logical_error_rate"] * arm["windows"]
            )
        return counts

    def pooled(counts: Dict[str, float]) -> List[str]:
        problems = []
        for number in range(2):
            rate = (counts.get(f"arm {number} errors", 0.0)
                    / max(counts.get(f"arm {number} windows", 0.0), 1.0))
            if band and not band[0] <= rate <= band[1]:
                problems.append(
                    f"arm {number} pooled LER {rate:.4f} outside {band}"
                )
        return problems

    def work(report: Dict) -> float:
        return float(sum(arm["windows"] for arm in report["arms"]))

    return Kind(argv, check, totals, pooled, work)


def _phenom(trials: int, ordered: bool) -> Kind:
    """Union-find phenomenological scaling over d = 5, 9, 13."""
    distances = (5, 9, 13)

    def argv(seed: int) -> Tuple[str, ...]:
        return ("phenomenological", "--distances",
                *(str(d) for d in distances), "--per", "0.015",
                "--trials", str(trials), "--decoder", "unionfind",
                "--seed", str(seed))

    def check(report: Dict) -> List[str]:
        rows = {row["distance"]: row for row in report["rows"]}
        if sorted(rows) != list(distances):
            return [f"distances {sorted(rows)}, expected {distances}"]
        return [
            f"d={d} ran {rows[d]['trials']} trials, expected {trials}"
            for d in distances
            if rows[d]["trials"] != trials
        ]

    def totals(report: Dict) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for row in report["rows"]:
            counts[f"d{row['distance']} trials"] = row["trials"]
            counts[f"d{row['distance']} errors"] = (
                row["logical_error_rate"] * row["trials"]
            )
        return counts

    def pooled(counts: Dict[str, float]) -> List[str]:
        # Below threshold a larger code must do better.  Only the
        # widest pair is checked: over a run d=5 sees about 50 errors
        # or more and d=13 about a tenth of that.
        if not ordered:
            return []
        low, high = (counts.get(f"d{d} errors", 0.0) for d in (13, 5))
        if low < high:
            return []
        return [f"pooled errors d=13 {low:.0f} not below d=5 {high:.0f}"]

    def work(report: Dict) -> float:
        return float(sum(row["trials"] for row in report["rows"]))

    return Kind(argv, check, totals, pooled, work)


#: Per-arm LER at PER 1e-2 pooled over a run read 0.074-0.079 in 40
#: runs; a run pools 20 000 windows per arm or more (s.d. under
#: 0.002), so the band is at least 5 s.d. wide each way.
_LER_BAND = (0.06, 0.095)
_WIDE = ("--engine", "packed-fast", "--shard-shots")


@dataclass(frozen=True)
class CliWorkload:
    name: str
    #: Cheapest invocation of the same entry point (cold start probe).
    setup_argv: Tuple[str, ...]
    full: Kind
    smoke: Kind

    def kind(self, smoke: bool) -> Kind:
        return self.smoke if smoke else self.full


# A full-size operation takes about 0.5 s on a 2-vCPU host: long
# enough that the program's own work dominates it, short enough that
# a run holds a few dozen and that the reference kernel timed around
# it sees the same state of the host.
CLI_WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "ler-sharded", ("ler", "--batch", "1", "--windows", "1"),
            full=_ler(200, 15, (), _LER_BAND),
            smoke=_ler(20, 5, (), None),
        ),
        CliWorkload(
            "ler-wide", ("ler", "--batch", "1", "--windows", "1"),
            full=_ler(8192, 10, (*_WIDE, "8192"), _LER_BAND),
            smoke=_ler(256, 5, (*_WIDE, "256"), None),
        ),
        CliWorkload(
            "phenom-uf",
            ("phenomenological", "--distances", "3", "--trials", "1"),
            full=_phenom(200, ordered=True),
            smoke=_phenom(20, ordered=False),
        ),
    )
}


def parse_report(stdout: str) -> Tuple[Optional[Dict], List[str]]:
    """A ``--json`` report and the problems its schema check found."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as error:
        return None, [f"bad JSON: {error}"]
    return report, schema_problems(report)


def exit_problem(code: int, error_text: str) -> str:
    tail = error_text.strip().splitlines()[-1:] or [""]
    return f"exit code {code}: {tail[0]}"


def cold_starts(ctx: Context, argv: Sequence[str],
                outcome: Outcome) -> List[float]:
    """Scaled wall times of ``ctx.setup_reps`` cold CLI invocations."""
    times, before = [], reference_s()
    for _ in range(ctx.setup_reps):
        done = Child(repro_argv([*argv, "--json"], None), ctx).wait(
            CHILD_TIMEOUT_S
        )
        wall = done.wall_s
        if done.returncode != 0:
            problems = [exit_problem(done.returncode, done.stderr)]
        else:
            problems = parse_report(done.stdout)[1]
        after = reference_s()
        times.append(scaled(wall, [before, after]))
        before = after
        outcome.attempted += 1
        if problems:
            outcome.fail("setup: " + "; ".join(problems))
    return times


def import_seconds(ctx: Context) -> float:
    """Fresh ``import repro`` minus a bare interpreter start (median)."""
    def wall(*args: str) -> float:
        child = Child([sys.executable, *args], ctx)
        return child.wait(CHILD_TIMEOUT_S).wall_s

    bare = [wall("-c", "pass") for _ in range(ctx.setup_reps)]
    full = [wall("-c", "import repro") for _ in range(ctx.setup_reps)]
    return statistics.median(full) - statistics.median(bare)


@dataclass
class Op:
    """One timed operation of a loop and its checked report."""

    wall_s: float
    #: ``wall_s`` scaled by the reference kernel timed around it.
    seconds: float
    report: Optional[Dict]
    problems: List[str]


def run_loop(
    ctx: Context, workload: CliWorkload, seconds: Optional[float],
    limit: Optional[int] = None, trace_dir: Optional[Path] = None,
) -> Tuple[List[Op], float]:
    """Operations of one ``oploop.py`` child: checked ops, peak RSS."""
    kind = workload.kind(ctx.smoke)
    plan = ctx.scratch("plan").with_suffix(".json")
    records = ctx.scratch("records").with_suffix(".jsonl")
    plan.write_text(json.dumps({
        "warmup": [*kind.argv(derive_seed(ctx.seed, workload.name,
                                          "warm-up")), "--json"],
        "argvs": [[*kind.argv(derive_seed(ctx.seed, workload.name, i)),
                   "--json"] for i in range(PLANNED_OPS)],
        "seconds": seconds, "limit": limit,
        "trace_dir": str(trace_dir) if trace_dir else None,
    }, sort_keys=True))
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    child = Child([sys.executable, str(HERE / "oploop.py"), str(plan),
                   str(records)], ctx)
    done = child.wait((seconds or ctx.seconds) * 3 + CHILD_TIMEOUT_S)
    ops = []
    lines = records.read_text().splitlines() if records.exists() else []
    for line in lines:
        record = json.loads(line)
        if record["exit"] != 0:
            report = None
            problems = [exit_problem(record["exit"], record["error"])]
        else:
            report, problems = parse_report(record["stdout"])
        if report is not None and not problems:
            problems = kind.check(report)
        ops.append(Op(record["wall_s"],
                      scaled(record["wall_s"], record["refs_s"]),
                      report, problems))
    if done.returncode != 0 or not ops:
        ops.append(Op(0.0, 0.0, None, [
            "operation loop: " + exit_problem(done.returncode, done.stderr)
        ]))
    return ops, done.maxrss_mb


def record_ops(outcome: Outcome, kind: Kind, ops: List[Op]) -> List[Op]:
    """Count, digest and pool the operations; the ones that passed."""
    passed: List[Op] = []
    counts: Dict[str, float] = {}
    for index, op in enumerate(ops):
        outcome.attempted += 1
        if op.problems:
            outcome.fail(f"op {index}: " + "; ".join(op.problems))
            outcome.digests.append("")
            continue
        outcome.digests.append(digest(op.report))
        for key, value in kind.totals(op.report).items():
            counts[key] = counts.get(key, 0.0) + value
        passed.append(op)
    outcome.notes["pooled"] = counts
    if passed:
        outcome.problems.extend(kind.pooled(counts))
    return passed


def measure_cli(workload: CliWorkload, ctx: Context) -> Outcome:
    """Cold starts, then a timed loop: the end-to-end metrics."""
    outcome = Outcome()
    setup = cold_starts(ctx, workload.setup_argv, outcome)
    kind = workload.kind(ctx.smoke)
    ops, peak = run_loop(ctx, workload, ctx.seconds)
    passed = record_ops(outcome, kind, ops)
    outcome.notes["setup_s"] = setup
    outcome.notes["op_s"] = [op.seconds for op in ops]
    outcome.notes["op_wall_s"] = [op.wall_s for op in ops]
    if passed:
        outcome.metrics = {
            "setup_s": statistics.median(setup),
            "latency_p50_ms": 1000.0 * statistics.median(
                op.seconds for op in passed
            ),
            "work_per_s": statistics.median(
                kind.work(op.report) / op.seconds for op in passed
            ),
            "peak_rss_mb": peak,
        }
    return outcome


def trace_cli(workload: CliWorkload, ctx: Context) -> Outcome:
    """The same operations untraced, then traced: per-layer metrics."""
    outcome = Outcome()
    import_s = import_seconds(ctx)
    kind = workload.kind(ctx.smoke)
    plain, _ = run_loop(ctx, workload, ctx.seconds / 2)
    trace_dir = ctx.scratch("trace")
    spanned, _ = run_loop(ctx, workload, None, limit=len(plain),
                          trace_dir=trace_dir)
    for one, other in zip(plain, spanned):
        one.problems += other.problems
        if not one.problems and digest(one.report) != digest(other.report):
            one.problems.append("traced report differs from untraced")
    if len(spanned) != len(plain):
        outcome.problems.append(
            f"{len(plain)} untraced operations, {len(spanned)} traced"
        )
    if not record_ops(outcome, kind, plain) or outcome.problems:
        return outcome
    totals = TraceTotals.read(trace_dir)
    outcome.notes["ops"] = len(plain)
    outcome.notes["missing_targets"] = totals.missing
    outcome.metrics = {
        "import.repro_s": import_s,
        "trace.overhead_frac": sum(op.seconds for op in spanned)
        / sum(op.seconds for op in plain) - 1.0,
        **layer_metrics(totals, sum(op.wall_s for op in spanned)),
        "serve.submit_frac": 0.0,
        "serve.queue_frac": 0.0,
        "serve.exec_frac": 0.0,
        "serve.journal_bytes_per_job": 0.0,
    }
    return outcome
