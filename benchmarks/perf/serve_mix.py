"""The serve-mix workload: one client running jobs on ``repro serve``.

The client submits a job, waits for it to finish (its ``/events``
stream closes), and submits the next, until the window ends (closed
loop, one connection at a time).  Job ``k`` is a pure function of the
run seed and ``k``: five of every six are a small ``ler`` sweep with
its own seed, so every reference trace misses the worker's cache, and
the sixth a ``decode`` of posted syndromes.  A job's latency runs from
its send to the server's ``finished_at``, scaled by the reference
kernel timed just before the send and just after the job ends
(``pace.py``); the work counted is the windows the ler jobs
simulated.  Results are fetched and checked after the window.

One client on one worker, because overlap made the numbers depend on
chance: with two clients a ler job's latency depended on whether the
other client held a decode or a ler job, with two workers a job's two
shards ran side by side or one after the other, and in an open loop
the first shard after an idle gap ran about 50% slower.

The window opens after one warm-up job of each kind has finished, so
the worker's first-job imports are not counted; ``setup_s`` is the
boot until the "listening" line.
"""

from __future__ import annotations

import http.client
import json
import re
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
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
from workloads import CHILD_TIMEOUT_S, Outcome, import_seconds

SERVE_FLAGS = ("--port", "0", "--workers", "1")
LER_PARAMS = {"physical_error_rate": 5e-3, "shots": 64, "windows": 20,
              "shard_shots": 32}
DECODE_SHAPE = (16, 3, 4)  # shots x rounds x checks per species
BOOT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class ServeError(RuntimeError):
    """The server did not come up."""


def job_body(seed: int, index: int, prefix: str = "job") -> Dict:
    """Submission ``index`` of a run, a pure function of its arguments."""
    job_seed = derive_seed(seed, prefix, index)
    job_id = f"{prefix}-{index:05d}"
    if index % 6 != 5:
        return {"job_id": job_id, "job_kind": "ler",
                "params": dict(LER_PARAMS, seed=job_seed)}
    import numpy as np

    rng = np.random.default_rng(job_seed)
    rounds = {
        key: (rng.random(DECODE_SHAPE) < 0.1).astype(int).tolist()
        for key in ("x_rounds", "z_rounds")
    }
    return {"job_id": job_id, "job_kind": "decode", "params": rounds}


def result_problems(body: Dict, document: Dict) -> List[str]:
    """Check one fetched ``job_result`` against its submission."""
    problems = schema_problems(document)
    result = document.get("result", {})
    if body["job_kind"] == "ler":
        report = result.get("report", {})
        problems += schema_problems(report)
        expected = LER_PARAMS["shots"] * LER_PARAMS["windows"]
        for arm in report.get("arms", []):
            if arm["windows"] != expected:
                problems.append(f"arm windows {arm['windows']} != {expected}")
            if not 0.0 <= arm["logical_error_rate"] <= 0.2:
                problems.append(
                    f"arm LER {arm['logical_error_rate']} outside [0, 0.2]"
                )
        return problems
    decode = result.get("decode", {})
    shots, rounds, _ = DECODE_SHAPE
    if (decode.get("shots"), decode.get("rounds")) != (shots, rounds):
        problems.append(f"decode shape {decode.get('shots')} x "
                        f"{decode.get('rounds')} != {shots} x {rounds}")
    if len(decode.get("x_corrections", [])) != shots:
        problems.append("decode returned the wrong number of corrections")
    return problems


class Server:
    """One ``repro serve`` child, from boot to its reaped exit."""

    def __init__(self, ctx: Context, trace_dir=None) -> None:
        self.spool = ctx.scratch("spool")
        args = ["serve", *SERVE_FLAGS, "--spool", str(self.spool)]
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        before = reference_s()
        self.child = Child(repro_argv(args, trace_dir), ctx)
        deadline = self.child.started + BOOT_TIMEOUT_S
        while True:
            match = _LISTENING.search(self.child.read_stdout())
            if match:
                break
            if self.child.exited() or time.perf_counter() > deadline:
                self.child.wait(timeout=0.0)
                raise ServeError("server did not start listening")
            time.sleep(0.005)
        booted = time.perf_counter() - self.child.started
        self.boot_s = scaled(booted, [before, reference_s()])
        self.host, self.port = match.group(1), int(match.group(2))

    def request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, bytes]:
        """One request on its own connection: status and raw body.

        The body is read to the end, so an ``/events`` request returns
        only once its job is terminal.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=JOB_TIMEOUT_S
        )
        try:
            payload = None
            if body is not None:
                payload = json.dumps(body, sort_keys=True).encode()
            connection.request(method, path, body=payload,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def document(self, method: str, path: str, body=None) -> Dict:
        return json.loads(self.request(method, path, body)[1])

    def warm_up(self, seed: int) -> None:
        """Run one job of each kind to completion, untimed."""
        for index in (1, 5):
            self.run_job(job_body(seed, index, prefix="warm"))

    def run_job(self, body: Dict) -> int:
        """Submit one job and wait for it to end; the submit status."""
        status, _ = self.request("POST", "/v1/jobs", body)
        if status == 200:
            self.request("GET", f"/v1/jobs/{body['job_id']}/events")
        return status

    def stop(self):
        """Ask the server to shut down and reap it (and its fleet)."""
        try:
            self.request("POST", "/v1/shutdown")
        except (OSError, ValueError):
            pass  # not answering: the group is killed after the timeout
        return self.child.wait(CHILD_TIMEOUT_S)


class Window:
    """One closed-loop window: jobs, timings and checked results.

    It runs jobs for ``seconds``, or exactly ``count`` jobs.
    """

    def __init__(self, server: Server, seed: int,
                 seconds: Optional[float] = None,
                 count: Optional[int] = None) -> None:
        self.bodies: List[Dict] = []
        self.sent: List[float] = []
        self.references: List[Tuple[float, float]] = []
        self.problems: Dict[int, List[str]] = {}
        deadline = time.perf_counter() + (seconds or 0.0)

        def more() -> bool:
            if count is not None:
                return len(self.bodies) < count
            return time.perf_counter() < deadline

        # allow-lint: REP003 latency is measured against finished_at
        self.opened = time.time()
        before = reference_s()
        while more():
            index = len(self.bodies)
            body = job_body(seed, index)
            self.bodies.append(body)
            # allow-lint: REP003 latency is measured against finished_at
            self.sent.append(time.time())
            try:
                status = server.run_job(body)
            except OSError as error:
                self._problem(index, f"request failed: {error}")
                break
            after = reference_s()
            self.references.append((before, after))
            before = after
            if status != 200:
                self._problem(index, f"submit answered {status}")
                break
        listing = server.document("GET", "/v1/jobs")
        self._problem(-1, *schema_problems(listing))
        self.status = {job["job_id"]: job for job in listing["jobs"]}
        self.digests: List[str] = []
        self.walls: List[float] = []
        self.latencies: List[float] = []
        #: Windows per scaled second of each finished ler job.
        self.work_rates: List[float] = []
        for index, body in enumerate(self.bodies):
            job = self.status.get(body["job_id"], {})
            if job.get("state") != "done" or index >= len(self.references):
                self._problem(index, f"job ended {job.get('state')!r}")
                self.digests.append("")
                continue
            self.walls.append(job["finished_at"] - self.sent[index])
            self.latencies.append(
                scaled(self.walls[-1], self.references[index])
            )
            document = server.document(
                "GET", f"/v1/jobs/{body['job_id']}/result"
            )
            self._problem(index, *result_problems(body, document))
            self.digests.append(digest(document))
            report = document.get("result", {}).get("report", {})
            if body["job_kind"] == "ler":
                windows = sum(a["windows"] for a in report.get("arms", []))
                self.work_rates.append(windows / self.latencies[-1])
        self.span_s = max(
            (self.status[b["job_id"]].get("finished_at") or self.opened
             for b in self.bodies if b["job_id"] in self.status),
            default=self.opened,
        ) - self.opened

    def _problem(self, index: int, *problems: str) -> None:
        if problems:
            self.problems.setdefault(index, []).extend(problems)

    def phase_shares(self) -> Dict[str, float]:
        """Shares of summed job latency: submit, queue and execution."""
        totals = {"submit": 0.0, "queue": 0.0, "exec": 0.0}
        for index, body in enumerate(self.bodies):
            job = self.status.get(body["job_id"], {})
            if job.get("state") != "done":
                continue
            totals["submit"] += job["queued_at"] - self.sent[index]
            totals["queue"] += job["started_at"] - job["queued_at"]
            totals["exec"] += job["finished_at"] - job["started_at"]
        whole = sum(totals.values()) or 1.0
        return {f"serve.{k}_frac": v / whole for k, v in totals.items()}


def record_windows(outcome: Outcome, windows: Sequence[Window]) -> bool:
    """Count the jobs of windows that ran the same job sequence.

    Job ``k`` is one attempted operation however many windows ran it,
    and one failure if it failed in any of them.  A problem with the
    job list makes the run incorrect without failing a job.  Returns
    whether every window finished at least one job.
    """
    outcome.attempted += max(len(window.bodies) for window in windows)
    outcome.notes["jobs"] = [len(window.bodies) for window in windows]
    problems: Dict[int, List[str]] = {}
    for number, window in enumerate(windows):
        prefix = f"window {number}: " if len(windows) > 1 else ""
        for index, found in window.problems.items():
            problems.setdefault(index, []).extend(prefix + p for p in found)
    for index in sorted(problems):
        text = "; ".join(problems[index])
        if index < 0:
            outcome.problems.append(f"job list: {text}")
        else:
            outcome.fail(f"job {index}: {text}")
    if all(window.latencies for window in windows):
        return True
    outcome.problems.append("a window finished no job")
    return False


def measure_serve(ctx: Context) -> Outcome:
    """Cold boots (setup), then one timed closed-loop window."""
    outcome = Outcome()
    boots = []
    try:
        for _ in range(ctx.setup_reps - 1):
            server = Server(ctx)
            boots.append(server.boot_s)
            server.stop()
        server = Server(ctx)
        boots.append(server.boot_s)
    except ServeError as error:
        outcome.attempted += 1
        outcome.fail(str(error))
        return outcome
    try:
        server.warm_up(ctx.seed)
        window = Window(server, ctx.seed, seconds=ctx.seconds)
    finally:
        finished = server.stop()
    outcome.digests.extend(window.digests)
    outcome.notes["setup_s"] = boots
    outcome.notes["job_s"] = window.latencies
    outcome.notes["job_wall_s"] = window.walls
    if finished.returncode != 0:
        outcome.problems.append(f"server exit code {finished.returncode}")
    if record_windows(outcome, [window]) and window.work_rates:
        outcome.metrics = {
            "setup_s": statistics.median(boots),
            "latency_p50_ms": 1000.0 * statistics.median(window.latencies),
            "work_per_s": statistics.median(window.work_rates),
            "peak_rss_mb": finished.maxrss_mb,
        }
    return outcome


def trace_serve(ctx: Context) -> Outcome:
    """Half the time on an untraced server, the same jobs on a traced one.

    Span totals and journal growth are taken over the window only:
    both are read once before it opens and subtracted.
    """
    outcome = Outcome()
    import_s = import_seconds(ctx)
    trace_dir = ctx.scratch("trace")
    windows: List[Window] = []
    for traced in (None, trace_dir):
        try:
            server = Server(ctx, traced)
        except ServeError as error:
            outcome.attempted += 1
            outcome.fail(str(error))
            return outcome
        journal = server.spool / "jobs.jsonl"
        try:
            server.warm_up(ctx.seed)
            warm = TraceTotals.read(trace_dir) if traced else None
            journal_before = journal.stat().st_size
            if windows:
                window = Window(server, ctx.seed,
                                count=len(windows[0].bodies))
            else:
                window = Window(server, ctx.seed, seconds=ctx.seconds / 2)
        finally:
            server.stop()
        window.journal_bytes = journal.stat().st_size - journal_before
        windows.append(window)
    plain, spanned = windows
    for index, pair in enumerate(zip(plain.digests, spanned.digests)):
        if all(pair) and pair[0] != pair[1]:
            spanned.problems.setdefault(index, []).append(
                "traced result differs from untraced"
            )
    outcome.digests.extend(plain.digests)
    if not record_windows(outcome, windows):
        return outcome
    totals = TraceTotals.read(trace_dir)
    totals.add(warm, sign=-1.0)
    outcome.notes["missing_targets"] = totals.missing
    outcome.metrics = {
        "import.repro_s": import_s,
        "trace.overhead_frac": sum(spanned.latencies)
        / sum(plain.latencies) - 1.0,
        **layer_metrics(totals, spanned.span_s),
        **plain.phase_shares(),
        "serve.journal_bytes_per_job": plain.journal_bytes
        / len(plain.bodies),
    }
    return outcome
