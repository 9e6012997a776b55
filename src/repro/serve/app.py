"""The ``repro serve`` application: queue + fleet + HTTP, wired.

:class:`ServeApp` owns the moving parts and their lifetimes:

* the **job queue** (:mod:`.jobs`) with its journal under
  ``<spool>/jobs.jsonl`` — every transition is durable before it is
  acknowledged;
* the **worker fleet** (:mod:`.workers`) — one persistent process
  pool whose LUT/reference caches stay warm across jobs;
* the **scheduler** — an asyncio task that claims jobs (priority
  order) into a bounded number of executor threads; simulation work
  never blocks the event loop, so status/health requests stay
  responsive mid-sweep;
* **per-job telemetry** — each job gets a JSON-lines trace under
  ``<spool>/traces/<job_id>.jsonl`` (lifecycle events always; full
  shard-level telemetry when ``job_concurrency == 1``, since the
  telemetry collector is process-global), streamed live by the
  ``/events`` endpoint.

**Crash safety.**  SIGTERM/SIGINT trigger a graceful stop: the
scheduler halts, the fleet is torn down, the journal closes.  A hard
kill is equally survivable — on restart, :func:`~.jobs.recover_jobs`
replays the journal, interrupted jobs re-enter the queue, and their
per-job sweep checkpoints under ``<spool>/checkpoints/`` turn the
re-run into a resume whose committed shards are replayed from disk.
Either way the eventual ``job_result`` document is bit-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..experiments.results import SweepReport
from ..experiments.stats import mean_rho, significant_fraction
from .. import telemetry
from .jobs import (
    Job,
    JobJournal,
    JobQueue,
    JobStateError,
    derive_job_seed,
    evict_jobs,
    recover_jobs,
    rewrite_journal,
)
from .routes import HttpError, handle_connection
from .wire import (
    JOB_SUBMIT_SCHEMA,
    JobListReport,
    JobResultReport,
    JobStatusReport,
    ServeHealthReport,
    ServeSelfTestReport,
)
from .workers import JobParamsError, WorkerFleet, check_job_params

try:  # optional, like the validate_cli_json gate
    import jsonschema
except ImportError:  # pragma: no cover - baked into the CI image
    jsonschema = None


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8714
    workers: int = 2
    job_concurrency: int = 1
    spool: str = ".repro-spool"
    max_respawns: int = 2
    default_max_attempts: int = 2
    #: Retention of finished jobs across restarts: terminal jobs older
    #: than ``job_ttl`` seconds (or beyond the newest ``max_jobs``) are
    #: evicted at boot and the journal is compacted to one line per
    #: surviving job.  ``None`` keeps everything (historic behavior).
    job_ttl: Optional[float] = None
    max_jobs: Optional[int] = None


def _validate_submit_document(payload: Dict) -> None:
    """Schema-check a submission body; raises :class:`HttpError`."""
    if jsonschema is not None:
        try:
            jsonschema.validate(payload, JOB_SUBMIT_SCHEMA)
        except jsonschema.ValidationError as error:
            raise HttpError(
                400, "bad_document", f"job document: {error.message}"
            )
        return
    # Minimal structural fallback when jsonschema is absent.
    if not isinstance(payload.get("job_kind"), str) or not isinstance(
        payload.get("params"), dict
    ):
        raise HttpError(
            400, "bad_document", "job document needs job_kind + params"
        )


class ServeApp:
    """One serve instance; see the module docstring for the shape."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.spool = Path(config.spool)
        (self.spool / "checkpoints").mkdir(parents=True, exist_ok=True)
        (self.spool / "traces").mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(on_transition=self._journal_transition)
        journal_path = str(self.spool / "jobs.jsonl")
        self._journal: Optional[JobJournal] = None
        self.resumed_jobs = recover_jobs(journal_path, self.queue)
        self.evicted_jobs = 0
        if config.job_ttl is not None or config.max_jobs is not None:
            evicted = evict_jobs(
                self.queue,
                job_ttl=config.job_ttl,
                max_jobs=config.max_jobs,
            )
            self.evicted_jobs = len(evicted)
            for job_id in evicted:
                self._drop_job_files(job_id)
            # Rewriting even with nothing evicted still collapses each
            # job's transition history to one line, so the journal
            # stays bounded under churn whenever retention is on.
            rewrite_journal(journal_path, self.queue)
        self._journal = JobJournal(journal_path, append=True)
        self.fleet = WorkerFleet(
            workers=config.workers, max_respawns=config.max_respawns
        )
        # allow-lint: REP003 operational uptime clock, not simulation state
        self.started_at = time.time()
        self._active = 0
        self._auto_seq = 0
        self._stopping = False
        self._stop_event: Optional[asyncio.Event] = None
        self._scheduler_task: Optional[asyncio.Task] = None

    # -- paths ----------------------------------------------------------
    def checkpoint_path(self, job_id: str) -> str:
        return str(self.spool / "checkpoints" / f"{job_id}.jsonl")

    def trace_path(self, job_id: str) -> str:
        return str(self.spool / "traces" / f"{job_id}.jsonl")

    def _drop_job_files(self, job_id: str) -> None:
        """Remove an evicted job's checkpoint and trace spool files."""
        for path in (
            self.checkpoint_path(job_id), self.trace_path(job_id)
        ):
            try:
                os.remove(path)
            except OSError:
                pass

    # -- journal hook ---------------------------------------------------
    def _journal_transition(self, event: str, job: Job) -> None:
        if self._journal is not None:
            self._journal.record(event, job)

    # -- submission -----------------------------------------------------
    def submit_job(self, payload: Dict) -> Job:
        """Validate and enqueue one submission body."""
        _validate_submit_document(payload)
        job_kind = payload["job_kind"]
        params = payload["params"]
        try:
            check_job_params(job_kind, params)
        except JobParamsError as error:
            raise HttpError(400, "bad_params", str(error))
        job_id = payload.get("job_id")
        if job_id is None:
            self._auto_seq += 1
            job_id = f"job-{self._auto_seq:06d}"
        seed = params.get("seed")
        job = Job(
            job_id=str(job_id),
            job_kind=job_kind,
            params=params,
            priority=int(payload.get("priority", 0)),
            max_attempts=int(
                payload.get(
                    "max_attempts", self.config.default_max_attempts
                )
            ),
            seed=(
                int(seed) if seed is not None else derive_job_seed(
                    str(job_id)
                )
            ),
        )
        try:
            return self.queue.submit(job)
        except JobStateError as error:
            raise HttpError(
                409, "duplicate_job", str(error), job_id=str(job_id)
            )

    # -- report builders ------------------------------------------------
    def _job(self, job_id: str) -> Job:
        job = self.queue.get(job_id)
        if job is None:
            raise HttpError(
                404, "unknown_job", f"no job {job_id!r}", job_id
            )
        return job

    def status_report(self, job_id: str) -> JobStatusReport:
        return JobStatusReport(**self._job(job_id).to_status_dict())

    def list_report(self) -> JobListReport:
        ordered = sorted(
            self.queue.jobs.values(), key=lambda j: j.submitted_seq
        )
        return JobListReport(
            jobs=[job.to_status_dict() for job in ordered]
        )

    def result_report(self, job_id: str) -> JobResultReport:
        job = self._job(job_id)
        if job.result is None:
            raise HttpError(
                409,
                "not_done",
                f"job {job_id!r} is {job.state!r}, no result",
                job_id,
            )
        return JobResultReport(
            job_id=job.job_id,
            job_kind=job.job_kind,
            seed=job.seed,
            result=job.result,
        )

    def health(self) -> ServeHealthReport:
        counts = self.queue.counts()
        return ServeHealthReport(
            status="stopping" if self._stopping else "ok",
            workers=self.fleet.workers,
            job_slots=self.config.job_concurrency,
            jobs_total=len(self.queue),
            jobs_pending=counts["pending"],
            jobs_running=counts["running"],
            jobs_done=counts["done"],
            jobs_failed=counts["failed"],
            jobs_cancelled=counts["cancelled"],
            fleet_respawns=self.fleet.respawns,
            # allow-lint: REP003 operational uptime, excluded from job_result
            uptime_seconds=time.time() - self.started_at,
        )

    # -- job execution (worker threads) ---------------------------------
    def _trace_event(self, job_id: str, name: str, **meta) -> None:
        """Append one lifecycle event line to the job's trace file."""
        record = {
            "type": "event",
            "category": "serve.job",
            "name": name,
            # allow-lint: REP003 trace timestamps mirror the telemetry sink
            "ts": time.time() - self.started_at,
            "depth": 0,
            "meta": meta,
        }
        with open(self.trace_path(job_id), "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def execute_job(self, job: Job) -> Dict:
        """Run one claimed job to a result document (blocking).

        With a single job slot, the run is wrapped in a telemetry
        collector sinking to the job's trace file, so shard dispatch/
        commit events stream out live; with concurrent slots only the
        lifecycle events are written (the collector is process-global
        and would interleave jobs).
        """
        self._trace_event(
            job.job_id, "started", job_kind=job.job_kind,
            attempt=job.attempts,
        )
        exclusive = (
            self.config.job_concurrency == 1
            and telemetry.ACTIVE is None
        )
        collector = None
        stream = None
        if exclusive:
            from ..telemetry.sinks import JsonLinesSink

            stream = open(self.trace_path(job.job_id), "a")
            collector = telemetry.enable(
                telemetry.TelemetryCollector([JsonLinesSink(stream)])
            )
        try:
            return self._dispatch_job(job)
        finally:
            if collector is not None:
                telemetry.disable()
                collector.close()
                stream.close()

    def _dispatch_job(self, job: Job) -> Dict:
        params = job.params
        if job.job_kind == "decode":
            return {
                "job_kind": "decode",
                "decode": self.fleet.run_decode(params),
            }
        per_values = (
            [float(params["physical_error_rate"])]
            if job.job_kind == "ler"
            else [float(v) for v in params["per_values"]]
        )
        shots = int(params.get("shots", 10))
        report = self.fleet.run_sweep_job(
            per_values,
            error_kind=params.get("error_kind", "x"),
            shots=shots,
            windows=int(params.get("windows", 10)),
            seed=job.seed,
            shard_shots=int(params.get("shard_shots", max(1, shots // 4))),
            engine=params.get("engine", "framesim"),
            checkpoint=self.checkpoint_path(job.job_id),
            target_ci=params.get("target_ci"),
            decoder=params.get("decoder", "lut"),
        )
        if job.job_kind == "ler":
            document = report.ler_report(job.seed).to_json_dict()
        else:
            comparisons = [
                point.comparison for point in report.sweep.points
            ]
            document = SweepReport(
                error_kind=params.get("error_kind", "x"),
                seed=job.seed,
                mean_rho=mean_rho(comparisons),
                significant_fraction=significant_fraction(comparisons),
                sweep=report.sweep,
                committed_shards=report.committed_shards,
                executed_shards=report.executed_shards,
                resumed_shards=report.resumed_shards,
                decoder=report.decoder,
            ).to_json_dict()
        # Shard counts are execution metadata: a resumed run legally
        # differs there, and the result document must not.
        for key in ("executed_shards", "resumed_shards"):
            document[key] = None
        return {"job_kind": job.job_kind, "report": document}

    # -- scheduler ------------------------------------------------------
    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping:
            job = None
            if self._active < self.config.job_concurrency:
                job = self.queue.claim()
            if job is None:
                await asyncio.sleep(0.02)
                continue
            self._active += 1
            asyncio.ensure_future(self._run_one(loop, job))

    async def _run_one(self, loop, job: Job) -> None:
        try:
            result = await loop.run_in_executor(
                None, self.execute_job, job
            )
        except Exception as error:
            if self._stopping:
                # Shutdown collateral, not a job failure: leave the
                # journal showing RUNNING so restart resumes it.
                return
            self._trace_event(job.job_id, "failed", error=str(error))
            self._safe_transition(
                lambda: self.queue.fail(
                    job.job_id, f"{type(error).__name__}: {error}"
                )
            )
        else:
            self._trace_event(job.job_id, "finished")
            self._safe_transition(
                lambda: self.queue.complete(job.job_id, result)
            )
        finally:
            self._active -= 1

    def _safe_transition(self, transition) -> None:
        """Apply a settle transition, tolerating lost races.

        A job can leave RUNNING underneath its executor thread (e.g.
        an operator cancel landing between finish and settle); the
        late settle is then a no-op, not a crash.
        """
        try:
            transition()
        except JobStateError:
            pass

    # -- server lifecycle -----------------------------------------------
    def request_stop(self) -> None:
        self._stopping = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def start(self) -> asyncio.AbstractServer:
        """Bind the listener and start the scheduler."""
        self._stop_event = asyncio.Event()
        # Spawn the fleet before the first connection can exist (see
        # workers._fleet_context for why ordering matters here).
        await asyncio.get_running_loop().run_in_executor(
            None, self.fleet.warm
        )
        server = await asyncio.start_server(
            lambda r, w: handle_connection(self, r, w),
            host=self.config.host,
            port=self.config.port,
        )
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        return server

    async def run_until_stopped(
        self, server: asyncio.AbstractServer
    ) -> None:
        """Block until a stop is requested, then tear down cleanly."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
        await self._stop_event.wait()
        server.close()
        await server.wait_closed()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        self.fleet.shutdown()
        if self._journal is not None:
            self._journal.close()
            self._journal = None


def run_server(config: ServeConfig) -> int:
    """Entry point of ``repro serve``: serve until SIGTERM/SIGINT."""

    async def _main() -> None:
        app = ServeApp(config)
        server = await app.start()
        address = server.sockets[0].getsockname()
        print(
            f"repro serve listening on http://{address[0]}:{address[1]} "
            f"(spool {app.spool}, {config.workers} workers, "
            f"{app.resumed_jobs} jobs resumed)",
            flush=True,
        )
        await app.run_until_stopped(server)

    asyncio.run(_main())
    return 0


# ----------------------------------------------------------------------
# Self-test (the validate_cli_json / CI smoke entry)
# ----------------------------------------------------------------------
async def _http_request(
    host: str, port: int, method: str, path: str, body: Optional[Dict]
):
    """One JSON request against a live server; returns (status, doc)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = b""
    if body is not None:
        payload = json.dumps(body, sort_keys=True).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split()[1])
    return status, json.loads(body_blob)


def _check_schema(document: Dict) -> None:
    """Validate a wire document against its registered schema."""
    if jsonschema is None:  # pragma: no cover - CI image has it
        return
    from ..experiments.schemas import REPORT_SCHEMAS

    jsonschema.validate(document, REPORT_SCHEMAS[document["kind"]])


async def _self_test(config: ServeConfig) -> ServeSelfTestReport:
    app = ServeApp(config)
    server = await app.start()
    host, port = server.sockets[0].getsockname()[:2]
    validated = 0
    submitted = []
    try:
        bodies = [
            {
                "job_id": "selftest-ler",
                "job_kind": "ler",
                "params": {
                    "physical_error_rate": 0.002,
                    "shots": 4,
                    "windows": 3,
                    "shard_shots": 2,
                    "seed": 7,
                },
            },
            {
                "job_id": "selftest-decode",
                "job_kind": "decode",
                "params": {
                    "x_rounds": [[[0, 0, 0, 0]] * 3] * 2,
                    "z_rounds": [[[0, 1, 0, 0]] * 3] * 2,
                },
            },
        ]
        for body in bodies:
            status, doc = await _http_request(
                host, port, "POST", "/v1/jobs", body
            )
            assert status == 200, doc
            _check_schema(doc)
            validated += 1
            submitted.append(body["job_id"])
        completed = 0
        # allow-lint: REP003 wall-clock poll deadline of the smoke client
        deadline = time.time() + 120
        for job_id in submitted:
            # allow-lint: REP003 wall-clock poll deadline of the smoke client
            while time.time() < deadline:
                status, doc = await _http_request(
                    host, port, "GET", f"/v1/jobs/{job_id}", None
                )
                _check_schema(doc)
                if doc["state"] in ("done", "failed", "cancelled"):
                    break
                await asyncio.sleep(0.05)
            assert doc["state"] == "done", doc
            validated += 1
            status, doc = await _http_request(
                host, port, "GET", f"/v1/jobs/{job_id}/result", None
            )
            assert status == 200, doc
            _check_schema(doc)
            validated += 1
            completed += 1
        status, listing = await _http_request(
            host, port, "GET", "/v1/jobs", None
        )
        _check_schema(listing)
        validated += 1
        status, health = await _http_request(
            host, port, "GET", "/v1/health", None
        )
        _check_schema(health)
        validated += 1
        status, _ = await _http_request(
            host, port, "POST", "/v1/shutdown", None
        )
        await app.run_until_stopped(server)
        return ServeSelfTestReport(
            passed=completed == len(submitted),
            submitted=len(submitted),
            completed=completed,
            documents_validated=validated,
            health=health,
        )
    finally:
        if not app._stopping:
            app.request_stop()
            await app.run_until_stopped(server)


def run_self_test(config: ServeConfig) -> ServeSelfTestReport:
    """Boot, exercise and stop one server; see the wire doc's docstring."""
    return asyncio.run(_self_test(config))
