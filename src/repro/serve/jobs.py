"""Job model, priority queue and lifecycle state machine of the serve
layer.

A job moves through a small explicit state machine::

    PENDING --claim--> RUNNING --complete--> DONE
       |                  |    \\--fail----> PENDING (attempts left)
       |                  |     \\--fail---> FAILED  (attempts spent)
       |                  \\--cancel-------> CANCELLED (on settle)
       \\--cancel--> CANCELLED

Every transition is validated — an out-of-order event (completing a
job that is not running, claiming a cancelled job, ...) raises
:class:`JobStateError` instead of silently corrupting the queue.  The
Hypothesis property suite drives this machine with arbitrary event
interleavings and asserts the global invariants: no job is ever lost,
duplicated, or stuck in a state with no legal exit.

**Determinism.**  Each job carries one root seed, fixed at submission:
the client's explicit ``params.seed`` if given, else a digest of the
job id (:func:`derive_job_seed`).  Everything downstream (shard trees,
reference/LUT caches) keys off that seed, so re-running a job — after
a retry, a worker death, or a full server restart — reproduces its
result bit for bit.

**Persistence.**  :class:`JobJournal` appends one snapshot line per
transition to ``jobs.jsonl`` using the parallel engine's atomic
JSON-lines writer (single write + flush + fsync; torn tails dropped on
reload).  :func:`recover_jobs` replays the journal into a fresh
:class:`JobQueue`: terminal jobs come back with their results, and
jobs that were RUNNING when the server died are re-enqueued as PENDING
— their per-job sweep checkpoints make the re-run resume, not restart.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..experiments.parallel import AtomicJsonLinesWriter
from ..utils.jsonl import read_json_lines
from .wire import JOB_KINDS

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state the machine can occupy.
JOB_STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)

#: States with no legal exit.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Journal format version.
JOURNAL_VERSION = 1


class JobStateError(RuntimeError):
    """An event arrived in a state that does not accept it."""


def derive_job_seed(job_id: str) -> int:
    """Deterministic root seed of a job that did not pin one.

    A stable digest of the job id, so resubmitting the same id (after
    a restart, or from a replayed journal) reproduces the same random
    tree without the client having to thread seeds around.
    """
    digest = hashlib.sha256(job_id.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class Job:
    """One queued unit of service work."""

    job_id: str
    job_kind: str
    params: Dict
    priority: int = 0
    max_attempts: int = 2
    seed: int = 0
    state: str = PENDING
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[Dict] = None
    submitted_seq: int = 0
    cancel_requested: bool = False
    queued_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def to_snapshot(self) -> Dict:
        """JSON-safe full state, journal line and replay input."""
        return {
            "job_id": self.job_id,
            "job_kind": self.job_kind,
            "params": self.params,
            "priority": self.priority,
            "max_attempts": self.max_attempts,
            "seed": self.seed,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "result": self.result,
            "submitted_seq": self.submitted_seq,
            "cancel_requested": self.cancel_requested,
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_snapshot(cls, payload: Dict) -> "Job":
        return cls(**payload)

    def to_status_dict(self) -> Dict:
        """The ``job_status`` wire fields (see :mod:`.wire`)."""
        return {
            "job_id": self.job_id,
            "job_kind": self.job_kind,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "seed": self.seed,
            "submitted_seq": self.submitted_seq,
            "error": self.error,
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobQueue:
    """Priority queue + lifecycle state machine over :class:`Job`.

    Higher ``priority`` claims first; ties break by submission order
    (FIFO), so the claim order is a pure function of the submission
    history.  An optional ``on_transition`` hook (the journal) fires
    after every validated state change with the job's new snapshot.
    """

    def __init__(
        self,
        on_transition: Optional[Callable[[str, Job], None]] = None,
    ) -> None:
        self.jobs: Dict[str, Job] = {}
        self._heap: List = []
        self._seq = 0
        self._on_transition = on_transition

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        """Jobs per state (every state present, zero included)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts

    def in_state(self, state: str) -> List[Job]:
        return [
            self.jobs[job_id]
            for job_id in sorted(
                self.jobs,
                key=lambda j: self.jobs[j].submitted_seq,
            )
            if self.jobs[job_id].state == state
        ]

    # -- events ---------------------------------------------------------
    def submit(self, job: Job) -> Job:
        if job.job_kind not in JOB_KINDS:
            raise JobStateError(
                f"unknown job kind {job.job_kind!r}"
            )
        if job.job_id in self.jobs:
            raise JobStateError(
                f"job {job.job_id!r} already exists"
            )
        job.state = PENDING
        job.submitted_seq = self._seq
        if job.queued_at is None:
            # allow-lint: REP003 status timestamp, excluded from job_result
            job.queued_at = time.time()
        self._seq += 1
        self.jobs[job.job_id] = job
        self._push(job)
        self._fire("submitted", job)
        return job

    def claim(self) -> Optional[Job]:
        """Pop the highest-priority pending job and mark it RUNNING.

        Returns ``None`` when nothing is claimable.  Heap entries of
        jobs that left PENDING since being pushed (cancelled, or
        re-queued under a newer entry) are lazily discarded.
        """
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self.jobs.get(job_id)
            if job is None or job.state != PENDING:
                continue
            job.state = RUNNING
            job.attempts += 1
            # allow-lint: REP003 status timestamp, excluded from job_result
            job.started_at = time.time()
            self._fire("started", job)
            return job
        return None

    def complete(self, job_id: str, result: Dict) -> Job:
        job = self._running(job_id, "complete")
        if job.cancel_requested:
            return self._settle(job, CANCELLED, "cancelled")
        job.result = result
        job.error = None
        return self._settle(job, DONE, "done")

    def fail(self, job_id: str, error: str) -> Job:
        """Fail the running attempt; requeue while attempts remain."""
        job = self._running(job_id, "fail")
        if job.cancel_requested:
            return self._settle(job, CANCELLED, "cancelled")
        job.error = str(error)
        if job.attempts < job.max_attempts:
            job.state = PENDING
            self._push(job)
            self._fire("requeued", job)
            return job
        return self._settle(job, FAILED, "failed")

    def timeout(self, job_id: str) -> Job:
        """A deadline expiry: same retry semantics as :meth:`fail`."""
        return self.fail(job_id, "timeout")

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending job now, or a running one cooperatively.

        A PENDING job goes terminal immediately; a RUNNING job is
        flagged and goes to CANCELLED when its attempt settles (the
        worker cannot be preempted mid-shard, but its outcome is
        discarded).
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise JobStateError(f"no such job {job_id!r}")
        if job.state == PENDING:
            return self._settle(job, CANCELLED, "cancelled")
        if job.state == RUNNING:
            if not job.cancel_requested:
                job.cancel_requested = True
                self._fire("cancel_requested", job)
            return job
        raise JobStateError(
            f"cannot cancel job {job_id!r} in state {job.state!r}"
        )

    # -- internals ------------------------------------------------------
    def _push(self, job: Job) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (-job.priority, self._seq, job.job_id)
        )

    def _running(self, job_id: str, event: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise JobStateError(f"no such job {job_id!r}")
        if job.state != RUNNING:
            raise JobStateError(
                f"cannot {event} job {job_id!r} in state "
                f"{job.state!r}"
            )
        return job

    def _settle(self, job: Job, state: str, event: str) -> Job:
        job.state = state
        # allow-lint: REP003 status timestamp, excluded from job_result
        job.finished_at = time.time()
        self._fire(event, job)
        return job

    def _fire(self, event: str, job: Job) -> None:
        if self._on_transition is not None:
            self._on_transition(event, job)


class JobJournal:
    """Append-only journal of job transitions (``jobs.jsonl``).

    One line per transition: the event name plus the job's complete
    snapshot, written atomically via
    :class:`~repro.experiments.parallel.AtomicJsonLinesWriter`.  The
    snapshot-per-line design makes replay trivial — the last line of a
    job id *is* its recovered state — at the cost of re-writing params
    each transition, which is fine at job (not shard) granularity.
    """

    def __init__(self, path: str, append: bool = True) -> None:
        self._writer = AtomicJsonLinesWriter(path, append=append)
        self.path = path

    def record(self, event: str, job: Job) -> None:
        self._writer.write_line(
            json.dumps(
                {
                    "kind": "job_event",
                    "version": JOURNAL_VERSION,
                    "event": event,
                    "job": job.to_snapshot(),
                },
                sort_keys=True,
            )
        )

    def close(self) -> None:
        self._writer.close()


def load_job_journal(path: str) -> List[Dict]:
    """Parse a journal back into its event payloads, in order.

    Mirrors the checkpoint loader's tolerance: a torn final line (kill
    mid-write) is dropped, any other malformed line raises.
    """
    events: List[Dict] = []
    for number, payload in read_json_lines(path, "journal"):
        if payload.get("kind") != "job_event":
            raise ValueError(
                f"{path}:{number}: unknown journal record "
                f"{payload.get('kind')!r}"
            )
        events.append(payload)
    return events


def evict_jobs(
    queue: JobQueue,
    job_ttl: Optional[float] = None,
    max_jobs: Optional[int] = None,
    now: Optional[float] = None,
) -> List[str]:
    """Drop expired / excess **terminal** jobs from ``queue``.

    Two independent bounds, both optional:

    * ``job_ttl`` — terminal jobs whose ``finished_at`` is older than
      ``now - job_ttl`` seconds are dropped;
    * ``max_jobs`` — if the queue still holds more than ``max_jobs``
      jobs afterwards, the *oldest-finished* terminal jobs are dropped
      until the bound holds (or no terminal job remains).

    PENDING and RUNNING jobs are never evicted — eviction only forgets
    history, never work.  Returns the evicted job ids in eviction
    order so the caller can clean up per-job spool files.
    """
    if now is None:
        # allow-lint: REP003 retention clock, operational state only
        now = time.time()
    terminal = sorted(
        (
            job
            for job in queue.jobs.values()
            if job.state in TERMINAL_STATES
        ),
        key=lambda j: (j.finished_at or 0.0, j.submitted_seq),
    )
    evicted: List[str] = []
    if job_ttl is not None:
        for job in terminal:
            finished = job.finished_at
            if finished is not None and now - finished > job_ttl:
                evicted.append(job.job_id)
    if max_jobs is not None:
        excess = len(queue.jobs) - len(evicted) - int(max_jobs)
        survivors = [
            job for job in terminal if job.job_id not in set(evicted)
        ]
        for job in survivors[:max(0, excess)]:
            evicted.append(job.job_id)
    for job_id in evicted:
        del queue.jobs[job_id]
    return evicted


def rewrite_journal(path: str, queue: JobQueue) -> None:
    """Compact a journal to one snapshot line per surviving job.

    Written to a sibling temp file and atomically renamed over the
    original, so a kill mid-compaction leaves either the old journal
    or the new one — never a torn hybrid.  The replacement journal
    replays (via :func:`recover_jobs`) to exactly the queue's current
    jobs, which bounds journal growth across submit/complete churn:
    each boot collapses every job's transition history to one line and
    drops evicted jobs entirely.
    """
    temp_path = path + ".compact"
    writer = AtomicJsonLinesWriter(temp_path, append=False)
    try:
        for job in sorted(
            queue.jobs.values(), key=lambda j: j.submitted_seq
        ):
            writer.write_line(
                json.dumps(
                    {
                        "kind": "job_event",
                        "version": JOURNAL_VERSION,
                        "event": "compacted",
                        "job": job.to_snapshot(),
                    },
                    sort_keys=True,
                )
            )
    finally:
        writer.close()
    os.replace(temp_path, path)


def recover_jobs(path: str, queue: JobQueue) -> int:
    """Replay a journal into ``queue``; returns resumed-job count.

    Terminal jobs are restored as-is (results included, so the result
    endpoint survives restarts).  Jobs last seen PENDING or RUNNING
    are re-submitted as PENDING with their attempt counter intact —
    the interrupted attempt is not charged again, and their sweep
    checkpoints make the re-run a resume.
    """
    if not os.path.exists(path):
        return 0
    latest: Dict[str, Dict] = {}
    for event in load_job_journal(path):
        snapshot = event["job"]
        latest[snapshot["job_id"]] = snapshot
    resumed = 0
    for snapshot in sorted(
        latest.values(), key=lambda s: s["submitted_seq"]
    ):
        job = Job.from_snapshot(snapshot)
        if job.state in TERMINAL_STATES:
            queue.jobs[job.job_id] = job
            queue._seq = max(queue._seq, job.submitted_seq + 1)
            continue
        interrupted = job.state == RUNNING
        # Uncharge the interrupted attempt: the server died, not the
        # job.  Its checkpoint turns the re-run into a resume.
        if interrupted:
            job.attempts = max(0, job.attempts - 1)
        job.state = PENDING
        job.cancel_requested = False
        restored = Job.from_snapshot(job.to_snapshot())
        queue.submit(restored)
        if interrupted:
            resumed += 1
    return resumed
