"""Job queue, lifecycle state machine and journal of ``repro.serve``.

Three layers of coverage:

* example-based tests of every legal and illegal transition;
* journal persistence + recovery (including the torn-tail contract);
* a Hypothesis *stateful* suite driving the machine with arbitrary
  event interleavings and checking the global invariants after every
  step — no job is ever lost, duplicated, or stuck in a state without
  a legal exit.
"""

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobJournal,
    JobQueue,
    JobStateError,
    derive_job_seed,
    evict_jobs,
    load_job_journal,
    recover_jobs,
    rewrite_journal,
)


def make_job(job_id="j1", priority=0, max_attempts=2, **kwargs):
    return Job(
        job_id=job_id,
        job_kind=kwargs.pop("job_kind", "ler"),
        params=kwargs.pop("params", {"physical_error_rate": 0.01}),
        priority=priority,
        max_attempts=max_attempts,
        seed=kwargs.pop("seed", derive_job_seed(job_id)),
        **kwargs,
    )


class TestDeriveJobSeed:
    def test_deterministic_and_distinct(self):
        assert derive_job_seed("a") == derive_job_seed("a")
        assert derive_job_seed("a") != derive_job_seed("b")

    def test_non_negative_31_bit(self):
        for job_id in ("x", "y", "job-000017", "☃"):
            seed = derive_job_seed(job_id)
            assert 0 <= seed < 2**31


class TestLifecycle:
    def test_submit_claim_complete(self):
        queue = JobQueue()
        queue.submit(make_job())
        job = queue.claim()
        assert job.state == RUNNING
        assert job.attempts == 1
        done = queue.complete("j1", {"answer": 42})
        assert done.state == DONE
        assert done.result == {"answer": 42}

    def test_fail_requeues_until_attempts_spent(self):
        queue = JobQueue()
        queue.submit(make_job(max_attempts=3))
        for attempt in range(1, 3):
            assert queue.claim().attempts == attempt
            assert queue.fail("j1", "boom").state == PENDING
        assert queue.claim().attempts == 3
        failed = queue.fail("j1", "boom")
        assert failed.state == FAILED
        assert failed.error == "boom"

    def test_timeout_is_a_retryable_failure(self):
        queue = JobQueue()
        queue.submit(make_job(max_attempts=2))
        queue.claim()
        assert queue.timeout("j1").state == PENDING
        queue.claim()
        timed_out = queue.timeout("j1")
        assert timed_out.state == FAILED
        assert timed_out.error == "timeout"

    def test_cancel_pending_is_immediate(self):
        queue = JobQueue()
        queue.submit(make_job())
        assert queue.cancel("j1").state == CANCELLED
        assert queue.claim() is None

    def test_cancel_running_settles_on_completion(self):
        queue = JobQueue()
        queue.submit(make_job())
        queue.claim()
        assert queue.cancel("j1").state == RUNNING
        settled = queue.complete("j1", {"ignored": True})
        assert settled.state == CANCELLED
        assert settled.result is None

    def test_cancel_running_settles_on_failure_without_retry(self):
        queue = JobQueue()
        queue.submit(make_job(max_attempts=5))
        queue.claim()
        queue.cancel("j1")
        assert queue.fail("j1", "boom").state == CANCELLED

    def test_priority_then_fifo_claim_order(self):
        queue = JobQueue()
        for job_id, priority in (
            ("low1", 0), ("high", 5), ("low2", 0),
        ):
            queue.submit(make_job(job_id, priority=priority))
        assert [queue.claim().job_id for _ in range(3)] == [
            "high", "low1", "low2",
        ]

    def test_invalid_transitions_raise(self):
        queue = JobQueue()
        with pytest.raises(JobStateError):
            queue.complete("ghost", {})
        queue.submit(make_job())
        with pytest.raises(JobStateError):
            queue.complete("j1", {})  # pending, not running
        with pytest.raises(JobStateError):
            queue.submit(make_job())  # duplicate id
        with pytest.raises(JobStateError):
            queue.submit(make_job("j2", job_kind="nonsense"))
        queue.claim()
        queue.complete("j1", {})
        with pytest.raises(JobStateError):
            queue.cancel("j1")  # terminal

    def test_counts_cover_every_state(self):
        queue = JobQueue()
        assert queue.counts() == {
            PENDING: 0, RUNNING: 0, DONE: 0,
            FAILED: 0, CANCELLED: 0,
        }
        queue.submit(make_job())
        queue.submit(make_job("j2"))
        queue.claim()
        counts = queue.counts()
        assert counts[PENDING] == 1
        assert counts[RUNNING] == 1

    def test_transition_hook_sees_every_event(self):
        events = []
        queue = JobQueue(
            on_transition=lambda e, j: events.append((e, j.state))
        )
        queue.submit(make_job(max_attempts=2))
        queue.claim()
        queue.fail("j1", "x")
        queue.claim()
        queue.complete("j1", {})
        assert events == [
            ("submitted", PENDING),
            ("started", RUNNING),
            ("requeued", PENDING),
            ("started", RUNNING),
            ("done", DONE),
        ]


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        journal = JobJournal(path)
        queue = JobQueue(on_transition=journal.record)
        queue.submit(make_job())
        queue.claim()
        queue.complete("j1", {"v": 1})
        journal.close()
        events = load_job_journal(path)
        assert [e["event"] for e in events] == [
            "submitted", "started", "done",
        ]
        assert events[-1]["job"]["result"] == {"v": 1}

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        journal = JobJournal(path)
        queue = JobQueue(on_transition=journal.record)
        queue.submit(make_job())
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "job_event", "ev')  # kill mid-write
        events = load_job_journal(path)
        assert [e["event"] for e in events] == ["submitted"]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with open(path, "w") as handle:
            handle.write("not json\n")
            handle.write('{"kind": "job_event"}\n')
        with pytest.raises(ValueError, match="malformed"):
            load_job_journal(path)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="unknown"):
            load_job_journal(path)


class TestRecovery:
    def _journaled_queue(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        journal = JobJournal(path)
        queue = JobQueue(on_transition=journal.record)
        return path, journal, queue

    def test_missing_journal_recovers_nothing(self, tmp_path):
        queue = JobQueue()
        assert recover_jobs(str(tmp_path / "absent.jsonl"), queue) == 0
        assert len(queue) == 0

    def test_terminal_jobs_restore_with_results(self, tmp_path):
        path, journal, queue = self._journaled_queue(tmp_path)
        queue.submit(make_job())
        queue.claim()
        queue.complete("j1", {"v": 7})
        journal.close()
        fresh = JobQueue()
        assert recover_jobs(path, fresh) == 0
        job = fresh.get("j1")
        assert job.state == DONE
        assert job.result == {"v": 7}
        assert fresh.claim() is None  # terminal jobs are not claimable

    def test_running_job_requeues_with_attempt_uncharged(
        self, tmp_path
    ):
        path, journal, queue = self._journaled_queue(tmp_path)
        queue.submit(make_job(max_attempts=2))
        queue.claim()  # server dies here: journal's last state RUNNING
        journal.close()
        fresh = JobQueue()
        assert recover_jobs(path, fresh) == 1
        job = fresh.get("j1")
        assert job.state == PENDING
        # The interrupted attempt is not charged: the re-run still has
        # the full retry budget it had when it was first claimed.
        assert job.attempts == 0
        assert fresh.claim().job_id == "j1"

    def test_pending_job_survives_restart_in_claim_order(
        self, tmp_path
    ):
        path, journal, queue = self._journaled_queue(tmp_path)
        queue.submit(make_job("a", priority=0))
        queue.submit(make_job("b", priority=3))
        journal.close()
        fresh = JobQueue()
        recover_jobs(path, fresh)
        assert fresh.claim().job_id == "b"
        assert fresh.claim().job_id == "a"

    def test_recovered_queue_accepts_new_submissions(self, tmp_path):
        path, journal, queue = self._journaled_queue(tmp_path)
        queue.submit(make_job())
        queue.claim()
        queue.complete("j1", {})
        journal.close()
        fresh = JobQueue()
        recover_jobs(path, fresh)
        fresh.submit(make_job("j2"))
        assert fresh.get("j2").submitted_seq > fresh.get(
            "j1"
        ).submitted_seq

    def test_double_restart_is_stable(self, tmp_path):
        """Recovering twice in a row reaches the same queue state."""
        path, journal, queue = self._journaled_queue(tmp_path)
        queue.submit(make_job("a"))
        queue.submit(make_job("b"))
        queue.claim()
        journal.close()

        def snapshot(q):
            return {
                job_id: (j.state, j.attempts)
                for job_id, j in q.jobs.items()
            }

        reopened = JobJournal(path, append=True)
        first = JobQueue(on_transition=reopened.record)
        recover_jobs(path, first)
        reopened.close()
        second = JobQueue()
        recover_jobs(path, second)
        assert snapshot(first) == snapshot(second)


class TestEvictionAndCompaction:
    """TTL/size-bounded retention plus boot-time journal compaction."""

    def _finished_queue(self, count, base_time=1_000.0):
        queue = JobQueue()
        for index in range(count):
            job = make_job(job_id=f"j{index}")
            queue.submit(job)
            queue.claim()
            queue.complete(job.job_id, {"v": index})
            job.finished_at = base_time + index
        return queue

    def test_ttl_evicts_only_expired_terminal_jobs(self):
        queue = self._finished_queue(4)
        queue.submit(make_job(job_id="pending"))
        evicted = evict_jobs(queue, job_ttl=1.5, now=1_003.0)
        assert sorted(evicted) == ["j0", "j1"]
        assert sorted(queue.jobs) == ["j2", "j3", "pending"]

    def test_max_jobs_keeps_newest_finished(self):
        queue = self._finished_queue(5)
        evicted = evict_jobs(queue, max_jobs=2)
        assert sorted(evicted) == ["j0", "j1", "j2"]
        assert sorted(queue.jobs) == ["j3", "j4"]

    def test_pending_and_running_never_evicted(self):
        queue = JobQueue()
        for index in range(3):
            queue.submit(make_job(job_id=f"live{index}"))
        queue.claim()
        evicted = evict_jobs(queue, job_ttl=0.0, max_jobs=1, now=1e9)
        assert evicted == []
        assert len(queue.jobs) == 3

    def test_both_bounds_compose(self):
        queue = self._finished_queue(6)
        evicted = evict_jobs(
            queue, job_ttl=2.5, max_jobs=2, now=1_005.0
        )
        # TTL drops j0..j2 (older than 2.5 s before now), then the
        # size bound drops j3 to reach 2.
        assert sorted(evicted) == ["j0", "j1", "j2", "j3"]
        assert sorted(queue.jobs) == ["j4", "j5"]

    def test_rewrite_journal_is_replayable(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        journal = JobJournal(path)
        queue = JobQueue(on_transition=journal.record)
        for index in range(3):
            job = make_job(job_id=f"j{index}")
            queue.submit(job)
            queue.claim()
            queue.complete(job.job_id, {"v": index})
        journal.close()
        assert len(load_job_journal(path)) == 9  # 3 transitions each
        evict_jobs(queue, max_jobs=1)
        rewrite_journal(path, queue)
        events = load_job_journal(path)
        assert len(events) == 1
        assert events[0]["event"] == "compacted"
        replayed = JobQueue()
        recover_jobs(path, replayed)
        assert sorted(replayed.jobs) == ["j2"]
        assert replayed.jobs["j2"].result == {"v": 2}

    def test_journal_bounded_under_churn(self, tmp_path):
        """Submit/complete churn across restarts stays bounded.

        Models the serve boot sequence: each cycle replays the
        journal, evicts to ``max_jobs``, compacts, then appends a new
        burst of finished jobs.  Without compaction the journal grows
        by three lines per job forever; with it, every boot returns
        the file to at most ``max_jobs`` lines.
        """
        path = str(tmp_path / "jobs.jsonl")
        max_jobs = 3
        line_counts = []
        for cycle in range(5):
            queue = JobQueue()
            recover_jobs(path, queue)
            evict_jobs(queue, max_jobs=max_jobs)
            rewrite_journal(path, queue)
            line_counts.append(len(load_job_journal(path)))
            journal = JobJournal(path, append=True)
            queue._on_transition = journal.record
            for index in range(4):
                job_id = f"c{cycle}-j{index}"
                queue.submit(make_job(job_id=job_id))
                queue.claim()
                queue.complete(job_id, {"cycle": cycle})
            journal.close()
        assert all(count <= max_jobs for count in line_counts)
        # ... while an append-only journal would have kept growing:
        # 4 jobs x 3 transitions per cycle.
        final = JobQueue()
        recover_jobs(path, final)
        evict_jobs(final, max_jobs=max_jobs)
        assert len(final.jobs) == max_jobs


class JobLifecycleMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of queue events keep the invariants.

    The model tracks only what was submitted; the queue under test is
    driven through claims, completions, failures and cancels in any
    order Hypothesis finds, with illegal transitions expected to raise
    rather than corrupt state.
    """

    def __init__(self):
        super().__init__()
        self.queue = JobQueue()
        self.submitted = set()
        self.claimed = set()
        self.next_id = 0

    @rule(priority=st.integers(-5, 5), attempts=st.integers(1, 3))
    def submit(self, priority, attempts):
        job_id = f"job{self.next_id}"
        self.next_id += 1
        self.queue.submit(
            make_job(job_id, priority=priority, max_attempts=attempts)
        )
        self.submitted.add(job_id)

    @precondition(lambda self: len(self.submitted) > 0)
    @rule()
    def claim(self):
        job = self.queue.claim()
        if job is not None:
            assert job.state == RUNNING
            self.claimed.add(job.job_id)

    @precondition(lambda self: len(self.claimed) > 0)
    @rule(data=st.data())
    def complete(self, data):
        job_id = data.draw(
            st.sampled_from(sorted(self.claimed)), label="complete"
        )
        job = self.queue.get(job_id)
        if job.state == RUNNING:
            settled = self.queue.complete(job_id, {"ok": True})
            assert settled.state in (DONE, CANCELLED)
        else:
            with pytest.raises(JobStateError):
                self.queue.complete(job_id, {})

    @precondition(lambda self: len(self.claimed) > 0)
    @rule(data=st.data())
    def fail(self, data):
        job_id = data.draw(
            st.sampled_from(sorted(self.claimed)), label="fail"
        )
        job = self.queue.get(job_id)
        if job.state == RUNNING:
            settled = self.queue.fail(job_id, "boom")
            assert settled.state in (PENDING, FAILED, CANCELLED)
        else:
            with pytest.raises(JobStateError):
                self.queue.fail(job_id, "boom")

    @precondition(lambda self: len(self.submitted) > 0)
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(
            st.sampled_from(sorted(self.submitted)), label="cancel"
        )
        job = self.queue.get(job_id)
        if job.state in TERMINAL_STATES:
            with pytest.raises(JobStateError):
                self.queue.cancel(job_id)
        else:
            self.queue.cancel(job_id)

    @invariant()
    def no_job_lost_or_duplicated(self):
        assert set(self.queue.jobs) == self.submitted
        assert len(self.queue.jobs) == len(self.submitted)

    @invariant()
    def states_are_legal(self):
        for job in self.queue.jobs.values():
            assert job.state in (
                PENDING, RUNNING, DONE, FAILED, CANCELLED,
            )
            assert 0 <= job.attempts <= job.max_attempts

    @invariant()
    def no_stuck_jobs(self):
        """Every non-terminal job still has a legal exit."""
        for job in self.queue.jobs.values():
            if job.state == PENDING:
                # Must be reachable by some future claim: its heap
                # entry exists (possibly shadowed, never dropped).
                assert any(
                    entry[2] == job.job_id
                    for entry in self.queue._heap
                )
            elif job.state == RUNNING:
                assert job.attempts >= 1

    @invariant()
    def terminal_jobs_are_consistent(self):
        for job in self.queue.jobs.values():
            if job.state == DONE:
                assert job.result is not None
            if job.state == FAILED:
                assert job.error is not None
                assert job.attempts == job.max_attempts


TestJobLifecycleProperties = JobLifecycleMachine.TestCase
TestJobLifecycleProperties.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
