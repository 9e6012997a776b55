"""The warm-cache worker fleet and per-kind job execution.

One :class:`WorkerFleet` wraps one persistent
:class:`~concurrent.futures.ProcessPoolExecutor` that outlives
individual jobs.  That persistence is the whole point of the service:
worker processes accumulate process-level caches — the dense LUT
gather tables (:mod:`repro.decoders.batched`), the compiled slot plans
of the lockstep core (:mod:`repro.qpdo.lockstep`) and the symbolic
reference traces (:mod:`repro.sim.refcache`).  All three are keyed on
structure alone, never on a seed, so every later shard of a job and
every later job with a familiar structure skips the cold work, even
though each job draws its own derived seed.  A throwaway per-job pool
would pay the cold start every time.

**Graceful degradation.**  A worker that dies mid-shard (OOM-killed,
segfaulted, ``kill -9``) breaks the whole executor —
``BrokenProcessPool`` — and every in-flight future with it.
:meth:`WorkerFleet.run_sweep_job` absorbs that: the broken pool is
discarded, a fresh one is spawned, and the sweep is re-entered with
``resume=True`` against its own checkpoint, so shards that committed
before the crash are replayed from disk and only the rest re-execute.
Because a shard's record is a pure function of its spec, the final
result is bit-identical to an undisturbed run.  Respawns are counted
(``serve.workers / fleet`` telemetry) and bounded.

Decode jobs ride the same pool via :func:`run_decode_job` — a
module-level pure function (picklable) that decodes posted syndrome
windows through the batched LUT decoder, exercising the worker's warm
LUT cache.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

import numpy as np

from ..codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX
from ..experiments.ler import ENGINES
from ..experiments.parallel import (
    ParallelConfig,
    ParallelSweepReport,
    PoolShutdownError,
    run_parallel_sweep,
    submit_to_pool,
)
from .. import telemetry
from .wire import JOB_KINDS


#: Seconds :meth:`WorkerFleet.respawn` waits before the next attempt.
RESPAWN_PAUSE_S = 0.1


def _fleet_context() -> mp.context.BaseContext:
    """The start method of serve worker processes.

    Plain ``fork`` is wrong inside a server: a worker forked while a
    client connection is open inherits the connection's fd, and the
    persistent worker then holds the TCP stream open long after the
    event loop closes its copy — the client never sees EOF.
    ``forkserver`` forks workers from a clean helper process that
    never owns sockets, so fds cannot leak into the fleet (including
    on respawn after a worker death); ``spawn`` is the fallback.
    """
    methods = mp.get_all_start_methods()
    for method in ("forkserver", "spawn", "fork"):
        if method in methods:
            return mp.get_context(method)
    raise RuntimeError("no multiprocessing start method available")


def _noop() -> None:
    """Warm-up task: forces worker processes to exist."""
    return None


class JobParamsError(ValueError):
    """A job document's ``params`` are structurally invalid."""


def check_job_params(job_kind: str, params: Dict) -> None:
    """Per-kind structural validation of a job's ``params``.

    Raises :class:`JobParamsError` with a client-facing message; runs
    *before* the job enters the queue so malformed work is rejected at
    the door instead of burning a worker attempt.
    """
    if job_kind not in JOB_KINDS:
        raise JobParamsError(f"unknown job kind {job_kind!r}")
    if job_kind == "decode":
        for key in ("x_rounds", "z_rounds"):
            rounds = params.get(key)
            if not isinstance(rounds, list) or not rounds:
                raise JobParamsError(
                    f"decode params need non-empty {key!r} "
                    "(shots x rounds x checks nested lists)"
                )
        try:
            x_shape = np.asarray(params["x_rounds"], dtype=bool).shape
            z_shape = np.asarray(params["z_rounds"], dtype=bool).shape
        except ValueError as error:
            raise JobParamsError(f"ragged syndrome arrays: {error}")
        if len(x_shape) != 3 or len(z_shape) != 3:
            raise JobParamsError(
                "syndrome arrays must be 3-d (shots, rounds, checks)"
            )
        if x_shape[:2] != z_shape[:2]:
            raise JobParamsError(
                "x_rounds and z_rounds disagree on shot or round count"
            )
        if x_shape[1] % 2 == 0:
            raise JobParamsError(
                "decode needs an odd number of rounds (majority vote)"
            )
        if (x_shape[2], z_shape[2]) != (
            X_CHECK_MATRIX.shape[0],
            Z_CHECK_MATRIX.shape[0],
        ):
            raise JobParamsError(
                "syndrome arrays must hold the surface-17 check "
                f"counts ({X_CHECK_MATRIX.shape[0]} X, "
                f"{Z_CHECK_MATRIX.shape[0]} Z)"
            )
        return
    # ler / sweep: bounded simulation sizes with sane types.
    if job_kind == "sweep":
        per_values = params.get("per_values")
        if not isinstance(per_values, list) or not per_values:
            raise JobParamsError(
                "sweep params need a non-empty 'per_values' list"
            )
        if not all(
            isinstance(v, (int, float)) and 0 <= v < 1
            for v in per_values
        ):
            raise JobParamsError(
                "'per_values' entries must be rates in [0, 1)"
            )
    else:
        per = params.get("physical_error_rate")
        if not isinstance(per, (int, float)) or not 0 <= per < 1:
            raise JobParamsError(
                "ler params need 'physical_error_rate' in [0, 1)"
            )
    for key, default in (("shots", 10), ("windows", 10)):
        value = params.get(key, default)
        if not isinstance(value, int) or value < 1:
            raise JobParamsError(f"{key!r} must be a positive integer")
    if job_kind == "sweep" and params.get("shots", 10) < 2:
        raise JobParamsError(
            "sweep 'shots' must be at least 2: each point's t-tests "
            "need two samples per arm"
        )
    engine = params.get("engine", "framesim")
    if engine not in ENGINES:
        raise JobParamsError(f"unknown engine {engine!r}")
    decoder = params.get("decoder")
    if decoder is not None:
        if not isinstance(decoder, str):
            raise JobParamsError("'decoder' must be a string NAME")
        from ..decoders.registry import UnknownDecoderError, get_decoder

        try:
            get_decoder(decoder)
        except UnknownDecoderError as error:
            raise JobParamsError(f"'decoder': {error}")


def run_decode_job(params: Dict) -> Dict:
    """Decode posted syndrome windows on a (warm) worker process.

    ``params``: ``x_rounds`` / ``z_rounds`` as nested bool lists of
    shape ``(shots, rounds, checks)`` (odd round count, surface-17
    check geometry), optional ``use_majority_vote``.  Returns the
    per-shot correction masks and voted syndromes as JSON-safe lists.
    """
    from ..decoders.batched import BatchedWindowedLutDecoder

    x_rounds = np.asarray(params["x_rounds"], dtype=bool)
    z_rounds = np.asarray(params["z_rounds"], dtype=bool)
    decoder = BatchedWindowedLutDecoder(
        X_CHECK_MATRIX,
        Z_CHECK_MATRIX,
        use_majority_vote=bool(params.get("use_majority_vote", True)),
    )
    decision = decoder.initialize(x_rounds, z_rounds)
    return {
        "shots": int(x_rounds.shape[0]),
        "rounds": int(x_rounds.shape[1]),
        "x_corrections": decision.x_corrections.astype(int).tolist(),
        "z_corrections": decision.z_corrections.astype(int).tolist(),
        "has_corrections": decision.has_corrections.astype(int).tolist(),
        "voted_x": decision.voted_x.astype(int).tolist(),
        "voted_z": decision.voted_z.astype(int).tolist(),
    }


class WorkerFleet:
    """A persistent worker pool with broken-pool recovery.

    Parameters
    ----------
    workers:
        Worker process count; ``1`` still uses a real pool so decode
        jobs and sweeps share identical execution paths.
    max_respawns:
        How many broken-pool recoveries a single job may consume
        before its failure is surfaced to the queue's retry logic.
    """

    def __init__(self, workers: int = 2, max_respawns: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = int(workers)
        self.max_respawns = int(max_respawns)
        self.respawns = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle -------------------------------------------------
    def executor(self) -> ProcessPoolExecutor:
        """The live pool, spawning it on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_fleet_context(),
            )
        return self._pool

    def warm(self) -> None:
        """Start the worker processes now.

        Called at server startup, before the listener accepts its
        first connection, so job latency never pays the pool's cold
        start and the forkserver helper is spawned while the process
        holds no client sockets.
        """
        self.executor().submit(_noop).result()

    def respawn(self) -> None:
        """Discard a broken pool and count the degradation event.

        The broken pool's workers are killed here rather than left to
        the pool's own teardown.  A worker the pool started while it
        was breaking can miss that teardown's SIGTERM and wait forever
        on a queue lock the dead worker held; the pool's management
        thread then waits forever on that worker, and interpreter exit
        waits on the thread.

        Then it pauses: a worker start torn by the breakage can take
        the forkserver down, and until that process has exited every
        start is refused, so an immediate retry would spend the respawn
        budget in milliseconds.
        """
        if self._pool is not None:
            workers = list((self._pool._processes or {}).values())
            self._pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.kill()
            self._pool = None
        time.sleep(RESPAWN_PAUSE_S)
        self.respawns += 1
        t = telemetry.ACTIVE
        if t is not None:
            t.count("serve.workers", "fleet", "respawns")

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- execution ------------------------------------------------------
    def run_sweep_job(
        self,
        per_values: List[float],
        error_kind: str,
        shots: int,
        windows: Optional[int],
        seed: int,
        shard_shots: int,
        engine: str,
        checkpoint: Optional[str],
        target_ci: Optional[float] = None,
        max_logical_errors: int = 50,
        decoder: str = "lut",
    ) -> ParallelSweepReport:
        """One sweep on the warm pool, surviving worker deaths.

        Always runs with ``resume=True`` against the job's own
        checkpoint: a first attempt finds no file and starts cold; a
        retry (in-process respawn or full server restart) replays the
        committed shards and finishes the rest, bit-identically.
        """
        config = ParallelConfig(
            workers=self.workers,
            shard_shots=shard_shots,
            checkpoint=checkpoint,
            resume=checkpoint is not None,
            target_ci=target_ci,
        )
        attempts = 0
        while True:
            try:
                return run_parallel_sweep(
                    per_values,
                    error_kind=error_kind,
                    shots=shots,
                    windows=windows,
                    seed=seed,
                    config=config,
                    max_logical_errors=max_logical_errors,
                    engine=engine,
                    pool=self.executor(),
                    decoder=decoder,
                )
            except BrokenProcessPool:
                attempts += 1
                self.respawn()
                if attempts > self.max_respawns:
                    raise

    def run_decode(self, params: Dict) -> Dict:
        """One decode job on the warm pool, surviving worker deaths."""
        attempts = 0
        while True:
            try:
                future = submit_to_pool(
                    self.executor(), run_decode_job, params
                )
                try:
                    return future.result()
                except CancelledError:
                    # Fleet shut down under us; surface the same
                    # shutdown-collateral error as sweeps do so the
                    # journal keeps the job RUNNING for a restart.
                    raise PoolShutdownError(
                        "worker pool shut down mid-decode"
                    )
            except BrokenProcessPool:
                attempts += 1
                self.respawn()
                if attempts > self.max_respawns:
                    raise
