"""Shot-sharded parallel LER sweeps with checkpoint/resume.

The paper's headline evaluation (Figs 5.17-5.24) wants tens of
thousands of decode-and-correct windows per (PER, frame-arm) point.
The batched sampler made a single process fast; this module scales
*across* processes the way Stim does (Gidney, Quantum 5, 497):
logical-error-rate sampling is embarrassingly parallel over shots, so
every sweep point is split into fixed-size **shards**, each with its
own seed tree and its own record.

A shard is the unit of seeding, records, checkpointing, early stopping
and worker-count invariance, not of execution: consecutive outstanding
shards of one arm run side by side in one lockstep core
(:func:`run_shards`, at most :data:`FUSED_SHOTS` shots per core call),
inline or as one task of a worker pool, and hand back one record per
shard, each equal to the shard's lone run (:func:`run_shard`).  Only
the width of a core call depends on how shards are grouped.

Three properties are load-bearing:

* **Determinism regardless of worker count.**  A shard's entire RNG
  tree derives from ``(arm_seed, shard_index)`` — nothing else.  The
  aggregate is assembled from shard records *in shard-index order*, so
  1, 4 or 40 workers (or a resumed run) produce bit-identical
  per-shard records and bit-identical final numbers.

* **Checkpoint/resume.**  With a checkpoint path, every completed
  shard is appended to a JSON-lines file as one atomic line (single
  ``write`` + flush + fsync).  A killed sweep resumes by replaying the
  recorded shards and executing only the missing ones; the final
  result is identical to an uninterrupted run.  A header line pins the
  result-affecting configuration so a stale checkpoint cannot silently
  poison a different sweep.

* **Online aggregation with optional early stopping.**  Shard records
  stream into per-arm Wilson-interval trackers
  (:func:`repro.experiments.stats.wilson_interval`); with a
  ``target_ci``, an arm stops once the pooled LER's CI half-width at
  the *committed frontier* meets the target.  The frontier rule keeps
  early stopping deterministic: the committed shard set is the
  shortest prefix (in shard-index order) satisfying the target, no
  matter how many extra shards happened to finish on a wide pool.

Shards run either the batched lockstep sampler
(:class:`~repro.experiments.ler.BatchedLerExperiment`, ``mode="batch"``)
or the per-shot tableau loop
(:class:`~repro.experiments.ler.LerExperiment`, ``mode="loop"``).

A :class:`ParallelSweepReport` folds each arm into an
:class:`~repro.experiments.results.ArmReport`
(:meth:`ParallelSweepReport.arm_report`) and builds its figure data
(``sweep``: per-shot results and t-tests) on first read, so
``repro ler``, which reads only the arms' pooled counts, never builds
it.  Batch-mode shards decode with a registry decoder chosen by name
alone.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing as mp
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..qpdo.packed_core import Shard
from .ler import (
    DEFAULT_BATCH_WINDOWS,
    ENGINES,
    BatchedLerExperiment,
    LerExperiment,
)
from .results import (
    ArmReport,
    LerReport,
    RunResult,
    ShardResult,
    SweepResult,
)
from .stats import wilson_halfwidth, wilson_interval
from .sweep import (
    ARM_SEED_OFFSET,
    build_sweep_point,
    point_base_seed,
)

#: Format version of the JSON-lines checkpoint.
CHECKPOINT_VERSION = 1


class PoolShutdownError(RuntimeError):
    """The shared worker pool was shut down while a sweep was draining.

    Raised instead of hanging: ``ProcessPoolExecutor.shutdown(
    cancel_futures=True)`` moves queued work-item futures to
    ``CANCELLED`` without notifying waiters (CPython never calls
    ``set_running_or_notify_cancel`` on them), so a concurrent
    ``concurrent.futures.wait`` would block forever.  Callers that own
    the pool (``repro serve``) treat this as shutdown collateral — the
    checkpoint keeps the committed shards and a later resume finishes
    the run bit-identically.
    """


class CheckpointMismatchError(ValueError):
    """A ``resume`` against a checkpoint that a different sweep wrote.

    The message is one line: it names each differing header key with
    its stored and planned values, or the shard the plan lacks.
    """


#: Arm identifier used in records and keys.
ArmKey = Tuple[int, bool]


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard: a fixed block of shots of one (PER, arm).

    Everything that determines the shard's random stream is in here,
    and nothing else is: the shard seed is ``(arm_seed, shard_index)``
    (plus the in-shard shot index in loop mode), so the record a shard
    produces is a pure function of its spec.
    """

    point_index: int
    physical_error_rate: float
    use_pauli_frame: bool
    shard_index: int
    shots: int
    error_kind: str
    mode: str  # "batch" or "loop"
    windows: int  # batch mode: windows per shot; loop mode: 0
    max_logical_errors: int
    max_windows: int
    arm_seed: int
    #: Frame stream of batch-mode shards (one of
    #: :data:`~repro.experiments.ler.ENGINES`).
    engine: str = "framesim"
    #: Registry decoder of batch-mode shards (canonical name; see
    #: :mod:`repro.decoders.registry`).  Decoding consumes no RNG, so
    #: the shard stream is decoder-independent — but the *records* are
    #: not (corrections differ), so the decoder is pinned per shard.
    decoder: str = "lut"

    @property
    def key(self) -> Tuple[int, bool, int]:
        return (self.point_index, self.use_pauli_frame, self.shard_index)

    @property
    def arm_key(self) -> ArmKey:
        return (self.point_index, self.use_pauli_frame)

    @property
    def shard_seed(self) -> Tuple[int, int]:
        """Entropy of this shard's RNG tree (worker-count independent)."""
        return (self.arm_seed, self.shard_index)


def plan_shards(
    per_values: Sequence[float],
    error_kind: str,
    shots: int,
    shard_shots: int,
    windows: Optional[int],
    seed: int,
    max_logical_errors: int = 50,
    max_windows: int = 2_000_000,
    engine: str = "framesim",
    decoder: str = "lut",
) -> List[ShardSpec]:
    """The full deterministic shard schedule of a sweep.

    ``shots`` per arm are split into ``ceil(shots / shard_shots)``
    shards; the last shard takes the remainder.  ``windows`` selects
    batch mode (fixed windows per shot); ``None`` selects the per-shot
    tableau loop terminated at ``max_logical_errors``.  ``engine``
    selects the batch-mode simulation core and ``decoder`` the
    registry decoder (the loop mode has neither a batched core nor
    decoder selection and accepts only the defaults).
    """
    from ..decoders.registry import get_decoder

    if shots < 1:
        raise ValueError("shots must be positive")
    if shard_shots < 1:
        raise ValueError("shard_shots must be positive")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {list(ENGINES)}")
    decoder = get_decoder(decoder).name
    mode = "batch" if windows is not None else "loop"
    if mode == "batch" and windows < 1:
        raise ValueError("windows must be positive in batch mode")
    if mode == "loop" and engine != "framesim":
        raise ValueError(
            "the per-shot loop mode has no batched core; "
            "engine selection requires batch mode (windows set)"
        )
    if mode == "loop" and decoder != "lut":
        raise ValueError(
            "the per-shot loop mode has a fixed decoder; "
            "decoder selection requires batch mode (windows set)"
        )
    specs: List[ShardSpec] = []
    num_shards = math.ceil(shots / shard_shots)
    for index, per in enumerate(per_values):
        base = point_base_seed(seed, index)
        for use_frame in (False, True):
            arm_seed = base + (ARM_SEED_OFFSET if use_frame else 0)
            remaining = shots
            for shard in range(num_shards):
                take = min(shard_shots, remaining)
                remaining -= take
                specs.append(
                    ShardSpec(
                        point_index=index,
                        physical_error_rate=float(per),
                        use_pauli_frame=use_frame,
                        shard_index=shard,
                        shots=take,
                        error_kind=error_kind,
                        mode=mode,
                        windows=int(windows) if mode == "batch" else 0,
                        max_logical_errors=int(max_logical_errors),
                        max_windows=int(max_windows),
                        arm_seed=arm_seed,
                        engine=engine,
                        decoder=decoder,
                    )
                )
    return specs


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
#: Most shots one fused run carries: 64 words per core call.
FUSED_SHOTS = 4096


def _fuses(spec: ShardSpec) -> bool:
    """Whether ``spec`` may share a core with other shards of its arm:
    a batch-mode shard on the exact frame stream."""
    return spec.mode == "batch" and ENGINES[spec.engine] == "exact"


def run_shards(specs: Sequence[ShardSpec]) -> List[ShardResult]:
    """Execute shards of one arm; one record per spec, in order.

    Record ``j`` equals ``run_shard(specs[j])``.  Several specs must
    fuse (:func:`_fuses`) and differ only in ``shard_index`` and
    ``shots``: they run side by side in one
    :class:`BatchedLerExperiment`, each on its own ``(arm_seed,
    shard_index)`` streams, so only the width of a core call changes.
    This is the function worker processes run.
    """
    first = specs[0]
    if len(specs) > 1:
        shape = replace(first, shard_index=0, shots=0)
        if any(replace(spec, shard_index=0, shots=0) != shape
               for spec in specs):
            raise ValueError(
                "a fused run holds shards of one arm that differ only "
                "in shard_index and shots"
            )
        if not _fuses(first):
            raise ValueError(
                f"{first.mode}-mode shards on the {first.engine!r} "
                f"engine run one per core"
            )
    t = telemetry.ACTIVE
    if t is None:
        return _run_shards(specs)
    with t.span(
        "parallel",
        "run_shards",
        point_index=first.point_index,
        use_pauli_frame=first.use_pauli_frame,
        shard_index=first.shard_index,
        shards=len(specs),
        shots=sum(spec.shots for spec in specs),
        mode=first.mode,
    ):
        return _run_shards(specs)


def run_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard; pure function of its spec.

    The determinism reference of :func:`run_shards`.  Batch mode drives
    one :class:`BatchedLerExperiment` over the shard's shots in
    lockstep; loop mode runs ``spec.shots`` independent per-shot
    tableau experiments, each seeded by ``(arm_seed, shard_index,
    shot)``.
    """
    return run_shards([spec])[0]


def _run_shards(specs: Sequence[ShardSpec]) -> List[ShardResult]:
    spec = specs[0]
    if spec.mode == "batch":
        counts = BatchedLerExperiment(
            spec.physical_error_rate,
            use_pauli_frame=spec.use_pauli_frame,
            error_kind=spec.error_kind,
            windows=spec.windows,
            engine=spec.engine,
            decoder_impl=spec.decoder,
            shards=[Shard(one.shots, one.shard_seed) for one in specs],
        ).run_counts()
        records, start = [], 0
        for one in specs:
            stop = start + one.shots
            records.append(
                ShardResult(
                    point_index=one.point_index,
                    physical_error_rate=one.physical_error_rate,
                    use_pauli_frame=one.use_pauli_frame,
                    shard_index=one.shard_index,
                    shots=one.shots,
                    error_kind=one.error_kind,
                    mode=one.mode,
                    windows=one.windows,
                    shot_errors=counts.logical_errors[start:stop].tolist(),
                    shot_windows=[one.windows] * one.shots,
                    shot_clean=counts.clean_windows[start:stop].tolist(),
                    shot_corrections=counts.corrections_commanded[
                        start:stop
                    ].tolist(),
                )
            )
            start = stop
        return records
    if spec.mode != "loop":
        raise ValueError(f"unknown shard mode {spec.mode!r}")
    errors: List[int] = []
    windows: List[int] = []
    clean: List[int] = []
    corrections: List[int] = []
    for shot in range(spec.shots):
        result = LerExperiment(
            spec.physical_error_rate,
            use_pauli_frame=spec.use_pauli_frame,
            error_kind=spec.error_kind,
            max_logical_errors=spec.max_logical_errors,
            max_windows=spec.max_windows,
            seed=(spec.arm_seed, spec.shard_index, shot),
        ).run()
        errors.append(result.logical_errors)
        windows.append(result.windows)
        clean.append(result.clean_windows)
        corrections.append(result.corrections_commanded)
    return [
        ShardResult(
            point_index=spec.point_index,
            physical_error_rate=spec.physical_error_rate,
            use_pauli_frame=spec.use_pauli_frame,
            shard_index=spec.shard_index,
            shots=spec.shots,
            error_kind=spec.error_kind,
            mode=spec.mode,
            windows=spec.windows,
            shot_errors=errors,
            shot_windows=windows,
            shot_clean=clean,
            shot_corrections=corrections,
        )
    ]


# ----------------------------------------------------------------------
# Online aggregation with a deterministic early-stop frontier
# ----------------------------------------------------------------------
class ArmAggregator:
    """Order-committing accumulator of one arm's shard records.

    Records may *arrive* in any order (workers race), but they are
    *committed* strictly in shard-index order.  Early stopping is
    evaluated only at the committed frontier, so the set of committed
    shards — and therefore every downstream number — is independent of
    worker count and of how a resumed run interleaved with the
    original.  Records beyond a satisfied frontier are discarded.
    """

    def __init__(
        self,
        num_shards: int,
        target_halfwidth: Optional[float] = None,
        confidence: float = 0.95,
    ) -> None:
        self.num_shards = int(num_shards)
        self.target_halfwidth = target_halfwidth
        self.confidence = float(confidence)
        self.committed: List[ShardResult] = []
        self.errors = 0
        self.windows = 0
        self.satisfied = False
        self._pending: Dict[int, ShardResult] = {}

    @property
    def next_index(self) -> int:
        """Shard index the frontier is waiting for."""
        return len(self.committed)

    @property
    def done(self) -> bool:
        """Whether this arm needs no further shards."""
        return self.satisfied or self.next_index >= self.num_shards

    def halfwidth(self) -> float:
        """Wilson CI half-width of the committed pooled LER."""
        return wilson_halfwidth(
            self.errors, self.windows, self.confidence
        )

    def wilson(self) -> Tuple[float, float]:
        """Wilson CI of the committed pooled LER."""
        return wilson_interval(
            self.errors, self.windows, self.confidence
        )

    @property
    def pooled_ler(self) -> float:
        if self.windows == 0:
            return 0.0
        return self.errors / self.windows

    def add(self, record: ShardResult) -> None:
        """Stash a record; commit every in-order shard now available."""
        if record.shard_index < self.next_index or self.done:
            return  # duplicate (resume replay) or beyond the frontier
        self._pending[record.shard_index] = record
        while not self.done and self.next_index in self._pending:
            committed = self._pending.pop(self.next_index)
            self.committed.append(committed)
            self.errors += committed.total_errors
            self.windows += committed.total_windows
            if (
                self.target_halfwidth is not None
                and self.windows > 0
                and self.halfwidth() <= self.target_halfwidth
            ):
                self.satisfied = True
        if self.done:
            self._pending.clear()

    def results(self) -> List[RunResult]:
        """Per-shot results of the committed shards, in shard order."""
        results: List[RunResult] = []
        for record in self.committed:
            results.extend(record.to_results())
        return results


# ----------------------------------------------------------------------
# Checkpointing (JSON lines, atomic append)
# ----------------------------------------------------------------------
class AtomicJsonLinesWriter:
    """Append-only JSON-lines file with kill-safe line writes.

    Each record is written as exactly one line in a single ``write``
    call followed by flush + fsync, so a kill between records leaves a
    parseable file and a kill mid-write leaves at most one truncated
    final line (which loaders tolerate and drop).  This is the storage
    primitive shared by the sweep checkpoint below and the serve
    layer's job journal (:mod:`repro.serve.jobs`).
    """

    def __init__(self, path: str, append: bool) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if append and os.path.exists(path):
            self._drop_torn_tail(path)
        self._handle = open(path, "a" if append else "w")

    @staticmethod
    def _drop_torn_tail(path: str) -> None:
        """Truncate a half-written final line before appending.

        A kill mid-write leaves the file without a trailing newline;
        that fragment was never a complete record (the loader already
        ignores it), so appending must first cut it off rather than
        concatenate onto it.
        """
        with open(path, "rb+") as handle:
            data = handle.read()
            if data and not data.endswith(b"\n"):
                handle.truncate(data.rfind(b"\n") + 1)

    def write_line(self, line: str) -> None:
        """Append one complete line atomically (write+flush+fsync)."""
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class CheckpointWriter(AtomicJsonLinesWriter):
    """Append-only JSON-lines sweep checkpoint (header + shard lines)."""

    def write_header(self, config: Dict) -> None:
        payload = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "config": config,
        }
        self.write_line(json.dumps(payload, sort_keys=True))

    def write_record(self, record: ShardResult) -> None:
        self.write_line(record.to_json())


def load_checkpoint(
    path: str,
) -> Tuple[Optional[Dict], List[ShardResult]]:
    """Read a checkpoint file back into (header config, records).

    A truncated final line (the signature of a kill mid-write) is
    dropped; a malformed line anywhere else raises, because it means
    the file is not one of ours.
    """
    header: Optional[Dict] = None
    records: List[ShardResult] = []
    with open(path) as handle:
        lines = handle.read().split("\n")
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) - 1:
                break  # torn final line from an interrupted write
            raise ValueError(
                f"{path}:{number + 1}: malformed checkpoint line"
            )
        kind = payload.get("kind")
        if kind == "header":
            if payload.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"{path}: checkpoint version "
                    f"{payload.get('version')!r} is not "
                    f"{CHECKPOINT_VERSION}"
                )
            header = payload.get("config")
        elif kind == "shard":
            records.append(ShardResult.from_json_dict(payload))
        else:
            raise ValueError(
                f"{path}:{number + 1}: unknown record kind {kind!r}"
            )
    return header, records


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the parallel sweep engine.

    ``shard_shots`` is part of the sweep: it sets every shard's shots
    and so its seed tree and record, and the checkpoint header pins
    it.  It does not set the width of a core call (consecutive shards
    of an arm share a core).  The other fields change no committed
    number: shard records are a pure function of the sweep parameters
    and ``shard_shots``, so workers, checkpointing and early-stop
    targets can vary between runs (early stopping changes *how many*
    shards are committed, deterministically, never their content).
    """

    workers: int = 1
    shard_shots: int = 100
    checkpoint: Optional[str] = None
    resume: bool = False
    target_ci: Optional[float] = None
    confidence: float = 0.95


@dataclass
class ParallelSweepReport:
    """A finished parallel sweep: per-arm aggregates, run metadata, and
    the figure data built on first read.  ``decoder`` labels every
    per-shot result (``None`` for loop-mode shards)."""

    arms: Dict[ArmKey, ArmAggregator]
    total_shards: int
    executed_shards: int
    resumed_shards: int
    per_values: Tuple[float, ...]
    error_kind: str
    decoder: Optional[str]

    @property
    def committed_shards(self) -> int:
        return sum(len(a.committed) for a in self.arms.values())

    def arm_report(
        self, point_index: int, use_pauli_frame: bool
    ) -> ArmReport:
        """One arm's committed shards folded into an :class:`ArmReport`:
        pooled counts, Wilson interval and shard progress."""
        aggregator = self.arms[(point_index, use_pauli_frame)]
        low, high = aggregator.wilson()
        corrections = sum(
            sum(record.shot_corrections)
            for record in aggregator.committed
        )
        return ArmReport(
            use_pauli_frame=use_pauli_frame,
            logical_errors=aggregator.errors,
            windows=aggregator.windows,
            logical_error_rate=aggregator.pooled_ler,
            corrections_commanded=corrections,
            wilson_low=low,
            wilson_high=high,
            committed_shards=len(aggregator.committed),
            num_shards=aggregator.num_shards,
        )

    def ler_report(self, seed: int) -> LerReport:
        """The first point's two arms as a ``repro ler`` document."""
        return LerReport(
            physical_error_rate=self.per_values[0],
            error_kind=self.error_kind,
            mode="parallel",
            seed=seed,
            arms=[self.arm_report(0, frame) for frame in (False, True)],
            committed_shards=self.committed_shards,
            executed_shards=self.executed_shards,
            resumed_shards=self.resumed_shards,
            decoder=self.decoder,
        )

    @functools.cached_property
    def sweep(self) -> SweepResult:
        """The committed shards' per-shot results and t-tests per point,
        built on first read: ``repro ler`` and serve ``ler`` jobs read
        only :meth:`ler_report` and never pay for it."""
        sweep = SweepResult(error_kind=self.error_kind)
        for index, per in enumerate(self.per_values):
            without = self.arms[(index, False)].results()
            with_frame = self.arms[(index, True)].results()
            for result in without + with_frame:
                result.decoder = self.decoder
            sweep.points.append(
                build_sweep_point(
                    per, without, with_frame, decoder=self.decoder
                )
            )
        return sweep


def _checkpoint_config(
    per_values: Sequence[float],
    error_kind: str,
    shots: int,
    shard_shots: int,
    windows: Optional[int],
    seed: int,
    max_logical_errors: int,
    max_windows: int,
    engine: str = "framesim",
    decoder: str = "lut",
) -> Dict:
    """The result-affecting configuration pinned in the header.

    ``workers``, ``target_ci`` and the checkpoint path itself are
    deliberately absent: they do not change shard contents, so a
    resume may legally use different values for them.  The engine is
    pinned as its *RNG stream* rather than its name, so a checkpoint
    written under the retired ``packed`` engine (the exact stream, now
    run by ``framesim``) still resumes; ``packed-fast`` draws a
    different stream and may not.  The decoder is pinned only when it
    is not the historical default ``lut``, so pre-registry checkpoints
    keep resuming.  The caller has checked ``decoder`` against the
    registry (:func:`plan_shards`).
    """
    config = {
        "per_values": [float(p) for p in per_values],
        "error_kind": error_kind,
        "shots": int(shots),
        "shard_shots": int(shard_shots),
        "windows": None if windows is None else int(windows),
        "seed": int(seed),
        "max_logical_errors": int(max_logical_errors),
        "max_windows": int(max_windows),
        "rng_stream": ENGINES[engine],
    }
    if decoder != "lut":
        config["decoder"] = decoder
    return config


def _header_value(config: Dict, key: str) -> str:
    """One checkpoint header value as JSON, ``absent`` when missing."""
    if key not in config:
        return "absent"
    return json.dumps(config[key], sort_keys=True)


def _pool_context() -> mp.context.BaseContext:
    """Prefer fork (cheap start) and fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def submit_to_pool(
    pool: ProcessPoolExecutor, fn: Callable, *args
) -> Future:
    """``pool.submit(fn, *args)``, raising :class:`BrokenProcessPool`
    when the pool cannot start a worker.

    Submitting may start a worker process on the calling thread.  An
    ``OSError`` there (say, a forkserver pipe torn down with a killed
    worker) leaves the pool unusable, and a pool's owner already
    recovers from a broken pool (:class:`~repro.serve.workers.WorkerFleet`
    respawns it).
    """
    try:
        return pool.submit(fn, *args)
    except OSError as error:
        raise BrokenProcessPool(
            f"worker pool could not start a worker: {error}"
        ) from error


def _group_end(specs: Sequence[ShardSpec], start: int, budget: int) -> int:
    """End of the fused run that starts at ``specs[start]``: the
    following shards of its arm while they fuse and their shots stay
    within ``budget`` (the first shard always runs)."""
    first = specs[start]
    end, shots = start + 1, first.shots
    if not _fuses(first):
        return end
    while (
        end < len(specs)
        and specs[end].arm_key == first.arm_key
        and _fuses(specs[end])
        and shots + specs[end].shots <= budget
    ):
        shots += specs[end].shots
        end += 1
    return end


def _execute_shards(
    specs: Sequence[ShardSpec],
    aggregators: Dict[ArmKey, ArmAggregator],
    workers: int,
    on_record: Callable[[ShardResult], None],
    pool: Optional[ProcessPoolExecutor] = None,
) -> int:
    """Run the outstanding shards; returns how many executed.

    Consecutive outstanding shards of one arm run as one fused run of
    at most :data:`FUSED_SHOTS` shots (:func:`run_shards`), which hands
    back one record per shard; records are committed one shard at a
    time, as before.

    ``workers <= 1`` runs inline in spec order, which doubles as the
    reference path for the determinism guarantees.  Under early
    stopping a fused run holds at most as many shots as its arm has
    committed (its first run is one shard), and records past a
    satisfied frontier are neither written nor counted.  With a pool,
    every fused run is submitted up front as one task of at most
    ``ceil(arm shots / workers)`` shots, so every worker gets work
    (one shard per task under early stopping), and results stream back
    as they finish; runs of arms whose frontier is already satisfied
    are cancelled where possible and discarded otherwise.

    An external ``pool`` (a long-lived executor such as the serve
    layer's :class:`~repro.serve.workers.WorkerFleet`) is used as-is
    and **not** shut down — its processes outlive the sweep, which is
    what keeps their LUT and reference-trace caches warm across jobs.
    Without one, ``workers > 1`` creates a throwaway pool.
    """
    t = telemetry.ACTIVE

    def dispatch(group: Sequence[ShardSpec]) -> None:
        if t is None:
            return
        for spec in group:
            t.event(
                "parallel",
                "shard_dispatch",
                point_index=spec.point_index,
                use_pauli_frame=spec.use_pauli_frame,
                shard_index=spec.shard_index,
                shots=spec.shots,
            )

    if pool is None and workers <= 1:
        executed = start = 0
        while start < len(specs):
            aggregator = aggregators[specs[start].arm_key]
            if aggregator.done:
                start += 1
                continue
            budget = FUSED_SHOTS
            if aggregator.target_halfwidth is not None:
                budget = min(
                    budget,
                    sum(record.shots for record in aggregator.committed),
                )
            end = _group_end(specs, start, budget)
            dispatch(specs[start:end])
            for record in run_shards(specs[start:end]):
                if aggregator.done:
                    break
                on_record(record)
                executed += 1
            start = end
        return executed

    def _drain(pool: ProcessPoolExecutor) -> int:
        executed = 0
        arm_shots: Dict[ArmKey, int] = {}
        for spec in specs:
            arm_shots[spec.arm_key] = arm_shots.get(spec.arm_key, 0) + (
                spec.shots
            )
        future_groups = {}
        start = 0
        while start < len(specs):
            arm = specs[start].arm_key
            if aggregators[arm].done:
                start += 1
                continue
            budget = 0  # one shard per task under early stopping
            if aggregators[arm].target_halfwidth is None:
                budget = min(
                    FUSED_SHOTS, math.ceil(arm_shots[arm] / max(workers, 1))
                )
            end = _group_end(specs, start, budget)
            dispatch(specs[start:end])
            future = submit_to_pool(pool, run_shards, specs[start:end])
            future_groups[future] = arm
            start = end
        pending = set(future_groups)
        try:
            while pending:
                # The timeout is load-bearing: a pool shut down under
                # us (server stopping) cancels queued futures without
                # notifying waiters, so an untimed wait() never wakes.
                finished, pending = wait(
                    pending, return_when=FIRST_COMPLETED, timeout=0.5
                )
                for future in finished:
                    if future.cancelled():
                        raise PoolShutdownError(
                            "worker pool shut down mid-sweep"
                        )
                    for record in future.result():
                        on_record(record)
                        executed += 1
                if any(f.cancelled() for f in pending):
                    raise PoolShutdownError(
                        "worker pool shut down mid-sweep"
                    )
                for future in list(pending):
                    arm = future_groups[future]
                    if aggregators[arm].done and future.cancel():
                        pending.discard(future)
        finally:
            for future in pending:
                future.cancel()
        return executed

    if pool is not None:
        return _drain(pool)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as throwaway:
        return _drain(throwaway)


def run_parallel_sweep(
    per_values: Sequence[float],
    error_kind: str = "x",
    shots: int = 100,
    windows: Optional[int] = DEFAULT_BATCH_WINDOWS,
    seed: int = 0,
    config: ParallelConfig = ParallelConfig(),
    max_logical_errors: int = 50,
    max_windows: int = 2_000_000,
    engine: str = "framesim",
    pool: Optional[ProcessPoolExecutor] = None,
    decoder: str = "lut",
) -> ParallelSweepReport:
    """Run a full with/without-frame PER sweep, shot-sharded.

    Parameters
    ----------
    per_values:
        The PER grid, as in :func:`~repro.experiments.sweep.run_ler_sweep`.
    shots:
        Shots per (PER, arm) point, split into
        ``ceil(shots / config.shard_shots)`` shards.
    windows:
        Windows per shot (batch mode); ``None`` switches every shard
        to the per-shot tableau loop terminated at
        ``max_logical_errors``.
    seed:
        Root seed; per-point/arm/shard entropy derives from it exactly
        as documented in :func:`plan_shards`.
    config:
        Execution knobs (:class:`ParallelConfig`).
    engine:
        Batch-mode frame stream (``"framesim"`` or ``"packed-fast"``;
        see :class:`~repro.experiments.ler.BatchedLerExperiment`).
    pool:
        Optional long-lived executor to run shards on instead of a
        per-sweep pool; it is left running afterwards (warm caches).
        ``config.workers`` is ignored when a pool is supplied.
    decoder:
        Windowed registry decoder of batch-mode shards, by name
        (:mod:`repro.decoders.registry`).

    Returns a :class:`ParallelSweepReport` whose ``sweep`` is the same
    :class:`~repro.experiments.results.SweepResult` structure the
    sequential path produces, built from the committed shard records
    when first read.
    """
    specs = plan_shards(
        per_values,
        error_kind,
        shots,
        config.shard_shots,
        windows,
        seed,
        max_logical_errors=max_logical_errors,
        max_windows=max_windows,
        engine=engine,
        decoder=decoder,
    )
    num_shards = math.ceil(shots / config.shard_shots)
    target = config.target_ci
    aggregators: Dict[ArmKey, ArmAggregator] = {}
    for index in range(len(per_values)):
        for use_frame in (False, True):
            aggregators[(index, use_frame)] = ArmAggregator(
                num_shards,
                target_halfwidth=target,
                confidence=config.confidence,
            )
    spec_by_key = {spec.key: spec for spec in specs}
    header_config = _checkpoint_config(
        per_values,
        error_kind,
        shots,
        config.shard_shots,
        windows,
        seed,
        max_logical_errors,
        max_windows,
        engine=engine,
        decoder=decoder,
    )

    resumed = 0
    replayed_keys = set()
    resuming = (
        config.resume
        and config.checkpoint is not None
        and os.path.exists(config.checkpoint)
    )
    if resuming:
        stored_config, records = load_checkpoint(config.checkpoint)
        if stored_config != header_config:
            stored = stored_config or {}
            differences = "; ".join(
                f"{key}: stored {_header_value(stored, key)}, "
                f"planned {_header_value(header_config, key)}"
                for key in sorted(set(stored) | set(header_config))
                if stored.get(key) != header_config.get(key)
            )
            raise CheckpointMismatchError(
                f"checkpoint {config.checkpoint!r} was written for a "
                f"different sweep configuration ({differences}); "
                f"refusing to resume"
            )
        for record in records:
            spec = spec_by_key.get(record.key)
            if spec is None or spec.shots != record.shots:
                raise CheckpointMismatchError(
                    f"checkpoint {config.checkpoint!r} holds shard "
                    f"{record.key} of {record.shots} shots that the "
                    f"planned sweep does not; refusing to resume"
                )
            if record.key in replayed_keys:
                continue  # an interrupted resume may duplicate lines
            replayed_keys.add(record.key)
            aggregators[record.arm_key].add(record)
            resumed += 1

    writer: Optional[CheckpointWriter] = None
    if config.checkpoint is not None:
        writer = CheckpointWriter(config.checkpoint, append=resuming)
        if not resuming:
            writer.write_header(header_config)

    def on_record(record: ShardResult) -> None:
        t = telemetry.ACTIVE
        if writer is not None:
            writer.write_record(record)
            if t is not None:
                t.event(
                    "parallel",
                    "checkpoint_write",
                    path=writer.path,
                    shard_index=record.shard_index,
                )
        aggregators[record.arm_key].add(record)
        if t is not None:
            t.event(
                "parallel",
                "shard_commit",
                point_index=record.point_index,
                use_pauli_frame=record.use_pauli_frame,
                shard_index=record.shard_index,
                errors=record.total_errors,
                windows=record.total_windows,
            )

    outstanding = [
        spec for spec in specs if spec.key not in replayed_keys
    ]
    t = telemetry.ACTIVE
    try:
        if t is None:
            executed = _execute_shards(
                outstanding,
                aggregators,
                config.workers,
                on_record,
                pool=pool,
            )
        else:
            with t.span(
                "parallel",
                "run_parallel_sweep",
                points=len(per_values),
                outstanding=len(outstanding),
                workers=config.workers,
            ):
                executed = _execute_shards(
                    outstanding,
                    aggregators,
                    config.workers,
                    on_record,
                    pool=pool,
                )
    finally:
        if writer is not None:
            writer.close()

    return ParallelSweepReport(
        arms=aggregators,
        total_shards=len(specs),
        executed_shards=executed,
        resumed_shards=resumed,
        per_values=tuple(float(per) for per in per_values),
        error_kind=error_kind,
        decoder=decoder if windows is not None else None,
    )
