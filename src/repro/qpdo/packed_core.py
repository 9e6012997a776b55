"""The lockstep batched core: N shots on bit-packed Pauli frames.

:class:`PackedStabilizerCore` is the repository's one shot sampler:
it executes circuits as they arrive (the normal QPDO
``add``/``execute`` protocol of Table 4.1) while carrying *all shots
at once* -- one shared noiseless reference on a
:class:`~repro.sim.refcache.ReferenceTableau` plus per-shot Pauli
error frames.  A frame is the paper's two record bits per qubit
(Tables 3.4/3.5); the core keeps them the way Stim does, as the
``uint64`` planes of a :class:`~repro.sim.packedsim.PackedFrameArray`,
shape ``(num_qubits, ceil(num_shots / 64))``, 64 shots per word.

This is what makes adaptive experiments batchable: in the LER protocol
the only per-shot feedback is the decoder's corrections, and
corrections are Pauli gates -- pure frame updates
(:meth:`PackedStabilizerCore.apply_pauli_frame`).  The non-Pauli
instruction stream (ESM rounds, probes) is identical across shots and
runs once on the reference.

Noise is built in rather than layered: a
:class:`~repro.sim.framesim.NoiseParameters` model makes the core
inject depolarizing faults directly into the frames with the exact
per-slot semantics of
:class:`~repro.qpdo.error_layer.DepolarizingErrorLayer` (bypass
circuits stay noiseless).  Stacking the per-shot error layer above a
batched core would be meaningless -- it could only fault all shots
identically.

``rng_mode`` selects the frame stream (see :mod:`repro.sim.packedsim`):

* ``"exact"`` (``--engine framesim``) runs each circuit through its
  compiled GF(2) frame map (:mod:`repro.qpdo.lockstep`), drawing one
  uniform per shot and channel: the stream of the
  operation-by-operation loop over the bool
  :class:`~repro.sim.framesim.FrameArray` kernels, so its results are
  bit-identical to that loop;
* ``"fast"`` (``--engine packed-fast``) runs the plan's slot kernels
  with word-level noise draws (binomial hit counts, random gauge
  words): the same channel, a different stream, and the speed that
  clears the E22 benchmark bar.

**Shards side by side.**  A core may carry a list of :class:`Shard`
blocks on its shot axis, each with its own seed.  Every shard keeps
its own frame Generator and its own reference draws, both spawned from
its seed exactly as a one-shard core spawns them, so a fused run gives
every shard the bits it gets alone, while one core call (one plan
lookup, one reference pass, one frame map) serves them all.  The
shards share one reference recording or replay; each XORs its own
reference bits into its own shots.  Only the exact stream fuses.

Measurement results come back packed (``words_of``); ``bits_of``
unpacks on demand, and ``measurements`` keeps the scalar Core
contract by exposing shot 0.  :func:`sample` is the one-call entry
point: one circuit on a fresh core, its shots returned as bools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..sim.framesim import NoiseParameters, SeedLike, _seed_sequence
from ..sim.packedsim import (
    PackedFrameArray,
    ShotStreams,
    pack_bits,
    unpack_bits,
)
from ..sim.refcache import ReferenceTableau
from ..sim.state import State
from .. import telemetry
from .core import CAP_BATCH, Core, ExecutionResult
from .lockstep import (
    GATE,
    NOISE,
    PREPARED,
    RESET,
    UNKNOWN,
    CircuitPlan,
    FrameMap,
    cached_plan,
    circuit_plan,
)

_ONE = np.uint64(1)


class Shard(NamedTuple):
    """One block of a core's shots and the seed of all its randomness."""

    shots: int
    seed: SeedLike


def shard_list(
    num_shots: Optional[int],
    seed: SeedLike,
    shards: Optional[Sequence[Shard]],
) -> List[Shard]:
    """``shards``, or the one shard of ``num_shots`` seeded by ``seed``."""
    if shards is None:
        if num_shots is None:
            raise ValueError("give num_shots or shards")
        shards = [Shard(num_shots, seed)]
    elif num_shots is not None or seed is not None:
        raise ValueError("shards carry their own shots and seeds")
    shards = [Shard(int(shots), seed) for shots, seed in shards]
    if not shards or min(shard.shots for shard in shards) < 1:
        raise ValueError("num_shots must be positive")
    return shards


@dataclass
class PackedExecutionResult(ExecutionResult):
    """An :class:`~repro.qpdo.core.ExecutionResult` carrying N packed
    shots.

    Attributes
    ----------
    bit_words:
        Operation ``uid`` -> ``uint64`` words of shape
        ``(num_words,)``: bit ``s & 63`` of word ``s >> 6`` is shot
        ``s``'s outcome (tail bits zero).
    num_shots:
        Valid shot count of every row in ``bit_words``.
    """

    bit_words: Dict[int, np.ndarray] = field(default_factory=dict)
    num_shots: int = 0

    def words_of(self, operation: Operation) -> np.ndarray:
        """Packed per-shot outcomes of ``operation`` (a measurement)."""
        return self.bit_words[operation.uid]

    def bits_of(self, operation: Operation) -> np.ndarray:
        """Per-shot outcomes as bools of shape ``(num_shots,)``."""
        return unpack_bits(self.bit_words[operation.uid], self.num_shots)

    def merge(self, other: "ExecutionResult") -> None:
        super().merge(other)
        if isinstance(other, PackedExecutionResult):
            self.bit_words.update(other.bit_words)
            self.num_shots = other.num_shots or self.num_shots


class PackedStabilizerCore(Core):
    """Clifford core executing ``num_shots`` noisy shots in lockstep.

    Parameters
    ----------
    num_shots:
        Number of simultaneous shots.
    noise:
        Optional built-in depolarizing model applied to every
        non-bypass circuit (see the module docstring).
    seed:
        Seed for both the reference tableau and the per-shot fault /
        gauge randomness (two independent child streams).
    shards:
        Instead of ``num_shots`` and ``seed``: :class:`Shard` blocks
        laid side by side on the shot axis, each seeded like a core of
        its own (exact ``rng_mode`` only when there are several).
    rng_mode:
        ``"exact"`` (the compiled frame maps, bit-identical to the
        operation loop) or ``"fast"`` (word-level noise;
        distribution-identical).
    reference_key:
        Optional :func:`~repro.sim.refcache.reference_trace_key`
        digest.  With a key, the symbolic reference trace is recorded
        on first execution and *replayed* from the process-level cache
        by every later run with the same key, whatever its seed --
        bit-identical results without a tableau.  ``rng_mode`` only
        changes the frame stream, so both regimes share one trace.
        The experiment owning the core must call
        :meth:`commit_reference_trace` once its circuit stream is
        complete.

    The executed circuit stream must be shot-independent apart from
    Pauli feedback: a measurement's *reference* outcome is decided once
    on the shared tableau, and per-shot outcomes differ from it only
    through the error frames.  Branching on a single shot's outcome and
    commanding different non-Pauli circuits per shot is not
    expressible here -- use the per-shot
    :class:`~repro.qpdo.cores.StabilizerCore` loop for that.
    """

    def __init__(
        self,
        num_shots: Optional[int] = None,
        noise: Optional[NoiseParameters] = None,
        seed: SeedLike = None,
        rng_mode: str = "exact",
        reference_key: Optional[str] = None,
        shards: Optional[Sequence[Shard]] = None,
    ) -> None:
        self.shards = tuple(shard_list(num_shots, seed, shards))
        if len(self.shards) > 1 and rng_mode != "exact":
            raise ValueError("only the exact frame stream fuses shards")
        sizes = [shard.shots for shard in self.shards]
        self.frames = PackedFrameArray(sum(sizes), 0, rng_mode=rng_mode)
        starts = np.cumsum([0] + sizes[:-1])
        shots = np.arange(sum(sizes))
        # Row j: the words of shard j's shots.
        self._shard_words = pack_bits(
            (shots >= starts[:, None]) & (shots < (starts + sizes)[:, None])
        )
        self.rng_mode = rng_mode
        self.noise = noise
        reference_rngs, frame_rngs = zip(
            *(
                [
                    np.random.default_rng(child)
                    for child in _seed_sequence(shard.seed).spawn(2)
                ]
                for shard in self.shards
            )
        )
        self.simulator = ReferenceTableau(
            list(reference_rngs), key=reference_key
        )
        self._streams = ShotStreams(frame_rngs, sizes)
        # One shard draws straight from its Generator (packed-fast's
        # word-level kernels take nothing else).
        self._frame_rng = (
            frame_rngs[0] if len(frame_rngs) == 1 else self._streams
        )
        self._queue: List[Circuit] = []
        self._plans: List[Optional[CircuitPlan]] = []
        self._state = State(0)
        self._num_qubits = 0

    # -- register -------------------------------------------------------
    @property
    def num_shots(self) -> int:
        return self.frames.num_shots

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def supports(self, capability: str) -> bool:
        return capability == CAP_BATCH

    def createqubit(self, size: int = 1) -> int:
        first = self._num_qubits
        self._num_qubits += int(size)
        self.simulator.add_qubits(int(size))
        self.frames.add_qubits(int(size), self._frame_rng)
        self._state.resize(self._num_qubits)
        for qubit in range(first, self._num_qubits):
            self._state.set_bit(qubit, 0)
        return first

    def removequbit(self, size: int = 1) -> None:
        if size > self._num_qubits:
            raise ValueError("cannot remove more qubits than allocated")
        self._num_qubits -= int(size)
        self._state.resize(self._num_qubits)
        # Like the scalar cores, the tableau keeps its registers; the
        # frame rows are dropped so re-created qubits start fresh.
        self.frames.remove_qubits(
            self.frames.num_qubits - self._num_qubits
        )

    # -- execution ------------------------------------------------------
    def add(self, circuit: Circuit) -> None:
        # A cached plan knows its highest qubit; only a structure not
        # compiled yet is walked here (and compiled at execute).
        plan = cached_plan(circuit, self.noise, self._num_qubits)
        top = circuit.max_qubit() if plan is None else plan.max_qubit
        if top >= self._num_qubits:
            raise ValueError(
                f"circuit addresses qubit {top} but only "
                f"{self._num_qubits} are allocated"
            )
        self._queue.append(circuit)
        self._plans.append(plan)

    def execute(self) -> PackedExecutionResult:
        t = telemetry.ACTIVE
        if t is None:
            return self._execute()
        with t.span(
            "qpdo",
            "PackedStabilizerCore.execute",
            circuits=len(self._queue),
            shots=self.num_shots,
            rng_mode=self.rng_mode,
        ):
            return self._execute()

    def _execute(self) -> PackedExecutionResult:
        result = PackedExecutionResult(num_shots=self.num_shots)
        for circuit, plan in zip(self._queue, self._plans):
            if plan is None or plan.frame_map.num_qubits != self._num_qubits:
                plan = circuit_plan(circuit, self.noise, self._num_qubits)
            reference = self.simulator.run(plan.reference_ops, plan.measured)
            uids = [
                circuit.slots[slot].operations[index].uid
                for slot, index in plan.positions
            ]
            if self.rng_mode == "exact":
                self._run_map(plan.frame_map, reference, uids, result)
            else:
                self._run_plan(plan, reference, uids, result)
            for qubit, effect in plan.final_bits:
                if effect == UNKNOWN:
                    self._state.invalidate(qubit)
                elif effect == PREPARED:
                    self._state.set_bit(qubit, 0)
                else:
                    self._state.set_bit(
                        qubit, result.measurements[uids[effect]]
                    )
        self._queue.clear()
        self._plans.clear()
        return result

    def _probability(self) -> float:
        return self.noise.probability if self.noise is not None else 0.0

    def _run_map(
        self,
        frame_map: FrameMap,
        reference: np.ndarray,
        uids: List[int],
        result: PackedExecutionResult,
    ) -> None:
        frames = self.frames
        args = (
            self._frame_rng,
            frames.x,
            frames.z,
            self.num_shots,
            self._probability(),
        )
        t = telemetry.ACTIVE
        if t is None:
            flips, frames.x, frames.z, _ = frame_map.run(*args)
        else:
            with t.span(
                "sim.framesim",
                "FrameMap.run",
                shots=self.num_shots,
                rows=frame_map.rows,
            ):
                flips, frames.x, frames.z, hits = frame_map.run(*args)
            # A span's attributes are written when it opens, before the
            # draws, so the hits are tallied on the span's key instead.
            t.count("sim.framesim", "FrameMap.run", "hits", hits)
        if len(flips):
            self._store_measurements(result, flips, reference, uids)

    def _run_plan(
        self,
        plan: CircuitPlan,
        reference: np.ndarray,
        uids: List[int],
        result: PackedExecutionResult,
    ) -> None:
        frames, rng = self.frames, self._frame_rng
        probability = self._probability()
        for slot in plan.slots:
            for kernel in slot.kernels:
                method = getattr(frames, kernel.method)
                if kernel.kind == GATE:
                    method(*kernel.qubits)
                elif kernel.kind == NOISE:
                    method(*kernel.qubits, probability, rng)
                elif kernel.kind == RESET:
                    method(*kernel.qubits, rng)
                else:
                    self._store_measurements(
                        result,
                        method(*kernel.qubits, rng),
                        reference[kernel.columns],
                        [uids[column] for column in kernel.columns],
                    )

    def _store_measurements(
        self,
        result: PackedExecutionResult,
        flips: np.ndarray,
        reference: np.ndarray,
        uids: List[int],
    ) -> None:
        """Record ``k`` measurements' per-shot outcomes: their packed
        ``(k, words)`` ``flips`` XOR their ``(k, shards)`` ``reference``
        bits, each shard's bit over its own shots."""
        # NOT over each shard's shots where its reference bit is 1: the
        # shards' word masks are disjoint, so the product adds no two
        # bits, and tails stay zero.
        flips ^= reference.astype(np.uint64) @ self._shard_words
        result.bit_words.update(zip(uids, flips))
        result.measurements.update(zip(uids, (flips[:, 0] & _ONE).tolist()))

    def getstate(self) -> State:
        """Binary state as seen by shot 0 (the scalar-Core view)."""
        return self._state.copy()

    def commit_reference_trace(self) -> None:
        """Store the recorded reference trace in the process cache.

        Call exactly once, after the experiment's full circuit stream
        has executed; no-op without a ``reference_key`` or on a run
        that replayed a cached trace.
        """
        self.simulator.commit()

    # -- per-shot Pauli feedback ----------------------------------------
    def apply_pauli_frame(
        self, x_mask: np.ndarray, z_mask: np.ndarray
    ) -> None:
        """XOR per-shot Pauli masks (decoder corrections) into the
        frames.

        The masks are bools of shape ``(num_shots, num_qubits)``.  This
        is the batched analogue of commanding per-shot correction
        circuits: a Pauli gate is exactly a frame update, so the shared
        reference is untouched.
        """
        self.frames.apply_pauli_masks(x_mask, z_mask)

    def inject_depolarizing(
        self,
        qubits,
        shot_mask: Optional[np.ndarray] = None,
        probability: Optional[float] = None,
        shards: Optional[np.ndarray] = None,
    ) -> None:
        """Charge one depolarizing slot to ``qubits``, optionally only
        on the shots selected by ``shot_mask``.

        Experiments use this for shot-dependent circuits the lockstep
        stream cannot express -- e.g. the frame-less arm's physical
        correction slot, which only exists on shots whose decoder
        commanded corrections.  ``shards`` (one bool per shard, at
        least one true) picks the shards whose streams draw the slot;
        the others draw nothing, as their lone runs would without the
        slot.  The probability defaults to the core's noise model;
        without a noise model this is a no-op.
        """
        if probability is None:
            probability = self._probability()
        if probability <= 0.0:
            return
        rng = self._frame_rng
        if shards is not None and len(self.shards) > 1:
            rng = self._streams.select(shards)
        self.frames.depolarize1(
            np.array(list(qubits), dtype=np.int64),
            probability,
            rng,
            shot_mask=shot_mask,
        )


def sample(
    circuit: Circuit,
    num_shots: int,
    *,
    seed: SeedLike = None,
    noise: Optional[NoiseParameters] = None,
    num_qubits: Optional[int] = None,
    rng_mode: str = "exact",
) -> np.ndarray:
    """Sample ``num_shots`` shots of ``circuit`` on a fresh core.

    Allocates ``num_qubits`` qubits (default ``circuit.max_qubit() +
    1``) on a :class:`PackedStabilizerCore` built with ``noise``,
    ``seed`` and ``rng_mode``, runs the circuit once and returns bools
    of shape ``(num_shots, num_measurements)``, columns in the
    circuit's measurement order (:meth:`Circuit.measurements`).  With
    a seed, the result is a pure function of the arguments.
    """
    if num_qubits is None:
        num_qubits = circuit.max_qubit() + 1
    core = PackedStabilizerCore(
        num_shots, noise=noise, seed=seed, rng_mode=rng_mode
    )
    core.createqubit(num_qubits)
    result = core.run(circuit)
    measurements = circuit.measurements()
    words = np.array(
        [result.words_of(m) for m in measurements], dtype=np.uint64
    ).reshape(len(measurements), core.frames.num_words)
    return unpack_bits(words, num_shots).T
