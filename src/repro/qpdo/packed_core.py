"""A bit-packed batched simulation core: 64 shots per machine word.

:class:`PackedStabilizerCore` is the packed counterpart of
:class:`~repro.qpdo.batched_core.BatchedStabilizerCore`: the same
streaming ``add``/``execute`` protocol and the same one-reference-
tableau-plus-error-frames split, but the per-shot frames live in a
:class:`~repro.sim.packedsim.PackedFrameArray` — ``uint64`` planes of
shape ``(num_qubits, ceil(num_shots / 64))`` — so gates, noise,
measurement flips and correction feedback are word-wide bitwise
kernels instead of per-shot bool columns.

``rng_mode`` selects the random-stream regime (see
:mod:`repro.sim.packedsim`):

* ``"exact"`` consumes the frame RNG draw-for-draw like the unpacked
  core, making :class:`PackedExecutionResult` measurement bits — and
  therefore whole-experiment :class:`~repro.experiments.results.
  BatchCounts` — bit-identical to ``BatchedStabilizerCore`` for the
  same seed;
* ``"fast"`` draws noise at the word level (binomial hit counts,
  random gauge words): the same channel, a different stream, and the
  speed that clears the E22 benchmark bar.

Measurement results come back packed (``words_of``); ``bits_of``
unpacks on demand, and ``measurements`` keeps the scalar Core
contract by exposing shot 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..circuits.operation import Operation
from ..sim.framesim import NoiseParameters
from ..sim.packedsim import PackedFrameArray, unpack_bits
from .. import telemetry
from .core import CAP_BATCH, CAP_PACKED, ExecutionResult
from .lockstep import LockstepCore, SeedLike


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


class PackedStabilizerCore(LockstepCore[PackedExecutionResult]):
    """Clifford core executing ``num_shots`` noisy shots on packed
    frames.

    Parameters
    ----------
    num_shots:
        Number of simultaneous shots.
    noise:
        Optional built-in depolarizing model applied to every
        non-bypass circuit (same per-slot semantics as the unpacked
        batched core).
    seed:
        Seed for the reference tableau and the frame randomness (two
        independent child streams, the unpacked core's layout).
    rng_mode:
        ``"exact"`` (bit-identical to
        :class:`~repro.qpdo.batched_core.BatchedStabilizerCore`) or
        ``"fast"`` (word-level noise; distribution-identical).
    reference_key:
        Optional reference-trace cache key (see the unpacked core and
        :mod:`repro.sim.refcache`).  The reference stream is identical
        across all engines -- ``rng_mode`` only changes the *frame*
        stream -- so packed and unpacked runs of one protocol share
        one cached trace.

    The lockstep restrictions of :mod:`repro.qpdo.lockstep` apply
    unchanged: the circuit stream must be shot-independent apart from
    Pauli feedback (:meth:`apply_pauli_frame`, which also accepts
    pre-packed ``uint64`` planes of shape ``(num_qubits, num_words)``).
    """

    def __init__(
        self,
        num_shots: int,
        noise: Optional[NoiseParameters] = None,
        seed: SeedLike = None,
        rng_mode: str = "exact",
        reference_key: Optional[str] = None,
    ) -> None:
        if num_shots < 1:
            raise ValueError("num_shots must be positive")
        frames = PackedFrameArray(num_shots, 0, rng_mode=rng_mode)
        super().__init__(
            frames, noise, seed, reference_key,
            blocked=rng_mode == "exact",
        )
        self.rng_mode = rng_mode

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

    def supports(self, capability: str) -> bool:
        return capability in (CAP_BATCH, CAP_PACKED) or super().supports(
            capability
        )

    def _new_result(self) -> PackedExecutionResult:
        return PackedExecutionResult(num_shots=self.num_shots)

    def _store_measurements(
        self,
        result: PackedExecutionResult,
        flips: np.ndarray,
        reference: np.ndarray,
        uids: List[int],
    ) -> None:
        # NOT over the valid shots of reference-1 rows; tails stay zero.
        flips[reference] ^= self.frames.full_words
        for row, uid in enumerate(uids):
            result.bit_words[uid] = flips[row]
            result.measurements[uid] = int(flips[row, 0] & np.uint64(1))
