"""A batched simulation core: N shots behind one Core interface.

:class:`BatchedStabilizerCore` is the streaming counterpart of
:func:`repro.sim.framesim.sample_circuit`: instead of compiling a
fixed circuit up front, it executes circuits as they arrive (the
normal QPDO ``add``/``execute`` protocol of Table 4.1) while carrying
*all shots at once* — one shared noiseless reference tableau plus a
:class:`~repro.sim.framesim.FrameArray` of per-shot Pauli error
frames.

This is what makes adaptive experiments batchable: in the LER protocol
the only per-shot feedback is the decoder's corrections, and
corrections are Pauli gates — i.e. pure frame updates
(:meth:`BatchedStabilizerCore.apply_pauli_frame`).  The non-Pauli
instruction stream (ESM rounds, probes) is identical across shots and
runs once on the reference, so a 10 000-shot window costs one tableau
pass plus a handful of vectorized column XORs.

Noise is built in rather than layered: a
:class:`~repro.sim.framesim.NoiseParameters` model makes the core
inject depolarizing faults directly into the frame arrays with the
exact per-slot semantics of
:class:`~repro.qpdo.error_layer.DepolarizingErrorLayer` (bypass
circuits stay noiseless).  Stacking the per-shot error layer above a
batched core would be meaningless — it could only fault all shots
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..circuits.operation import Operation
from ..sim.framesim import FrameArray, NoiseParameters
from .. import telemetry
from .core import CAP_BATCH, ExecutionResult
from .lockstep import LockstepCore, SeedLike


@dataclass
class BatchedExecutionResult(ExecutionResult):
    """An :class:`~repro.qpdo.core.ExecutionResult` carrying N shots.

    ``measurements`` keeps the scalar Core contract by exposing shot 0,
    so existing layers and test benches keep working unchanged on top
    of a batched core; the full per-shot record lives in
    ``bit_arrays``.

    Attributes
    ----------
    bit_arrays:
        Operation ``uid`` -> bool array of shape ``(num_shots,)``.
    """

    bit_arrays: Dict[int, np.ndarray] = field(default_factory=dict)

    def bits_of(self, operation: Operation) -> np.ndarray:
        """Per-shot outcomes of ``operation`` (must be a measurement)."""
        return self.bit_arrays[operation.uid]

    def merge(self, other: "ExecutionResult") -> None:
        super().merge(other)
        if isinstance(other, BatchedExecutionResult):
            self.bit_arrays.update(other.bit_arrays)


class BatchedStabilizerCore(LockstepCore[BatchedExecutionResult]):
    """Clifford core executing ``num_shots`` noisy shots in lockstep.

    Parameters
    ----------
    num_shots:
        Number of simultaneous shots.
    noise:
        Optional built-in depolarizing model applied to every
        non-bypass circuit (see module docstring).
    seed:
        Seed for both the reference tableau and the per-shot fault /
        gauge randomness (two independent child streams).
    reference_key:
        Optional :func:`~repro.sim.refcache.reference_trace_key`
        digest.  With a key, the symbolic reference trace is recorded
        on first execution and *replayed* from the process-level cache
        by every later run with the same key, whatever its seed --
        bit-identical results without a tableau.  The experiment
        owning the core must call :meth:`commit_reference_trace` once
        its circuit stream is complete.

    Circuits run through compiled slot plans (:mod:`repro.qpdo.
    lockstep`), with the lockstep restrictions documented there.
    """

    def __init__(
        self,
        num_shots: int,
        noise: Optional[NoiseParameters] = None,
        seed: SeedLike = None,
        reference_key: Optional[str] = None,
    ) -> None:
        if num_shots < 1:
            raise ValueError("num_shots must be positive")
        super().__init__(
            FrameArray(num_shots, 0), noise, seed, reference_key,
            blocked=True,
        )

    def execute(self) -> BatchedExecutionResult:
        t = telemetry.ACTIVE
        if t is None:
            return self._execute()
        with t.span(
            "qpdo",
            "BatchedStabilizerCore.execute",
            circuits=len(self._queue),
            shots=self.num_shots,
        ):
            return self._execute()

    def supports(self, capability: str) -> bool:
        return capability == CAP_BATCH or super().supports(capability)

    def _new_result(self) -> BatchedExecutionResult:
        return BatchedExecutionResult()

    def _store_measurements(
        self,
        result: BatchedExecutionResult,
        flips: np.ndarray,
        reference: np.ndarray,
        uids: List[int],
    ) -> None:
        bits = flips ^ reference
        for column, uid in enumerate(uids):
            result.bit_arrays[uid] = bits[:, column]
            result.measurements[uid] = int(bits[0, column])
