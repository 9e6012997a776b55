"""Compiled slot plans and the lockstep core both batched engines share.

A batched core carries ``N`` shots at once: one shared noiseless
reference on a :class:`~repro.sim.refcache.ReferenceTableau` plus a
frame array of per-shot Pauli error frames (bool columns in
:class:`~repro.qpdo.batched_core.BatchedStabilizerCore`, ``uint64``
words in :class:`~repro.qpdo.packed_core.PackedStabilizerCore`).

Executing a circuit is the same work for every instance of one
*structure* -- the same operations on the same qubits, the same bypass
flag and noise support -- so each structure is compiled once per
process into a :class:`CircuitPlan`:

* the circuit's reference stream (every operation but identities);
* per time slot, the frame kernels to run, in order: the pre-slot
  measurement flips, the slot's resets and measurements, one kernel
  per same-kind gate group (H, S, CNOT, CZ, SWAP), the post-slot gate,
  preparation and idle noise.  Operations of one slot touch disjoint
  qubits, so a group runs as one vectorized kernel call;
* each random kernel's rows of the slot's uniform block.

The random kernels consume the frame Generator in exactly the order
the operation-by-operation loop did: pre-slot noise, then resets and
measurements in slot order, then post-slot noise in event order, one
row of ``num_shots`` uniforms per channel.  The exact regimes
(framesim and packed-exact) draw a slot's rows as one
``rng.random((rows, shots))`` block, which ``Generator.random`` fills
exactly like the per-channel draws, so results stay bit-identical;
packed-fast keeps its per-channel word-level draws, in the same order.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, List, NamedTuple, Optional, Tuple, TypeVar

import numpy as np

from ..circuits.circuit import Circuit
from ..sim.framesim import (
    OP_DEPOL1,
    OP_DEPOL2,
    OP_XERR,
    NoiseParameters,
    _PAULI_NAMES,
    _SINGLE_CLIFFORD_OPS,
    _TWO_QUBIT_OPS,
    _seed_sequence,
    _slot_noise_events,
)
from ..sim.refcache import ReferenceOp, ReferenceTableau
from ..sim.state import State
from .core import Core, ExecutionResult

SeedLike = object  # see repro.sim.framesim.SeedLike

#: The result type a lockstep core returns from ``execute``.
R = TypeVar("R", bound=ExecutionResult)

#: FIFO capacity of the process-level plan cache.
PLAN_CACHE_CAPACITY = 256

#: Frame-kernel method of each gate name (S and S^dagger act alike).
_GATE_KERNELS = {
    **{name: "h" if name == "h" else "s" for name in _SINGLE_CLIFFORD_OPS},
    **{
        name: "cnot" if name == "cx" else name for name in _TWO_QUBIT_OPS
    },
}
_NOISE_KERNELS = {
    OP_XERR: "xerr",
    OP_DEPOL1: "depolarize1",
    OP_DEPOL2: "depolarize2",
}

#: Kernel kinds, i.e. what a kernel call is passed besides its qubits.
GATE, RESET, MEASURE, NOISE = "gate", "reset", "measure", "noise"

#: ``final_bits`` effects other than a measurement column.
PREPARED, UNKNOWN = -1, -2

_NO_COLUMNS = np.zeros(0, dtype=np.int64)


class Kernel(NamedTuple):
    """One frame-kernel call of a slot.

    ``method`` names the frame-array method; ``qubits`` holds one qubit
    array, or two for the two-qubit kernels; ``rows`` is the kernel's
    slice of the slot's uniform block (``None`` for gates); ``columns``
    are a measurement kernel's result columns.
    """

    kind: str
    method: str
    qubits: Tuple[np.ndarray, ...]
    rows: Optional[slice] = None
    columns: np.ndarray = _NO_COLUMNS


@dataclass(frozen=True)
class SlotPlan:
    """One time slot: how many uniform rows it draws, and its kernels
    in application order."""

    rows: int
    kernels: Tuple[Kernel, ...]


@dataclass(frozen=True)
class CircuitPlan:
    """A circuit structure compiled for the lockstep cores.

    Attributes
    ----------
    slots:
        The slot plans, in circuit order.
    reference_ops:
        The reference stream (:meth:`ReferenceTableau.run`'s input).
    measured:
        Qubit of each measurement, in circuit order.
    positions:
        ``(slot, index)`` of each measurement within the circuit, to
        find an instance's operation uids.
    final_bits:
        ``(qubit, effect)`` for every qubit the circuit touches: the
        measurement column whose shot-0 bit it ends with, or
        :data:`PREPARED` / :data:`UNKNOWN`.
    """

    slots: Tuple[SlotPlan, ...]
    reference_ops: Tuple[ReferenceOp, ...]
    measured: np.ndarray
    positions: Tuple[Tuple[int, int], ...]
    final_bits: Tuple[Tuple[int, int], ...]


#: structure key -> compiled plan.  Insertion-ordered for FIFO eviction.
_PLAN_CACHE: "OrderedDict[tuple, CircuitPlan]" = OrderedDict()


def circuit_plan(
    circuit: Circuit, noise: Optional[NoiseParameters], num_qubits: int
) -> CircuitPlan:
    """The cached plan of ``circuit``'s structure, compiled on a miss."""
    if noise is None or noise.probability <= 0.0 or circuit.bypass:
        noise = None
    key = (
        noise is not None,
        noise.active_qubits if noise is not None else None,
        num_qubits,
        tuple(
            [
                tuple(
                    [
                        (op.info.name, op.qubits, op.is_error)
                        for op in slot.operations
                    ]
                )
                for slot in circuit.slots
            ]
        ),
    )
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        active = noise.active_set(num_qubits) if noise is not None else set()
        plan = _compile(circuit, noise is not None, active, num_qubits)
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > PLAN_CACHE_CAPACITY:
            _PLAN_CACHE.popitem(last=False)
    return plan


def clear_plan_cache() -> int:
    """Drop every cached plan; returns how many entries were held."""
    held = len(_PLAN_CACHE)
    _PLAN_CACHE.clear()
    return held


def _runs(items: List[Tuple]) -> List[List[Tuple]]:
    """Maximal runs of consecutive items with the same first field."""
    runs: List[List[Tuple]] = []
    for item in items:
        if runs and runs[-1][0][0] == item[0]:
            runs[-1].append(item)
        else:
            runs.append([item])
    return runs


def _compile(
    circuit: Circuit, noisy: bool, active: set, num_qubits: int
) -> CircuitPlan:
    slots: List[SlotPlan] = []
    reference_ops: List[ReferenceOp] = []
    measured: List[int] = []
    positions: List[Tuple[int, int]] = []
    final: Dict[int, int] = {}
    for slot_index, slot in enumerate(circuit.slots):
        kernels: List[Kernel] = []
        rows = 0

        def random_kernels(kind: str, method: str, run: List[Tuple]) -> None:
            nonlocal rows
            qubits = tuple(
                np.array(column, dtype=np.int64)
                for column in zip(*(item[1:] for item in run))
            )
            columns = _NO_COLUMNS
            if kind == MEASURE:
                columns = qubits[1]
                qubits = qubits[:1]
            kernels.append(
                Kernel(kind, method, qubits, slice(rows, rows + len(run)),
                       columns)
            )
            rows += len(run)

        pre, post = (
            _slot_noise_events(slot, active, num_qubits)
            if noisy
            else ([], [])
        )
        for run in _runs(pre):
            random_kernels(NOISE, _NOISE_KERNELS[run[0][0]], run)
        gauges: List[Tuple] = []
        gates: Dict[str, List[Tuple[int, ...]]] = {}
        for index, operation in enumerate(slot):
            name, qubits = operation.name, operation.qubits
            if operation.is_preparation:
                gauges.append((RESET, qubits[0]))
                reference_ops.append(("prep_z", qubits))
                final[qubits[0]] = PREPARED
                continue
            if operation.is_measurement:
                gauges.append((MEASURE, qubits[0], len(measured)))
                reference_ops.append(("measure", qubits))
                final[qubits[0]] = len(measured)
                measured.append(qubits[0])
                positions.append((slot_index, index))
                continue
            if name in _GATE_KERNELS:
                gates.setdefault(_GATE_KERNELS[name], []).append(qubits)
            elif name not in _PAULI_NAMES:
                raise ValueError(
                    f"lockstep batched cores cannot execute non-Clifford "
                    f"gate {name!r}"
                )
            # Paulis move the shared reference only: conjugating a
            # frame by a Pauli is the identity mod phase.
            if name != "i":
                reference_ops.append((name, qubits))
                for qubit in qubits:
                    final[qubit] = UNKNOWN
        for run in _runs(gauges):
            kind = run[0][0]
            random_kernels(
                kind, "reset" if kind == RESET else "measure_flips", run
            )
        for method, targets in gates.items():
            kernels.append(
                Kernel(
                    GATE,
                    method,
                    tuple(
                        np.array(column, dtype=np.int64)
                        for column in zip(*targets)
                    ),
                )
            )
        for run in _runs(post):
            random_kernels(NOISE, _NOISE_KERNELS[run[0][0]], run)
        slots.append(SlotPlan(rows, tuple(kernels)))
    return CircuitPlan(
        slots=tuple(slots),
        reference_ops=tuple(reference_ops),
        measured=np.array(measured, dtype=np.int64),
        positions=tuple(positions),
        final_bits=tuple(sorted(final.items())),
    )


class LockstepCore(Core, Generic[R]):
    """The shared body of the two batched cores.

    Subclasses provide the frame array and the result type:
    :meth:`_new_result` and :meth:`_store_measurements`.  ``blocked``
    says whether the frame kernels take pre-drawn uniform rows (the
    exact regimes) or draw from the Generator themselves.

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
        frames,
        noise: Optional[NoiseParameters],
        seed: SeedLike,
        reference_key: Optional[str],
        blocked: bool,
    ) -> None:
        reference_ss, frame_ss = _seed_sequence(seed).spawn(2)
        self.simulator = ReferenceTableau(
            np.random.default_rng(reference_ss), key=reference_key
        )
        self.frames = frames
        self.noise = noise
        self._blocked = blocked
        self._frame_rng = np.random.default_rng(frame_ss)
        self._queue: List[Circuit] = []
        self._state = State(0)
        self._num_qubits = 0

    # -- register -------------------------------------------------------
    @property
    def num_shots(self) -> int:
        return self.frames.num_shots

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

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
        top = circuit.max_qubit()
        if top >= self._num_qubits:
            raise ValueError(
                f"circuit addresses qubit {top} but only "
                f"{self._num_qubits} are allocated"
            )
        self._queue.append(circuit)

    def _execute(self) -> R:
        result = self._new_result()
        for circuit in self._queue:
            plan = circuit_plan(circuit, self.noise, self._num_qubits)
            reference = self.simulator.run(plan.reference_ops, plan.measured)
            uids = [
                circuit.slots[slot].operations[index].uid
                for slot, index in plan.positions
            ]
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
        return result

    def _run_plan(
        self,
        plan: CircuitPlan,
        reference: np.ndarray,
        uids: List[int],
        result: R,
    ) -> None:
        frames, rng = self.frames, self._frame_rng
        probability = (
            self.noise.probability if self.noise is not None else 0.0
        )
        for slot in plan.slots:
            block = (
                rng.random((slot.rows, self.num_shots))
                if self._blocked and slot.rows
                else None
            )
            for kernel in slot.kernels:
                method = getattr(frames, kernel.method)
                if kernel.kind == GATE:
                    method(*kernel.qubits)
                    continue
                draws = rng if block is None else block[kernel.rows]
                if kernel.kind == NOISE:
                    method(*kernel.qubits, probability, draws)
                elif kernel.kind == RESET:
                    method(*kernel.qubits, draws)
                else:
                    self._store_measurements(
                        result,
                        method(*kernel.qubits, draws),
                        reference[kernel.columns],
                        [uids[column] for column in kernel.columns],
                    )

    @abc.abstractmethod
    def _new_result(self) -> R:
        """An empty result of the subclass's type."""

    @abc.abstractmethod
    def _store_measurements(
        self,
        result: R,
        flips: np.ndarray,
        reference: np.ndarray,
        uids: List[int],
    ) -> None:
        """Record one measurement kernel's per-shot outcomes:
        ``flips`` of its ``k`` qubits XOR their ``reference`` bits."""

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

        This is the batched analogue of commanding per-shot correction
        circuits: a Pauli gate is exactly a frame update, so the shared
        reference is untouched.
        """
        self.frames.apply_pauli_masks(x_mask, z_mask)

    def inject_depolarizing(
        self,
        qubits,
        shot_mask: Optional[np.ndarray] = None,
        probability: Optional[float] = None,
    ) -> None:
        """Charge one depolarizing slot to ``qubits``, optionally only
        on the shots selected by ``shot_mask``.

        Experiments use this for shot-dependent circuits the lockstep
        stream cannot express -- e.g. the frame-less arm's physical
        correction slot, which only exists on shots whose decoder
        commanded corrections.  The probability defaults to the core's
        noise model; without a noise model this is a no-op.
        """
        if probability is None:
            probability = (
                self.noise.probability if self.noise is not None else 0.0
            )
        if probability <= 0.0:
            return
        self.frames.depolarize1(
            np.array(list(qubits), dtype=np.int64),
            probability,
            self._frame_rng,
            shot_mask=shot_mask,
        )
