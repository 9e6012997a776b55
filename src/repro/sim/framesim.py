"""Bool Pauli-frame kernels and the depolarizing noise model.

The paper's core observation -- a Pauli frame tracks errors in
classical memory without touching the quantum state -- is also the
trick behind Stim-style bulk sampling (Gidney, Quantum 5, 497): run
the noiseless Clifford *reference* circuit once on a tableau, then
propagate only the per-shot error frames.  A frame is two bits per
qubit, so ``N`` shots are two numpy bool arrays of shape
``(num_shots, num_qubits)`` and every gate, noise channel and
measurement becomes a vectorized column operation over all shots at
once.

The correctness invariant is exactly the paper's: at every point of
the circuit, shot ``s`` is in state ``F_s |ref>`` where ``F_s`` is the
shot's Pauli frame and ``|ref>`` the reference state.  A measurement of
``Z_q`` therefore returns the reference outcome XOR-ed with the frame's
``X`` component on ``q`` (Table 3.2), and Clifford gates conjugate the
frame columns with the same mod-phase rules as Tables 3.4/3.5.

Randomness of non-deterministic measurements is reproduced by *gauge
randomization* (the ``Z_ERROR(0.5)`` trick of the Stim paper): after
every reset and every measurement of ``q``, ``+/-Z_q`` stabilizes the
reference state, so XOR-ing a uniformly random ``Z`` into the frame is
unobservable *now* but propagates into an unbiased ``X`` component at
any later measurement whose outcome should be random.  Deterministic
measurements stay deterministic because their observable commutes with
every element of the (abelian) stabilizer group the gauges generate.

This module holds what the lockstep core
(:class:`repro.qpdo.packed_core.PackedStabilizerCore`, the one shot
sampler, with :func:`repro.qpdo.packed_core.sample` as its one-call
entry point) shares with its tests:

* :class:`NoiseParameters` and :func:`_slot_noise_events` -- the
  depolarizing model and its per-slot events, which mirror
  :class:`repro.qpdo.error_layer.DepolarizingErrorLayer`;
* :class:`FrameArray` -- the bool frame kernels.  The core keeps its
  frames packed 64 shots per word (:mod:`repro.sim.packedsim`) and, as
  ``--engine framesim``, runs each circuit through its compiled GF(2)
  frame map (:mod:`repro.qpdo.lockstep`): the same conjugation rules
  and the same uniforms as these kernels, applied at once.
  :class:`FrameArray` is the tests' reference: the
  operation-by-operation loop they check the core against.  Every
  random kernel here draws from the Generator it is given, one row of
  ``num_shots`` uniforms per qubit (or pair);
* :func:`_seed_sequence` -- the seed-tree root of every core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..circuits.circuit import TimeSlot
from .. import telemetry

#: Noise-event opcodes of :func:`_slot_noise_events`.
OP_XERR = 0
OP_DEPOL1 = 1
OP_DEPOL2 = 2

#: The 15 non-identity two-qubit Pauli error patterns as (xa, za, xb, zb)
#: bit rows, indexed by ``4 * a + b - 1`` with 0=I, 1=X, 2=Y, 3=Z --
#: the same enumeration order as ``repro.qpdo.error_layer``'s
#: ``TWO_QUBIT_ERRORS`` table.
_PAULI_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))  # I, X, Y, Z -> (x, z)
TWO_QUBIT_ERROR_BITS = np.array(
    [
        _PAULI_BITS[first] + _PAULI_BITS[second]
        for first in range(4)
        for second in range(4)
        if not (first == 0 and second == 0)
    ],
    dtype=bool,
)


#: One qubit, or an array of distinct qubits (a slot's same-kind group).
Qubits = Union[int, np.ndarray]


@dataclass(frozen=True)
class NoiseParameters:
    """Symmetric depolarizing noise of the lockstep core.

    Mirrors :class:`repro.qpdo.error_layer.DepolarizingErrorLayer`
    semantics exactly: per commanded time slot, every single-qubit gate
    (idling included) draws one of ``X/Y/Z`` with probability ``p/3``
    each, measurements draw a preceding ``X`` flip with probability
    ``p``, preparations a following ``X`` with probability ``p``, and
    two-qubit gates one of the 15 non-identity Pauli pairs with
    probability ``p/15`` each.

    Attributes
    ----------
    probability:
        The Physical Error Rate ``p``.
    active_qubits:
        Qubits subject to (gate and idle) noise; ``None`` charges every
        qubit of the register.
    """

    probability: float
    active_qubits: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("error probability must be in [0, 1]")
        if self.active_qubits is not None:
            object.__setattr__(
                self, "active_qubits", frozenset(self.active_qubits)
            )

    def active_set(self, num_qubits: int) -> Set[int]:
        """The concrete set of noisy qubits for an ``n``-qubit program."""
        if self.active_qubits is None:
            return set(range(num_qubits))
        return set(self.active_qubits)


class FrameArray:
    """``num_shots`` Pauli frames as two bool matrices.

    The batched analogue of :class:`repro.pauliframe.frame.PauliFrame`:
    column ``q`` of ``x``/``z`` holds the ``has X``/``has Z`` record
    bits of qubit ``q`` for every shot.  All updates are the mod-phase
    conjugation rules of Tables 3.4/3.5, vectorized over shots.

    Every kernel takes one qubit or an array of distinct qubits (one
    time slot's same-kind group); random kernels consume one row of
    uniforms per qubit (or qubit pair), in order.
    """

    __slots__ = ("x", "z")

    def __init__(self, num_shots: int, num_qubits: int):
        self.x = np.zeros((int(num_shots), int(num_qubits)), dtype=bool)
        self.z = np.zeros((int(num_shots), int(num_qubits)), dtype=bool)

    @property
    def num_shots(self) -> int:
        return self.x.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.x.shape[1]

    # -- register -------------------------------------------------------
    def add_qubits(self, count: int, rng: np.random.Generator) -> None:
        """Append ``count`` fresh ``|0>`` qubits (Z gauge randomized)."""
        if count <= 0:
            return
        shots = self.num_shots
        pad_x = np.zeros((shots, count), dtype=bool)
        pad_z = rng.random((shots, count)) < 0.5
        self.x = np.concatenate([self.x, pad_x], axis=1)
        self.z = np.concatenate([self.z, pad_z], axis=1)

    # -- Clifford conjugation (Tables 3.4/3.5, vectorized) --------------
    def h(self, qubits: Qubits) -> None:
        """H exchanges the X and Z record bits."""
        tmp = self.x[:, qubits].copy()
        self.x[:, qubits] = self.z[:, qubits]
        self.z[:, qubits] = tmp

    def s(self, qubits: Qubits) -> None:
        """S (and, mod phase, S^dagger): ``X -> XZ``, ``Z -> Z``."""
        self.z[:, qubits] ^= self.x[:, qubits]

    def cnot(self, control: Qubits, target: Qubits) -> None:
        """X propagates control->target, Z propagates target->control."""
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, control: Qubits, target: Qubits) -> None:
        """X on either qubit acquires a Z on the other."""
        new_zc = self.z[:, control] ^ self.x[:, target]
        self.z[:, target] ^= self.x[:, control]
        self.z[:, control] = new_zc

    def swap(self, first: Qubits, second: Qubits) -> None:
        """SWAP exchanges the two record columns."""
        for plane in (self.x, self.z):
            tmp = plane[:, first].copy()
            plane[:, first] = plane[:, second]
            plane[:, second] = tmp

    # -- state transitions ----------------------------------------------
    def reset(self, qubits: Qubits, rng: np.random.Generator) -> None:
        """Reset clears the record; the Z gauge is randomized."""
        u = rng.random(np.shape(qubits) + (self.num_shots,))
        self.x[:, qubits] = False
        self.z[:, qubits] = (u < 0.5).T

    def measure_flips(
        self, qubits: Qubits, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-shot outcome flips of a Z measurement (Table 3.2).

        Returns the ``X``-component columns (a copy; ``(shots,)`` for
        one qubit, ``(shots, k)`` for ``k``), then randomizes the
        now-gauge ``Z`` components.
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._measure_flips(qubits, rng)
        with t.span("sim.framesim", "FrameArray.measure_flips"):
            return self._measure_flips(qubits, rng)

    def _measure_flips(
        self, qubits: Qubits, rng: np.random.Generator
    ) -> np.ndarray:
        u = rng.random(np.shape(qubits) + (self.num_shots,))
        flips = self.x[:, qubits].copy()
        self.z[:, qubits] = (u < 0.5).T
        return flips

    # -- noise channels (vectorized) ------------------------------------
    def xerr(
        self, qubits: Qubits, probability: float, rng: np.random.Generator
    ) -> None:
        """Bit-flip channel: X with probability ``p`` on every shot."""
        u = rng.random(np.shape(qubits) + (self.num_shots,))
        self.x[:, qubits] ^= (u < probability).T

    def depolarize1(
        self,
        qubits: Qubits,
        probability: float,
        rng: np.random.Generator,
        shot_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Single-qubit depolarizing: X/Y/Z with probability ``p/3``.

        One uniform draw per shot doubles as both the hit indicator and
        the error kind (conditioned on ``u < p``, ``3u/p`` is uniform
        over the three kinds), which keeps the random stream at exactly
        one float per shot per channel -- the property that lets a
        compiled frame map draw a circuit's channels as one block.
        ``shot_mask`` restricts the channel to a subset of shots (used
        for shot-dependent slots, e.g. per-shot correction circuits);
        the stream consumption is the same with or without a mask.
        """
        u = rng.random(np.shape(qubits) + (self.num_shots,))
        hit = u < probability
        if shot_mask is not None:
            hit &= shot_mask
        kind = np.minimum((u * (3.0 / probability)).astype(np.int64), 2)
        self.x[:, qubits] ^= (hit & (kind != 2)).T  # X or Y
        self.z[:, qubits] ^= (hit & (kind != 0)).T  # Y or Z

    def depolarize2(
        self,
        first: Qubits,
        second: Qubits,
        probability: float,
        rng: np.random.Generator,
    ) -> None:
        """Two-qubit depolarizing: one of 15 pairs, ``p/15`` each."""
        u = rng.random(np.shape(first) + (self.num_shots,))
        hit = u < probability
        kind = np.minimum((u * (15.0 / probability)).astype(np.int64), 14)
        bits = TWO_QUBIT_ERROR_BITS[kind]
        self.x[:, first] ^= (hit & bits[..., 0]).T
        self.z[:, first] ^= (hit & bits[..., 1]).T
        self.x[:, second] ^= (hit & bits[..., 2]).T
        self.z[:, second] ^= (hit & bits[..., 3]).T

    def apply_pauli_masks(
        self, x_mask: np.ndarray, z_mask: np.ndarray
    ) -> None:
        """XOR per-shot Pauli masks into the frames.

        This is how batched experiments command per-shot corrections:
        a Pauli gate *is* a frame update (the paper's working principle
        2), so decoder feedback never touches the reference tableau.
        """
        self.x ^= x_mask
        self.z ^= z_mask


def _slot_noise_events(
    slot: TimeSlot, active: Set[int], nq: int
) -> Tuple[List[Tuple], List[Tuple]]:
    """Noise events (pre, post) for one commanded slot.

    Event tuples are ``(opcode, qubits...)``; the plan compiler of
    :mod:`repro.qpdo.lockstep` turns them into noise kernels.  The
    event structure mirrors
    ``DepolarizingErrorLayer._sample_slot_errors`` so the batched
    channel is statistically identical to the per-shot loop.
    """
    pre: List[Tuple] = []
    post: List[Tuple] = []
    busy: Set[int] = set()
    for operation in slot:
        busy.update(operation.qubits)
        if operation.is_error:
            continue
        if operation.is_measurement:
            qubit = operation.qubits[0]
            if qubit in active:
                pre.append((OP_XERR, qubit))
        elif operation.is_preparation:
            qubit = operation.qubits[0]
            if qubit in active:
                post.append((OP_XERR, qubit))
        elif len(operation.qubits) == 1:
            qubit = operation.qubits[0]
            if qubit in active:
                post.append((OP_DEPOL1, qubit))
        else:
            if all(q in active for q in operation.qubits):
                post.append(
                    (OP_DEPOL2, operation.qubits[0], operation.qubits[1])
                )
    for qubit in sorted(active - busy):
        if qubit < nq:
            post.append((OP_DEPOL1, qubit))
    return pre, post


SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence]


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)
