"""Bit-packed frame-differential shot sampler (Stim's word-level trick).

:mod:`repro.sim.framesim` already splits a noisy Clifford circuit into
one noiseless *reference* run plus per-shot Pauli error frames; this
module packs those frames 64 shots per machine word, the way Stim
(Gidney, Quantum 5, 497) and CHP (Aaronson–Gottesman, PRA 70, 052328)
lay out their tableaux.  The X/Z frame planes become ``uint64`` arrays
of shape ``(num_qubits, ceil(num_shots / 64))`` — shot ``s`` lives in
word ``s >> 6``, bit ``s & 63`` (little-endian, the ``numpy.packbits``
``bitorder="little"`` convention) — and every frame operation turns
into a handful of word-wide bitwise kernels:

* Clifford conjugation (H/S/CNOT/CZ/SWAP) is row XOR/copy on the
  planes — 64 shots per instruction instead of one bool per shot;
* measurement flips are a row copy; gauge randomization is one random
  word row;
* noise channels scatter their (sparse) hits into packed rows.

These planes are the only frame state of the lockstep core
(:class:`~repro.qpdo.packed_core.PackedStabilizerCore`).  Consumers
unpack where samples leave the simulator: the batched LER experiment
turns each window's syndrome planes into bools once, in front of the
decoder.

**Two RNG regimes**, selected by ``rng_mode``:

``"exact"``
    Consumes random streams *exactly* like the bool
    :class:`~repro.sim.framesim.FrameArray` kernels: one uniform float
    per shot per channel event, gauge rows drawn as
    ``rng.random(shots) < 0.5``.  Samples are bit-identical to
    :class:`~repro.sim.framesim.BatchedFrameSampler` -- the
    conformance contract the golden values and the differential-fuzz
    corpus pin.  The speedup comes from doing all frame algebra on
    words.  The lockstep core runs exact-mode circuits through their
    compiled frame map (:mod:`repro.qpdo.lockstep`), which draws the
    same uniforms in blocks, so these kernels serve the
    per-instruction sampler, the core's per-shot noise injection and
    the operation-loop reference of the tests.

``"fast"``
    Stim-style word-level randomness: a channel draws its hit *count*
    from a binomial, scatters that many distinct positions, and gauge
    rows are single ``uint64`` draws.  Distribution-identical (same
    physics, chi-square-gated in the conformance tests) but a
    different stream — this is the mode that clears the E22 ≥10x bar,
    because the per-event cost no longer scales with the shot count.

Both regimes keep the per-instruction stream-seeding contract of
:class:`~repro.sim.framesim.BatchedFrameSampler`, so samples stay
worker-count- and batch-split-invariant within a mode.

The **tail invariant**: bits at positions ``>= num_shots`` in the last
word of any row are always zero.  Packing pads with zeros, word
kernels (XOR/AND/copy) preserve zeros, random word rows and logical
NOT are masked with :meth:`PackedFrameArray.full_words` — so popcounts
and unpacks never see ghost shots.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from .. import telemetry
from .framesim import (
    OP_CNOT,
    OP_CZ,
    OP_DEPOL1,
    OP_DEPOL2,
    OP_H,
    OP_MEASURE,
    OP_RESET,
    OP_S,
    OP_SWAP,
    OP_XERR,
    _OP_COUNTER_NAMES,
    TWO_QUBIT_ERROR_BITS,
    FrameProgram,
    NoiseParameters,
    Qubits,
    SeedLike,
    _seed_sequence,
    compile_frame_program,
)

#: All-ones word (numpy uint64 cannot take ``~0`` directly).
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

#: The packing convention in one place: shot ``s`` -> word ``s >> 6``,
#: bit ``s & 63``; within a word bit 0 is the lowest-index shot.
SHOTS_PER_WORD = 64

_BIG_ENDIAN = sys.byteorder == "big"

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
#: Byte popcount table for numpy builds without ``bitwise_count``.
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

_RNG_MODES = ("exact", "fast")


def num_words(num_shots: int) -> int:
    """Words needed for ``num_shots`` packed shots."""
    return (int(num_shots) + SHOTS_PER_WORD - 1) >> 6


def tail_mask(num_shots: int) -> np.uint64:
    """Valid-bit mask of the *last* word of a ``num_shots`` row."""
    bits = int(num_shots) & 63
    if bits == 0:
        return ALL_ONES
    return np.uint64((1 << bits) - 1)


def full_mask(num_shots: int) -> np.ndarray:
    """Per-word valid-shot mask: all-ones except the ragged last word.

    XOR-ing a row with this mask is a logical NOT over the valid
    shots that preserves the tail invariant.
    """
    words = np.full(num_words(num_shots), ALL_ONES, dtype=np.uint64)
    words[-1] = tail_mask(num_shots)
    return words


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack bools along the last axis into little-endian ``uint64``.

    ``bits`` has shape ``(..., num_shots)``; the result has shape
    ``(..., num_words(num_shots))`` with bit ``s & 63`` of word
    ``s >> 6`` equal to ``bits[..., s]``.  Tail bits are zero.
    """
    # numpy packs a strided axis several times slower than a copy.
    bits = np.ascontiguousarray(bits, dtype=bool)
    words = num_words(bits.shape[-1])
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.ascontiguousarray(packed)
    out = packed.view(np.uint64)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI hosts
        out = out.byteswap()
    return out


def unpack_bits(words: np.ndarray, num_shots: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    ``words`` has shape ``(..., num_words)``; returns bools of shape
    ``(..., num_shots)``.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI hosts
        words = words.byteswap()
    raw = words.view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little", count=int(num_shots))
    return bits.astype(bool)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts (``numpy.bitwise_count`` when present)."""
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    raw = np.ascontiguousarray(words).view(np.uint8)
    per_byte = _POPCOUNT_TABLE[raw].reshape(words.shape + (8,))
    return per_byte.sum(axis=-1, dtype=np.int64)


def _toggle(
    plane: np.ndarray, rows: List[int], hits: List[np.ndarray]
) -> None:
    """Flip bit ``s`` of ``plane[rows[i]]`` for every shot ``s`` in
    ``hits[i]``: a fast-mode kernel's hits, in one scatter per plane."""
    if not hits:
        return
    shots = np.concatenate(hits)
    np.bitwise_xor.at(
        plane,
        (np.repeat(rows, [len(row) for row in hits]), shots >> 6),
        np.left_shift(_ONE, (shots & 63).astype(np.uint64)),
    )


class PackedFrameArray:
    """``num_shots`` Pauli frames as two ``uint64`` bit planes.

    The packed analogue of :class:`~repro.sim.framesim.FrameArray`:
    row ``q`` of ``x``/``z`` holds the ``has X``/``has Z`` record bit
    of qubit ``q`` for all shots, 64 per word.  All kernels implement
    the same mod-phase conjugation rules (paper Tables 3.4/3.5); in
    ``rng_mode="exact"`` the random-stream consumption also matches
    the unpacked kernels draw for draw (see the module docstring).
    """

    __slots__ = ("x", "z", "num_shots", "rng_mode", "_full")

    def __init__(
        self, num_shots: int, num_qubits: int, rng_mode: str = "exact"
    ):
        if rng_mode not in _RNG_MODES:
            raise ValueError(f"rng_mode must be one of {_RNG_MODES}")
        self.num_shots = int(num_shots)
        words = num_words(self.num_shots)
        self.x = np.zeros((int(num_qubits), words), dtype=np.uint64)
        self.z = np.zeros((int(num_qubits), words), dtype=np.uint64)
        self.rng_mode = rng_mode
        self._full = full_mask(self.num_shots)

    @property
    def num_qubits(self) -> int:
        return self.x.shape[0]

    @property
    def num_words(self) -> int:
        return self.x.shape[1]

    @property
    def full_words(self) -> np.ndarray:
        """The valid-shot word mask (``NOT`` = ``row ^ full_words``)."""
        return self._full

    # -- packed/unpacked conversion -------------------------------------
    def x_bool(self) -> np.ndarray:
        """The X plane as a ``(num_shots, num_qubits)`` bool array."""
        return unpack_bits(self.x, self.num_shots).T

    def z_bool(self) -> np.ndarray:
        """The Z plane as a ``(num_shots, num_qubits)`` bool array."""
        return unpack_bits(self.z, self.num_shots).T

    def error_weight(self) -> int:
        """Total set frame bits across both planes (diagnostics)."""
        return int(
            popcount_words(self.x).sum() + popcount_words(self.z).sum()
        )

    def copy(self) -> "PackedFrameArray":
        duplicate = PackedFrameArray(
            self.num_shots, 0, rng_mode=self.rng_mode
        )
        duplicate.x = self.x.copy()
        duplicate.z = self.z.copy()
        return duplicate

    # -- register -------------------------------------------------------
    def add_qubits(self, count: int, rng: np.random.Generator) -> None:
        """Append ``count`` fresh ``|0>`` qubits (Z gauge randomized)."""
        if count <= 0:
            return
        pad_x = np.zeros((count, self.num_words), dtype=np.uint64)
        if self.rng_mode == "exact":
            pad_z = pack_bits(
                (rng.random((self.num_shots, count)) < 0.5).T
            )
        else:
            pad_z = self._random_words((count, self.num_words), rng)
        self.x = np.concatenate([self.x, pad_x], axis=0)
        self.z = np.concatenate([self.z, pad_z], axis=0)

    def remove_qubits(self, count: int) -> None:
        """Drop the ``count`` highest-index qubit rows."""
        if count <= 0:
            return
        keep = self.num_qubits - count
        self.x = self.x[:keep].copy()
        self.z = self.z[:keep].copy()

    # -- Clifford conjugation (word kernels) ----------------------------
    def h(self, qubits: Qubits) -> None:
        """H exchanges the X and Z record rows."""
        tmp = self.x[qubits].copy()
        self.x[qubits] = self.z[qubits]
        self.z[qubits] = tmp

    def s(self, qubits: Qubits) -> None:
        """S (and, mod phase, S^dagger): ``X -> XZ``, ``Z -> Z``."""
        self.z[qubits] ^= self.x[qubits]

    def cnot(self, control: Qubits, target: Qubits) -> None:
        """X propagates control->target, Z propagates target->control."""
        self.x[target] ^= self.x[control]
        self.z[control] ^= self.z[target]

    def cz(self, control: Qubits, target: Qubits) -> None:
        """X on either qubit acquires a Z on the other."""
        new_zc = self.z[control] ^ self.x[target]
        self.z[target] ^= self.x[control]
        self.z[control] = new_zc

    def swap(self, first: Qubits, second: Qubits) -> None:
        """SWAP exchanges the two record rows."""
        for plane in (self.x, self.z):
            tmp = plane[first].copy()
            plane[first] = plane[second]
            plane[second] = tmp

    # -- state transitions ----------------------------------------------
    def reset(self, qubits: Qubits, rng: np.random.Generator) -> None:
        """Reset clears the record; the Z gauge is randomized."""
        self.x[qubits] = 0
        self.z[qubits] = self._gauge_rows(np.shape(qubits), rng)

    def measure_flips(
        self, qubits: Qubits, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-shot outcome flips of a Z measurement, as word rows.

        Returns the packed ``X``-component rows (a copy; ``(words,)``
        for one qubit, ``(k, words)`` for ``k``), then randomizes the
        now-gauge ``Z`` components.
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._measure_flips(qubits, rng)
        with t.span("sim.packedsim", "PackedFrameArray.measure_flips"):
            return self._measure_flips(qubits, rng)

    def _measure_flips(
        self, qubits: Qubits, rng: np.random.Generator
    ) -> np.ndarray:
        flips = self.x[qubits].copy()
        self.z[qubits] = self._gauge_rows(np.shape(qubits), rng)
        return flips

    # -- noise channels --------------------------------------------------
    # Exact mode turns one uniform row per channel into packed hit rows;
    # fast mode samples each channel from the Generator at word level,
    # channel after channel in group order.
    def xerr(
        self, qubits: Qubits, probability: float, rng: np.random.Generator
    ) -> None:
        """Bit-flip channel: X with probability ``p`` on every shot."""
        if self.rng_mode == "exact":
            u = rng.random(np.shape(qubits) + (self.num_shots,))
            self.x[qubits] ^= pack_bits(u < probability)
            return
        rows: List[int] = []
        flips: List[np.ndarray] = []
        for qubit in np.atleast_1d(qubits):
            hits = self._fast_hits(probability, rng, kinds=1)
            if hits is not None:
                rows.append(qubit)
                flips.append(hits[0])
        _toggle(self.x, rows, flips)

    def depolarize1(
        self,
        qubits: Qubits,
        probability: float,
        rng: np.random.Generator,
        shot_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Single-qubit depolarizing: X/Y/Z with probability ``p/3``.

        ``shot_mask`` (bool, per shot) restricts the channel to a
        subset of shots; in both modes the stream consumption is
        mask-independent, exactly like the unpacked kernel.
        """
        if self.rng_mode == "exact":
            # Same double-duty draw as FrameArray.depolarize1.
            u = rng.random(np.shape(qubits) + (self.num_shots,))
            hit = u < probability
            if shot_mask is not None:
                hit &= shot_mask
            kind = np.minimum((u * (3.0 / probability)).astype(np.int64), 2)
            self.x[qubits] ^= pack_bits(hit & (kind != 2))
            self.z[qubits] ^= pack_bits(hit & (kind != 0))
            return
        rows: List[int] = []
        x_flips: List[np.ndarray] = []
        z_flips: List[np.ndarray] = []
        for qubit in np.atleast_1d(qubits):
            hits = self._fast_hits(probability, rng, kinds=3)
            if hits is None:
                continue
            indices, kind = hits
            if shot_mask is not None:
                keep = shot_mask[indices]
                indices, kind = indices[keep], kind[keep]
            rows.append(qubit)
            x_flips.append(indices[kind != 2])
            z_flips.append(indices[kind != 0])
        _toggle(self.x, rows, x_flips)
        _toggle(self.z, rows, z_flips)

    def depolarize2(
        self,
        first: Qubits,
        second: Qubits,
        probability: float,
        rng: np.random.Generator,
    ) -> None:
        """Two-qubit depolarizing: one of 15 pairs, ``p/15`` each."""
        if self.rng_mode == "exact":
            u = rng.random(np.shape(first) + (self.num_shots,))
            hit = u < probability
            kind = np.minimum(
                (u * (15.0 / probability)).astype(np.int64), 14
            )
            bits = TWO_QUBIT_ERROR_BITS[kind]
            self.x[first] ^= pack_bits(hit & bits[..., 0])
            self.z[first] ^= pack_bits(hit & bits[..., 1])
            self.x[second] ^= pack_bits(hit & bits[..., 2])
            self.z[second] ^= pack_bits(hit & bits[..., 3])
            return
        rows: List[int] = []
        x_flips: List[np.ndarray] = []
        z_flips: List[np.ndarray] = []
        for a, b in zip(np.atleast_1d(first), np.atleast_1d(second)):
            hits = self._fast_hits(probability, rng, kinds=15)
            if hits is None:
                continue
            indices, kind = hits
            bits = TWO_QUBIT_ERROR_BITS[kind]
            rows += [a, b]
            x_flips += [indices[bits[:, 0]], indices[bits[:, 2]]]
            z_flips += [indices[bits[:, 1]], indices[bits[:, 3]]]
        _toggle(self.x, rows, x_flips)
        _toggle(self.z, rows, z_flips)

    def apply_pauli_masks(
        self, x_mask: np.ndarray, z_mask: np.ndarray
    ) -> None:
        """XOR per-shot Pauli masks into the frames.

        Masks are bool arrays of shape ``(num_shots, num_qubits)``,
        the :class:`~repro.sim.framesim.FrameArray` layout, packed
        here.
        """
        self.x ^= pack_bits(np.asarray(x_mask, dtype=bool).T)
        self.z ^= pack_bits(np.asarray(z_mask, dtype=bool).T)

    # -- internals ------------------------------------------------------
    def _gauge_rows(
        self, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Uniformly random packed rows (the Z-gauge trick), ``shape``
        of them; fast mode draws words (a ``(k, words)`` block fills
        like ``k`` consecutive rows)."""
        if self.rng_mode == "exact":
            u = rng.random(shape + (self.num_shots,))
            return pack_bits(u < 0.5)
        return self._random_words(shape + (self.num_words,), rng)

    def _fast_hits(
        self, probability: float, rng: np.random.Generator, kinds: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """One word-level channel: distinct hit positions and kinds.

        Draws a binomial hit count, then (when nonzero) that many
        distinct positions and, for ``kinds > 1``, a kind per hit.
        """
        hits = int(rng.binomial(self.num_shots, probability))
        if hits == 0:
            return None
        positions = rng.choice(self.num_shots, size=hits, replace=False)
        if kinds == 1:
            return positions, np.zeros(hits, dtype=np.int64)
        return positions, rng.integers(0, kinds, size=hits)

    def _random_words(self, shape, rng: np.random.Generator) -> np.ndarray:
        words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        return words & self._full


class PackedFrameSampler:
    """Sample a compiled :class:`~repro.sim.framesim.FrameProgram` on
    packed frames.

    The drop-in counterpart of
    :class:`~repro.sim.framesim.BatchedFrameSampler`: the same
    one-stream-per-random-instruction seed tree (so the same ``seed``
    gives batch-split-invariant samples), with all frame algebra on
    :class:`PackedFrameArray` word kernels.  In ``rng_mode="exact"``
    :meth:`sample` is bit-identical to the unpacked sampler; in
    ``"fast"`` it is distribution-identical on a different stream.
    """

    def __init__(
        self,
        program: FrameProgram,
        seed: SeedLike = None,
        rng_mode: str = "exact",
    ):
        if rng_mode not in _RNG_MODES:
            raise ValueError(f"rng_mode must be one of {_RNG_MODES}")
        self.program = program
        self.rng_mode = rng_mode
        children = _seed_sequence(seed).spawn(program.num_streams)
        self._streams = [np.random.default_rng(c) for c in children]
        self.shots_sampled = 0

    # ------------------------------------------------------------------
    def sample(self, num_shots: int) -> np.ndarray:
        """Sample ``num_shots`` shots as bools.

        Returns shape ``(num_shots, num_measurements)``, the unpacked
        sampler's layout (columns in circuit measurement order).
        """
        return unpack_bits(self.sample_words(num_shots), int(num_shots)).T

    def sample_words(self, num_shots: int) -> np.ndarray:
        """Sample ``num_shots`` shots in packed form.

        Returns ``uint64`` words of shape
        ``(num_measurements, num_words(num_shots))`` — row ``m`` holds
        measurement ``m``'s outcome bit for every shot.
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._sample_words(num_shots)
        with t.span(
            "sim.packedsim",
            "PackedFrameSampler.sample_words",
            shots=int(num_shots),
            instructions=len(self.program.instructions),
            rng_mode=self.rng_mode,
        ):
            out = self._sample_words(num_shots)
        for instr in self.program.instructions:
            t.count(
                "sim.packedsim", "kernel", _OP_COUNTER_NAMES[instr[0]]
            )
        return out

    def _sample_words(self, num_shots: int) -> np.ndarray:
        program = self.program
        shots = int(num_shots)
        frames = PackedFrameArray(
            shots, program.num_qubits, rng_mode=self.rng_mode
        )
        # Initial Z-gauge randomization (see framesim: stream 0).
        streams = self._streams
        if self.rng_mode == "exact":
            frames.z[:] = pack_bits(
                (streams[0].random((shots, program.num_qubits)) < 0.5).T
            )
        else:
            frames.z[:] = frames._random_words(frames.z.shape, streams[0])
        out = np.empty(
            (program.num_measurements, frames.num_words), dtype=np.uint64
        )
        full = frames.full_words
        reference = program.reference_bits
        for instr in program.instructions:
            opcode = instr[0]
            if opcode == OP_MEASURE:
                _, qubit, column, stream = instr
                flips = frames.measure_flips(qubit, streams[stream])
                out[column] = flips ^ full if reference[column] else flips
            elif opcode == OP_CNOT:
                frames.cnot(instr[1], instr[2])
            elif opcode == OP_H:
                frames.h(instr[1])
            elif opcode == OP_S:
                frames.s(instr[1])
            elif opcode == OP_CZ:
                frames.cz(instr[1], instr[2])
            elif opcode == OP_SWAP:
                frames.swap(instr[1], instr[2])
            elif opcode == OP_RESET:
                frames.reset(instr[1], streams[instr[2]])
            elif opcode == OP_XERR:
                _, qubit, p, stream = instr
                frames.xerr(qubit, p, streams[stream])
            elif opcode == OP_DEPOL1:
                _, qubit, p, stream = instr
                frames.depolarize1(qubit, p, streams[stream])
            elif opcode == OP_DEPOL2:
                _, first, second, p, stream = instr
                frames.depolarize2(first, second, p, streams[stream])
            else:  # pragma: no cover - compiler emits a closed set
                raise AssertionError(f"unknown opcode {opcode}")
        self.shots_sampled += shots
        return out


def sample_circuit_packed(
    circuit: Circuit,
    num_shots: int,
    seed: SeedLike = None,
    noise: Optional[NoiseParameters] = None,
    num_qubits: Optional[int] = None,
    rng_mode: str = "exact",
) -> np.ndarray:
    """Compile and sample ``circuit`` on the packed engine.

    The same two-child seed tree as
    :func:`~repro.sim.framesim.sample_circuit`, so with
    ``rng_mode="exact"`` the returned samples are bit-identical to the
    unpacked path for the same arguments.
    """
    reference_ss, sampler_ss = _seed_sequence(seed).spawn(2)
    program = compile_frame_program(
        circuit,
        num_qubits=num_qubits,
        noise=noise,
        reference_rng=np.random.default_rng(reference_ss),
    )
    return PackedFrameSampler(
        program, seed=sampler_ss, rng_mode=rng_mode
    ).sample(num_shots)
