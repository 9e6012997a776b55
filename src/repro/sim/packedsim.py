"""Bit-packed Pauli frames (Stim's word-level trick).

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
    ``rng.random(shots) < 0.5``, so the frames stay bit-identical to
    theirs.  The lockstep core runs exact-mode circuits through their
    compiled frame map (:mod:`repro.qpdo.lockstep`), which draws the
    same uniforms in blocks; of these kernels it calls only the
    register growth, the Pauli feedback and the shot-masked
    ``depolarize1``, and ``tests/test_packedsim_properties.py``
    checks every kernel against the bool ones.

``"fast"``
    Stim-style word-level randomness: a channel draws its hit *count*
    from a binomial, scatters that many distinct positions, and gauge
    rows are single ``uint64`` draws.  Distribution-identical (same
    physics, chi-square-gated in the conformance tests) but a
    different stream, whose per-event cost no longer scales with the
    shot count.

**Shards side by side.**  In exact mode the shot axis may hold several
shards, each with its own Generator (:class:`ShotStreams`).  A shard
draws exactly what it draws alone, in the same order, so every shard
of a fused run gets the bits of its lone run.

The **tail invariant**: bits at positions ``>= num_shots`` in the last
word of any row are always zero.  Packing pads with zeros, word
kernels (XOR/AND/copy) preserve zeros, random word rows and logical
NOT are masked with :meth:`PackedFrameArray.full_words` — so unpacks
never see ghost shots.
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from .framesim import TWO_QUBIT_ERROR_BITS, Qubits

#: All-ones word (numpy uint64 cannot take ``~0`` directly).
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

#: The packing convention in one place: shot ``s`` -> word ``s >> 6``,
#: bit ``s & 63``; within a word bit 0 is the lowest-index shot.
SHOTS_PER_WORD = 64

_BIG_ENDIAN = sys.byteorder == "big"

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


class ShotStreams:
    """One Generator per block of consecutive shots.

    Block ``j`` holds shots ``starts[j]`` up to ``starts[j] +
    sizes[j]`` and draws from ``rngs[j]`` alone, in the order its
    shots draw when they run on their own.  The exact-mode kernels that
    take ``rng`` accept a plain Generator as the one block of every
    shot (:meth:`of`).
    """

    __slots__ = ("rngs", "sizes", "starts")

    def __init__(
        self,
        rngs: Sequence[np.random.Generator],
        sizes: Sequence[int],
        starts: Optional[Sequence[int]] = None,
    ) -> None:
        self.rngs = tuple(rngs)
        self.sizes = tuple(int(size) for size in sizes)
        if starts is None:
            starts = np.cumsum((0,) + self.sizes[:-1])
        self.starts = tuple(int(start) for start in starts)

    @classmethod
    def of(cls, rng: "RandomSource", num_shots: int) -> "ShotStreams":
        """``rng`` as streams: a Generator is one block of every shot."""
        if isinstance(rng, ShotStreams):
            return rng
        return cls((rng,), (num_shots,))

    def blocks(self) -> Iterator[Tuple[np.random.Generator, int, int]]:
        """``(rng, start, stop)`` of every block, in shot order."""
        for rng, start, size in zip(self.rngs, self.starts, self.sizes):
            yield rng, start, start + size

    def select(self, keep: Sequence[bool]) -> "ShotStreams":
        """The blocks for which ``keep`` is true, on their own shots;
        the shots of the others draw nothing."""
        chosen = [j for j, flag in enumerate(keep) if flag]
        return ShotStreams(
            [self.rngs[j] for j in chosen],
            [self.sizes[j] for j in chosen],
            [self.starts[j] for j in chosen],
        )

    def runs(
        self,
    ) -> Iterator[Tuple[int, Tuple[np.random.Generator, ...], int]]:
        """Maximal runs of adjacent blocks of one size, as ``(first
        shot, rngs, size)``: each run draws as one ``(blocks, rows,
        size)`` array, one contiguous slab per block."""
        j = 0
        while j < len(self.rngs):
            start, size = self.starts[j], self.sizes[j]
            end = j + 1
            while (
                end < len(self.rngs)
                and self.sizes[end] == size
                and self.starts[end] == start + (end - j) * size
            ):
                end += 1
            yield start, self.rngs[j:end], size
            j = end


#: What the exact-mode kernels draw from.
RandomSource = Union[np.random.Generator, ShotStreams]


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

    # -- register -------------------------------------------------------
    def add_qubits(self, count: int, rng: RandomSource) -> None:
        """Append ``count`` fresh ``|0>`` qubits (Z gauge randomized).

        Exact mode draws the gauges shot-major, ``(shots, count)`` per
        block of ``rng``."""
        if count <= 0:
            return
        pad_x = np.zeros((count, self.num_words), dtype=np.uint64)
        if self.rng_mode == "exact":
            u = np.empty((self.num_shots, count))
            for stream, start, stop in ShotStreams.of(
                rng, self.num_shots
            ).blocks():
                stream.random(out=u[start:stop])
            pad_z = pack_bits((u < 0.5).T)
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
        rng: RandomSource,
        shot_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Single-qubit depolarizing: X/Y/Z with probability ``p/3``.

        ``shot_mask`` (bool, per shot) restricts the channel to a
        subset of shots; in both modes the stream consumption is
        mask-independent, exactly like the unpacked kernel.  In exact
        mode each block of ``rng`` draws ``(qubits, block shots)``
        uniforms, and shots outside every block are not charged.
        """
        if self.rng_mode == "exact":
            shape = np.shape(qubits)
            # A shot outside every block keeps u = 1, which no
            # probability exceeds: it draws nothing and is not charged.
            u = np.ones(shape + (self.num_shots,))
            for stream, start, stop in ShotStreams.of(
                rng, self.num_shots
            ).blocks():
                u[..., start:stop] = stream.random(shape + (stop - start,))
            # Same double-duty draw as FrameArray.depolarize1.
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
