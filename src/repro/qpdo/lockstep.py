"""Compiled circuit plans of the lockstep core.

:class:`~repro.qpdo.packed_core.PackedStabilizerCore` carries ``N``
shots at once: one shared noiseless reference on a
:class:`~repro.sim.refcache.ReferenceTableau` plus per-shot Pauli
error frames in ``uint64`` words.

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
* each random kernel's rows of the slot's uniforms;
* the slots' action on the frames as one :class:`FrameMap`.

The random kernels consume the frame Generator in exactly the order
the operation-by-operation loop did: pre-slot noise, then resets and
measurements in slot order, then post-slot noise in event order, one
row of ``num_shots`` uniforms per channel.  That order fixes every
per-seed stream.

The exact regime (``--engine framesim``) does not call the kernels.
The kernels only copy and XOR frame bits, so a circuit acts on the
frames as a fixed GF(2)-linear map of its incoming frame bits, its
gauge bits and its noise bits -- the map SymPhase samples through and
Stim samples detectors with.  A :class:`FrameMap` runs a circuit in
three steps:

1. draw the circuit's rows back to back, in runs of consecutive rows
   capped at :data:`DRAW_CAP` elements (``Generator.random`` fills a
   ``(k, n)`` block exactly like ``k`` consecutive ``(n,)`` draws, so
   the stream is the kernels').  Shards side by side on the shot axis
   each draw their own rows from their own Generator, into their own
   slab of one block;
2. find every noise hit with one comparison, and compute the error
   kind only at the hits, with the kernels' own arithmetic;
3. XOR the incoming-frame and gauge rows into the outputs with one
   ``np.bitwise_xor.reduceat`` on packed words, and flip each hit's
   outputs through the map's transpose.

Results stay bit-identical to the kernels.  Packed-fast keeps the slot
kernels: it draws noise per channel at word level (a binomial count,
then positions, then kinds), a stream the map's one-uniform-per-shot
rows cannot reproduce.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..sim.framesim import (
    OP_DEPOL1,
    OP_DEPOL2,
    OP_XERR,
    TWO_QUBIT_ERROR_BITS,
    NoiseParameters,
    _slot_noise_events,
)
from ..sim.packedsim import RandomSource, ShotStreams, pack_bits
from ..sim.refcache import ReferenceOp

#: FIFO capacity of the process-level plan cache.
PLAN_CACHE_CAPACITY = 256

#: Frame-kernel method of each gate name (S and S^dagger act alike).
_GATE_KERNELS = {
    "h": "h",
    "s": "s",
    "sdg": "s",
    "cnot": "cnot",
    "cx": "cnot",
    "cz": "cz",
    "swap": "swap",
}
#: Frame-transparent gates: Pauli conjugation maps every Pauli to
#: itself up to a (dropped) phase, so frames pass straight through.
_PAULI_NAMES = frozenset({"i", "x", "y", "z"})

_NOISE_KERNELS = {
    OP_XERR: "xerr",
    OP_DEPOL1: "depolarize1",
    OP_DEPOL2: "depolarize2",
}

#: Kernel kinds, i.e. what a kernel call is passed besides its qubits.
GATE, RESET, MEASURE, NOISE = "gate", "reset", "measure", "noise"

#: ``final_bits`` effects other than a measurement column.
PREPARED, UNKNOWN = -1, -2

#: Most uniforms a frame map holds at once: it draws a circuit's rows
#: in runs of consecutive rows of at most this many elements.
DRAW_CAP = 1 << 20

#: Which frame components each error kind of a noise kernel flips, in
#: the kernels' variable order: the X bit for ``xerr``; X then Z for
#: ``depolarize1`` (kinds X, Y, Z); X_a, Z_a, X_b, Z_b for
#: ``depolarize2``.  The row count is the kernel's number of kinds.
_KIND_COMPONENTS = {
    "xerr": np.ones((1, 1), dtype=bool),
    "depolarize1": np.array([[1, 0], [1, 1], [0, 1]], dtype=bool),
    "depolarize2": TWO_QUBIT_ERROR_BITS,
}

_NO_COLUMNS = np.zeros(0, dtype=np.int64)
_ONE = np.uint64(1)


class Kernel(NamedTuple):
    """One frame-kernel call of a slot.

    ``method`` names the frame-array method; ``qubits`` holds one qubit
    array, or two for the two-qubit kernels; ``rows`` is the kernel's
    slice of the slot's uniform rows (``None`` for gates); ``columns``
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
class FrameMap:
    """A circuit structure's action on the frames: one GF(2)-linear map.

    The frame kernels only copy and XOR frame bits (Tables 3.4/3.5), so
    a circuit maps its *variables* -- the incoming frame bits, one
    gauge bit per reset or measurement row, and the noise bits (one
    per ``xerr`` row, two per ``depolarize1`` row, four per
    ``depolarize2`` row) -- linearly onto its *outputs*: the
    measurement flips, then every frame bit the circuit changes.
    Nothing here depends on the noise rate; :meth:`run` reads it.

    Attributes
    ----------
    num_qubits:
        Register width; frame bit ``x_q`` is source row ``q`` and
        ``z_q`` row ``num_qubits + q``.
    num_measurements:
        Measurement outputs, in circuit order, ahead of the frame ones.
    rows:
        Uniform rows the circuit draws, in the slot plans' order.
    gauge_rows:
        Row of each gauge variable, ascending; gauge ``g`` is source
        row ``2 * num_qubits + g``, and one zero row follows them.
    noise_rows:
        Bool per row: a noise channel (compared with the rate), or a
        gauge (compared with 1/2).
    kinds, caps:
        Per noise row, its number of error kinds (1, 3 or 15, as a
        float) and the largest kind index.
    effect_base:
        Per noise row, its first entry in the effect table: the effect
        of kind ``k`` is entry ``effect_base + k``.
    effect_starts, effect_outputs:
        The effect table in CSR form: the outputs one noise hit of a
        given row and kind flips (the map's transpose, XOR-ed over the
        kind's components).
    gather, starts:
        The dense part in ``np.bitwise_xor.reduceat`` form: output
        ``o`` XORs source rows ``gather[starts[o]:starts[o + 1]]``.
    frame_rows:
        The frame row each non-measurement output overwrites.
    """

    num_qubits: int
    num_measurements: int
    rows: int
    gauge_rows: np.ndarray
    noise_rows: np.ndarray
    kinds: np.ndarray
    caps: np.ndarray
    effect_base: np.ndarray
    effect_starts: np.ndarray
    effect_outputs: np.ndarray
    gather: np.ndarray
    starts: np.ndarray
    frame_rows: np.ndarray

    def run(
        self,
        rng: RandomSource,
        x: np.ndarray,
        z: np.ndarray,
        num_shots: int,
        probability: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Execute the circuit on packed frames ``x`` and ``z``.

        ``x`` and ``z`` are ``(num_qubits, words)`` ``uint64`` planes.
        Draws the circuit's uniforms from ``rng`` exactly like the
        slot kernels would, in runs of at most :data:`DRAW_CAP`
        elements, and returns ``(flips, x, z, hits)``: the packed
        measurement flips, the new planes and the number of noise hits.
        With :class:`~repro.sim.packedsim.ShotStreams`, each block of
        shots draws its ``(rows, block shots)`` uniforms from its own
        Generator, as it does alone.
        """
        nq, words = self.num_qubits, x.shape[1]
        gauges = len(self.gauge_rows)
        source = np.empty((2 * nq + gauges + 1, words), dtype=np.uint64)
        source[:nq] = x
        source[nq:2 * nq] = z
        source[-1] = 0
        rows, shots, kinds = self._draw(
            rng, source[2 * nq:-1], num_shots, probability
        )
        out = np.bitwise_xor.reduceat(source[self.gather], self.starts)
        if len(rows):
            effects = self.effect_base[rows] + kinds
            first = self.effect_starts[effects]
            counts = self.effect_starts[effects + 1] - first
            skip = np.cumsum(counts) - counts
            targets = self.effect_outputs[
                np.arange(counts.sum()) + np.repeat(first - skip, counts)
            ]
            shots = np.repeat(shots, counts)
            np.bitwise_xor.at(
                out,
                (targets, shots >> 6),
                np.left_shift(_ONE, (shots & 63).astype(np.uint64)),
            )
        source[self.frame_rows] = out[self.num_measurements:]
        flips = out[:self.num_measurements]
        return flips, source[:nq], source[nq:2 * nq], len(rows)

    def _draw(
        self,
        rng: RandomSource,
        gauge_words: np.ndarray,
        num_shots: int,
        probability: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw every row; pack the gauges into ``gauge_words`` and
        return the noise hits as ``(rows, shots, kinds)``.

        A hit is ``u < p`` and its kind the kernels' own arithmetic,
        ``min(int(u * (kinds / p)), kinds - 1)``, so each channel
        fires exactly where its kernel would have.  Adjacent blocks of
        one size draw into one ``(blocks, rows, size)`` array, each
        block into its own slab, and a hit's flat index gives its
        block, row and shot.
        """
        thresholds = np.where(self.noise_rows, probability, 0.0)[:, None]
        gauge_bits = np.empty((len(self.gauge_rows), num_shots), dtype=bool)
        found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for first, streams, size in ShotStreams.of(rng, num_shots).runs():
            width = len(streams) * size
            per_draw = max(1, DRAW_CAP // width)
            gauge = 0
            for start in range(0, self.rows, per_draw):
                stop = min(start + per_draw, self.rows)
                block = np.empty((len(streams), stop - start, size))
                for stream, slab in zip(streams, block):
                    stream.random(out=slab)
                end = int(np.searchsorted(self.gauge_rows, stop))
                if end > gauge:
                    bits = block[:, self.gauge_rows[gauge:end] - start] < 0.5
                    gauge_bits[gauge:end, first:first + width] = (
                        bits.transpose(1, 0, 2).reshape(end - gauge, width)
                    )
                    gauge = end
                flat = np.flatnonzero(block < thresholds[start:stop])
                line = flat // size  # slab * (stop - start) + row
                slab = line // (stop - start)
                found.append(
                    (
                        line - slab * (stop - start) + start,
                        flat - (line - slab) * size + first,
                        block.ravel()[flat],
                    )
                )
        if len(gauge_bits):
            gauge_words[:] = pack_bits(gauge_bits)
        if not found:
            return _NO_COLUMNS, _NO_COLUMNS, _NO_COLUMNS
        if len(found) == 1:
            rows, shots, u = found[0]
        else:
            rows, shots, u = (np.concatenate(part) for part in zip(*found))
        kinds = np.minimum(
            (u * (self.kinds[rows] / probability)).astype(np.int64),
            self.caps[rows],
        )
        return rows, shots, kinds


@dataclass(frozen=True)
class CircuitPlan:
    """A circuit structure compiled for the lockstep core.

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
    frame_map:
        The slots' action on the frames as one :class:`FrameMap`; the
        exact regime runs it in place of the slot kernels.
    max_qubit:
        The highest qubit the circuit addresses (``-1`` when none), so
        a core checks a cached structure against its register without
        walking the circuit.
    """

    slots: Tuple[SlotPlan, ...]
    reference_ops: Tuple[ReferenceOp, ...]
    measured: np.ndarray
    positions: Tuple[Tuple[int, int], ...]
    final_bits: Tuple[Tuple[int, int], ...]
    frame_map: FrameMap
    max_qubit: int


#: structure key -> compiled plan.  Insertion-ordered for FIFO eviction.
_PLAN_CACHE: "OrderedDict[tuple, CircuitPlan]" = OrderedDict()


def _plan_key(
    circuit: Circuit, noise: Optional[NoiseParameters], num_qubits: int
) -> Tuple[Optional[NoiseParameters], tuple]:
    """The noise model a circuit runs under, and its structure key."""
    if noise is None or noise.probability <= 0.0 or circuit.bypass:
        noise = None
    return noise, (
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


def cached_plan(
    circuit: Circuit, noise: Optional[NoiseParameters], num_qubits: int
) -> Optional[CircuitPlan]:
    """The cached plan of ``circuit``'s structure, or ``None``; never
    compiles."""
    return _PLAN_CACHE.get(_plan_key(circuit, noise, num_qubits)[1])


def circuit_plan(
    circuit: Circuit, noise: Optional[NoiseParameters], num_qubits: int
) -> CircuitPlan:
    """The cached plan of ``circuit``'s structure, compiled on a miss."""
    noise, key = _plan_key(circuit, noise, num_qubits)
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
    top = -1
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
            top = max([top, *qubits])
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
                    f"the lockstep batched core cannot execute non-Clifford "
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
        frame_map=_compile_frame_map(slots, num_qubits, len(measured)),
        max_qubit=top,
    )


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _conjugate(method: str, x: List[int], z: List[int], qubits) -> None:
    """One gate kernel on GF(2) forms (the FrameArray rules)."""
    if method == "h":
        for q in qubits[0]:
            x[q], z[q] = z[q], x[q]
    elif method == "s":
        for q in qubits[0]:
            z[q] ^= x[q]
    else:
        for a, b in zip(*qubits):
            if method == "cnot":
                x[b] ^= x[a]
                z[a] ^= z[b]
            elif method == "cz":
                z[a], z[b] = z[a] ^ x[b], z[b] ^ x[a]
            else:
                x[a], x[b] = x[b], x[a]
                z[a], z[b] = z[b], z[a]


def _compile_frame_map(
    slots: List[SlotPlan], num_qubits: int, num_measurements: int
) -> FrameMap:
    """Walk the slot kernels over GF(2) forms, then tabulate the map.

    A form is a Python int bitset over the variables: incoming ``x_q``
    and ``z_q`` are bits ``q`` and ``num_qubits + q``, gauge ``g`` is
    bit ``2 * num_qubits + g`` -- so a form's low bits are its source
    rows -- and the noise variables follow from bit
    ``2 * num_qubits + rows`` on.
    """
    nq = num_qubits
    rows = sum(slot.rows for slot in slots)
    noise_base = 2 * nq + rows
    x = [1 << q for q in range(nq)]
    z = [1 << (nq + q) for q in range(nq)]
    outputs = [0] * num_measurements
    gauge_rows: List[int] = []
    # (row, first noise variable, kind components) per noise row.
    noise: List[Tuple[int, int, np.ndarray]] = []
    variables = 0
    offset = 0
    for slot in slots:
        for kernel in slot.kernels:
            qubits = [column.tolist() for column in kernel.qubits]
            if kernel.kind == GATE:
                _conjugate(kernel.method, x, z, qubits)
                continue
            for i, q in enumerate(qubits[0]):
                row = offset + kernel.rows.start + i
                if kernel.kind == NOISE:
                    components = _KIND_COMPONENTS[kernel.method]
                    # The channel's frame bits in variable order:
                    # x_a, z_a, then x_b, z_b for a pair.
                    bits = [
                        (plane, target)
                        for target in [q] + [c[i] for c in qubits[1:]]
                        for plane in (x, z)
                    ]
                    for j in range(components.shape[1]):
                        plane, target = bits[j]
                        plane[target] ^= 1 << (noise_base + variables + j)
                    noise.append((row, variables, components))
                    variables += components.shape[1]
                    continue
                if kernel.kind == MEASURE:
                    outputs[kernel.columns[i]] = x[q]
                else:
                    x[q] = 0
                z[q] = 1 << (2 * nq + len(gauge_rows))
                gauge_rows.append(row)
        offset += slot.rows
    frame_rows = []
    for index, form in enumerate(x + z):
        if form != 1 << index:
            outputs.append(form)
            frame_rows.append(index)

    # Dense part: each output's source rows (the zero row if none).
    zero = 2 * nq + len(gauge_rows)
    dense = (1 << noise_base) - 1
    gather: List[int] = []
    starts = []
    reaches = [0] * variables  # the transpose: outputs per variable
    for index, form in enumerate(outputs):
        starts.append(len(gather))
        gather.extend(_bits(form & dense) or [zero])
        for variable in _bits(form >> noise_base):
            reaches[variable] |= 1 << index

    # Sparse part: the outputs one hit of each noise row and kind flips.
    noise_rows = np.zeros(rows, dtype=bool)
    kinds = np.zeros(rows)
    effect_base = np.zeros(rows, dtype=np.int64)
    effect_starts = [0]
    effect_outputs: List[int] = []
    for row, first, components in noise:
        noise_rows[row] = True
        kinds[row] = len(components)
        effect_base[row] = len(effect_starts) - 1
        for pattern in components:
            mask = 0
            for j in np.flatnonzero(pattern):
                mask ^= reaches[first + j]
            effect_outputs.extend(_bits(mask))
            effect_starts.append(len(effect_outputs))

    def index_array(values) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    return FrameMap(
        num_qubits=nq,
        num_measurements=num_measurements,
        rows=rows,
        gauge_rows=index_array(gauge_rows),
        noise_rows=noise_rows,
        kinds=kinds,
        caps=np.maximum(kinds.astype(np.int64) - 1, 0),
        effect_base=effect_base,
        effect_starts=index_array(effect_starts),
        effect_outputs=index_array(effect_outputs),
        gather=index_array(gather),
        starts=index_array(starts),
        frame_rows=index_array(frame_rows),
    )
