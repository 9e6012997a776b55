"""Process-level cache of symbolic reference traces.

The batched engines split every experiment into a shared *noiseless
reference trajectory* on a stabilizer tableau plus per-shot Pauli error
frames; a measurement's per-shot outcomes are
``reference_bit XOR frame_flips``.  Per-shot feedback never touches the
reference: decoder corrections are frame XORs and shot-masked noise
injection is frame-only.  So the reference is a function of two inputs
only -- the non-Pauli circuit stream and the reference RNG stream.

Following SymPhase (Fang & Ying) and Stim's one-reference-per-circuit
rule (Gidney), the stream and the randomness are separated here.  A
:class:`SymbolicTableau` runs the Aaronson--Gottesman algorithm with
exactly :class:`~repro.sim.stabilizer.StabilizerSimulator`'s X/Z
updates, but each row sign is a GF(2) *affine form* over the random
measurement outcomes instead of a bit:

* a random measurement (or the measurement inside a reset) introduces
  a fresh outcome variable ``r_k``;
* ``rowsum``'s ``(total % 4) // 2`` becomes
  ``r_h XOR r_i XOR [g mod 4 >= 2]``, the same bit for every value of
  the variables;
* a reset's conditional ``X`` adds the outcome's form to every row
  with a ``Z`` component on the qubit.

Which measurements are random, and every deterministic outcome's form,
depend on the circuit structure alone.  The recorded
:class:`ReferenceTrace` is therefore keyed on structure only (no seed)
and is valid for every seed: replay draws ``rng.integers(2)`` once per
fresh outcome, in recording order -- exactly the draws the live
tableau makes -- and evaluates each measurement as
``constant XOR parity(mask & drawn)``.  The result is bit-identical to
the live tableau for every seed, so two arms, two shards and two jobs
of one protocol share one entry, whatever their seeds.

The scalar per-shot loop is not cached: there, decoder corrections are
real tableau gates, so its stream depends on the decoded syndromes.

Entries are small (a 200-window SC17 LER run records 5,025
measurements over 4 random outcomes, ~65 kB) and the cache is bounded:
beyond :data:`REFERENCE_CACHE_CAPACITY` entries the oldest are evicted
FIFO.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from .stabilizer import StabilizerSimulator, _g_vector

#: FIFO capacity of the process-level trace cache.  The bound keeps a
#: long-lived serve worker that sees many distinct protocol structures
#: memory-flat.
REFERENCE_CACHE_CAPACITY = 1024

#: One reference operation: canonical gate name and qubits.
ReferenceOp = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True)
class ReferenceTrace:
    """One structure's reference measurements as affine forms.

    Attributes
    ----------
    num_outcomes:
        Random outcomes (``rng.integers(2)`` draws) of the run, in draw
        order; resets' random outcomes included.
    constants:
        Bool ``(M,)``: the constant term of each measurement's form.
    forms:
        Bool ``(M, num_outcomes)``: which outcomes each measurement's
        form XORs in.
    qubits:
        The measured qubit of each measurement, checked on replay.
    """

    num_outcomes: int
    constants: np.ndarray
    forms: np.ndarray
    qubits: np.ndarray

    def evaluate(self, rng: np.random.Generator) -> np.ndarray:
        """Every measurement's reference bit under ``rng``'s draws."""
        return self.evaluate_shards([rng])[:, 0]

    def evaluate_shards(
        self, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Bools ``(M, len(rngs))``: column ``j`` is :meth:`evaluate`
        under ``rngs[j]``."""
        return _evaluate(
            self.constants, self.forms, _draw_outcomes(rngs, self.num_outcomes)
        )


def _draw_outcomes(
    rngs: Sequence[np.random.Generator], count: int
) -> np.ndarray:
    """Int ``(count, len(rngs))``: each Generator's next ``count``
    ``rng.integers(2)`` draws, the live tableau's draws."""
    return np.array(
        [[int(rng.integers(2)) for rng in rngs] for _ in range(count)],
        dtype=np.int64,
    ).reshape(count, len(rngs))


def _evaluate(
    constants: np.ndarray, forms: np.ndarray, drawn: np.ndarray
) -> np.ndarray:
    """Bools ``(M, shards)``: each form's value per column of
    ``drawn`` outcomes."""
    parity = (forms.astype(np.int64) @ drawn) & 1
    return constants[:, None] ^ parity.astype(bool)


def _forms(masks: Sequence[int], count: int) -> np.ndarray:
    """Outcome masks (``int`` bitsets) as bools ``(len(masks), count)``."""
    width = (count + 7) // 8
    packed = np.frombuffer(
        b"".join(mask.to_bytes(width, "little") for mask in masks),
        dtype=np.uint8,
    ).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, bitorder="little")[
        :, :count
    ].astype(bool)


#: key -> frozen trace.  Insertion-ordered for FIFO eviction.
_REFERENCE_CACHE: "OrderedDict[str, ReferenceTrace]" = OrderedDict()


def reference_trace_key(structure: Tuple) -> str:
    """Digest identifying one reference trace.

    ``structure`` is a JSON-safe tuple pinning everything that shapes
    the non-Pauli circuit stream (protocol name, error kind, window
    geometry, ...).  Seeds do not enter the key: a trace holds every
    seed's reference at once.
    """
    payload = json.dumps(list(structure), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def lookup_reference_trace(key: str) -> Optional[ReferenceTrace]:
    """The cached trace of ``key``, or ``None`` on a miss.

    Emits ``sim.refcache / reference_cache`` hit/miss counters, the
    same observability contract as the dense-LUT cache.
    """
    trace = _REFERENCE_CACHE.get(key)
    t = telemetry.ACTIVE
    if t is not None:
        t.count(
            "sim.refcache",
            "reference_cache",
            "hits" if trace is not None else "misses",
        )
    return trace


def store_reference_trace(key: str, trace: ReferenceTrace) -> ReferenceTrace:
    """Freeze and cache a recorded trace; returns the stored trace."""
    for array in (trace.constants, trace.forms, trace.qubits):
        array.setflags(write=False)
    _REFERENCE_CACHE[key] = trace
    _REFERENCE_CACHE.move_to_end(key)
    while len(_REFERENCE_CACHE) > REFERENCE_CACHE_CAPACITY:
        _REFERENCE_CACHE.popitem(last=False)
    return trace


def clear_reference_cache() -> int:
    """Drop every cached trace; returns how many entries were held."""
    held = len(_REFERENCE_CACHE)
    _REFERENCE_CACHE.clear()
    return held


def reference_cache_size() -> int:
    """Number of reference traces currently cached in this process."""
    return len(_REFERENCE_CACHE)


class SymbolicTableau:
    """An AG tableau whose row signs are affine forms over outcomes.

    The X/Z bit matrices and the constant sign bits live in a plain
    :class:`StabilizerSimulator`, whose gate methods advance them
    unchanged; this class adds one variable mask per row (a Python
    ``int``, bit ``k`` = outcome ``r_k``) and re-implements the three
    places where signs combine: ``rowsum``, measurement and reset.
    It never draws a random number.
    """

    def __init__(self) -> None:
        # The wrapped tableau's generator is never drawn from.
        self.tableau = StabilizerSimulator(0, seed=0)
        self.masks: List[int] = [0]  # the scratch row
        self.num_outcomes = 0

    def add_qubits(self, count: int) -> None:
        """Extend the register, keeping each row's variable mask."""
        if count <= 0:
            return
        old_n = self.tableau.num_qubits
        old = self.masks
        self.tableau.add_qubits(count)
        n = self.tableau.num_qubits
        self.masks = [0] * (2 * n + 1)
        self.masks[:old_n] = old[:old_n]
        self.masks[n : n + old_n] = old[old_n : 2 * old_n]

    def apply_gate(self, name: str, qubits: Sequence[int]) -> None:
        """A Clifford or Pauli gate: constant sign updates only."""
        self.tableau.apply_gate(name, qubits)

    def _rowsum(self, h: int, i: int) -> None:
        t = self.tableau
        g = _g_vector(t.x[i], t.z[i], t.x[h], t.z[h])
        t.r[h] = t.r[h] ^ t.r[i] ^ (int(g.sum()) % 4 >= 2)
        self.masks[h] ^= self.masks[i]
        t.x[h] ^= t.x[i]
        t.z[h] ^= t.z[i]

    def measure(self, qubit: int) -> Tuple[bool, int]:
        """``(constant, mask)`` of a Z measurement's outcome.

        A random outcome gets a fresh variable: ``(False, 1 << k)``.
        """
        t = self.tableau
        n = t.num_qubits
        candidates = np.flatnonzero(t.x[n : 2 * n, qubit])
        if candidates.size:
            p = int(candidates[0]) + n
            for row in np.flatnonzero(t.x[: 2 * n, qubit]):
                if row != p:
                    self._rowsum(int(row), p)
            t.x[p - n] = t.x[p]
            t.z[p - n] = t.z[p]
            t.r[p - n] = t.r[p]
            self.masks[p - n] = self.masks[p]
            variable = 1 << self.num_outcomes
            self.num_outcomes += 1
            t.x[p] = False
            t.z[p] = False
            t.z[p, qubit] = True
            t.r[p] = False
            self.masks[p] = variable
            return False, variable
        scratch = 2 * n
        t.x[scratch] = False
        t.z[scratch] = False
        t.r[scratch] = False
        self.masks[scratch] = 0
        for row in np.flatnonzero(t.x[:n, qubit]):
            self._rowsum(scratch, int(row) + n)
        return bool(t.r[scratch]), self.masks[scratch]

    def reset(self, qubit: int) -> None:
        """Measure, then ``X`` conditioned on the outcome's form."""
        constant, mask = self.measure(qubit)
        t = self.tableau
        rows = t.z[:, qubit]
        if constant:
            t.r ^= rows
        if mask:
            for row in np.flatnonzero(rows):
                self.masks[row] ^= mask


class ReferenceTableau:
    """The lockstep core's reference simulator: record or replay.

    * **record** (no cached trace for ``key``, or ``key=None``) -- runs
      a :class:`SymbolicTableau`, draws one ``rng.integers(2)`` per
      fresh outcome at the point where it appears, and returns
      concrete bits; :meth:`commit` stores the trace under the key;
    * **replay** (cache hit) -- no tableau at all: the trace is
      evaluated once under ``rng`` and :meth:`run` hands out the next
      bits.

    Both modes return what a live :class:`StabilizerSimulator` driven
    by ``rng`` returns.  ``rng`` may also be a list, one Generator per
    shard of a fused lockstep run: one recording (or one replay) then
    serves every shard, each shard draws its own fresh outcomes where
    its lone run draws them, and :meth:`run` returns one column per
    shard.  A replay that runs out of recorded measurements, or
    measures a different qubit than the recording, raises
    ``RuntimeError``: two different circuit streams hashed to one key,
    a caller bug the cache must never paper over.
    """

    def __init__(
        self,
        rng: Union[np.random.Generator, Sequence[np.random.Generator]],
        key: Optional[str] = None,
    ) -> None:
        self.key = key
        self._single = isinstance(rng, np.random.Generator)
        self._rngs = [rng] if self._single else list(rng)
        self._cursor = 0
        trace = lookup_reference_trace(key) if key is not None else None
        self._tableau: Optional[SymbolicTableau] = None
        if trace is None:
            self._tableau = SymbolicTableau()
            # Row k: every shard's drawn value of outcome k.
            self._drawn: List[List[int]] = []
            self._constants: List[bool] = []
            self._masks: List[int] = []
            self._qubits: List[int] = []
            self._stored = False
        else:
            self._bits = trace.evaluate_shards(self._rngs)
            self._trace_qubits = trace.qubits

    @property
    def replaying(self) -> bool:
        """Whether this run serves bits from a cached trace."""
        return self._tableau is None

    def add_qubits(self, size: int) -> None:
        if self._tableau is not None:
            self._tableau.add_qubits(size)

    def run(
        self, operations: Sequence[ReferenceOp], measured: np.ndarray
    ) -> np.ndarray:
        """Reference bits of one circuit's measurements, in order.

        ``operations`` is the circuit's reference stream (every
        operation but identities, in slot order); ``measured`` holds the
        qubits of its measurements.  Bools ``(M,)``, or ``(M, shards)``
        when the tableau was built with one Generator per shard.
        """
        t = telemetry.ACTIVE
        if t is None:
            bits = self._run(operations, measured)
        else:
            with t.span(
                "sim.stabilizer",
                "reference.replay" if self.replaying else "reference.record",
                measurements=len(measured),
            ):
                bits = self._run(operations, measured)
        return bits[:, 0] if self._single else bits

    def _run(
        self, operations: Sequence[ReferenceOp], measured: np.ndarray
    ) -> np.ndarray:
        if self._tableau is None:
            start, stop = self._cursor, self._cursor + len(measured)
            if stop > len(self._bits) or not np.array_equal(
                self._trace_qubits[start:stop], measured
            ):
                raise RuntimeError(
                    "reference trace exhausted or diverged: the executed "
                    "circuit stream does not match the cached run under "
                    f"key {self.key!r}"
                )
            self._cursor = stop
            return self._bits[start:stop]
        tableau = self._tableau
        first = len(self._masks)
        for name, qubits in operations:
            if name == "prep_z":
                tableau.reset(qubits[0])
                self._draw_fresh(tableau)
            elif name == "measure":
                constant, mask = tableau.measure(qubits[0])
                self._draw_fresh(tableau)
                self._constants.append(constant)
                self._masks.append(mask)
                self._qubits.append(qubits[0])
            else:
                tableau.apply_gate(name, qubits)
        # A form only names outcomes drawn before its measurement, so
        # evaluating after the circuit gives the bits the live run saw.
        return _evaluate(
            np.array(self._constants[first:], dtype=bool),
            _forms(self._masks[first:], len(self._drawn)),
            np.array(self._drawn, dtype=np.int64).reshape(
                len(self._drawn), len(self._rngs)
            ),
        )

    def _draw_fresh(self, tableau: SymbolicTableau) -> None:
        """Each shard's ``rng.integers(2)`` for an outcome the last
        measurement made fresh, drawn where the live run draws it."""
        if tableau.num_outcomes > len(self._drawn):
            self._drawn.append([int(rng.integers(2)) for rng in self._rngs])

    def commit(self) -> None:
        """Store a freshly recorded trace under the key.

        Call once, after the experiment's full circuit stream has
        executed.  No-op without a key and after replay; re-storing on
        a racing double-record is harmless because traces are pure
        functions of the structure.
        """
        if self.key is None or self._tableau is None or self._stored:
            return
        count = self._tableau.num_outcomes
        store_reference_trace(
            self.key,
            ReferenceTrace(
                num_outcomes=count,
                constants=np.array(self._constants, dtype=bool),
                forms=_forms(self._masks, count),
                qubits=np.array(self._qubits, dtype=np.int64),
            ),
        )
        self._stored = True
