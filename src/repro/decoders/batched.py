"""Array-native batched decoding: all shots through one gather table.

The batched Pauli-frame sampler made *sampling* vectorized, so the
batched LER experiment became decode-bound: every shot owned a
:class:`~repro.decoders.rule_based.WindowedLutDecoder` that re-ran the
brute-force minimum-weight table build, and every window decoded
shot-by-shot in Python.  This module decodes every shot of a window
as a handful of numpy operations while leaving the decoding
*principle* exactly Tomita–Svore (PRA 90, 062320), as the paper
prescribes:

* the dict-based LUT becomes a **dense gather table** — a
  ``(2^num_checks, num_qubits)`` bool array built by one vectorized
  enumeration (syndromes packed via a power-of-two dot product,
  first-hit-wins minimum-weight fill, identical tie-break order to the
  scalar builder);
* tables live behind a **process-level cache** keyed by the
  check-matrix digest, so any number of decoder instances — batched or
  scalar — share one build (``clear_lut_cache`` empties it);
* :class:`BatchedWindowedLutDecoder` is the one window driver of every
  batched experiment.  It consumes syndrome arrays of shape
  ``(shots, rounds, checks)`` and runs majority vote, syndrome
  packing, table gather and the windowed carry-state as pure numpy.
  The decoding algorithm only decides which two tables it gathers
  from: the minimum-weight tables here, or the Blossom, union-find and
  sparse-matching tables (:func:`repro.decoders.graph.graph_dense_lut`)
  the decoder registry hands it.

The lockstep core emits syndromes as ``uint64`` word planes; the
batched LER experiment unpacks them into the same ``(shots, rounds,
checks)`` bools once per window, so this module sees one syndrome
layout only.

Bit-for-bit equivalence with the per-shot
:class:`~repro.decoders.rule_based.WindowedLutDecoder` on identical
syndrome streams is a hard invariant (see
``tests/test_batched_decoder.py`` and the golden LER counts).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry

#: Dense tables hold ``2^num_checks`` rows; refuse to allocate
#: gigabyte-scale tables for check counts where brute-force LUT
#: decoding is meaningless anyway.
MAX_DENSE_CHECKS = 24

#: Process-level table cache: digest key -> (table, reachable-mask).
#: Cached arrays are frozen (non-writeable) so shared rows cannot be
#: corrupted through one consumer.
_LUT_CACHE: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}


# ----------------------------------------------------------------------
# Vectorized syndrome packing
# ----------------------------------------------------------------------
#: Frozen per-check-count weight / bit-index vectors.  The packers run
#: once per decoded window on the hot path, so the arrays are built at
#: most once per check count instead of per call.
_PACK_WEIGHTS: Dict[int, np.ndarray] = {}
_BIT_INDEX: Dict[int, np.ndarray] = {}


def _pack_weights(num_checks: int) -> np.ndarray:
    weights = _PACK_WEIGHTS.get(num_checks)
    if weights is None:
        weights = np.left_shift(
            np.int64(1), np.arange(num_checks, dtype=np.int64)
        )
        weights.setflags(write=False)
        _PACK_WEIGHTS[num_checks] = weights
    return weights


def _bit_index(num_checks: int) -> np.ndarray:
    index = _BIT_INDEX.get(num_checks)
    if index is None:
        index = np.arange(num_checks, dtype=np.int64)
        index.setflags(write=False)
        _BIT_INDEX[num_checks] = index
    return index


def pack_syndromes(bits: np.ndarray) -> np.ndarray:
    """Pack syndrome bit arrays along the last axis into integers.

    ``bits`` has shape ``(..., num_checks)``; the result has shape
    ``(...)`` with bit ``i`` of each packed value = check ``i``
    (little-endian, matching :func:`repro.decoders.lut.pack_syndrome`).
    """
    bits = np.asarray(bits, dtype=bool)
    return bits.astype(np.int64) @ _pack_weights(bits.shape[-1])


def unpack_syndromes(packed: np.ndarray, num_checks: int) -> np.ndarray:
    """Inverse of :func:`pack_syndromes`.

    ``packed`` has any shape; the result appends a trailing axis of
    length ``num_checks`` holding the bits.
    """
    packed = np.asarray(packed, dtype=np.int64)
    return (
        (packed[..., np.newaxis] >> _bit_index(num_checks)) & 1
    ).astype(bool)


# ----------------------------------------------------------------------
# Dense table construction
# ----------------------------------------------------------------------
def build_dense_lut(
    check_matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense minimum-weight decoding table of ``check_matrix``.

    Returns ``(table, reachable)``: ``table`` is a
    ``(2^num_checks, num_qubits)`` bool array mapping each packed
    syndrome to a minimum-weight error producing it, and ``reachable``
    flags the syndromes that any error pattern can produce (the rest
    of ``table`` stays all-zero).

    The fill order is identical to the scalar
    :func:`repro.decoders.lut.build_lut`: weights ascend, and within a
    weight the lexicographically first support wins (``np.unique``'s
    first-occurrence index over the packed syndromes of one weight
    batch).
    """
    check = np.ascontiguousarray(np.asarray(check_matrix, dtype=np.uint8))
    num_checks, num_qubits = check.shape
    if num_checks > MAX_DENSE_CHECKS:
        raise ValueError(
            f"dense LUT needs 2^{num_checks} rows; brute-force LUT "
            f"decoding is not meaningful beyond {MAX_DENSE_CHECKS} checks"
        )
    size = 1 << num_checks
    table = np.zeros((size, num_qubits), dtype=bool)
    reachable = np.zeros(size, dtype=bool)
    reachable[0] = True  # weight-0: the trivial syndrome, no error
    for weight in range(1, num_qubits + 1):
        if reachable.all():
            break
        supports = np.array(
            list(itertools.combinations(range(num_qubits), weight)),
            dtype=np.intp,
        )
        errors = np.zeros((len(supports), num_qubits), dtype=np.uint8)
        rows = np.repeat(np.arange(len(supports)), weight)
        errors[rows, supports.ravel()] = 1
        syndromes = (errors @ check.T) & 1
        packed = pack_syndromes(syndromes.astype(bool))
        # First occurrence per packed syndrome preserves the scalar
        # builder's lexicographic tie-break within one weight class.
        unique, first_index = np.unique(packed, return_index=True)
        fresh = ~reachable[unique]
        table[unique[fresh]] = errors[first_index[fresh]].astype(bool)
        reachable[unique[fresh]] = True
    return table, reachable


def _check_digest(check: np.ndarray) -> tuple:
    """Cache key of a check matrix: shape plus content digest."""
    return (
        check.shape,
        hashlib.sha256(check.tobytes()).hexdigest(),
    )


def dense_lut(check_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Process-cached :func:`build_dense_lut`.

    Every decoder instance built on the same check matrix — across
    experiments, shots and species — shares one frozen table; the
    build runs at most once per process (until
    :func:`clear_lut_cache`).
    """
    check = np.ascontiguousarray(np.asarray(check_matrix, dtype=np.uint8))
    key = ("lut", *_check_digest(check))
    return _cached_table(key, lambda: build_dense_lut(check))


def _cached_table(key, build) -> Tuple[np.ndarray, np.ndarray]:
    """Look ``key`` up in the process cache, building on first miss."""
    cached = _LUT_CACHE.get(key)
    t = telemetry.ACTIVE
    if cached is not None:
        if t is not None:
            t.count("decoder.batched", "lut_cache", "hits")
        return cached
    if t is None:
        table, reachable = build()
    else:
        t.count("decoder.batched", "lut_cache", "misses")
        with t.span("decoder.batched", "lut_cache.build", kind=key[0]):
            table, reachable = build()
    table.setflags(write=False)
    reachable.setflags(write=False)
    _LUT_CACHE[key] = (table, reachable)
    return table, reachable


def clear_lut_cache() -> int:
    """Drop every cached table; returns how many entries were held.

    The cache knob for benchmarks and memory-sensitive embeddings —
    normal code never needs it (tables are tiny for the codes where
    LUT decoding applies, and keys are content digests, so stale
    entries cannot occur).
    """
    held = len(_LUT_CACHE)
    _LUT_CACHE.clear()
    return held


def lut_cache_size() -> int:
    """Number of dense tables currently cached in this process."""
    return len(_LUT_CACHE)


# ----------------------------------------------------------------------
# Batched windowed decoding
# ----------------------------------------------------------------------
@dataclass
class BatchedWindowDecision:
    """Decoder output for one window across all shots.

    Attributes
    ----------
    x_corrections, z_corrections:
        Bool arrays of shape ``(shots, num_qubits)``: where each shot
        must apply X / Z gates.
    has_corrections:
        Bool mask of shape ``(shots,)``: shots commanding at least one
        correction gate.
    voted_x, voted_z:
        The majority-voted syndromes the decision decoded, shape
        ``(shots, num_checks)`` per species.
    """

    x_corrections: np.ndarray
    z_corrections: np.ndarray
    has_corrections: np.ndarray
    voted_x: np.ndarray
    voted_z: np.ndarray


class BatchedWindowedLutDecoder:
    """All-shots-at-once counterpart of ``WindowedLutDecoder``.

    Same protocol as the scalar decoder — three-round majority vote
    (Tomita–Svore rule), two-table decoding, corrected-frame
    carry-state — but every step is one numpy operation over the shot
    axis: the vote is a sum along the rounds axis, the table lookup
    is a gather ``table[packed]``, and the carry-state re-expression
    XORs in the same row of a table of the corrections' parities.

    Parameters
    ----------
    x_check_matrix, z_check_matrix:
        CSS check matrices (X-type rows detect Z errors, Z-type rows
        detect X errors).
    use_majority_vote:
        Ablation knob, as in the scalar decoder: with ``False`` only
        the last round of each window is decoded.
    tables:
        ``(x_table, z_table)``: the dense gather tables that decode
        the X-check and the Z-check syndromes, each of shape
        ``(2^checks, num_qubits)``.  Defaults to the minimum-weight
        :func:`dense_lut` tables; the decoder registry passes the
        tables of the selected algorithm.

    Syndrome arrays are passed as ``(shots, rounds, checks)`` (one
    array per species); decisions come back as
    :class:`BatchedWindowDecision` arrays.  Decisions are bit-identical
    to running one scalar decoder per shot on the same streams.
    """

    def __init__(
        self,
        x_check_matrix: np.ndarray,
        z_check_matrix: np.ndarray,
        use_majority_vote: bool = True,
        tables: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.x_check_matrix = np.asarray(x_check_matrix, dtype=np.uint8)
        self.z_check_matrix = np.asarray(z_check_matrix, dtype=np.uint8)
        self.use_majority_vote = bool(use_majority_vote)
        if tables is None:
            tables = (
                dense_lut(self.x_check_matrix)[0],
                dense_lut(self.z_check_matrix)[0],
            )
        # X-type syndromes select Z corrections and vice versa.
        self._z_error_table, self._x_error_table = tables
        # Per table row: the parities its correction flips on the other
        # species' checks, and whether it corrects anything at all.
        self._z_error_flips = _syndromes_of(
            self.x_check_matrix, self._z_error_table
        )
        self._x_error_flips = _syndromes_of(
            self.z_check_matrix, self._x_error_table
        )
        self._z_error_any = self._z_error_table.any(axis=1)
        self._x_error_any = self._x_error_table.any(axis=1)
        self._previous_x: np.ndarray | None = None
        self._previous_z: np.ndarray | None = None

    # ------------------------------------------------------------------
    def initialize(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """Consume the ``d`` initialization rounds for every shot.

        ``x_rounds`` / ``z_rounds`` have shape
        ``(shots, rounds, checks)``; the round count must be odd, as in
        the scalar decoder.
        """
        x_rounds = np.asarray(x_rounds, dtype=bool)
        z_rounds = np.asarray(z_rounds, dtype=bool)
        if x_rounds.shape[1] % 2 == 0:
            raise ValueError("initialization needs an odd number of rounds")
        return self._decide(
            _vote(x_rounds),
            _vote(z_rounds),
            x_rounds[:, -1],
            z_rounds[:, -1],
        )

    def decode_window(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """Decode one window of ESM rounds for every shot (Fig. 5.9)."""
        t = telemetry.ACTIVE
        if t is None:
            return self._decode_window(x_rounds, z_rounds)
        with t.span(
            "decoder.batched",
            type(self).__name__ + ".decode_window",
            shots=int(np.asarray(x_rounds).shape[0]),
            rounds=int(np.asarray(x_rounds).shape[1]),
        ):
            return self._decode_window(x_rounds, z_rounds)

    def _decode_window(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        if self._previous_x is None or self._previous_z is None:
            raise RuntimeError("decoder not initialized; call initialize()")
        x_rounds = np.asarray(x_rounds, dtype=bool)
        z_rounds = np.asarray(z_rounds, dtype=bool)
        if not self.use_majority_vote:
            return self._decide(
                x_rounds[:, -1],
                z_rounds[:, -1],
                x_rounds[:, -1],
                z_rounds[:, -1],
            )
        history_x = np.concatenate(
            [self._previous_x[:, np.newaxis, :], x_rounds], axis=1
        )
        history_z = np.concatenate(
            [self._previous_z[:, np.newaxis, :], z_rounds], axis=1
        )
        if history_x.shape[1] % 2 == 0:
            # Even total: drop the oldest round so the vote stays
            # well-defined (only non-default window sizes hit this).
            history_x = history_x[:, 1:]
            history_z = history_z[:, 1:]
        return self._decide(
            _vote(history_x),
            _vote(history_z),
            x_rounds[:, -1],
            z_rounds[:, -1],
        )

    # ------------------------------------------------------------------
    def _decide(
        self,
        voted_x: np.ndarray,
        voted_z: np.ndarray,
        last_x: np.ndarray,
        last_z: np.ndarray,
    ) -> BatchedWindowDecision:
        # LUT gather: X-type syndromes select Z corrections and vice
        # versa, exactly the TwoLutDecoder pairing.
        x_rows = pack_syndromes(voted_x)
        z_rows = pack_syndromes(voted_z)
        z_corrections = self._z_error_table[x_rows]
        x_corrections = self._x_error_table[z_rows]
        # Carry-state: the stored newest round is re-expressed in the
        # corrected frame — commanded Z corrections flip X-check
        # parities and commanded X corrections flip Z-check parities.
        self._previous_x = last_x ^ self._z_error_flips[x_rows]
        self._previous_z = last_z ^ self._x_error_flips[z_rows]
        has_corrections = (
            self._x_error_any[z_rows] | self._z_error_any[x_rows]
        )
        t = telemetry.ACTIVE
        if t is not None:
            name = type(self).__name__
            t.count("decoder.batched", name, "batch_decisions")
            t.count(
                "decoder.batched",
                name,
                "shots",
                int(voted_x.shape[0]),
            )
            t.count(
                "decoder.batched",
                name,
                "x_correction_weight",
                int(x_corrections.sum()),
            )
            t.count(
                "decoder.batched",
                name,
                "z_correction_weight",
                int(z_corrections.sum()),
            )
        return BatchedWindowDecision(
            x_corrections=x_corrections,
            z_corrections=z_corrections,
            has_corrections=has_corrections,
            voted_x=voted_x,
            voted_z=voted_z,
        )

    def reset(self) -> None:
        """Forget all history (before re-initializing the batch)."""
        self._previous_x = None
        self._previous_z = None


def _vote(rounds: np.ndarray) -> np.ndarray:
    """Per-bit majority along the rounds axis of ``(shots, R, k)``."""
    return rounds.sum(axis=1, dtype=np.int64) * 2 > rounds.shape[1]


def _syndromes_of(
    check_matrix: np.ndarray, errors: np.ndarray
) -> np.ndarray:
    """Batched ``H @ e mod 2``: ``(shots, n)`` errors to syndromes."""
    return (
        (errors.astype(np.uint8) @ check_matrix.T) & 1
    ).astype(bool)
