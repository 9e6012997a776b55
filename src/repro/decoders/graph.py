"""One seam around every graph decoder's defect solver.

The three graph algorithms (Blossom :mod:`~repro.decoders.mwpm`,
:mod:`~repro.decoders.unionfind` and :mod:`~repro.decoders.sparse`)
differ only in how they pair up defects.  Everything around that
solver lives here, once:

* :class:`GraphDecoder` decodes a history of noisy syndrome rounds of
  one check species (Dennis et al., J. Math. Phys. 43, 4452): a
  *detection event* fires at ``(round t, check c)`` when check ``c``
  changed since round ``t - 1`` (round 0 is compared against the
  all-zero codespace syndrome).  ``decode_batch`` over ``(shots,
  rounds, checks)`` histories is one XOR with the previous round,
  then one ``np.unique`` over the event rows packed to bytes, so the
  solver's work scales with the number of *distinct* histories, not
  with shots.  A single perfect round (``decode``) is the one-round
  history;
* :func:`graph_dense_lut` decodes every one of the ``2^checks``
  syndromes, as one-round histories, into the process-cached gather
  table the batched windowed decoder consumes (Surface-17).

A subclass supplies ``_solver(rounds)``: a callable that maps a
``(k, rounds * checks)`` bool array of distinct event rows (node
``t * checks + c`` of a row fires when that bit is set) to their
``(k, qubits)`` bool corrections.  ``decode_batch`` calls it once per
batch, ``decode_events`` with a single row.  Union-find decodes the
rows together; Blossom and sparse matching solve one row at a time
through :func:`row_by_row`, which hands each row's defect nodes over
in ascending order, the order :meth:`GraphDecoder.detection_events`
lists them in.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .batched import (
    MAX_DENSE_CHECKS,
    _cached_table,
    _check_digest,
    unpack_syndromes,
)

#: Maps ``(k, rounds * checks)`` bool event rows to ``(k, qubits)``
#: bool corrections.
Solver = Callable[[np.ndarray], np.ndarray]


def row_by_row(
    decode_row: Callable[[np.ndarray], np.ndarray], num_qubits: int
) -> Solver:
    """A :data:`Solver` that decodes one row at a time.

    ``decode_row`` maps a row's ascending defect node indices to its
    bool data-qubit correction.
    """

    def solve(rows: np.ndarray) -> np.ndarray:
        table = np.empty((rows.shape[0], num_qubits), dtype=bool)
        for index in range(rows.shape[0]):
            table[index] = decode_row(np.flatnonzero(rows[index]))
        return table

    return solve


class GraphDecoder:
    """Graph decoding of repeated syndrome rounds of one check species.

    Parameters
    ----------
    check_matrix:
        Binary ``k x n`` matrix of the checks (all of one basis).
    boundary_qubits:
        Data qubits through which error chains can leave the lattice
        (see :func:`repro.decoders.mwpm.boundary_qubits_for`).
    time_weight:
        Cost of one temporal step relative to one spatial step.  Equal
        data and measurement error rates give 1.0 (the default).
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
        time_weight: float = 1.0,
    ) -> None:
        self.check_matrix = np.asarray(check_matrix, dtype=np.uint8)
        self.boundary_qubits = [int(q) for q in boundary_qubits]
        self.num_checks, self.num_qubits = self.check_matrix.shape
        self.time_weight = float(time_weight)
        self._solvers: Dict[int, Solver] = {}

    def _solver(self, rounds: int) -> Solver:
        """The defect solver over ``rounds`` layers (built once)."""
        raise NotImplementedError

    def _solver_for(self, rounds: int) -> Solver:
        solver = self._solvers.get(rounds)
        if solver is None:
            solver = self._solvers[rounds] = self._solver(rounds)
        return solver

    def decode(self, syndrome: Sequence[int]) -> np.ndarray:
        """Correction bit-vector for one syndrome (one perfect round)."""
        history = np.asarray(syndrome, dtype=bool).reshape(1, 1, -1)
        return self.decode_batch(history)[0]

    def detection_events(
        self, syndrome_history: Sequence[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """``(round, check)`` pairs where the syndrome changed."""
        events = self._events(self._history(syndrome_history))[0]
        rounds_idx, checks_idx = np.nonzero(events)
        return [(int(t), int(c)) for t, c in zip(rounds_idx, checks_idx)]

    def decode_history(
        self, syndrome_history: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Correction bit-vector from one full syndrome history.

        The caller guarantees the last round is reliable (a final
        perfect round, or the transversal data readout whose
        recomputed syndrome serves as the last round).
        """
        return self.decode_batch(self._history(syndrome_history))[0]

    def decode_events(
        self,
        events: Sequence[Tuple[int, int]],
        rounds: Optional[int] = None,
    ) -> np.ndarray:
        """Decode explicit ``(round, check)`` detection events.

        ``rounds`` defaults to one past the latest event's round.
        """
        events = list(events)
        if rounds is None:
            rounds = max((t for t, _ in events), default=0) + 1
        defects = np.zeros(rounds * self.num_checks, dtype=bool)
        for t, check in events:
            defects[t * self.num_checks + check] ^= True
        return self._solver_for(rounds)(defects[np.newaxis])[0]

    def decode_batch(self, histories: np.ndarray) -> np.ndarray:
        """Corrections for ``(shots, rounds, checks)`` histories.

        Each distinct row of detection events is decoded once and
        gathered back to its shots.
        """
        histories = np.asarray(histories, dtype=bool)
        shots, rounds, checks = histories.shape
        if checks != self.num_checks:
            raise ValueError(
                f"expected {self.num_checks} checks per round, got "
                f"{checks}"
            )
        if shots == 0 or rounds == 0:
            return np.zeros((shots, self.num_qubits), dtype=bool)
        rows = self._events(histories).reshape(shots, rounds * checks)
        solve = self._solver_for(rounds)
        t = telemetry.ACTIVE
        name = type(self).__name__ + ".decode_batch"
        if t is None:
            return _dedupe_solve(rows, solve)[0]
        with t.span(
            "decoder.graph", name, shots=int(shots), rounds=int(rounds)
        ):
            corrections, unique = _dedupe_solve(rows, solve)
        t.count("decoder.graph", name, "shots", int(shots))
        t.count("decoder.graph", name, "unique_syndromes", unique)
        return corrections

    def _history(self, syndrome_history) -> np.ndarray:
        """One history as a ``(1, rounds, checks)`` bool array."""
        history = np.asarray(syndrome_history, dtype=bool)
        if history.size == 0:
            history = history.reshape(0, self.num_checks)
        return history[np.newaxis]

    @staticmethod
    def _events(histories: np.ndarray) -> np.ndarray:
        """XOR each round against its predecessor (round 0 vs zeros)."""
        events = histories.copy()
        events[:, 1:] ^= histories[:, :-1]
        return events


def _dedupe_solve(
    rows: np.ndarray, solve: Solver
) -> Tuple[np.ndarray, int]:
    """``(corrections, distinct rows)``: one solve of the distinct rows.

    Rows are compared as packed bytes, one opaque item per row, which
    sorts them in the order ``np.unique(rows, axis=0)`` would.
    """
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    table = solve(rows[first])
    return table[inverse.reshape(-1)], int(first.shape[0])


def graph_dense_lut(
    kind: str,
    decoder_class: Callable[..., GraphDecoder],
    check_matrix: np.ndarray,
    boundary_qubits: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense gather table filled by one graph decoder.

    Every one of the ``2^num_checks`` syndromes is decoded once, as a
    one-round history, by a ``decoder_class(check_matrix,
    boundary_qubits)``, process-cached under ``(kind, check digest,
    boundary)`` like the minimum-weight tables, so the batched window
    decoder consumes the algorithm as one gather per window.  All
    syndromes are reachable by construction.
    """
    check = np.ascontiguousarray(np.asarray(check_matrix, dtype=np.uint8))
    key = (kind, *_check_digest(check), tuple(boundary_qubits))

    def build() -> Tuple[np.ndarray, np.ndarray]:
        num_checks = check.shape[0]
        if num_checks > MAX_DENSE_CHECKS:
            raise ValueError(
                f"dense {kind} table infeasible beyond "
                f"{MAX_DENSE_CHECKS} checks; use the batch decoders"
            )
        decoder = decoder_class(check, boundary_qubits)
        size = 1 << num_checks
        table = decoder.decode_batch(
            unpack_syndromes(np.arange(size), num_checks)[:, np.newaxis]
        )
        return table, np.ones(size, dtype=bool)

    return _cached_table(key, build)
