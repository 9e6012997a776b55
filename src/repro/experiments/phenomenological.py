"""Phenomenological-noise LER for distance-d surface codes.

Extends the future-work programme of the paper's ch. 6 with the
standard phenomenological model: per syndrome round every data qubit
suffers an X error with probability ``p`` *and* every syndrome bit is
misread with probability ``q`` (``q = p`` by default).  Decoding uses
a space-time decoder over ``d`` noisy rounds plus one reliable round
(the transversal readout round).

Trials are drawn, turned into syndrome histories and scored as arrays
(:meth:`PhenomenologicalSimulator.sample_histories`).  The uniforms
come in the order one trial after another would draw them (per round,
the data qubits' before the syndrome bits'), so a seed gives the same
trials however they are blocked, and all of a point's histories
decode in one ``decode_batch``.

This is the realistic middle ground between the circuit-level QPDO
simulation of SC17 (exact but slow, 17 qubits) and the code-capacity
Monte Carlo (fast but measurement-error-blind, any distance): it
exhibits the ~3% phenomenological threshold and genuine distance
scaling with noisy measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codes.rotated.layout import RotatedSurfaceCode
from ..decoders.mwpm import boundary_qubits_for

#: Most uniforms :meth:`PhenomenologicalSimulator.sample_histories`
#: holds at once: it draws trials in blocks of at most this many.
DRAW_CAP = 1 << 16


@dataclass
class PhenomenologicalResult:
    """Monte-Carlo outcome for one (distance, p, q) point."""

    distance: int
    data_error_rate: float
    measurement_error_rate: float
    trials: int
    logical_errors: int

    @property
    def logical_error_rate(self) -> float:
        """Estimated logical X error rate per decoding cycle."""
        if self.trials == 0:
            return 0.0
        return self.logical_errors / self.trials


class PhenomenologicalSimulator:
    """Monte-Carlo engine: d noisy rounds + 1 reliable round per trial.

    ``decoder`` names a space-time-capable registry decoder
    (:mod:`repro.decoders.registry`): ``"mwpm"`` (default, Blossom),
    ``"unionfind"`` or ``"sparse-mwpm"``.  All of a Monte-Carlo
    batch's histories are decoded at once (with identical-syndrome
    dedupe) -- this is what makes d >= 15 sweeps tractable -- and a
    given ``(seed, decoder)`` pair reproduces bit-for-bit.
    """

    def __init__(self, distance: int, decoder: str = "mwpm"):
        from ..decoders.registry import get_decoder

        self.code = RotatedSurfaceCode(distance)
        spec = get_decoder(decoder)
        self.decoder_name = spec.name
        self.decoder = spec.build_spacetime(
            self.code.z_check_matrix, boundary_qubits_for(self.code, "z")
        )
        self._z_logical_mask = np.zeros(self.code.num_data, dtype=bool)
        for qubit in self.code.logical_z_support():
            self._z_logical_mask[qubit] = True
        # Each Z check's data qubits, padded with the index past the
        # last data qubit (a column the sampler keeps clear).
        z_matrix = self.code.z_check_matrix
        weight = int(z_matrix.sum(axis=1).max())
        self._check_support = np.full(
            (z_matrix.shape[0], weight), self.code.num_data, dtype=np.int64
        )
        for check, row in enumerate(z_matrix):
            support = np.flatnonzero(row)
            self._check_support[check, : support.size] = support

    def sample_histories(
        self,
        data_error_rate: float,
        measurement_error_rate: float,
        trials: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(histories, errors)`` of ``trials`` seeded trials.

        ``histories`` is ``(trials, d + 1, checks)``: ``d`` noisy
        rounds, then the reliable transversal-readout round, which
        re-derives exact parities from the measured data bits.
        ``errors`` is each trial's ``(trials, num_data)`` cumulative X
        error.  Per trial and round, the data uniforms are drawn
        before the measurement uniforms, in blocks of at most
        :data:`DRAW_CAP` uniforms; a generator fills a block exactly
        as it would make those draws one after the other.
        """
        rounds = self.code.distance
        num_data = self.code.num_data
        num_checks = self._check_support.shape[0]
        histories = np.empty((trials, rounds + 1, num_checks), dtype=bool)
        errors = np.empty((trials, num_data), dtype=bool)
        block = max(1, DRAW_CAP // (rounds * (num_data + num_checks)))
        for start in range(0, trials, block):
            stop = min(trials, start + block)
            draws = rng.random((stop - start, rounds, num_data + num_checks))
            # One always-clear column past the data qubits pads the
            # lighter checks' supports.
            cumulative = np.zeros(
                (stop - start, rounds, num_data + 1), dtype=bool
            )
            np.less(
                draws[:, :, :num_data],
                data_error_rate,
                out=cumulative[:, :, :num_data],
            )
            np.logical_xor.accumulate(cumulative, axis=1, out=cumulative)
            syndromes = cumulative[:, :, self._check_support[:, 0]]
            for column in self._check_support.T[1:]:
                syndromes ^= cumulative[:, :, column]
            histories[start:stop, :rounds] = syndromes ^ (
                draws[:, :, num_data:] < measurement_error_rate
            )
            histories[start:stop, rounds] = syndromes[:, -1]
            errors[start:stop] = cumulative[:, -1, :num_data]
        return histories, errors

    def logical_failures(
        self, errors: np.ndarray, corrections: np.ndarray
    ) -> np.ndarray:
        """Per trial: does the residual error flip logical Z?"""
        residual = (errors ^ corrections) & self._z_logical_mask
        return np.count_nonzero(residual, axis=1) % 2 == 1

    def estimate_ler(
        self,
        data_error_rate: float,
        measurement_error_rate: Optional[float] = None,
        trials: int = 500,
        rng: Optional[np.random.Generator] = None,
    ) -> PhenomenologicalResult:
        """Monte-Carlo LER estimate at one noise point.

        Deterministic by default: with ``rng`` omitted a fixed-seed
        generator is used, so repeated calls reproduce bit-for-bit.
        Sampling, decoding and scoring each run over all trials as
        arrays.
        """
        if measurement_error_rate is None:
            measurement_error_rate = data_error_rate
        if rng is None:
            rng = np.random.default_rng(0)
        histories, errors = self.sample_histories(
            data_error_rate, measurement_error_rate, trials, rng
        )
        corrections = self.decoder.decode_batch(histories)
        return PhenomenologicalResult(
            distance=self.code.distance,
            data_error_rate=data_error_rate,
            measurement_error_rate=measurement_error_rate,
            trials=trials,
            logical_errors=int(
                np.count_nonzero(self.logical_failures(errors, corrections))
            ),
        )


def run_phenomenological_scaling(
    distances: Sequence[int] = (3, 5),
    per_values: Sequence[float] = (0.01, 0.02, 0.04),
    trials: int = 400,
    seed: int = 0,
    decoder: str = "mwpm",
) -> Dict[int, List[PhenomenologicalResult]]:
    """LER-vs-p curves under phenomenological noise (q = p)."""
    results: Dict[int, List[PhenomenologicalResult]] = {}
    for distance in distances:
        simulator = PhenomenologicalSimulator(distance, decoder=decoder)
        rng = np.random.default_rng(seed + 1000 * distance)
        results[distance] = [
            simulator.estimate_ler(p, trials=trials, rng=rng)
            for p in per_values
        ]
    return results


def format_phenomenological_table(
    results: Dict[int, List[PhenomenologicalResult]]
) -> str:
    """Render the scaling results as a text table."""
    distances = sorted(results)
    per_values = [r.data_error_rate for r in results[distances[0]]]
    lines = [
        "p = q      "
        + "  ".join(f"LER(d={d})" for d in distances)
    ]
    for index, p in enumerate(per_values):
        row = f"{p:8.4f}   " + "  ".join(
            f"{results[d][index].logical_error_rate:8.5f}"
            for d in distances
        )
        lines.append(row)
    return "\n".join(lines)
