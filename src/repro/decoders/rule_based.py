"""Rule-based windowed LUT decoder (paper section 5.3.1, Fig. 5.9).

The LER experiments decode in *windows*: each window executes a fixed
number of ESM rounds and ends with a set of corrections.  The decoder
uses three rounds of syndromes per window -- the last round of the
previous window plus the rounds of the current one -- and majority
votes each syndrome bit across them, which suppresses single
measurement errors (the "rule" of the rule-based decoder of Tomita &
Svore, PRA 90, 062320).  The voted syndrome is then decoded with the
two-LUT minimum-weight tables.

Correction bookkeeping: corrections commanded at the end of a window
change the reference frame of subsequent syndromes, so the stored
previous round is re-expressed in the corrected frame by XOR-ing in
the syndrome of the commanded corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry
from .batched import BatchedWindowDecision
from .lut import TwoLutDecoder, syndrome_of


@dataclass
class SyndromeRound:
    """One round of ESM outcomes.

    Attributes
    ----------
    x_syndrome:
        Bits of the X-type stabilizer measurements (detect Z errors),
        1 = violated parity.
    z_syndrome:
        Bits of the Z-type stabilizer measurements (detect X errors).
    """

    x_syndrome: np.ndarray
    z_syndrome: np.ndarray

    @classmethod
    def from_bits(
        cls, x_bits: Sequence[int], z_bits: Sequence[int]
    ) -> "SyndromeRound":
        """Build from plain bit sequences."""
        return cls(
            np.asarray(x_bits, dtype=bool).copy(),
            np.asarray(z_bits, dtype=bool).copy(),
        )

    def is_trivial(self) -> bool:
        """Whether every parity check passed."""
        return not (self.x_syndrome.any() or self.z_syndrome.any())


@dataclass
class WindowDecision:
    """Decoder output for one window."""

    x_corrections: np.ndarray
    z_corrections: np.ndarray
    voted: SyndromeRound

    @property
    def has_corrections(self) -> bool:
        """Whether any correction gate was commanded."""
        return bool(
            self.x_corrections.any() or self.z_corrections.any()
        )


def majority_vote(rounds: Sequence[np.ndarray]) -> np.ndarray:
    """Per-bit majority across an odd number of syndrome rounds."""
    stacked = np.stack([np.asarray(r, dtype=np.uint8) for r in rounds])
    return stacked.sum(axis=0) * 2 > stacked.shape[0]


class WindowedLutDecoder:
    """Stateful window decoder over a :class:`TwoLutDecoder`.

    Parameters
    ----------
    x_check_matrix, z_check_matrix:
        CSS check matrices of the code (X-type rows detect Z errors,
        Z-type rows detect X errors).
    """

    def __init__(
        self,
        x_check_matrix: np.ndarray,
        z_check_matrix: np.ndarray,
        use_majority_vote: bool = True,
    ) -> None:
        self.x_check_matrix = np.asarray(x_check_matrix, dtype=np.uint8)
        self.z_check_matrix = np.asarray(z_check_matrix, dtype=np.uint8)
        self.two_lut = TwoLutDecoder(self.x_check_matrix, self.z_check_matrix)
        #: Ablation knob: with ``False`` only the last round of each
        #: window is decoded (no cross-round vote), exposing the value
        #: of the Tomita-Svore rule against measurement errors.
        self.use_majority_vote = bool(use_majority_vote)
        self._previous: Optional[SyndromeRound] = None

    # ------------------------------------------------------------------
    def initialize(self, rounds: Sequence[SyndromeRound]) -> WindowDecision:
        """Consume the ``d`` initialization rounds (section 2.6.1).

        The first round projects the random stabilizer gauge; majority
        voting across the rounds filters measurement errors, and the
        decoded corrections steer the state into the all ``+1``
        stabilizer eigenspace.
        """
        if len(rounds) % 2 == 0:
            raise ValueError("initialization needs an odd number of rounds")
        voted = SyndromeRound(
            majority_vote([r.x_syndrome for r in rounds]),
            majority_vote([r.z_syndrome for r in rounds]),
        )
        return self._decide(voted, rounds[-1])

    def decode_window(
        self, rounds: Sequence[SyndromeRound]
    ) -> WindowDecision:
        """Decode one window of ESM rounds (Fig. 5.9).

        The last round of the previous window (re-expressed in the
        corrected frame) participates in the vote, so a window of two
        rounds votes over three.
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._decode_window(rounds)
        with t.span(
            "decoder.rule_based",
            type(self).__name__ + ".decode_window",
            rounds=len(rounds),
        ):
            return self._decode_window(rounds)

    def _decode_window(
        self, rounds: Sequence[SyndromeRound]
    ) -> WindowDecision:
        if self._previous is None:
            raise RuntimeError("decoder not initialized; call initialize()")
        if not self.use_majority_vote:
            return self._decide(rounds[-1], rounds[-1])
        history: List[SyndromeRound] = [self._previous, *rounds]
        if len(history) % 2 == 0:
            # With an even total, drop the oldest round to keep the
            # vote well-defined (only happens for non-default windows).
            history = history[1:]
        voted = SyndromeRound(
            majority_vote([r.x_syndrome for r in history]),
            majority_vote([r.z_syndrome for r in history]),
        )
        return self._decide(voted, rounds[-1])

    # ------------------------------------------------------------------
    def _decode_syndromes(self, x_syndrome, z_syndrome):
        """Corrections for one voted syndrome (override to swap the
        inner decoder, e.g. for MWPM on larger codes)."""
        return self.two_lut.decode(x_syndrome, z_syndrome)

    def _decide(
        self, voted: SyndromeRound, last_round: SyndromeRound
    ) -> WindowDecision:
        x_corr, z_corr = self._decode_syndromes(
            voted.x_syndrome, voted.z_syndrome
        )
        # Store the newest round re-expressed in the corrected frame:
        # commanded X corrections flip Z-check parities and commanded
        # Z corrections flip X-check parities.
        self._previous = SyndromeRound(
            last_round.x_syndrome
            ^ syndrome_of(self.x_check_matrix, z_corr.astype(np.uint8)).astype(
                bool
            ),
            last_round.z_syndrome
            ^ syndrome_of(self.z_check_matrix, x_corr.astype(np.uint8)).astype(
                bool
            ),
        )
        t = telemetry.ACTIVE
        if t is not None:
            name = type(self).__name__
            t.count("decoder.rule_based", name, "decisions")
            t.count(
                "decoder.rule_based",
                name,
                "x_correction_weight",
                int(x_corr.sum()),
            )
            t.count(
                "decoder.rule_based",
                name,
                "z_correction_weight",
                int(z_corr.sum()),
            )
        return WindowDecision(x_corr, z_corr, voted)

    def reset(self) -> None:
        """Forget all history (before re-initializing a logical qubit)."""
        self._previous = None


class PerShotWindowedLutDecoder:
    """One scalar :class:`WindowedLutDecoder` per shot behind the calls
    of :class:`~repro.decoders.batched.BatchedWindowedLutDecoder`.

    The reference the batched decoder is gated against: syndromes come
    in as ``(shots, rounds, checks)`` bools per species, each shot's
    rounds go to its own scalar decoder, and the decisions go back
    stacked into one
    :class:`~repro.decoders.batched.BatchedWindowDecision`.  The shot
    count is read from the initialization rounds.
    """

    def __init__(
        self,
        x_check_matrix: np.ndarray,
        z_check_matrix: np.ndarray,
        use_majority_vote: bool = True,
    ) -> None:
        self._new_decoder = partial(
            WindowedLutDecoder,
            x_check_matrix,
            z_check_matrix,
            use_majority_vote=use_majority_vote,
        )
        self._decoders: List[WindowedLutDecoder] = []

    def initialize(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """One fresh scalar decoder per shot consumes its init rounds."""
        self._decoders = [self._new_decoder() for _ in x_rounds]
        return self._per_shot(
            WindowedLutDecoder.initialize, x_rounds, z_rounds
        )

    def decode_window(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """Each shot's scalar decoder decodes its window."""
        if not self._decoders:
            raise RuntimeError("decoder not initialized; call initialize()")
        return self._per_shot(
            WindowedLutDecoder.decode_window, x_rounds, z_rounds
        )

    def reset(self) -> None:
        """Forget every shot's decoder."""
        self._decoders = []

    def _per_shot(
        self, method, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """``method`` of each shot's decoder on that shot's rounds, the
        decisions stacked along the shot axis."""
        decisions = [
            method(
                decoder,
                [SyndromeRound(x, z) for x, z in zip(x_shot, z_shot)],
            )
            for decoder, x_shot, z_shot in zip(
                self._decoders, x_rounds, z_rounds
            )
        ]
        return BatchedWindowDecision(
            x_corrections=np.array(
                [d.x_corrections for d in decisions], dtype=bool
            ),
            z_corrections=np.array(
                [d.z_corrections for d in decisions], dtype=bool
            ),
            has_corrections=np.array(
                [d.has_corrections for d in decisions], dtype=bool
            ),
            voted_x=np.array([d.voted.x_syndrome for d in decisions]),
            voted_z=np.array([d.voted.z_syndrome for d in decisions]),
        )


class WindowedMatchingDecoder(WindowedLutDecoder):
    """Windowed decoding with MWPM instead of lookup tables.

    Same three-round majority-vote rule and correction-frame
    bookkeeping as :class:`WindowedLutDecoder`, but the voted syndrome
    is decoded by Blossom matching -- the scalable option the paper
    names for larger-distance codes (sections 2.6.1, 3.5.1, ch. 6).

    Parameters
    ----------
    code:
        A :class:`repro.codes.rotated.layout.RotatedSurfaceCode`.
    use_majority_vote:
        Same ablation knob as the LUT variant.
    """

    def __init__(self, code, use_majority_vote: bool = True):
        from .mwpm import SpaceTimeMatchingDecoder, boundary_qubits_for

        # Skip the (exponential) LUT construction of the parent by
        # initialising state directly.
        self.x_check_matrix = np.asarray(
            code.x_check_matrix, dtype=np.uint8
        )
        self.z_check_matrix = np.asarray(
            code.z_check_matrix, dtype=np.uint8
        )
        self.use_majority_vote = bool(use_majority_vote)
        self._previous = None
        self._x_error_decoder = SpaceTimeMatchingDecoder(
            self.z_check_matrix, boundary_qubits_for(code, "z")
        )
        self._z_error_decoder = SpaceTimeMatchingDecoder(
            self.x_check_matrix, boundary_qubits_for(code, "x")
        )

    def _decode_syndromes(self, x_syndrome, z_syndrome):
        x_corr = self._x_error_decoder.decode(z_syndrome)
        z_corr = self._z_error_decoder.decode(x_syndrome)
        return x_corr, z_corr
