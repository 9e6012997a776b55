"""Dedicated unit tests for the space-time MWPM decoder.

Exercises :class:`repro.decoders.mwpm.SpaceTimeMatchingDecoder`
directly (previously only covered indirectly through the
phenomenological experiment): detection event extraction, temporal vs
spatial matching, boundary termination and the ``time_weight`` knob,
on a rotated d=3 surface code.
"""

import numpy as np
import pytest

from repro.codes.rotated.layout import RotatedSurfaceCode
from repro.decoders.mwpm import (
    SpaceTimeMatchingDecoder,
    boundary_qubits_for,
)


@pytest.fixture(scope="module")
def code():
    return RotatedSurfaceCode(3)


@pytest.fixture(scope="module")
def decoder(code):
    return SpaceTimeMatchingDecoder(
        code.z_check_matrix, boundary_qubits_for(code, "z")
    )


def syndrome_of(code, error: np.ndarray) -> np.ndarray:
    return (code.z_check_matrix @ error.astype(np.uint8)) % 2


def history_for_persistent_error(code, error, rounds=3):
    """Noiseless history: the error appears in round 0 and persists."""
    syndrome = syndrome_of(code, error)
    return [syndrome.copy() for _ in range(rounds)]


def assert_corrects(code, decoder, error, history):
    """Decoded correction must clear the syndrome without a logical."""
    correction = decoder.decode_history(history)
    residual = error.astype(bool) ^ correction
    assert not syndrome_of(code, residual).any()
    logical = np.zeros(code.num_data, dtype=bool)
    for qubit in code.logical_z_support():
        logical[qubit] = True
    assert np.count_nonzero(residual & logical) % 2 == 0


class TestDetectionEvents:
    def test_no_events_on_clean_history(self, decoder):
        clean = [np.zeros(decoder.num_checks, dtype=np.uint8)] * 4
        assert decoder.detection_events(clean) == []

    def test_persistent_error_fires_once(self, code, decoder):
        """A data error triggers events only in the round it appears."""
        error = np.zeros(code.num_data, dtype=np.uint8)
        error[code.data_index(1, 1)] = 1
        history = history_for_persistent_error(code, error, rounds=4)
        events = decoder.detection_events(history)
        touched = np.flatnonzero(syndrome_of(code, error))
        assert sorted(events) == [(0, int(c)) for c in touched]

    def test_round_zero_compared_against_codespace(self, code, decoder):
        """Round 0 is measured against the all-zero reference."""
        error = np.zeros(code.num_data, dtype=np.uint8)
        error[code.data_index(0, 0)] = 1
        events = decoder.detection_events([syndrome_of(code, error)])
        assert all(round_index == 0 for round_index, _check in events)
        assert len(events) == int(syndrome_of(code, error).sum())

    def test_measurement_blip_fires_twice(self, code, decoder):
        """A one-round syndrome misread yields a temporal event pair."""
        blank = np.zeros(code.z_check_matrix.shape[0], dtype=np.uint8)
        blip = blank.copy()
        blip[2] = 1
        events = decoder.detection_events([blank, blip, blank, blank])
        assert events == [(1, 2), (2, 2)]


class TestDecoding:
    def test_empty_event_list_corrects_nothing(self, decoder):
        assert not decoder.decode_events([]).any()

    def test_measurement_error_corrects_nothing(self, code, decoder):
        """Temporal pairs re-interpret measurements, not data."""
        blank = np.zeros(code.z_check_matrix.shape[0], dtype=np.uint8)
        blip = blank.copy()
        blip[1] = 1
        correction = decoder.decode_history(
            [blank, blip, blank, blank]
        )
        assert not correction.any()

    @pytest.mark.parametrize("row,col", [(1, 1), (0, 0), (2, 1)])
    def test_single_data_error_corrected(self, code, decoder, row, col):
        error = np.zeros(code.num_data, dtype=np.uint8)
        error[code.data_index(row, col)] = 1
        history = history_for_persistent_error(code, error)
        assert_corrects(code, decoder, error, history)

    def test_boundary_termination(self, code, decoder):
        """A corner error with a single lit check matches the boundary."""
        error = np.zeros(code.num_data, dtype=np.uint8)
        error[code.data_index(0, 0)] = 1
        lit = syndrome_of(code, error)
        if lit.sum() == 1:
            history = history_for_persistent_error(code, error)
            correction = decoder.decode_history(history)
            # The matched chain leaves through the boundary and clears
            # the single lit check.
            assert not syndrome_of(
                code, error.astype(bool) ^ correction
            ).any()

    def test_mixed_data_and_measurement_errors(self, code, decoder):
        """Space-time decoding separates a data error from a misread."""
        error = np.zeros(code.num_data, dtype=np.uint8)
        error[code.data_index(1, 0)] = 1
        syndrome = syndrome_of(code, error)
        misread = syndrome.copy()
        misread[(int(np.flatnonzero(syndrome)[0]) + 1) % len(syndrome)] ^= 1
        history = [syndrome, misread, syndrome, syndrome]
        assert_corrects(code, decoder, error, history)

    def test_two_errors_same_round(self, code, decoder):
        error = np.zeros(code.num_data, dtype=np.uint8)
        error[code.data_index(0, 0)] = 1
        error[code.data_index(2, 2)] = 1
        history = history_for_persistent_error(code, error)
        assert_corrects(code, decoder, error, history)


class TestTimeWeight:
    def test_large_time_weight_discourages_temporal_matching(self, code):
        """Two events on neighbouring checks, three rounds apart.

        Cheap temporal steps let them pair across time (one data-qubit
        correction on the shared qubit); expensive ones push both out
        through the spatial boundary (two boundary chains).
        """
        boundary = boundary_qubits_for(code, "z")
        cheap_time = SpaceTimeMatchingDecoder(
            code.z_check_matrix, boundary, time_weight=0.0
        )
        costly_time = SpaceTimeMatchingDecoder(
            code.z_check_matrix, boundary, time_weight=100.0
        )
        events = [(0, 0), (3, 1)]
        paired = cheap_time.decode_events(events)
        via_boundary = costly_time.decode_events(events)
        assert int(paired.sum()) == 1
        assert int(via_boundary.sum()) == 2
        assert not np.array_equal(paired, via_boundary)

    def test_time_weight_stored(self, code):
        decoder = SpaceTimeMatchingDecoder(
            code.z_check_matrix,
            boundary_qubits_for(code, "z"),
            time_weight=2.5,
        )
        assert decoder.time_weight == 2.5
