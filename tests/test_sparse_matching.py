"""The scipy-sparse local-matching MWPM alternative.

The sparse decoder must be *weight-exact* against the Blossom
reference wherever its subset-DP pairing applies (up to
:data:`~repro.decoders.sparse.MAX_EXACT_DEFECTS` defects): equal
total correction weight and the same homology class inside the
correction radius.  Beyond the DP ceiling the greedy pairing only has
to stay sound (silencing corrections, deterministic).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import (
    SpaceTimeMatchingDecoder,
    boundary_qubits_for,
    syndrome_of,
)
from repro.decoders.sparse import (
    MAX_EXACT_DEFECTS,
    SparseSpaceTimeMatchingDecoder,
    _min_cost_pairing,
)


def _decoders(code):
    check = code.z_check_matrix
    boundary = boundary_qubits_for(code, "z")
    return (
        SparseSpaceTimeMatchingDecoder(check, boundary),
        SpaceTimeMatchingDecoder(check, boundary),
    )


def _logical_mask(code):
    mask = np.zeros(code.num_data, dtype=bool)
    for qubit in code.logical_z_support():
        mask[qubit] = True
    return mask


def _assert_valid(code, error, correction):
    residual = error.astype(bool) ^ correction
    assert not syndrome_of(
        code.z_check_matrix, residual.astype(np.uint8)
    ).any()
    return residual


class TestWeightExactness:
    @pytest.mark.parametrize("distance", [3, 5])
    def test_single_errors_weight_and_class_match(self, distance):
        code = RotatedSurfaceCode(distance)
        sparse, blossom = _decoders(code)
        logical = _logical_mask(code)
        for qubit in range(code.num_data):
            error = np.zeros(code.num_data, dtype=np.uint8)
            error[qubit] = 1
            syndrome = syndrome_of(code.z_check_matrix, error)
            sparse_corr = sparse.decode(syndrome)
            blossom_corr = blossom.decode(syndrome)
            residual_sp = _assert_valid(code, error, sparse_corr)
            residual_bl = _assert_valid(code, error, blossom_corr)
            assert int(sparse_corr.sum()) == int(blossom_corr.sum())
            assert (
                int((residual_sp & logical).sum()) % 2
                == int((residual_bl & logical).sum()) % 2
            )

    def test_all_weight_two_errors_weight_exact_at_d5(self):
        code = RotatedSurfaceCode(5)
        sparse, blossom = _decoders(code)
        logical = _logical_mask(code)
        for a, b in itertools.combinations(range(code.num_data), 2):
            error = np.zeros(code.num_data, dtype=np.uint8)
            error[a] = error[b] = 1
            syndrome = syndrome_of(code.z_check_matrix, error)
            sparse_corr = sparse.decode(syndrome)
            blossom_corr = blossom.decode(syndrome)
            residual_sp = _assert_valid(code, error, sparse_corr)
            residual_bl = _assert_valid(code, error, blossom_corr)
            assert int(sparse_corr.sum()) == int(
                blossom_corr.sum()
            ), (a, b)
            assert (
                int((residual_sp & logical).sum()) % 2
                == int((residual_bl & logical).sum()) % 2
            ), (a, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_syndromes_decode_validly(self, seed):
        rng = np.random.default_rng(seed)
        code = RotatedSurfaceCode(5)
        sparse, _ = _decoders(code)
        error = (rng.random(code.num_data) < 0.1).astype(np.uint8)
        syndrome = syndrome_of(code.z_check_matrix, error)
        _assert_valid(code, error, sparse.decode(syndrome))


class TestExactPairingDP:
    @staticmethod
    def _brute_force(pair_cost, boundary_cost):
        m = boundary_cost.shape[0]
        best = np.inf

        def recurse(unmatched, cost):
            nonlocal best
            if cost >= best:
                return
            if not unmatched:
                best = cost
                return
            first, rest = unmatched[0], unmatched[1:]
            recurse(list(rest), cost + boundary_cost[first])
            for index, partner in enumerate(rest):
                remaining = list(rest[:index]) + list(rest[index + 1:])
                recurse(
                    remaining, cost + pair_cost[first, partner]
                )

        recurse(list(range(m)), 0.0)
        return best

    @staticmethod
    def _pairing_cost(pairs, pair_cost, boundary_cost):
        total = 0.0
        for i, j in pairs:
            total += (
                boundary_cost[i] if j < 0 else pair_cost[i, j]
            )
        return total

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        pair_cost = rng.integers(1, 20, size=(m, m)).astype(float)
        pair_cost = (pair_cost + pair_cost.T) / 2
        np.fill_diagonal(pair_cost, 0.0)
        boundary_cost = rng.integers(1, 20, size=m).astype(float)
        pairs = _min_cost_pairing(pair_cost, boundary_cost)
        # Every defect appears exactly once.
        covered = sorted(
            index for pair in pairs for index in pair if index >= 0
        )
        assert covered == sorted(set(covered))
        assert set(covered) == set(range(m))
        assert self._pairing_cost(
            pairs, pair_cost, boundary_cost
        ) == pytest.approx(
            self._brute_force(pair_cost, boundary_cost)
        )


class TestBatchAndSpaceTime:
    def test_decode_batch_equals_per_shot(self):
        rng = np.random.default_rng(17)
        code = RotatedSurfaceCode(5)
        sparse, _ = _decoders(code)
        errors = rng.random((16, code.num_data)) < 0.08
        syndromes = (
            errors.astype(np.uint8) @ code.z_check_matrix.T
        ) % 2
        batch = sparse.decode_batch(syndromes.astype(bool)[:, np.newaxis])
        for shot in range(syndromes.shape[0]):
            assert np.array_equal(
                batch[shot], sparse.decode(syndromes[shot])
            )

    def test_spacetime_batch_equals_history(self):
        rng = np.random.default_rng(23)
        code = RotatedSurfaceCode(3)
        decoder = SparseSpaceTimeMatchingDecoder(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        histories = rng.random((8, 4, len(code.z_plaquettes))) < 0.2
        batch = decoder.decode_batch(histories)
        for shot in range(histories.shape[0]):
            assert np.array_equal(
                batch[shot], decoder.decode_history(histories[shot])
            )

    def test_greedy_fallback_beyond_dp_ceiling(self):
        """> MAX_EXACT_DEFECTS defects: greedy pairing, still sound."""
        rng = np.random.default_rng(31)
        code = RotatedSurfaceCode(5)
        decoder = SparseSpaceTimeMatchingDecoder(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        num_checks = len(code.z_plaquettes)
        history = rng.random((8, num_checks)) < 0.35
        events = decoder.detection_events(history)
        assert len(events) > MAX_EXACT_DEFECTS
        first = decoder.decode_history(history)
        second = decoder.decode_history(history)
        assert first.shape == (code.num_data,)
        assert np.array_equal(first, second)
