"""The array-native union-find decoder (growth, peeling, batching).

Three layers of assurance:

* **exactness where exactness is checkable** — every low-weight error
  at d <= 5 must land in the same homology class as the Blossom MWPM
  correction (identical logical outcome), and the d = 3 dense tables
  are pinned by golden digests;
* **Hypothesis properties of the kernels** — path-doubling root
  finding is a projection onto fixed points, grown forests always peel
  to a syndrome-reproducing correction;
* **batch semantics** — ``decode_batch`` equals the per-shot loop and
  dedupes identical syndromes.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import (
    MwpmDecoder,
    boundary_qubits_for,
    syndrome_of,
)
from repro.decoders.spacetime import SpaceTimeMatchingDecoder
from repro.decoders.unionfind import (
    SpaceTimeUnionFindDecoder,
    UnionFindDecoder,
    build_space_graph,
    build_space_time_graph,
    find_roots,
    grow_clusters,
    peel_forest,
    unionfind_dense_lut,
)

#: SHA-256 prefixes of the packed d = 3 dense union-find tables (one
#: per check species) — any change to growth, peeling or the graph
#: construction shows up here.
GOLDEN_D3_DIGESTS = {
    "x": "98387b1bfaa5a528",
    "z": "a12a830e49fc36d8",
}


def _decoder(code, species="z"):
    return UnionFindDecoder(
        getattr(code, f"{species}_check_matrix"),
        boundary_qubits_for(code, species),
    )


def _logical_mask(code):
    mask = np.zeros(code.num_data, dtype=bool)
    for qubit in code.logical_z_support():
        mask[qubit] = True
    return mask


def _assert_valid(code, error, correction):
    """The correction reproduces the syndrome (residual is silent)."""
    residual = error.astype(bool) ^ correction
    assert not syndrome_of(
        code.z_check_matrix, residual.astype(np.uint8)
    ).any()
    return residual


class TestAgainstMwpm:
    @pytest.mark.parametrize("distance", [3, 5])
    def test_single_errors_match_mwpm_class(self, distance):
        code = RotatedSurfaceCode(distance)
        uf = _decoder(code)
        mwpm = MwpmDecoder(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        logical = _logical_mask(code)
        for qubit in range(code.num_data):
            error = np.zeros(code.num_data, dtype=np.uint8)
            error[qubit] = 1
            syndrome = syndrome_of(code.z_check_matrix, error)
            residual_uf = _assert_valid(code, error, uf.decode(syndrome))
            residual_mw = _assert_valid(
                code, error, mwpm.decode(syndrome)
            )
            assert (
                int((residual_uf & logical).sum()) % 2
                == int((residual_mw & logical).sum()) % 2
            )

    def test_weight_two_errors_match_mwpm_class(self):
        # Weight-2 errors sit inside the d = 5 correction radius
        # (floor((d-1)/2) = 2), where any sound decoder must restore
        # the codeword — so union-find and Blossom must agree on the
        # homology class.  At d = 3 the radius is 1 and weight-2
        # disagreement is legitimate, so d = 3 is excluded.
        code = RotatedSurfaceCode(5)
        uf = _decoder(code)
        mwpm = MwpmDecoder(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        logical = _logical_mask(code)
        for a in range(code.num_data):
            for b in range(a + 1, code.num_data):
                error = np.zeros(code.num_data, dtype=np.uint8)
                error[a] = error[b] = 1
                syndrome = syndrome_of(code.z_check_matrix, error)
                residual_uf = _assert_valid(
                    code, error, uf.decode(syndrome)
                )
                residual_mw = _assert_valid(
                    code, error, mwpm.decode(syndrome)
                )
                uf_class = int((residual_uf & logical).sum()) % 2
                mw_class = int((residual_mw & logical).sum()) % 2
                assert uf_class == mw_class, (a, b)

    def test_trivial_syndrome_no_correction(self):
        code = RotatedSurfaceCode(5)
        decoder = _decoder(code)
        assert not decoder.decode(
            np.zeros(len(code.z_plaquettes), dtype=int)
        ).any()


class TestGoldenDigests:
    @pytest.mark.parametrize("species", ["x", "z"])
    def test_dense_d3_table_pinned(self, species):
        code = RotatedSurfaceCode(3)
        table, complete = unionfind_dense_lut(
            getattr(code, f"{species}_check_matrix"),
            boundary_qubits_for(code, species),
        )
        assert table.shape == (16, 9)
        assert complete.all()
        digest = hashlib.sha256(
            np.packbits(table.astype(np.uint8)).tobytes()
        ).hexdigest()[:16]
        assert digest == GOLDEN_D3_DIGESTS[species]


class TestKernelProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_find_roots_is_idempotent_projection(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 40))
        parent = np.arange(size, dtype=np.int64)
        # A random forest: point some nodes at strictly smaller ones,
        # guaranteeing acyclicity.
        for node in range(1, size):
            if rng.random() < 0.7:
                parent[node] = int(rng.integers(0, node))
        nodes = np.arange(size, dtype=np.int64)
        roots = find_roots(parent, nodes)
        assert np.array_equal(parent[roots], roots)
        assert np.array_equal(find_roots(parent, nodes), roots)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_grow_and_peel_reproduce_any_syndrome(self, seed):
        """Any realizable syndrome decodes to a silencing correction."""
        rng = np.random.default_rng(seed)
        code = RotatedSurfaceCode(5)
        decoder = _decoder(code)
        error = (rng.random(code.num_data) < 0.12).astype(np.uint8)
        syndrome = syndrome_of(code.z_check_matrix, error)
        _assert_valid(code, error, decoder.decode(syndrome))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grown_forest_spans_defects(self, seed):
        """Every defect ends in a cluster the forest connects."""
        rng = np.random.default_rng(seed)
        code = RotatedSurfaceCode(5)
        graph = build_space_graph(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        error = (rng.random(code.num_data) < 0.1).astype(np.uint8)
        syndrome = syndrome_of(code.z_check_matrix, error)
        defects = np.zeros(graph.num_nodes, dtype=bool)
        defects[: graph.num_checks] = syndrome.astype(bool)
        parent, forest = grow_clusters(graph, defects)
        # peeling must terminate without unpaired defects
        correction = peel_forest(graph, forest, defects)
        assert correction.shape == (graph.num_qubits,)
        # every cluster holding defects has even defect parity or
        # touches the boundary
        roots = find_roots(parent, np.arange(graph.num_nodes))
        boundary_root = roots[graph.boundary_node]
        parity = np.bincount(
            roots[defects], minlength=graph.num_nodes
        )
        odd = np.flatnonzero(parity % 2)
        assert all(root == boundary_root for root in odd)


class TestBatchSemantics:
    def test_decode_batch_equals_per_shot(self):
        rng = np.random.default_rng(11)
        code = RotatedSurfaceCode(5)
        decoder = _decoder(code)
        errors = rng.random((24, code.num_data)) < 0.08
        syndromes = (
            errors.astype(np.uint8) @ code.z_check_matrix.T
        ) % 2
        batch = decoder.decode_batch(syndromes.astype(bool))
        for shot in range(syndromes.shape[0]):
            assert np.array_equal(
                batch[shot], decoder.decode(syndromes[shot])
            )

    def test_wrong_check_count_rejected(self):
        code = RotatedSurfaceCode(3)
        with pytest.raises(ValueError, match="4 checks per round"):
            _decoder(code).decode_batch(np.zeros((2, 5), dtype=bool))

    def test_spacetime_batch_equals_history(self):
        rng = np.random.default_rng(5)
        code = RotatedSurfaceCode(3)
        decoder = SpaceTimeUnionFindDecoder(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        histories = rng.random((10, 4, len(code.z_plaquettes))) < 0.2
        batch = decoder.decode_batch(histories)
        for shot in range(histories.shape[0]):
            assert np.array_equal(
                batch[shot], decoder.decode_history(histories[shot])
            )

    def test_detection_events_match_mwpm_transform(self):
        rng = np.random.default_rng(3)
        code = RotatedSurfaceCode(3)
        boundary = boundary_qubits_for(code, "z")
        uf = SpaceTimeUnionFindDecoder(code.z_check_matrix, boundary)
        mwpm = SpaceTimeMatchingDecoder(code.z_check_matrix, boundary)
        history = rng.random((5, len(code.z_plaquettes))) < 0.3
        assert sorted(uf.detection_events(history)) == sorted(
            mwpm.detection_events(history)
        )

    def test_decode_events_equals_decode_history(self):
        rng = np.random.default_rng(7)
        code = RotatedSurfaceCode(3)
        decoder = SpaceTimeUnionFindDecoder(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        history = rng.random((4, len(code.z_plaquettes))) < 0.25
        events = decoder.detection_events(history)
        assert np.array_equal(
            decoder.decode_events(events, rounds=4),
            decoder.decode_history(history),
        )


class TestSpaceTimeGraph:
    def test_layer_and_temporal_edge_counts(self):
        code = RotatedSurfaceCode(3)
        rounds = 4
        space = build_space_graph(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        spacetime = build_space_time_graph(
            code.z_check_matrix,
            boundary_qubits_for(code, "z"),
            rounds,
        )
        num_checks = len(code.z_plaquettes)
        assert spacetime.num_nodes == rounds * num_checks + 1
        assert spacetime.num_edges == (
            rounds * space.num_edges + (rounds - 1) * num_checks
        )
        temporal = spacetime.edge_qubit < 0
        assert int(temporal.sum()) == (rounds - 1) * num_checks

    def test_time_weight_scales_temporal_capacity(self):
        code = RotatedSurfaceCode(3)
        graph = build_space_time_graph(
            code.z_check_matrix,
            boundary_qubits_for(code, "z"),
            3,
            time_weight=2.0,
        )
        temporal = graph.edge_qubit < 0
        assert (graph.edge_capacity[temporal] == 4).all()
        assert (graph.edge_capacity[~temporal] == 2).all()

    def test_invalid_parameters_rejected(self):
        code = RotatedSurfaceCode(3)
        boundary = boundary_qubits_for(code, "z")
        with pytest.raises(ValueError):
            build_space_time_graph(code.z_check_matrix, boundary, 0)
        with pytest.raises(ValueError):
            build_space_time_graph(
                code.z_check_matrix, boundary, 2, time_weight=0
            )
