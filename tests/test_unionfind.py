"""The array-native union-find decoder (growth, peeling, batching).

Three layers of assurance:

* **exactness where exactness is checkable** — every low-weight error
  at d <= 5 must land in the same homology class as the Blossom MWPM
  correction (identical logical outcome), and the d = 3 dense tables
  are pinned by golden digests;
* **Hypothesis properties of the kernels** — path-doubling root
  finding is a projection onto fixed points, grown forests always peel
  to a syndrome-reproducing correction, on one graph copy and on
  several at once; the Borůvka unions keep the forest that unioning
  filled edges one by one in index order keeps (a sequential
  reference lives in this file);
* **batch semantics** — ``decode_batch`` equals the per-shot loop and
  dedupes identical syndromes, and a batch decodes the same whole,
  row by row, reversed and split across chunk boundaries.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import (
    MwpmDecoder,
    boundary_qubits_for,
    syndrome_of,
    unionfind,
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


def _sequential_forest(graph, defects):
    """Reference growth of one copy: filled edges unioned one by one.

    The same half-edge growth as :func:`grow_clusters` over the whole
    edge list, with each step's filled edges unioned in index order
    by a scalar union -- Kruskal with the edge index as the weight.
    Returns the forest mask.
    """
    parent = list(range(graph.num_nodes))

    def root(node):
        while parent[node] != node:
            node = parent[node]
        return node

    forest = np.zeros(graph.num_edges, dtype=bool)
    support = np.zeros(graph.num_edges, dtype=np.int64)
    for _ in range(int(graph.edge_capacity.sum()) + 1):
        roots = np.array([root(n) for n in range(graph.num_nodes)])
        parity = np.bincount(roots[defects], minlength=graph.num_nodes)
        active = parity % 2 == 1
        active[roots[graph.boundary_node]] = False
        if not active.any():
            return forest
        root_u, root_v = roots[graph.edge_u], roots[graph.edge_v]
        growing = (root_u != root_v) & (support < graph.edge_capacity)
        increment = active[root_u].astype(int) + active[root_v]
        support[growing] += increment[growing]
        for edge in np.flatnonzero(
            growing & (support >= graph.edge_capacity)
        ):
            a = root(int(graph.edge_u[edge]))
            b = root(int(graph.edge_v[edge]))
            if a != b:
                parent[b] = a
                forest[edge] = True
    raise AssertionError("reference growth did not converge")


#: Copy counts the kernel properties run on: one graph copy, and
#: several laid out side by side as a batch decodes them.
COPIES = (1, 4)


def _space_defects(code, graph, errors):
    """``(k, num_nodes)`` defects of ``k`` X-error rows (space graph)."""
    defects = np.zeros((errors.shape[0], graph.num_nodes), dtype=bool)
    defects[:, : graph.num_checks] = (
        errors.astype(np.uint8) @ code.z_check_matrix.T
    ) % 2 == 1
    return defects


def _random_graph_and_defects(seed, copies):
    """A seeded space or space-time graph and ``copies`` defect rows."""
    rng = np.random.default_rng(seed)
    code = RotatedSurfaceCode(int(rng.choice([3, 5, 7])))
    boundary = boundary_qubits_for(code, "z")
    if rng.random() < 0.5:
        graph = build_space_graph(code.z_check_matrix, boundary)
    else:
        graph = build_space_time_graph(
            code.z_check_matrix,
            boundary,
            int(rng.integers(1, code.distance + 2)),
            time_weight=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
        )
    defects = np.zeros((copies, graph.num_nodes), dtype=bool)
    defects[:, : graph.boundary_node] = (
        rng.random((copies, graph.boundary_node)) < rng.uniform(0.01, 0.3)
    )
    return graph, defects


class TestKernelProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_find_roots_is_idempotent_projection(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 40))
        for copies in COPIES:
            parent = np.arange(copies * size, dtype=np.int64)
            # Random forests, one per copy: point some nodes at
            # strictly smaller ones of the same copy (acyclic).
            for node in range(copies * size):
                if node % size and rng.random() < 0.7:
                    parent[node] = node - int(
                        rng.integers(1, node % size + 1)
                    )
            nodes = np.arange(copies * size, dtype=np.int64)
            roots = find_roots(parent, nodes)
            assert np.array_equal(parent[roots], roots)
            assert np.array_equal(find_roots(parent, nodes), roots)
            assert np.array_equal(roots // size, nodes // size)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_grow_and_peel_reproduce_any_syndrome(self, seed):
        """Any realizable syndrome decodes to a silencing correction."""
        rng = np.random.default_rng(seed)
        code = RotatedSurfaceCode(5)
        graph = build_space_graph(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        for copies in COPIES:
            errors = rng.random((copies, code.num_data)) < 0.12
            defects = _space_defects(code, graph, errors)
            _parent, forest = grow_clusters(graph, defects)
            corrections = peel_forest(graph, forest, defects)
            assert corrections.shape == (copies, code.num_data)
            for error, correction in zip(errors, corrections):
                _assert_valid(code, error, correction)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grown_forest_spans_defects(self, seed):
        """Every defect ends in a cluster the forest connects."""
        rng = np.random.default_rng(seed)
        code = RotatedSurfaceCode(5)
        graph = build_space_graph(
            code.z_check_matrix, boundary_qubits_for(code, "z")
        )
        for copies in COPIES:
            errors = rng.random((copies, code.num_data)) < 0.1
            defects = _space_defects(code, graph, errors)
            parent, forest = grow_clusters(graph, defects)
            assert forest.shape == (copies, graph.num_edges)
            # peeling must terminate without unpaired defects
            correction = peel_forest(graph, forest, defects)
            assert correction.shape == (copies, graph.num_qubits)
            # every cluster holding defects has even defect parity or
            # touches its copy's boundary, and no cluster spans copies
            nodes = np.arange(parent.shape[0])
            roots = find_roots(parent, nodes)
            parity = np.bincount(
                roots[defects.ravel()], minlength=parent.shape[0]
            )
            boundary_roots = roots[graph.boundary_node :: graph.num_nodes]
            assert set(np.flatnonzero(parity % 2)) <= set(boundary_roots)
            assert np.array_equal(
                roots // graph.num_nodes, nodes // graph.num_nodes
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_forest_equals_sequential_index_order_unions(self, seed):
        """Borůvka unions keep Kruskal's forest, copy by copy."""
        graph, defects = _random_graph_and_defects(seed, copies=3)
        _parent, forest = grow_clusters(graph, defects)
        for row in range(defects.shape[0]):
            assert np.array_equal(
                forest[row], _sequential_forest(graph, defects[row])
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_sequential_unions(self, seed):
        """One step's unions on a random multigraph of clusters."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 30))
        count = int(rng.integers(1, 60))
        ends_a = rng.integers(0, size, count)
        ends_b = rng.integers(0, size, count)
        distinct = ends_a != ends_b
        ends_a, ends_b = ends_a[distinct], ends_b[distinct]
        edges = np.sort(
            rng.choice(4 * count, size=ends_a.size, replace=False)
        )
        forest = np.zeros(4 * count, dtype=bool)
        parent = np.arange(size, dtype=np.int64)
        unionfind._merge(parent, edges, ends_a, ends_b, forest)
        reference = list(range(size))

        def root(node):
            while reference[node] != node:
                node = reference[node]
            return node

        expected = np.zeros_like(forest)
        for edge, a, b in zip(edges, ends_a, ends_b):
            a, b = root(int(a)), root(int(b))
            if a != b:
                reference[b] = a
                expected[edge] = True
        assert np.array_equal(forest, expected)
        roots = find_roots(parent, np.arange(size))
        reference_roots = np.array([root(n) for n in range(size)])
        # the same partition of the clusters
        assert np.array_equal(
            roots[:, None] == roots[None, :],
            reference_roots[:, None] == reference_roots[None, :],
        )


class TestBatchSemantics:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_is_order_and_chunk_free(self, seed):
        """Whole, row by row, reversed and chunk-split agree."""
        graph, defects = _random_graph_and_defects(
            seed, copies=int(np.random.default_rng(seed).integers(1, 12))
        )
        rows = defects[:, : graph.boundary_node]
        rows = rows[np.random.default_rng(seed).integers(0, len(rows), 9)]
        whole = unionfind._decode_rows(graph, rows)
        assert whole.shape == (rows.shape[0], graph.num_qubits)
        by_row = np.concatenate(
            [unionfind._decode_rows(graph, row[None]) for row in rows]
        )
        assert np.array_equal(whole, by_row)
        reverse = unionfind._decode_rows(graph, rows[::-1])[::-1]
        assert np.array_equal(whole, reverse)
        slots = graph.num_nodes + graph.num_edges
        for per_chunk in (1, 2, 4):
            with mock.patch.object(
                unionfind, "CHUNK_SLOTS", per_chunk * slots
            ):
                split = unionfind._decode_rows(graph, rows)
            assert np.array_equal(whole, split)

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
