"""Tests for the MWPM (Blossom) decoder on rotated surface codes.

A single perfect round is decoded through ``decode`` (the one-round
history).  The breadth-first path oracle is checked against networkx's
unit-weight Dijkstra, whose distances and tie-breaks Blossom used
before it read the shared decoding graph.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.rotated import RotatedSurfaceCode
from repro.codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX
from repro.decoders import (
    SpaceTimeMatchingDecoder,
    boundary_qubits_for,
    build_space_graph,
    syndrome_of,
)
from repro.decoders.mwpm import HopPaths


@pytest.fixture(scope="module")
def code3():
    return RotatedSurfaceCode(3)


@pytest.fixture(scope="module")
def code5():
    return RotatedSurfaceCode(5)


def make_decoder(code):
    return SpaceTimeMatchingDecoder(
        code.z_check_matrix, boundary_qubits_for(code, "z")
    )


class TestSingleErrors:
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_every_single_x_error_corrected_up_to_stabilizer(
        self, distance
    ):
        code = RotatedSurfaceCode(distance)
        decoder = make_decoder(code)
        z_logical = np.zeros(code.num_data, dtype=np.uint8)
        for qubit in code.logical_z_support():
            z_logical[qubit] = 1
        for qubit in range(code.num_data):
            error = np.zeros(code.num_data, dtype=np.uint8)
            error[qubit] = 1
            syndrome = syndrome_of(code.z_check_matrix, error)
            correction = decoder.decode(syndrome)
            residual = error.astype(bool) ^ correction
            assert not syndrome_of(
                code.z_check_matrix, residual.astype(np.uint8)
            ).any()
            overlap = int((residual & z_logical.astype(bool)).sum())
            assert overlap % 2 == 0, f"logical residual for qubit {qubit}"

    def test_trivial_syndrome_no_correction(self, code5):
        decoder = make_decoder(code5)
        assert not decoder.decode(
            np.zeros(len(code5.z_plaquettes), dtype=int)
        ).any()


class TestWeightTwoErrors:
    def test_adjacent_pair_corrected(self, code5):
        decoder = make_decoder(code5)
        error = np.zeros(code5.num_data, dtype=np.uint8)
        error[code5.data_index(1, 1)] = 1
        error[code5.data_index(2, 1)] = 1
        syndrome = syndrome_of(code5.z_check_matrix, error)
        correction = decoder.decode(syndrome)
        residual = error.astype(bool) ^ correction
        assert not syndrome_of(
            code5.z_check_matrix, residual.astype(np.uint8)
        ).any()
        z_mask = np.zeros(code5.num_data, dtype=bool)
        for qubit in code5.logical_z_support():
            z_mask[qubit] = True
        assert int((residual & z_mask).sum()) % 2 == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_correction_always_matches_syndrome(self, seed):
        """Property: decode() output always reproduces the syndrome."""
        code = RotatedSurfaceCode(5)
        decoder = make_decoder(code)
        rng = np.random.default_rng(seed)
        error = (rng.random(code.num_data) < 0.1).astype(np.uint8)
        syndrome = syndrome_of(code.z_check_matrix, error)
        correction = decoder.decode(syndrome)
        assert np.array_equal(
            syndrome_of(code.z_check_matrix, correction.astype(np.uint8)),
            syndrome,
        )

    def test_distance_minus_one_over_two_errors_never_logical(self, code5):
        """d=5 corrects any 2 X errors: residual never flips Z_L."""
        decoder = make_decoder(code5)
        z_mask = np.zeros(code5.num_data, dtype=bool)
        for qubit in code5.logical_z_support():
            z_mask[qubit] = True
        rng = np.random.default_rng(1)
        for _ in range(120):
            pair = rng.choice(code5.num_data, size=2, replace=False)
            error = np.zeros(code5.num_data, dtype=np.uint8)
            error[pair] = 1
            syndrome = syndrome_of(code5.z_check_matrix, error)
            correction = decoder.decode(syndrome)
            residual = error.astype(bool) ^ correction
            assert int((residual & z_mask).sum()) % 2 == 0, pair


class TestMatchingGraph:
    def test_distances_are_symmetric(self, code3):
        paths = make_decoder(code3).paths
        for a in range(paths.graph.num_checks):
            for b in range(paths.graph.num_checks):
                assert paths.distance(a, b) == paths.distance(b, a)

    def test_boundary_reachable_from_every_check(self, code3):
        paths = make_decoder(code3).paths
        for check in range(paths.graph.num_checks):
            assert paths.distance(check, paths.graph.boundary_node) >= 1

    def test_correction_path_length_matches_distance(self, code5):
        paths = make_decoder(code5).paths
        for a in range(paths.graph.num_checks):
            for b in range(a + 1, paths.graph.num_checks):
                path = paths.path_qubits(a, b)
                assert len(path) == paths.distance(a, b)


def _networkx_check_graph(check_matrix, boundary_qubits):
    """The check graph as networkx holds it: boundary node ``-1``
    first, then the checks, then one edge per data qubit in qubit
    order (a qubit on one check links it to the boundary, the first
    such qubit per check)."""
    graph = nx.Graph()
    graph.add_node(-1)
    graph.add_nodes_from(range(check_matrix.shape[0]))
    for qubit in range(check_matrix.shape[1]):
        touching = [int(c) for c in np.flatnonzero(check_matrix[:, qubit])]
        if len(touching) == 2:
            graph.add_edge(*touching, qubit=qubit)
        elif (
            len(touching) == 1
            and qubit in boundary_qubits
            and not graph.has_edge(touching[0], -1)
        ):
            graph.add_edge(touching[0], -1, qubit=qubit)
    return graph


def _check_graphs():
    """SC17 and rotated d = 3 to 13, both species."""
    code = RotatedSurfaceCode(3)
    yield "sc17-x", X_CHECK_MATRIX, boundary_qubits_for(code, "x")
    yield "sc17-z", Z_CHECK_MATRIX, boundary_qubits_for(code, "z")
    for distance in range(3, 14, 2):
        code = RotatedSurfaceCode(distance)
        for species in ("x", "z"):
            yield (
                f"d{distance}-{species}",
                getattr(code, f"{species}_check_matrix"),
                boundary_qubits_for(code, species),
            )


@pytest.mark.parametrize(
    "check_matrix, boundary_qubits",
    [case[1:] for case in _check_graphs()],
    ids=[case[0] for case in _check_graphs()],
)
def test_hop_paths_equal_networkx_unit_dijkstra(
    check_matrix, boundary_qubits
):
    """Every ordered pair of nodes: the same hop distance and the same
    first-found path (as its data qubits, source first), so Blossom
    breaks ties between equal-length paths as networkx does."""
    reference = _networkx_check_graph(
        np.asarray(check_matrix), set(boundary_qubits)
    )
    paths = HopPaths(build_space_graph(check_matrix, boundary_qubits))
    boundary = paths.graph.boundary_node
    node_of = {-1: boundary}
    for source in reference.nodes:
        lengths, routes = nx.single_source_dijkstra(
            reference, source, weight=None
        )
        assert len(lengths) == paths.graph.num_nodes
        for target, route in routes.items():
            a, b = node_of.get(source, source), node_of.get(target, target)
            assert paths.distance(a, b) == lengths[target]
            assert paths.path_qubits(a, b)[::-1] == [
                reference.edges[u, v]["qubit"]
                for u, v in zip(route, route[1:])
            ]
