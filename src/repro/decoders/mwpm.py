"""Minimum-weight perfect matching decoder (Blossom, via networkx).

The paper repeatedly points at the Blossom algorithm (Edmonds 1965) as
the production decoder for surface codes (sections 2.6.1, 3.5.1) and
its future work calls for "error syndrome decoders that are suitable
for larger surface codes".  This module supplies that decoder for the
:class:`~repro.codes.rotated.layout.RotatedSurfaceCode` family: defect
pairs are matched by minimum total path length on the plaquette graph,
with boundary connections for odd defect clusters.

networkx's ``max_weight_matching`` implements Blossom; we feed it
negated distances so that maximum weight equals minimum cost.
networkx is imported where the graphs are built, so importing the
package does not load it.

:class:`MwpmDecoder` supplies only the Blossom solver; ``decode``,
the deduplicating ``decode_batch`` and the dense-table form
(:func:`mwpm_dense_lut`) come from :mod:`repro.decoders.graph`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import GraphDecoder, Solver, graph_dense_lut, row_by_row


class MatchingGraph:
    """Distance structure over one species of checks.

    Parameters
    ----------
    check_matrix:
        Binary ``k x n`` matrix of the checks (all of one basis).
    boundary_qubits:
        Data qubits adjacent to the boundary of this species: a defect
        can be matched "to the boundary" through any of them for cost
        1 + (its distance to the boundary qubit's check).
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
    ) -> None:
        self.check_matrix = np.asarray(check_matrix, dtype=np.uint8)
        self.num_checks, self.num_qubits = self.check_matrix.shape
        self.boundary_qubits = set(int(q) for q in boundary_qubits)
        import networkx as nx

        self._graph = nx.Graph()
        self._build_graph()
        self._distances: Dict[int, Dict[int, int]] = {}
        self._paths: Dict[int, Dict[int, List[int]]] = {}
        self._precompute_paths()

    def _build_graph(self) -> None:
        """Checks are nodes; each data qubit is an edge.

        A data qubit touched by two checks links them; a data qubit
        touched by one check links that check to the virtual boundary
        node ``-1``.
        """
        self._graph.add_node(-1)  # the boundary
        for check in range(self.num_checks):
            self._graph.add_node(check)
        for qubit in range(self.num_qubits):
            touching = np.flatnonzero(self.check_matrix[:, qubit])
            if len(touching) == 2:
                self._graph.add_edge(
                    int(touching[0]), int(touching[1]), qubit=qubit
                )
            elif len(touching) == 1 and qubit in self.boundary_qubits:
                # Keep the shortest boundary edge per check.
                check = int(touching[0])
                if not self._graph.has_edge(check, -1):
                    self._graph.add_edge(check, -1, qubit=qubit)

    def _precompute_paths(self) -> None:
        import networkx as nx

        for source in self._graph.nodes:
            lengths, paths = nx.single_source_dijkstra(
                self._graph, source, weight=None
            )
            self._distances[source] = lengths
            self._paths[source] = paths

    def distance(self, a: int, b: int) -> int:
        """Graph distance (in data-qubit steps) between two checks."""
        return self._distances[a][b]

    def correction_path(self, a: int, b: int) -> List[int]:
        """Data qubits along a shortest path between two checks."""
        nodes = self._paths[a][b]
        qubits = []
        for first, second in zip(nodes, nodes[1:]):
            qubits.append(self._graph.edges[first, second]["qubit"])
        return qubits


class MwpmDecoder(GraphDecoder):
    """Blossom decoding of one check species.

    Given a syndrome (set of violated checks), pairs the defects --
    possibly with the boundary -- so that the total correction weight
    is minimal, and returns the data qubits to flip.
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
    ) -> None:
        super().__init__(check_matrix, boundary_qubits)
        self.graph = MatchingGraph(check_matrix, boundary_qubits)

    def _solver(self, rounds: int) -> Solver:
        return row_by_row(self._decode, self.num_qubits)

    def _decode(self, nodes: np.ndarray) -> np.ndarray:
        """Match the defect checks; each gets a private boundary copy.

        Any number of defects can then terminate on the boundary;
        boundary-boundary pairings are free, which makes the matching
        perfect.
        """
        defects = [int(i) for i in nodes]
        correction = np.zeros(self.graph.num_qubits, dtype=bool)
        if not defects:
            return correction
        import networkx as nx

        matching_graph = nx.Graph()
        boundary_nodes = [f"b{i}" for i in range(len(defects))]
        for i, a in enumerate(defects):
            for j in range(i + 1, len(defects)):
                b = defects[j]
                matching_graph.add_edge(
                    a, b, weight=-self.graph.distance(a, b)
                )
            matching_graph.add_edge(
                a,
                boundary_nodes[i],
                weight=-self.graph.distance(a, -1),
            )
        for i, j in itertools.combinations(range(len(defects)), 2):
            matching_graph.add_edge(
                boundary_nodes[i], boundary_nodes[j], weight=0
            )
        matching = nx.max_weight_matching(
            matching_graph, maxcardinality=True
        )
        for first, second in matching:
            pair = self._normalize_pair(first, second)
            if pair is None:
                continue
            a, b = pair
            for qubit in self.graph.correction_path(a, b):
                correction[qubit] ^= True
        return correction

    @staticmethod
    def _normalize_pair(first, second):
        """Translate a matching edge into a (check, check|-1) pair."""
        first_is_boundary = isinstance(first, str)
        second_is_boundary = isinstance(second, str)
        if first_is_boundary and second_is_boundary:
            return None
        if first_is_boundary:
            return second, -1
        if second_is_boundary:
            return first, -1
        return first, second


def boundary_qubits_for(code, basis: str) -> List[int]:
    """Data qubits where a chain of ``basis`` errors can terminate.

    For a rotated surface code, X-error chains (detected by Z checks)
    terminate on the top/bottom boundaries and Z-error chains
    (detected by X checks) on the left/right boundaries.
    """
    d = code.distance
    if basis == "z":
        # Z checks detect X errors; X chains end on top/bottom rows.
        return [code.data_index(0, col) for col in range(d)] + [
            code.data_index(d - 1, col) for col in range(d)
        ]
    return [code.data_index(row, 0) for row in range(d)] + [
        code.data_index(row, d - 1) for row in range(d)
    ]


def mwpm_dense_lut(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense table filled by Blossom matching instead of enumeration."""
    return graph_dense_lut("mwpm", MwpmDecoder, check_matrix, boundary_qubits)
