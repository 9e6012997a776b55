"""Minimum-weight perfect matching decoder (Blossom, via networkx).

The paper repeatedly points at the Blossom algorithm (Edmonds 1965) as
the production decoder for surface codes (sections 2.6.1, 3.5.1) and
its future work calls for "error syndrome decoders that are suitable
for larger surface codes" and "more realistic error models" (ch. 6).
This module supplies that decoder for the
:class:`~repro.codes.rotated.layout.RotatedSurfaceCode` family, under
the *phenomenological* noise model: data qubits suffer independent
Pauli errors per round *and* every syndrome bit is read out wrongly
with some probability, so decoding matches detection events in
space-time (Dennis et al., J. Math. Phys. 43, 4452):

* two events can be explained by a chain of data errors (spatial hops
  on the check graph), by a repeated measurement error (temporal
  steps), or a mix -- edge weight = spatial hops + ``time_weight`` x
  temporal steps;
* events can also terminate on the spatial boundary.

Matched pairs contribute the *spatial* projection of their connecting
path as data-qubit corrections; temporal segments correct nothing
(they re-interpret measurements).  A single perfect round is the
one-round history.

Spatial hops and paths come from :class:`HopPaths`, a breadth-first
pass over :func:`~repro.decoders.unionfind.build_space_graph`'s
:class:`~repro.decoders.unionfind.DecodingGraph`, the graph union-find
and sparse matching decode on.  networkx's ``max_weight_matching``
implements Blossom; we feed it negated distances so that maximum
weight equals minimum cost.  networkx is imported where a matching is
solved, so importing the package does not load it.

:class:`SpaceTimeMatchingDecoder` supplies only the Blossom solver;
the detection-event transform, ``decode``, ``decode_history``,
``decode_events``, the deduplicating ``decode_batch`` and the
dense-table form (:func:`mwpm_dense_lut`) come from
:mod:`repro.decoders.graph`.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import GraphDecoder, Solver, graph_dense_lut, row_by_row
from .unionfind import DecodingGraph, build_space_graph


class HopPaths:
    """Hop distances and shortest paths over one :class:`DecodingGraph`.

    A breadth-first pass from every node visits each node's neighbours
    in edge order (qubit order) and keeps the first path that reaches
    a node.  That is what networkx's unit-weight
    ``single_source_dijkstra`` finds, since its heap pops equal
    distances first-in, first-out, so Blossom's tie-breaks between
    equal-length paths are networkx's.
    """

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        neighbours: List[List[Tuple[int, int]]] = [
            [] for _ in range(graph.num_nodes)
        ]
        for u, v, qubit in zip(
            graph.edge_u.tolist(),
            graph.edge_v.tolist(),
            graph.edge_qubit.tolist(),
        ):
            neighbours[u].append((v, qubit))
            neighbours[v].append((u, qubit))
        self._hops: List[Dict[int, int]] = []
        self._via: List[Dict[int, Tuple[int, int]]] = []
        for source in range(graph.num_nodes):
            hops = {source: 0}
            via: Dict[int, Tuple[int, int]] = {}
            queue = deque([source])
            while queue:
                node = queue.popleft()
                for other, qubit in neighbours[node]:
                    if other not in hops:
                        hops[other] = hops[node] + 1
                        via[other] = (node, qubit)
                        queue.append(other)
            self._hops.append(hops)
            self._via.append(via)

    def distance(self, source: int, target: int) -> int:
        """Hops (data-qubit steps) between two nodes."""
        return self._hops[source][target]

    def path_qubits(self, source: int, target: int) -> List[int]:
        """Data qubits along the ``source -> target`` path, target first."""
        via = self._via[source]
        qubits = []
        while target != source:
            target, qubit = via[target]
            qubits.append(qubit)
        return qubits


class SpaceTimeMatchingDecoder(GraphDecoder):
    """Blossom decoding of one check species' syndrome rounds.

    Pairs the detection events -- possibly with the boundary -- so
    that the total weight is minimal, and returns the data qubits to
    flip.  Parameters as :class:`~repro.decoders.graph.GraphDecoder`.
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
        time_weight: float = 1.0,
    ) -> None:
        super().__init__(check_matrix, boundary_qubits, time_weight)
        self.paths = HopPaths(
            build_space_graph(self.check_matrix, self.boundary_qubits)
        )

    def _solver(self, rounds: int) -> Solver:
        return row_by_row(self._decode_events, self.num_qubits)

    def _decode_events(self, defects: np.ndarray) -> np.ndarray:
        """Match the events at the flat ``round * checks + check`` nodes.

        Events enter the matching graph in ``detection_events`` order,
        each with a private boundary copy, so any number of them can
        terminate on the boundary; boundary-boundary pairings are
        free, which makes the matching perfect.  networkx breaks ties
        by insertion order.
        """
        events = [divmod(int(node), self.num_checks) for node in defects]
        correction = np.zeros(self.num_qubits, dtype=bool)
        if not events:
            return correction
        import networkx as nx

        boundary = self.paths.graph.boundary_node
        matching_graph = nx.Graph()
        boundary_nodes = [f"b{index}" for index in range(len(events))]
        for index, (t_a, c_a) in enumerate(events):
            for other in range(index + 1, len(events)):
                t_b, c_b = events[other]
                weight = self.paths.distance(c_a, c_b) + (
                    self.time_weight * abs(t_a - t_b)
                )
                matching_graph.add_edge(
                    ("e", index), ("e", other), weight=-weight
                )
            matching_graph.add_edge(
                ("e", index),
                boundary_nodes[index],
                weight=-self.paths.distance(c_a, boundary),
            )
        for i, j in itertools.combinations(range(len(events)), 2):
            matching_graph.add_edge(
                boundary_nodes[i], boundary_nodes[j], weight=0
            )
        matching = nx.max_weight_matching(
            matching_graph, maxcardinality=True
        )
        for pair in matching:
            # The path runs from the check of the pair's first event as
            # networkx orders the pair (a path and its reverse may
            # differ); a lone event leaves through the boundary.
            checks = [events[node[1]][1] for node in pair if node[0] == "e"]
            if not checks:
                continue
            if len(checks) == 1:
                checks.append(boundary)
            for qubit in self.paths.path_qubits(*checks):
                correction[qubit] ^= True
        return correction


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
    return graph_dense_lut(
        "mwpm", SpaceTimeMatchingDecoder, check_matrix, boundary_qubits
    )
