"""Space-time MWPM decoding for repeated noisy syndrome measurement.

The paper's future work asks for decoders "suitable for larger surface
codes" and "more realistic error models" (ch. 6).  This module extends
the Blossom/MWPM decoder to the *phenomenological* noise model: data
qubits suffer independent Pauli errors per round *and* every syndrome
bit is read out wrongly with some probability, so decoding must match
defects in space-time rather than per round.

Standard construction (Dennis et al., J. Math. Phys. 43, 4452):

* a *detection event* fires at ``(round t, check c)`` when check ``c``
  changes value between rounds ``t-1`` and ``t``;
* two events can be explained by a chain of data errors (spatial
  distance on the check graph), by a repeated measurement error
  (temporal distance), or a mix -- edge weight = spatial + temporal
  steps;
* events can also terminate on the spatial boundary.

Matched pairs contribute the *spatial* projection of their connecting
path as data-qubit corrections; temporal segments correct nothing
(they re-interpret measurements).

:class:`SpaceTimeMatchingDecoder` supplies only the Blossom solver;
the detection-event transform, ``decode_history``, ``decode_events``
and the deduplicating ``decode_batch`` come from
:class:`~repro.decoders.graph.SpaceTimeGraphDecoder`.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .graph import Solver, SpaceTimeGraphDecoder, row_by_row
from .mwpm import MatchingGraph


class SpaceTimeMatchingDecoder(SpaceTimeGraphDecoder):
    """Decode a history of noisy syndrome rounds of one check species.

    Parameters
    ----------
    check_matrix:
        Binary ``k x n`` matrix of the checks (all one basis).
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
        super().__init__(check_matrix, boundary_qubits, time_weight)
        self.graph = MatchingGraph(check_matrix, boundary_qubits)

    def _solver(self, rounds: int) -> Solver:
        return row_by_row(self._decode_events, self.num_qubits)

    def _decode_events(self, defects: np.ndarray) -> np.ndarray:
        """Match the events at the flat ``round * checks + check`` nodes.

        Events enter the matching graph in ``detection_events`` order;
        networkx breaks ties by insertion order.
        """
        events = [divmod(int(node), self.num_checks) for node in defects]
        correction = np.zeros(self.graph.num_qubits, dtype=bool)
        if not events:
            return correction
        import networkx as nx

        matching_graph = nx.Graph()
        boundary_nodes = [f"b{index}" for index in range(len(events))]
        for index, (t_a, c_a) in enumerate(events):
            for other in range(index + 1, len(events)):
                t_b, c_b = events[other]
                weight = self.graph.distance(c_a, c_b) + (
                    self.time_weight * abs(t_a - t_b)
                )
                matching_graph.add_edge(
                    ("e", index), ("e", other), weight=-weight
                )
            matching_graph.add_edge(
                ("e", index),
                boundary_nodes[index],
                weight=-self.graph.distance(c_a, -1),
            )
        for i, j in itertools.combinations(range(len(events)), 2):
            matching_graph.add_edge(
                boundary_nodes[i], boundary_nodes[j], weight=0
            )
        matching = nx.max_weight_matching(
            matching_graph, maxcardinality=True
        )
        for first, second in matching:
            pair = self._event_pair(first, second, events)
            if pair is None:
                continue
            check_a, check_b = pair
            for qubit in self.graph.correction_path(check_a, check_b):
                correction[qubit] ^= True
        return correction

    @staticmethod
    def _event_pair(first, second, events):
        """Resolve a matching edge to a (check, check|-1) pair."""
        first_is_event = isinstance(first, tuple) and first[0] == "e"
        second_is_event = isinstance(second, tuple) and second[0] == "e"
        if first_is_event and second_is_event:
            _t_a, check_a = events[first[1]]
            _t_b, check_b = events[second[1]]
            return check_a, check_b
        if first_is_event:
            _t, check = events[first[1]]
            return check, -1
        if second_is_event:
            _t, check = events[second[1]]
            return check, -1
        return None
