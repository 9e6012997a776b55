"""Sparse local-matching MWPM: scipy-csgraph distances, greedy pairs.

The exact Blossom matcher (:mod:`repro.decoders.mwpm`) re-solves a
dense all-pairs matching per syndrome through networkx — fine for
Surface-17, hopeless for d >= 15 space-time graphs.  This module keeps
the *matching* decoding principle but swaps both expensive stages for
sparse, array-native machinery:

* **distances** come from one all-pairs shortest-path pass over the
  decoding graph (:func:`scipy.sparse.csgraph.shortest_path` with
  predecessors, imported on the first pass so that importing the
  package does not load scipy), cached per graph — decoding never
  runs Dijkstra again;
* **matching** runs locally over the defects only: up to
  :data:`MAX_EXACT_DEFECTS` defects, a subset-DP finds the *exact*
  minimum-weight pairing (defect-defect or defect-boundary) over the
  shortest-path metric — the same optimum Blossom finds, without the
  dense all-nodes graph; beyond that, greedy sorted-candidate
  matching (a 2-approximation, the standard local-matching fallback)
  takes over.  Tests pin validity (``H c = s``) exactly and the
  logical class against Blossom at small d.

Graphs are the shared edge-list :class:`~repro.decoders.unionfind.
DecodingGraph` structures, so space-time layouts come for free.  The
decoder class supplies only the matcher's ``match_defects``, solved
row by row through :func:`~repro.decoders.graph.row_by_row`;
``decode`` (a one-round history), ``decode_batch`` over ``(shots,
rounds, checks)`` arrays with row dedupe and the dense-table form for
the Surface-17 LER pipeline (:func:`sparse_mwpm_dense_lut`) come from
:mod:`repro.decoders.graph`.

Paths are scipy's: where several shortest paths tie, scipy picks
other ones than :class:`~repro.decoders.mwpm.HopPaths` (networkx's
breadth-first order), so the two matchers keep their own path
oracles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import GraphDecoder, Solver, graph_dense_lut, row_by_row
from .unionfind import DecodingGraph, build_space_time_graph

#: ``predecessors`` sentinel of scipy's ``shortest_path`` for "no
#: path / self".
_NO_PRED = -9999

#: Defect-count ceiling for the exact subset-DP matching; above it the
#: greedy 2-approximation takes over (``O(2^m m)`` vs ``O(m^2 log m)``).
MAX_EXACT_DEFECTS = 16


def _min_cost_pairing(
    pair_cost: np.ndarray, boundary_cost: np.ndarray
) -> List[Tuple[int, int]]:
    """Exact minimum-cost pairing of defects, boundary always open.

    ``pair_cost`` is the ``(m, m)`` defect-defect distance matrix,
    ``boundary_cost`` the per-defect boundary distance.  Returns
    ``(i, j)`` index pairs with ``j = -1`` meaning the boundary.
    Subset DP over the defect set — exponential in ``m``, which stays
    tiny at the error rates where decoding succeeds at all.
    """
    m = int(boundary_cost.shape[0])
    size = 1 << m
    best = np.full(size, np.inf)
    best[0] = 0.0
    choice: List[Tuple[int, int]] = [(-1, -1)] * size
    for mask in range(size - 1):
        if not np.isfinite(best[mask]):
            continue
        free = 0
        while mask & (1 << free):
            free += 1
        with_boundary = mask | (1 << free)
        cost = best[mask] + boundary_cost[free]
        if cost < best[with_boundary]:
            best[with_boundary] = cost
            choice[with_boundary] = (free, -1)
        for partner in range(free + 1, m):
            if mask & (1 << partner):
                continue
            paired = mask | (1 << free) | (1 << partner)
            cost = best[mask] + pair_cost[free, partner]
            if cost < best[paired]:
                best[paired] = cost
                choice[paired] = (free, partner)
    if not np.isfinite(best[size - 1]):
        raise RuntimeError("defects unreachable from each other")
    pairs: List[Tuple[int, int]] = []
    mask = size - 1
    while mask:
        i, j = choice[mask]
        pairs.append((i, j))
        mask &= ~(1 << i)
        if j >= 0:
            mask &= ~(1 << j)
    return pairs


class SparseMatchingGraph:
    """Distance/path oracle over one :class:`DecodingGraph`.

    Edge weights are ``edge_capacity / 2`` (the half-edge convention
    of the union-find graphs, so both decoders agree on geometry).
    The all-pairs pass runs once, lazily, and is kept on the instance.
    """

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        self._qubit_of: Dict[Tuple[int, int], int] = {}
        for index in range(graph.num_edges):
            u = int(graph.edge_u[index])
            v = int(graph.edge_v[index])
            qubit = int(graph.edge_qubit[index])
            self._qubit_of.setdefault((u, v), qubit)
            self._qubit_of.setdefault((v, u), qubit)
        self._dist: Optional[np.ndarray] = None
        self._pred: Optional[np.ndarray] = None

    def _solve(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._dist is None:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import shortest_path

            n = self.graph.num_nodes
            weights = self.graph.edge_capacity.astype(np.float64) / 2.0
            adjacency = csr_matrix(
                (weights, (self.graph.edge_u, self.graph.edge_v)),
                shape=(n, n),
            )
            dist, pred = shortest_path(
                adjacency,
                directed=False,
                return_predecessors=True,
            )
            self._dist = dist
            self._pred = pred.astype(np.int64)
        assert self._pred is not None
        return self._dist, self._pred

    def path_qubits(self, source: int, target: int) -> List[int]:
        """Data qubits along the shortest ``source -> target`` path.

        Temporal hops contribute nothing (no data qubit).
        """
        _, pred = self._solve()
        qubits: List[int] = []
        node = target
        while node != source:
            before = int(pred[source, node])
            if before == _NO_PRED:
                raise ValueError(
                    f"no path from {source} to {node}"
                )
            qubit = self._qubit_of[(before, node)]
            if qubit >= 0:
                qubits.append(qubit)
            node = before
        return qubits

    def match_defects(self, defect_nodes: np.ndarray) -> np.ndarray:
        """Local matching over the defects; returns the correction.

        Up to :data:`MAX_EXACT_DEFECTS` defects the pairing is the
        exact subset-DP optimum (:func:`_min_cost_pairing`); beyond
        that the greedy 2-approximation pairs sorted candidates.
        Both are deterministic.
        """
        correction = np.zeros(self.graph.num_qubits, dtype=bool)
        defect_nodes = np.asarray(defect_nodes, dtype=np.int64)
        count = int(defect_nodes.shape[0])
        if count == 0:
            return correction
        dist, _ = self._solve()
        boundary = self.graph.boundary_node
        rows = dist[defect_nodes]
        pair_cost = rows[:, defect_nodes]
        boundary_cost = rows[:, boundary]
        if count <= MAX_EXACT_DEFECTS:
            pairs = _min_cost_pairing(pair_cost, boundary_cost)
        else:
            pairs = self._greedy_pairing(pair_cost, boundary_cost)
        for i, j in pairs:
            target = boundary if j < 0 else int(defect_nodes[j])
            for qubit in self.path_qubits(
                int(defect_nodes[i]), target
            ):
                correction[qubit] ^= True
        return correction

    @staticmethod
    def _greedy_pairing(
        pair_cost: np.ndarray, boundary_cost: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Greedy sorted-candidate pairing (``j = -1`` = boundary).

        Candidates sort by ``(distance, kind, i, j)`` — pairs win
        ties over boundary links, lower indices win within a kind.
        The boundary absorbs any number of defects, so everyone
        pairs off.
        """
        count = int(boundary_cost.shape[0])
        candidates: List[Tuple[float, int, int, int]] = []
        for i in range(count):
            for j in range(i + 1, count):
                candidates.append((float(pair_cost[i, j]), 0, i, j))
            candidates.append((float(boundary_cost[i]), 1, i, -1))
        candidates.sort()
        matched = np.zeros(count, dtype=bool)
        remaining = count
        pairs: List[Tuple[int, int]] = []
        for cost, kind, i, j in candidates:
            if remaining == 0:
                break
            if matched[i] or not np.isfinite(cost):
                continue
            if kind == 0:
                if matched[j]:
                    continue
                matched[i] = matched[j] = True
                remaining -= 2
            else:
                matched[i] = True
                remaining -= 1
            pairs.append((i, j))
        if remaining:
            raise RuntimeError(
                "greedy matching left unpaired defects"
            )
        return pairs


class SparseSpaceTimeMatchingDecoder(GraphDecoder):
    """Sparse matching of one check species' syndrome rounds.

    API-compatible with
    :class:`~repro.decoders.mwpm.SpaceTimeMatchingDecoder`;
    matchers are built once per round count.
    """

    def _solver(self, rounds: int) -> Solver:
        graph = build_space_time_graph(
            self.check_matrix,
            self.boundary_qubits,
            rounds,
            time_weight=self.time_weight,
        )
        return row_by_row(
            SparseMatchingGraph(graph).match_defects, self.num_qubits
        )


def sparse_mwpm_dense_lut(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense gather table filled by sparse local matching."""
    return graph_dense_lut(
        "sparse-mwpm",
        SparseSpaceTimeMatchingDecoder,
        check_matrix,
        boundary_qubits,
    )
