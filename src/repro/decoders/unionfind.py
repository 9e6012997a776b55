"""Array-native union-find decoding (Delfosse-Nickerson) at any d.

The dense LUT gather of :mod:`repro.decoders.batched` is exact but
holds ``2^num_checks`` rows, and the networkx Blossom matcher of
:mod:`repro.decoders.mwpm` re-solves an all-pairs matching per
syndrome — both cap the LER experiments at Surface-17-sized codes
(ROADMAP item 3).  This module supplies the almost-linear-time
alternative the fault-tolerance literature converged on: the
**union-find decoder** (Delfosse & Nickerson, Quantum 5, 595), whose
cluster-growth + peeling structure needs only a disjoint-set forest
over the decoding graph.

Everything is laid out as flat numpy arrays:

* the decoding graph is an **edge list** — ``edge_u`` / ``edge_v``
  node indices, ``edge_qubit`` (the data qubit a spatial edge
  corrects; ``-1`` for temporal edges, which re-interpret measurements
  and correct nothing), ``edge_capacity`` in half-edge growth units;
* a batch of ``k`` distinct defect rows decodes as ``k`` **disjoint
  copies** of that graph (node ``r * num_nodes + n``, edge
  ``r * num_edges + e``, one boundary node per copy) in one pass, in
  chunks of at most :data:`CHUNK_SLOTS` node and edge slots.  Copies
  share nothing, so each row grows and peels exactly as it would
  alone;
* **cluster growth** (:func:`grow_clusters`) runs vectorized over the
  growth frontier, the edges next to defect-holding clusters: each
  iteration finds roots by path doubling (:func:`find_roots`), marks
  the active (odd, boundary-free) clusters, and grows every
  frontier edge by one half-edge per active side.  The edges that
  fill in a step are unioned by Borůvka rounds, which keep the same
  spanning forest as unioning them one by one in index order;
* **peeling** (:func:`peel_forest`) peels every leaf of every forest
  at once, round after round, and flips the data qubit of each
  spatial tree edge whose leaf side holds an odd number of defects.

:class:`UnionFindDecoder` and :class:`SpaceTimeUnionFindDecoder`
supply only that grow-and-peel solver over the space or space-time
graph; batched decoding with row dedupe, the detection-event
transform and the dense gather-table form for the Surface-17 windowed
protocol (:func:`unionfind_dense_lut`) come from
:mod:`repro.decoders.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import List, Sequence, Tuple

import numpy as np

from .graph import (
    GraphDecoder,
    Solver,
    SpaceTimeGraphDecoder,
    graph_dense_lut,
)


#: Most ``rows x (nodes + edges)`` slots one grow-and-peel pass holds
#: (14 rows of the d = 13 space-time graph): a batch decodes in chunks
#: of at most this many graph copies' worth.
CHUNK_SLOTS = 1 << 16

#: Sentinel above every edge index (no filled edge seen yet).
_NO_EDGE = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Decoding graphs as edge lists
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodingGraph:
    """One check species' matching graph, flattened to arrays.

    Nodes are checks (space) or ``(round, check)`` pairs flattened as
    ``round * num_checks + check`` (space-time), plus one virtual
    boundary node — always the highest index.  Edges carry the data
    qubit they correct (``-1`` for temporal edges) and a growth
    capacity in half-edge units (``2 x`` the edge weight).
    """

    num_nodes: int
    num_checks: int
    num_qubits: int
    boundary_node: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_qubit: np.ndarray
    edge_capacity: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])

    @cached_property
    def incidence(self) -> np.ndarray:
        """``(num_nodes, max degree)``: the edges at each node.

        A row shorter than the widest repeats its first edge.  The
        boundary node's row (the boundary never grows a cluster) and
        an edgeless node's hold edge 0: an extra edge on a growth
        frontier costs a visit and changes nothing, since only an
        active cluster at one of its ends could grow it.
        """
        ends = np.concatenate([self.edge_u, self.edge_v])
        edges = np.tile(np.arange(self.num_edges, dtype=np.int64), 2)
        inner = ends != self.boundary_node
        order = np.argsort(ends[inner], kind="stable")
        ends, edges = ends[inner][order], edges[inner][order]
        degree = np.bincount(ends, minlength=self.num_nodes)
        slot = np.arange(ends.size) - (np.cumsum(degree) - degree)[ends]
        width = int(degree.max(initial=1))
        table = np.zeros((self.num_nodes, width), dtype=np.int64)
        table[ends, slot] = edges
        short = np.arange(width) >= degree[:, np.newaxis]
        table[short] = np.broadcast_to(table[:, :1], table.shape)[short]
        return table


def _spatial_edges(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Per-species ``(u, v, qubit)`` triples; boundary encoded as -1.

    The same construction rule as
    :class:`~repro.decoders.mwpm.MatchingGraph`: a data qubit touched
    by two checks links them; a qubit touched by one check links that
    check to the boundary if it is a boundary qubit (keeping the first
    boundary edge per check).
    """
    check = np.asarray(check_matrix, dtype=np.uint8)
    boundary = set(int(q) for q in boundary_qubits)
    edge_u: List[int] = []
    edge_v: List[int] = []
    edge_q: List[int] = []
    seen_pairs = set()
    boundary_linked = set()
    for qubit in range(check.shape[1]):
        touching = np.flatnonzero(check[:, qubit])
        if len(touching) == 2:
            pair = (int(touching[0]), int(touching[1]))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            edge_u.append(pair[0])
            edge_v.append(pair[1])
            edge_q.append(qubit)
        elif len(touching) == 1 and qubit in boundary:
            node = int(touching[0])
            if node in boundary_linked:
                continue
            boundary_linked.add(node)
            edge_u.append(node)
            edge_v.append(-1)
            edge_q.append(qubit)
    return edge_u, edge_v, edge_q


def build_space_graph(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> DecodingGraph:
    """The single-round decoding graph of one check species."""
    check = np.asarray(check_matrix, dtype=np.uint8)
    num_checks, num_qubits = check.shape
    edge_u, edge_v, edge_q = _spatial_edges(check, boundary_qubits)
    boundary_node = num_checks
    u = np.asarray(edge_u, dtype=np.int64)
    v = np.asarray(edge_v, dtype=np.int64)
    v = np.where(v < 0, boundary_node, v)
    return DecodingGraph(
        num_nodes=num_checks + 1,
        num_checks=num_checks,
        num_qubits=num_qubits,
        boundary_node=boundary_node,
        edge_u=u,
        edge_v=v,
        edge_qubit=np.asarray(edge_q, dtype=np.int64),
        edge_capacity=np.full(len(edge_q), 2, dtype=np.int64),
    )


def build_space_time_graph(
    check_matrix: np.ndarray,
    boundary_qubits: Sequence[int],
    rounds: int,
    time_weight: float = 1.0,
) -> DecodingGraph:
    """The ``rounds``-layer space-time decoding graph.

    Node ``(t, c)`` is index ``t * num_checks + c``; one boundary node
    serves every layer.  Spatial edges repeat per layer; temporal
    edges join ``(t, c)`` to ``(t+1, c)`` with capacity
    ``2 * time_weight`` (rounded, floor 1) and no data qubit.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if time_weight <= 0:
        raise ValueError("time_weight must be positive")
    check = np.asarray(check_matrix, dtype=np.uint8)
    num_checks, num_qubits = check.shape
    su, sv, sq = _spatial_edges(check, boundary_qubits)
    boundary_node = rounds * num_checks
    su_arr = np.asarray(su, dtype=np.int64)
    sv_arr = np.asarray(sv, dtype=np.int64)
    sq_arr = np.asarray(sq, dtype=np.int64)
    layers_u = []
    layers_v = []
    layers_q = []
    layers_cap = []
    for t in range(rounds):
        offset = t * num_checks
        layers_u.append(su_arr + offset)
        layers_v.append(
            np.where(sv_arr < 0, boundary_node, sv_arr + offset)
        )
        layers_q.append(sq_arr)
        layers_cap.append(np.full(len(sq), 2, dtype=np.int64))
    temporal_capacity = max(1, int(round(2 * time_weight)))
    for t in range(rounds - 1):
        checks = np.arange(num_checks, dtype=np.int64)
        layers_u.append(t * num_checks + checks)
        layers_v.append((t + 1) * num_checks + checks)
        layers_q.append(np.full(num_checks, -1, dtype=np.int64))
        layers_cap.append(
            np.full(num_checks, temporal_capacity, dtype=np.int64)
        )
    return DecodingGraph(
        num_nodes=rounds * num_checks + 1,
        num_checks=num_checks,
        num_qubits=num_qubits,
        boundary_node=boundary_node,
        edge_u=np.concatenate(layers_u),
        edge_v=np.concatenate(layers_v),
        edge_qubit=np.concatenate(layers_q),
        edge_capacity=np.concatenate(layers_cap),
    )


# ----------------------------------------------------------------------
# Disjoint-set kernels over k disjoint copies of one graph
# ----------------------------------------------------------------------
def find_roots(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Vectorized root lookup with path compression.

    ``parent`` is mutated in place (queried nodes are compressed
    toward their roots); returns the root of every entry of ``nodes``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    roots = parent[nodes]
    while True:
        above = parent[roots]
        if (above == roots).all():
            break
        parent[nodes] = above
        roots = above
    parent[nodes] = roots
    return roots


def _mark_incident(
    graph: DecodingGraph, nodes: np.ndarray, mask: np.ndarray
) -> None:
    """Set ``mask`` on every copy-edge at the copy-nodes ``nodes``."""
    rows, local = np.divmod(nodes, graph.num_nodes)
    mask[
        graph.incidence[local]
        + (rows * graph.num_edges)[:, np.newaxis]
    ] = True


def _merge(
    parent: np.ndarray,
    edges: np.ndarray,
    ends_a: np.ndarray,
    ends_b: np.ndarray,
    forest: np.ndarray,
) -> None:
    """Union the clusters that a step's filled ``edges`` join.

    ``ends_a``/``ends_b`` are the cluster roots at either end of each
    edge (never equal).  Unioning the edges one at a time in index
    order keeps the ones that join two clusters: Kruskal with the edge
    index as the weight, whose forest is unique.  Borůvka rounds pick
    the same forest with array operations: each cluster takes its
    lowest-index edge to another cluster and hooks onto that edge's
    far end (an edge both ends took hooks the larger root onto the
    smaller one, so hooks form no cycle), then pointer jumping
    contracts the hooked clusters.
    """
    lowest = np.full(parent.shape[0], _NO_EDGE)
    while edges.size:
        np.minimum.at(lowest, ends_a, edges)
        np.minimum.at(lowest, ends_b, edges)
        by_a = lowest[ends_a] == edges
        by_b = lowest[ends_b] == edges
        forest[edges[by_a | by_b]] = True
        hook_a = by_a & (~by_b | (ends_a > ends_b))
        hook_b = by_b & (~by_a | (ends_b > ends_a))
        parent[ends_a[hook_a]] = ends_b[hook_a]
        parent[ends_b[hook_b]] = ends_a[hook_b]
        lowest[ends_a] = lowest[ends_b] = _NO_EDGE
        ends_a = find_roots(parent, ends_a)
        ends_b = find_roots(parent, ends_b)
        outer = ends_a != ends_b
        edges, ends_a, ends_b = edges[outer], ends_a[outer], ends_b[outer]


def grow_clusters(
    graph: DecodingGraph, defects: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Grow odd clusters until even parity or boundary contact.

    ``defects`` is a ``(k, num_nodes)`` bool array: row ``r`` marks the
    defects of copy ``r`` of ``graph``, whose node ``n`` is
    ``r * num_nodes + n`` and edge ``e`` is ``r * num_edges + e``.
    Copies share no node or edge, so each grows exactly as it would
    alone.  Returns ``(parent, forest)``: the ``(k * num_nodes,)``
    disjoint-set parent array and the ``(k, num_edges)`` bool mask of
    edges that merged two clusters when they filled -- by
    construction a spanning forest of every final cluster.
    """
    defects = np.asarray(defects, dtype=bool)
    copies = defects.shape[0]
    num_nodes, num_edges = graph.num_nodes, graph.num_edges
    parent = np.arange(copies * num_nodes, dtype=np.int64)
    forest = np.zeros((copies, num_edges), dtype=bool)
    defect_nodes = np.flatnonzero(defects)
    if defect_nodes.size == 0 or num_edges == 0:
        return parent, forest
    # Support never passes capacity + 1 (an edge below capacity grows
    # by at most 2), so the smallest type holding that will do.
    support = np.zeros(
        copies * num_edges,
        dtype=np.min_scalar_type(int(graph.edge_capacity.max()) + 1),
    )
    odd = np.zeros(copies * num_nodes, dtype=bool)
    live = np.zeros(copies, dtype=bool)
    boundaries = graph.boundary_node + num_nodes * np.arange(copies)
    # Only an edge next to a defect-holding cluster can grow: an active
    # cluster holds a defect, and clusters gain nodes only through
    # filled edges, whose ends' edges join the frontier.
    frontier = np.zeros(copies * num_edges, dtype=bool)
    _mark_incident(graph, defect_nodes, frontier)
    # Any active cluster grows every iteration, so the total budget of
    # half-edge growth bounds the loop.
    for _ in range(int(graph.edge_capacity.sum()) + 1):
        roots = find_roots(parent, defect_nodes)
        np.logical_xor.at(odd, roots, True)
        odd[find_roots(parent, boundaries)] = False
        active = roots[odd[roots]]
        if active.size == 0:
            return parent, forest
        live[:] = False
        live[active // num_nodes] = True
        edges = np.flatnonzero(frontier)
        rows, local = np.divmod(edges, num_edges)
        node_u = graph.edge_u[local] + rows * num_nodes
        node_v = graph.edge_v[local] + rows * num_nodes
        root_u = find_roots(parent, node_u)
        root_v = find_roots(parent, node_v)
        # An edge inside one cluster, or in a copy without active
        # clusters, never grows again.  Every other edge is below
        # capacity: a filled edge joins its ends in the step it fills.
        keep = (root_u != root_v) & live[rows]
        frontier[edges[~keep]] = False
        edges, local = edges[keep], local[keep]
        node_u, node_v = node_u[keep], node_v[keep]
        root_u, root_v = root_u[keep], root_v[keep]
        grown = support[edges] + odd[root_u] + odd[root_v]
        support[edges] = grown
        odd[roots] = False
        filled = grown >= graph.edge_capacity[local]
        if filled.any():
            _merge(
                parent,
                edges[filled],
                root_u[filled],
                root_v[filled],
                forest.reshape(-1),
            )
            _mark_incident(
                graph,
                np.concatenate([node_u[filled], node_v[filled]]),
                frontier,
            )
    raise RuntimeError(
        "union-find growth failed to converge"
    )  # pragma: no cover - defensive


def peel_forest(
    graph: DecodingGraph, forest: np.ndarray, defects: np.ndarray
) -> np.ndarray:
    """Extract corrections from ``k`` grown spanning forests.

    ``forest`` is ``(k, num_edges)`` and ``defects`` ``(k,
    num_nodes)``, laid out as in :func:`grow_clusters`.  A forest edge
    flips exactly when the subtree on its leaf side holds an odd
    number of defects; the boundary node is never a leaf.  A tree
    without the boundary holds an even number, so both sides of each
    of its edges agree, and the flips do not depend on peel order.
    Each round therefore peels every leaf at once (a leaf's last edge
    is the XOR of its remaining edges' positions; when both ends of
    an edge are leaves the smaller id peels) and hands each leaf's
    defect parity to its neighbour.  Returns the ``(k, num_qubits)``
    bool corrections: each flipped spatial edge flips its data qubit.
    """
    forest = np.asarray(forest, dtype=bool)
    copies = forest.shape[0]
    num_nodes, num_edges = graph.num_nodes, graph.num_edges
    parity = np.asarray(defects, dtype=bool).ravel().copy()
    edges = np.flatnonzero(forest)
    correction = np.zeros((copies, graph.num_qubits), dtype=bool)
    if edges.size == 0:
        if parity.any():
            raise RuntimeError("defects outside the grown forest")
        return correction
    rows, local = np.divmod(edges, num_edges)
    node_u = graph.edge_u[local] + rows * num_nodes
    node_v = graph.edge_v[local] + rows * num_nodes
    size = parity.shape[0]
    degree = np.bincount(
        np.concatenate([node_u, node_v]), minlength=size
    )
    positions = np.arange(edges.size, dtype=np.int64)
    last = np.zeros(size, dtype=np.int64)
    np.bitwise_xor.at(last, node_u, positions)
    np.bitwise_xor.at(last, node_v, positions)
    flips = np.zeros(edges.size, dtype=bool)
    leaves = np.flatnonzero(degree == 1)
    while leaves.size:
        leaves = leaves[leaves % num_nodes != graph.boundary_node]
        position = last[leaves]
        other = node_u[position] + node_v[position] - leaves
        peel = (degree[other] != 1) | (other > leaves) | (
            other % num_nodes == graph.boundary_node
        )
        leaves, position, other = leaves[peel], position[peel], other[peel]
        carry = parity[leaves]
        flips[position] = carry
        parity[leaves] = False
        np.logical_xor.at(parity, other, carry)
        degree[leaves] = 0
        np.subtract.at(degree, other, 1)
        np.bitwise_xor.at(last, other, position)
        leaves = _distinct(other[degree[other] == 1])
    parity[graph.boundary_node :: num_nodes] = False
    if parity.any():
        raise RuntimeError("peeling left unpaired defects")
    qubits = graph.edge_qubit[local[flips]]
    spatial = qubits >= 0
    counts = np.bincount(
        rows[flips][spatial] * graph.num_qubits + qubits[spatial],
        minlength=correction.size,
    )
    return (counts % 2 == 1).reshape(correction.shape)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a small index array, ascending."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _decode_rows(graph: DecodingGraph, rows: np.ndarray) -> np.ndarray:
    """Grow and peel ``(k, num_nodes - 1)`` defect rows, chunk by chunk.

    Each chunk holds at most :data:`CHUNK_SLOTS` node and edge slots.
    """
    per_chunk = max(1, CHUNK_SLOTS // (graph.num_nodes + graph.num_edges))
    table = np.empty((rows.shape[0], graph.num_qubits), dtype=bool)
    for start in range(0, rows.shape[0], per_chunk):
        chunk = rows[start : start + per_chunk]
        defects = np.zeros((chunk.shape[0], graph.num_nodes), dtype=bool)
        defects[:, : graph.boundary_node] = chunk
        _parent, forest = grow_clusters(graph, defects)
        table[start : start + chunk.shape[0]] = peel_forest(
            graph, forest, defects
        )
    return table


# ----------------------------------------------------------------------
# Decoder frontends
# ----------------------------------------------------------------------
class UnionFindDecoder(GraphDecoder):
    """Single-round union-find decoding of one check species.

    Drop-in for :class:`~repro.decoders.mwpm.MwpmDecoder`: same
    constructor signature, same ``decode`` / ``decode_batch``
    contract.
    """

    def _solver(self, rounds: int) -> Solver:
        graph = build_space_graph(self.check_matrix, self.boundary_qubits)
        return partial(_decode_rows, graph)


class SpaceTimeUnionFindDecoder(SpaceTimeGraphDecoder):
    """Union-find decoding of repeated noisy syndrome rounds.

    API-compatible with
    :class:`~repro.decoders.spacetime.SpaceTimeMatchingDecoder`;
    space-time graphs are built once per round count.
    """

    def _solver(self, rounds: int) -> Solver:
        graph = build_space_time_graph(
            self.check_matrix,
            self.boundary_qubits,
            rounds,
            time_weight=self.time_weight,
        )
        return partial(_decode_rows, graph)

    # Bound in this class body so that tools resolving methods through
    # the class ``__dict__`` (the perf tracer) find it here.
    decode_batch = SpaceTimeGraphDecoder.decode_batch


def unionfind_dense_lut(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense gather table filled by union-find decoding."""
    return graph_dense_lut(
        "unionfind", UnionFindDecoder, check_matrix, boundary_qubits
    )
