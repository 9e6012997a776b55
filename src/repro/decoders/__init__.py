"""Error-syndrome decoders: LUT, matching, union-find, sparse.

Scalar decoders (`LutDecoder`, `WindowedLutDecoder`, ...) decode one
syndrome at a time.  The batched experiments decode every shot of a
window through one driver,
:class:`~repro.decoders.batched.BatchedWindowedLutDecoder`: a numpy
gather over two process-cached dense tables, which the LUT, MWPM,
union-find and sparse-matching algorithms each fill in their own way.
The three graph algorithms (MWPM, union-find, sparse matching)
supply only their defect solvers to one seam,
:mod:`~repro.decoders.graph`, which dedupes batches, derives
detection events and fills their dense tables; union-find and sparse
matching also scale past the dense-table ceiling (d >= 15).  All of
them register in the :mod:`~repro.decoders.registry`, which is how
experiments, the CLI and the serve fleet select decoders by name.
"""

from .batched import (
    BatchedWindowDecision,
    BatchedWindowedLutDecoder,
    build_dense_lut,
    clear_lut_cache,
    dense_lut,
    lut_cache_size,
    pack_syndromes,
    unpack_syndromes,
)
from .lut import (
    LutDecoder,
    TwoLutDecoder,
    build_lut,
    correction_operations,
    pack_syndrome,
    syndrome_of,
    unpack_syndrome,
)
from .graph import GraphDecoder, SpaceTimeGraphDecoder, graph_dense_lut
from .mwpm import (
    MatchingGraph,
    MwpmDecoder,
    boundary_qubits_for,
    mwpm_dense_lut,
)
from .registry import (
    CAP_EXACT,
    CAP_SPACETIME,
    CAP_SPARSE,
    CAP_WINDOWED,
    CapabilityError,
    DecoderRegistryError,
    DuplicateDecoderError,
    RegisteredDecoder,
    UnknownDecoderError,
    WindowContext,
    get_decoder,
    list_decoders,
    register_decoder,
    unregister_decoder,
)
from .rule_based import (
    SyndromeRound,
    WindowedMatchingDecoder,
    WindowDecision,
    WindowedLutDecoder,
    majority_vote,
)
from .spacetime import SpaceTimeMatchingDecoder
from .sparse import (
    SparseMatchingGraph,
    SparseMwpmDecoder,
    SparseSpaceTimeMatchingDecoder,
    sparse_mwpm_dense_lut,
)
from .unionfind import (
    DecodingGraph,
    SpaceTimeUnionFindDecoder,
    UnionFindDecoder,
    build_space_graph,
    build_space_time_graph,
    find_roots,
    grow_clusters,
    peel_forest,
    unionfind_dense_lut,
)

__all__ = [
    "LutDecoder",
    "TwoLutDecoder",
    "build_lut",
    "pack_syndrome",
    "unpack_syndrome",
    "syndrome_of",
    "correction_operations",
    "SyndromeRound",
    "WindowDecision",
    "WindowedLutDecoder",
    "majority_vote",
    "MwpmDecoder",
    "MatchingGraph",
    "boundary_qubits_for",
    "SpaceTimeMatchingDecoder",
    "WindowedMatchingDecoder",
    "BatchedWindowDecision",
    "BatchedWindowedLutDecoder",
    "build_dense_lut",
    "dense_lut",
    "mwpm_dense_lut",
    "pack_syndromes",
    "unpack_syndromes",
    "clear_lut_cache",
    "lut_cache_size",
    # the graph-decoder seam
    "GraphDecoder",
    "SpaceTimeGraphDecoder",
    "graph_dense_lut",
    # union-find
    "DecodingGraph",
    "build_space_graph",
    "build_space_time_graph",
    "find_roots",
    "grow_clusters",
    "peel_forest",
    "UnionFindDecoder",
    "SpaceTimeUnionFindDecoder",
    "unionfind_dense_lut",
    # sparse matching
    "SparseMatchingGraph",
    "SparseMwpmDecoder",
    "SparseSpaceTimeMatchingDecoder",
    "sparse_mwpm_dense_lut",
    # registry
    "CAP_EXACT",
    "CAP_SPARSE",
    "CAP_WINDOWED",
    "CAP_SPACETIME",
    "RegisteredDecoder",
    "WindowContext",
    "DecoderRegistryError",
    "UnknownDecoderError",
    "DuplicateDecoderError",
    "CapabilityError",
    "register_decoder",
    "unregister_decoder",
    "get_decoder",
    "list_decoders",
]
