"""First-class decoder registry: names, capabilities, builders.

Every decoder registers a :class:`RegisteredDecoder` — canonical
``name``, one-line ``summary``, a frozenset of **capability flags**
and the builder callables for the contexts it supports.  Consumers
call :func:`get_decoder`, then ``spec.build(window)`` for the
Surface-17 windowed protocol or ``spec.build_spacetime`` for the
code-capacity, phenomenological and memory scaling experiments (a
code-capacity syndrome is a one-round history).

Every batched windowed decoder is the one
:class:`~repro.decoders.batched.BatchedWindowedLutDecoder`: an
algorithm contributes only its process-cached dense-table function
(``dense_lut``, ``mwpm_dense_lut``, ``unionfind_dense_lut``,
``sparse_mwpm_dense_lut``), and one generic window builder turns it
into the decoder's two gather tables.  A graph decoder's space-time
builder is its one class (a
:class:`~repro.decoders.graph.GraphDecoder` subclass).  Every decoder
is chosen by name alone: no build takes parameters.

Capability flags:

=========================== =======================================
:data:`CAP_EXACT`            provably minimum-weight / reference-
                             LUT-identical corrections
:data:`CAP_SPARSE`           scales past the dense-LUT check-count
                             ceiling (no ``2^checks`` tables)
:data:`CAP_WINDOWED`         builds the SC17 windowed protocol form
:data:`CAP_SPACETIME`        builds the space-time graph decoder
=========================== =======================================

The CLI surfaces the registry as ``repro decoders`` and takes
``--decoder NAME``; serve jobs take the same name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .batched import BatchedWindowedLutDecoder, dense_lut
from .mwpm import (
    SpaceTimeMatchingDecoder,
    boundary_qubits_for,
    mwpm_dense_lut,
)
from .sparse import SparseSpaceTimeMatchingDecoder, sparse_mwpm_dense_lut
from .unionfind import SpaceTimeUnionFindDecoder, unionfind_dense_lut

#: Corrections are provably minimum-weight (or bit-identical to the
#: reference LUT protocol) — what the golden digests pin.
CAP_EXACT = "exact"
#: No dense ``2^checks`` table anywhere: usable at d >= 15.
CAP_SPARSE = "sparse"
#: Builds the Surface-17 windowed-protocol decoder.
CAP_WINDOWED = "windowed"
#: Builds single-species space-time graph decoders.
CAP_SPACETIME = "spacetime"


class DecoderRegistryError(ValueError):
    """Base error of the decoder registry."""


class UnknownDecoderError(DecoderRegistryError):
    """No decoder registered under the requested name."""


class DuplicateDecoderError(DecoderRegistryError):
    """A decoder name was registered twice."""


class CapabilityError(DecoderRegistryError):
    """The decoder cannot be built for the requested context."""


@dataclass(frozen=True)
class WindowContext:
    """Build context of the Surface-17 windowed protocol.

    Attributes
    ----------
    x_check_matrix, z_check_matrix:
        The protocol's CSS check matrices (possibly a row permutation
        of the geometry code's — the SC17 layout is).
    code:
        The geometry provider for boundary lookups
        (:func:`~repro.decoders.mwpm.boundary_qubits_for` must accept
        it); data-qubit labelling must match the check matrices.
    use_majority_vote:
        The Tomita–Svore cross-round vote ablation knob.
    """

    x_check_matrix: Any
    z_check_matrix: Any
    code: Any
    use_majority_vote: bool = True


@dataclass(frozen=True)
class RegisteredDecoder:
    """One registry entry: identity, capabilities and builders.

    ``window_builder`` receives the :class:`WindowContext` alone;
    ``spacetime_builder`` receives ``(check_matrix, boundary_qubits)``.
    Missing builders mean the capability is absent and
    :class:`CapabilityError` is raised on use.
    """

    name: str
    summary: str
    capabilities: frozenset
    window_builder: Optional[Callable[..., Any]] = None
    spacetime_builder: Optional[Callable[..., Any]] = None

    # ------------------------------------------------------------------
    def build(self, window: Optional[WindowContext] = None) -> Any:
        """Build the windowed-protocol decoder.

        ``window`` carries the protocol context (check matrices,
        geometry, vote knob).
        """
        if self.window_builder is None:
            raise CapabilityError(
                f"decoder {self.name!r} does not support the windowed "
                f"protocol (capability {CAP_WINDOWED!r} missing)"
            )
        if window is None:
            raise CapabilityError(
                "windowed build requires a WindowContext"
            )
        return self.window_builder(window)

    def build_spacetime(
        self, check_matrix: Any, boundary_qubits: Sequence[int]
    ) -> Any:
        """Build the graph decoder of one check species.

        It decodes ``(shots, rounds, checks)`` histories; a single
        perfect round is the one-round history (``decode``).
        """
        if self.spacetime_builder is None:
            raise CapabilityError(
                f"decoder {self.name!r} does not support space-time "
                f"decoding (capability {CAP_SPACETIME!r} missing)"
            )
        return self.spacetime_builder(check_matrix, boundary_qubits)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready description (the ``repro decoders`` payload)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "capabilities": sorted(self.capabilities),
        }


_REGISTRY: Dict[str, RegisteredDecoder] = {}


def register_decoder(spec: RegisteredDecoder) -> RegisteredDecoder:
    """Add ``spec`` to the registry.

    Raises :class:`DuplicateDecoderError` when the name is taken.
    """
    if spec.name in _REGISTRY:
        raise DuplicateDecoderError(
            f"decoder name {spec.name!r} already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_decoder(name: str) -> None:
    """Remove a decoder (test hygiene helper)."""
    if _REGISTRY.pop(name, None) is None:
        raise UnknownDecoderError(f"unknown decoder {name!r}")


def get_decoder(name: str) -> RegisteredDecoder:
    """The :class:`RegisteredDecoder` registered under ``name``."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownDecoderError(
            f"unknown decoder {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return spec


def list_decoders() -> List[RegisteredDecoder]:
    """All registered decoders, sorted by canonical name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Built-in decoders
# ----------------------------------------------------------------------
def _build_window(
    dense_table: Callable[..., Tuple[Any, Any]],
    window: WindowContext,
) -> BatchedWindowedLutDecoder:
    """The batched window decoder over ``dense_table``'s two tables.

    ``dense_table(check_matrix, boundary_qubits)`` is one algorithm's
    process-cached table function; each species' boundary qubits come
    from the window's geometry.
    """
    x_table, _ = dense_table(
        window.x_check_matrix, boundary_qubits_for(window.code, "x")
    )
    z_table, _ = dense_table(
        window.z_check_matrix, boundary_qubits_for(window.code, "z")
    )
    return BatchedWindowedLutDecoder(
        window.x_check_matrix,
        window.z_check_matrix,
        use_majority_vote=window.use_majority_vote,
        tables=(x_table, z_table),
    )


def _lut_table(
    check_matrix: Any, boundary_qubits: Sequence[int]
) -> Tuple[Any, Any]:
    """:func:`dense_lut` in the table-function shape of the others.

    Minimum-weight enumeration needs no boundary geometry.
    """
    return dense_lut(check_matrix)


def _register_builtins() -> None:
    register_decoder(
        RegisteredDecoder(
            name="lut",
            summary=(
                "dense minimum-weight lookup tables, batched "
                "gather decoding (exact, SC17-sized codes)"
            ),
            capabilities=frozenset((CAP_EXACT, CAP_WINDOWED)),
            window_builder=partial(_build_window, _lut_table),
        )
    )
    register_decoder(
        RegisteredDecoder(
            name="mwpm",
            summary=(
                "exact Blossom minimum-weight perfect matching "
                "(networkx; windowed tables + space-time graphs)"
            ),
            capabilities=frozenset(
                (CAP_EXACT, CAP_WINDOWED, CAP_SPACETIME)
            ),
            window_builder=partial(_build_window, mwpm_dense_lut),
            spacetime_builder=SpaceTimeMatchingDecoder,
        )
    )
    register_decoder(
        RegisteredDecoder(
            name="unionfind",
            summary=(
                "array-native union-find (cluster growth + "
                "peeling); almost-linear, scales to d >= 15"
            ),
            capabilities=frozenset(
                (CAP_SPARSE, CAP_WINDOWED, CAP_SPACETIME)
            ),
            window_builder=partial(_build_window, unionfind_dense_lut),
            spacetime_builder=SpaceTimeUnionFindDecoder,
        )
    )
    register_decoder(
        RegisteredDecoder(
            name="sparse-mwpm",
            summary=(
                "sparse local matching: csgraph shortest paths + "
                "exact subset-DP pairing (greedy past 16 defects)"
            ),
            capabilities=frozenset(
                (CAP_SPARSE, CAP_WINDOWED, CAP_SPACETIME)
            ),
            window_builder=partial(
                _build_window, sparse_mwpm_dense_lut
            ),
            spacetime_builder=SparseSpaceTimeMatchingDecoder,
        )
    )


_register_builtins()
