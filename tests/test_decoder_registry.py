"""Unit suite of the decoder registry (names, capabilities, builders).

The registry (:mod:`repro.decoders.registry`) is the single decoder
selection point of the experiment stack: names, capability flags, the
builders that hand each algorithm's tables to the one batched window
decoder, and the graph decoders' classes.  A decoder is chosen by its
name alone.
"""

import warnings

import pytest

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import (
    boundary_qubits_for,
    dense_lut,
    mwpm_dense_lut,
    sparse_mwpm_dense_lut,
    unionfind_dense_lut,
    unpack_syndromes,
)
from repro.decoders.registry import (
    CAP_EXACT,
    CAP_SPACETIME,
    CAP_SPARSE,
    CAP_WINDOWED,
    CapabilityError,
    DuplicateDecoderError,
    RegisteredDecoder,
    UnknownDecoderError,
    WindowContext,
    get_decoder,
    list_decoders,
    register_decoder,
    unregister_decoder,
)


class TestCatalogue:
    def test_builtins_present(self):
        names = [spec.name for spec in list_decoders()]
        assert names == sorted(names)
        for expected in (
            "lut",
            "mwpm",
            "unionfind",
            "sparse-mwpm",
        ):
            assert expected in names

    def test_capability_flags(self):
        assert CAP_EXACT in get_decoder("lut").capabilities
        assert CAP_EXACT in get_decoder("mwpm").capabilities
        for sparse_name in ("unionfind", "sparse-mwpm"):
            spec = get_decoder(sparse_name)
            assert CAP_SPARSE in spec.capabilities
            assert CAP_SPACETIME in spec.capabilities
        assert CAP_SPACETIME not in get_decoder("lut").capabilities

    def test_describe_is_json_ready(self):
        description = get_decoder("unionfind").describe()
        assert description["name"] == "unionfind"
        assert description["capabilities"] == sorted(
            description["capabilities"]
        )
        assert set(description) == {"name", "summary", "capabilities"}

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownDecoderError):
            get_decoder("quantum")

    def test_canonical_names_resolve_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_decoder("lut").name == "lut"
            assert get_decoder("unionfind").name == "unionfind"


class TestRegistration:
    def _spec(self, name):
        return RegisteredDecoder(
            name=name,
            summary="test decoder",
            capabilities=frozenset((CAP_WINDOWED,)),
        )

    def test_register_and_unregister(self):
        register_decoder(self._spec("test-dec"))
        try:
            assert get_decoder("test-dec").name == "test-dec"
        finally:
            unregister_decoder("test-dec")
        with pytest.raises(UnknownDecoderError):
            get_decoder("test-dec")

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateDecoderError):
            register_decoder(self._spec("lut"))

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownDecoderError):
            unregister_decoder("never-registered")


class TestCapabilityRefusal:
    def test_lut_refuses_spacetime_build(self):
        code = RotatedSurfaceCode(3)
        with pytest.raises(CapabilityError):
            get_decoder("lut").build_spacetime(
                code.z_check_matrix, boundary_qubits_for(code, "z")
            )

    def test_windowed_build_requires_context(self):
        with pytest.raises(CapabilityError):
            get_decoder("lut").build(None)

    def test_unknown_graph_param_rejected(self):
        # The builders take the check matrix and boundary only.
        code = RotatedSurfaceCode(3)
        with pytest.raises(TypeError):
            get_decoder("unionfind").build_spacetime(
                code.z_check_matrix,
                boundary_qubits_for(code, "z"),
                growth_rate=3,
            )


class TestArgumentGrammar:
    """A decoder is a name: no ``NAME:KEY=VALUE`` tail is parsed."""

    def test_bare_name(self):
        assert get_decoder("unionfind").name == "unionfind"

    @pytest.mark.parametrize(
        "value", ["", ":k=v", "name:novalue", "name:=3", "name:,"]
    )
    def test_malformed_rejected(self, value):
        with pytest.raises(UnknownDecoderError):
            get_decoder(value)


class TestExperimentWiring:
    def test_space_builders_produce_working_decoders(self):
        import numpy as np

        from repro.decoders import syndrome_of

        code = RotatedSurfaceCode(3)
        boundary = boundary_qubits_for(code, "z")
        for name in ("mwpm", "unionfind", "sparse-mwpm"):
            decoder = get_decoder(name).build_space(
                code.z_check_matrix, boundary
            )
            error = np.zeros(code.num_data, dtype=np.uint8)
            error[0] = 1
            syndrome = syndrome_of(code.z_check_matrix, error)
            residual = error.astype(bool) ^ decoder.decode(syndrome)
            assert not syndrome_of(
                code.z_check_matrix, residual.astype(np.uint8)
            ).any()

    def test_spacetime_builder_accepts_time_weight(self):
        # The builder is the decoder class; its constructor still
        # takes time_weight, the registry does not.
        code = RotatedSurfaceCode(3)
        decoder = get_decoder("unionfind").spacetime_builder(
            code.z_check_matrix,
            boundary_qubits_for(code, "z"),
            time_weight=2.0,
        )
        assert decoder.time_weight == 2.0

    @pytest.mark.parametrize(
        "name, dense_table",
        [
            ("lut", lambda check, boundary: dense_lut(check)),
            ("mwpm", mwpm_dense_lut),
            ("unionfind", unionfind_dense_lut),
            ("sparse-mwpm", sparse_mwpm_dense_lut),
        ],
    )
    def test_window_builder_decodes_with_its_own_tables(
        self, name, dense_table
    ):
        # Every one of the 16 syndromes of each SC17 species, fed as a
        # single initialization round, must come back exactly as the
        # algorithm's own dense table row.
        import numpy as np

        from repro.codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX

        code = RotatedSurfaceCode(3)
        window = WindowContext(X_CHECK_MATRIX, Z_CHECK_MATRIX, code=code)
        decoder = get_decoder(name).build(window)
        syndromes = unpack_syndromes(np.arange(16), 4)[:, np.newaxis]
        decision = decoder.initialize(syndromes, syndromes)
        x_table, _ = dense_table(
            X_CHECK_MATRIX, boundary_qubits_for(code, "x")
        )
        z_table, _ = dense_table(
            Z_CHECK_MATRIX, boundary_qubits_for(code, "z")
        )
        assert np.array_equal(decision.z_corrections, x_table)
        assert np.array_equal(decision.x_corrections, z_table)

    @pytest.mark.parametrize(
        "decoder, pinned",
        [("lut", {}), ("mwpm", {"decoder": "mwpm"})],
        ids=["lut", "mwpm"],
    )
    def test_checkpoint_header_pins_the_decoder_by_name(
        self, decoder, pinned
    ):
        """Headers keep the layout existing checkpoints were written
        in, so they still resume: ``lut`` unpinned, others by name."""
        from repro.experiments.parallel import _checkpoint_config

        config = _checkpoint_config(
            [1e-2, 3e-3], "x", 200, 50, 15, 5, 50, 2_000_000,
            decoder=decoder,
        )
        assert config == {
            "per_values": [0.01, 0.003],
            "error_kind": "x",
            "shots": 200,
            "shard_shots": 50,
            "windows": 15,
            "seed": 5,
            "max_logical_errors": 50,
            "max_windows": 2000000,
            "rng_stream": "exact",
            **pinned,
        }
