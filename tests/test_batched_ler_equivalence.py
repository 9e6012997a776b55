"""The required equivalence gate for the batched LER decode path.

`BatchedLerExperiment` decodes with the array-native
:class:`~repro.decoders.batched.BatchedWindowedLutDecoder`; the
pre-vectorization reference (one scalar
:class:`~repro.decoders.rule_based.WindowedLutDecoder` per shot,
:class:`~repro.decoders.rule_based.PerShotWindowedLutDecoder`) is
registered as ``"per-shot-lut"`` while the comparisons run.  Because
decoder decisions feed back into the cores' frame state, any
divergence — in the tables, the vote, the carry-state or the
correction masks — cascades into different syndrome streams, so
comparing final :class:`~repro.experiments.results.BatchCounts` bit
for bit is a complete end-to-end check of the batched hot path.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.decoders import BatchedWindowedLutDecoder, clear_lut_cache
from repro.decoders.registry import (
    CAP_EXACT,
    CAP_WINDOWED,
    RegisteredDecoder,
    list_decoders,
    register_decoder,
    unregister_decoder,
)
from repro.decoders.rule_based import PerShotWindowedLutDecoder
from repro.experiments.ler import BatchedLerExperiment


@pytest.fixture(scope="class")
def per_shot_lut():
    """The scalar reference, registered as ``"per-shot-lut"``."""
    register_decoder(
        RegisteredDecoder(
            name="per-shot-lut",
            summary="one scalar windowed LUT decoder per shot",
            capabilities=frozenset((CAP_EXACT, CAP_WINDOWED)),
            window_builder=lambda window: PerShotWindowedLutDecoder(
                window.x_check_matrix,
                window.z_check_matrix,
                use_majority_vote=window.use_majority_vote,
            ),
        )
    )
    yield
    unregister_decoder("per-shot-lut")


def _counts(decoder_impl, seed, per=8e-3, use_frame=True, kind="x", **kw):
    return BatchedLerExperiment(
        per,
        num_shots=kw.pop("num_shots", 6),
        use_pauli_frame=use_frame,
        error_kind=kind,
        windows=kw.pop("windows", 8),
        seed=seed,
        decoder_impl=decoder_impl,
        **kw,
    ).run_counts()


def _assert_identical(batched, per_shot):
    assert np.array_equal(batched.logical_errors, per_shot.logical_errors)
    assert np.array_equal(batched.clean_windows, per_shot.clean_windows)
    assert np.array_equal(
        batched.corrections_commanded, per_shot.corrections_commanded
    )


@pytest.mark.usefixtures("per_shot_lut")
class TestBitIdenticalCounts:
    @pytest.mark.parametrize("seed", [0, 7, 2017])
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_both_arms(self, seed, use_frame):
        _assert_identical(
            _counts("lut", seed, use_frame=use_frame),
            _counts("per-shot-lut", seed, use_frame=use_frame),
        )

    @pytest.mark.parametrize("kind", ["x", "z"])
    def test_both_error_kinds(self, kind):
        _assert_identical(
            _counts("lut", 42, kind=kind),
            _counts("per-shot-lut", 42, kind=kind),
        )

    def test_single_shot_batch(self):
        _assert_identical(
            _counts("lut", 3, num_shots=1),
            _counts("per-shot-lut", 3, num_shots=1),
        )

    def test_without_majority_vote(self):
        _assert_identical(
            _counts("lut", 5, use_majority_vote=False),
            _counts("per-shot-lut", 5, use_majority_vote=False),
        )

    def test_three_round_windows(self):
        """Odd window size exercises the drop-oldest vote rule."""
        _assert_identical(
            _counts("lut", 6, rounds_per_window=3),
            _counts("per-shot-lut", 6, rounds_per_window=3),
        )

    def test_wider_batch_near_threshold(self):
        _assert_identical(
            _counts("lut", 1, per=2e-2, num_shots=20, windows=6),
            _counts("per-shot-lut", 1, per=2e-2, num_shots=20, windows=6),
        )


class TestDecoderImplWiring:
    def test_invalid_decoder_impl_rejected(self):
        with pytest.raises(ValueError):
            BatchedLerExperiment(
                5e-3, num_shots=2, decoder_impl="quantum"
            )

    def test_windowed_decoders_are_batched(self):
        names = [
            spec.name
            for spec in list_decoders()
            if CAP_WINDOWED in spec.capabilities
        ]
        assert names == ["lut", "mwpm", "sparse-mwpm", "unionfind"]
        for name in names:
            experiment = BatchedLerExperiment(
                5e-3, num_shots=4, seed=0, decoder_impl=name
            )
            assert experiment.decoder_impl == name
            assert type(experiment.decoder) is BatchedWindowedLutDecoder

    def test_lut_built_once_per_process_not_per_shot(self):
        """O(shots) brute-force builds collapse to O(1) cached ones."""
        clear_lut_cache()
        with telemetry.enabled() as collector:
            BatchedLerExperiment(5e-3, num_shots=50, seed=0)
        counters = collector.counters[("decoder.batched", "lut_cache")]
        assert counters["misses"] == 2  # one build per check species
        with telemetry.enabled() as collector:
            BatchedLerExperiment(5e-3, num_shots=50, seed=1)
        counters = collector.counters[("decoder.batched", "lut_cache")]
        assert counters == {"hits": 2}

    def test_batched_run_emits_batch_decode_spans(self):
        with telemetry.enabled() as collector:
            BatchedLerExperiment(
                5e-3, num_shots=3, windows=4, seed=9
            ).run_counts()
        key = (
            "decoder.batched",
            "BatchedWindowedLutDecoder.decode_window",
        )
        assert collector.span_totals[key][0] == 4
        counters = collector.counters[
            ("decoder.batched", "BatchedWindowedLutDecoder")
        ]
        assert counters["batch_decisions"] == 5  # init + 4 windows
        assert counters["shots"] == 15
