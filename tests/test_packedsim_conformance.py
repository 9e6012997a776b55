"""Conformance gate of the bit-packed lockstep core.

The contract has two halves, and both are tested at the bit level
where possible:

* ``engine="framesim"`` (exact RNG mode) consumes the same random
  stream as the operation-by-operation loop over the bool
  ``FrameArray`` kernels (``tests/test_lockstep.py``), draw for draw,
  so whole-experiment :class:`BatchCounts` and measurement streams
  must be **bit-identical** to that loop -- across every arm, error
  kind, window shape, and in particular across shot counts that
  exercise the ragged last ``uint64`` word (1, 63, 64, 65, 1000);
* ``engine="packed-fast"`` draws noise at the word level: a different
  stream of the same channel, so it is held to the *distributional*
  standard of the differential-fuzz corpus (exact state-vector
  enumeration at small n, and the exact mode's samples under
  built-in noise) instead of bit equality.  Both modes are sampled
  through :func:`repro.qpdo.sample`.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.decoders.registry import CAP_WINDOWED, list_decoders
from repro.experiments.ler import ENGINES, BatchedLerExperiment
from repro.experiments.parallel import plan_shards
from repro.qpdo import PackedStabilizerCore, sample
from repro.serve.workers import JobParamsError, check_job_params
from repro.sim import NoiseParameters
from repro.codes.surface17.esm import parallel_esm

from .test_framesim_equivalence import exact_distribution
from .test_fuzz_differential import (
    CORPUS_SEEDS,
    _chisquare_against_exact,
    _chisquare_homogeneity,
    random_noisy_circuit,
)
from .test_lockstep import LoopCore, check_against_loop

#: The ragged-last-word shot counts: below, at, and above one word,
#: plus the single-shot degenerate case and a many-word count.
RAGGED_SHOTS = (1, 63, 64, 65)

#: The experiment every count comparison runs, unless overridden.
DEFAULTS = dict(
    physical_error_rate=8e-3,
    num_shots=65,
    windows=5,
    seed=23,
)


def counts_tuple(counts):
    return (
        counts.logical_errors.tolist(),
        counts.clean_windows.tolist(),
        counts.corrections_commanded.tolist(),
    )


def run_counts(engine, **kwargs):
    return BatchedLerExperiment(
        engine=engine, **{**DEFAULTS, **kwargs}
    ).run_counts()


def loop_counts(**kwargs):
    """framesim's counts with its core replaced by the operation loop."""
    kwargs = {**DEFAULTS, **kwargs}
    experiment = BatchedLerExperiment(engine="framesim", **kwargs)
    core = experiment.core
    experiment.core = LoopCore(
        "framesim", core.num_shots, core.noise, kwargs["seed"],
        core.num_qubits,
    )
    return experiment.run_counts()


class TestBatchCountsBitIdentity:
    """engine="framesim" == the same experiment on the operation loop,
    bit for bit."""

    @pytest.mark.parametrize("num_shots", RAGGED_SHOTS)
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_ragged_shot_counts(self, num_shots, use_frame):
        kwargs = dict(num_shots=num_shots, use_pauli_frame=use_frame)
        assert counts_tuple(run_counts("framesim", **kwargs)) == (
            counts_tuple(loop_counts(**kwargs))
        )

    @pytest.mark.parametrize("error_kind", ["x", "z"])
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_arms_and_error_kinds(self, error_kind, use_frame):
        kwargs = dict(error_kind=error_kind, use_pauli_frame=use_frame)
        assert counts_tuple(run_counts("framesim", **kwargs)) == (
            counts_tuple(loop_counts(**kwargs))
        )

    @pytest.mark.parametrize(
        "shape",
        [
            # (rounds_per_window, init_rounds, use_majority_vote)
            (1, 3, True),  # odd history: no drop-oldest
            (3, 5, True),  # even history: drop-oldest path
            (2, 3, False),  # last-round-only (no vote)
        ],
    )
    def test_window_shapes(self, shape):
        rounds, init, vote = shape
        kwargs = dict(
            rounds_per_window=rounds,
            init_rounds=init,
            use_majority_vote=vote,
        )
        assert counts_tuple(run_counts("framesim", **kwargs)) == (
            counts_tuple(loop_counts(**kwargs))
        )

    @pytest.mark.parametrize(
        "decoder",
        [
            spec.name
            for spec in list_decoders()
            if CAP_WINDOWED in spec.capabilities
        ],
    )
    def test_windowed_decoders(self, decoder):
        """Every decoder's feedback reaches the frames exactly.

        At PER 2e-2 corrections fire in most windows and union-find's
        counts already differ from the LUT's, so each decoder's own
        table rows are exercised.
        """
        kwargs = dict(
            physical_error_rate=2e-2,
            num_shots=16,
            windows=8,
            seed=2017,
            decoder_impl=decoder,
        )
        assert counts_tuple(run_counts("framesim", **kwargs)) == (
            counts_tuple(loop_counts(**kwargs))
        )

    def test_thousand_shots(self):
        """15.6 words + 40 ragged tail bits, both arms."""
        for use_frame in (False, True):
            kwargs = dict(
                num_shots=1000, windows=3, use_pauli_frame=use_frame
            )
            assert counts_tuple(run_counts("framesim", **kwargs)) == (
                counts_tuple(loop_counts(**kwargs))
            )


class TestPackedCoreBitIdentity:
    """SC17 ESM rounds on the core against the operation loop, with
    random Pauli feedback and shot-masked noise after every round."""

    @pytest.mark.parametrize("num_shots", RAGGED_SHOTS)
    def test_esm_rounds_and_feedback(self, num_shots):
        esm = parallel_esm(list(range(17)), name="esm")
        noise = NoiseParameters(8e-3, active_qubits=range(17))
        check_against_loop(
            "framesim",
            42,
            noise,
            [esm.circuit] * 3,
            (num_shots, 17),
            np.random.default_rng(7),
        )

    def test_scalar_core_contract(self):
        """measurements and getstate expose shot 0."""
        esm = parallel_esm(list(range(17)), name="esm")
        noise = NoiseParameters(8e-3, active_qubits=range(17))
        core, result = check_against_loop(
            "framesim",
            9,
            noise,
            [esm.circuit],
            (66, 17),
            np.random.default_rng(7),
        )
        assert core.getstate().known_bits() == {
            m.qubits[0]: result.measurements[m.uid]
            for m in esm.x_measurements + esm.z_measurements
        }


class TestPackedFastDistribution:
    """packed-fast: a different stream of the same channel."""

    @pytest.mark.parametrize("fuzz_seed", CORPUS_SEEDS[:3])
    def test_matches_exact_distribution(self, fuzz_seed):
        rng = np.random.default_rng(fuzz_seed)
        num_qubits = int(rng.integers(2, 6))
        circuit = random_noisy_circuit(
            num_qubits, int(rng.integers(6, 15)), rng
        )
        expected = exact_distribution(circuit, num_qubits)
        shots = 2000
        samples = sample(
            circuit,
            shots,
            seed=fuzz_seed + 1,
            num_qubits=num_qubits,
            rng_mode="fast",
        )
        _chisquare_against_exact(
            samples, expected, shots, context=fuzz_seed
        )

    def test_noisy_distribution_matches_exact(self):
        """Fast-mode depolarizing sampling against the exact mode: run
        a random circuit under built-in noise in both modes at matched
        shots (homogeneity via the chi-square helper on pooled
        streams)."""
        rng = np.random.default_rng(77)
        num_qubits = 3
        circuit = random_noisy_circuit(num_qubits, 10, rng)
        shots = 4000
        noise = NoiseParameters(0.05)
        reference = sample(
            circuit,
            shots,
            seed=5,
            noise=noise,
            num_qubits=num_qubits,
            rng_mode="exact",
        )
        fast = sample(
            circuit,
            shots,
            seed=6,
            noise=noise,
            num_qubits=num_qubits,
            rng_mode="fast",
        )
        _chisquare_homogeneity(reference, fast, context="packed-fast")

    def test_deterministic_for_fixed_seed(self):
        first = run_counts("packed-fast", num_shots=128, windows=3)
        second = run_counts("packed-fast", num_shots=128, windows=3)
        assert counts_tuple(first) == counts_tuple(second)


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            BatchedLerExperiment(8e-3, num_shots=4, engine="quantum")

    def test_packed_core_refuses_non_clifford(self):
        from repro.circuits import Circuit
        from repro.circuits.operation import Operation

        circuit = Circuit("t")
        circuit.append(Operation("t", (0,)))
        core = PackedStabilizerCore(4, seed=1)
        core.createqubit(1)
        core.add(circuit)
        with pytest.raises(ValueError, match="non-Clifford"):
            core.execute()

    def test_packed_capabilities(self):
        from repro.qpdo.core import CAP_BATCH, CAP_NON_CLIFFORD

        core = PackedStabilizerCore(4, seed=1)
        assert core.supports(CAP_BATCH)
        assert not core.supports(CAP_NON_CLIFFORD)

    @pytest.mark.parametrize(
        "door",
        ["cli-ler", "cli-sweep", "serve", "plan_shards", "experiment"],
    )
    def test_engine_set_is_one_decision(self, door, capsys):
        """Every front door accepts exactly ``ENGINES``: the retired
        ``packed`` name is refused, each listed engine runs."""

        def cli(argv):
            assert main(argv + ["--json"]) == 0

        call, refusal = {
            "cli-ler": (
                lambda engine: cli(
                    ["ler", "--batch", "4", "--windows", "1"]
                    + ["--engine", engine]
                ),
                SystemExit,
            ),
            "cli-sweep": (
                lambda engine: cli(
                    ["sweep", "--batch", "1", "--samples", "2"]
                    + ["--engine", engine]
                ),
                SystemExit,
            ),
            "serve": (
                lambda engine: check_job_params(
                    "ler", {"physical_error_rate": 1e-2, "engine": engine}
                ),
                JobParamsError,
            ),
            "plan_shards": (
                lambda engine: plan_shards(
                    [1e-2], "x", 2, 1, 1, 0, engine=engine
                ),
                ValueError,
            ),
            "experiment": (
                lambda engine: BatchedLerExperiment(
                    1e-2, num_shots=2, windows=1, engine=engine
                ),
                ValueError,
            ),
        }[door]
        with pytest.raises(refusal) as refused:
            call("packed")
        if refusal is SystemExit:
            assert refused.value.code == 2
            assert "argument --engine: invalid choice: 'packed'" in (
                capsys.readouterr().err
            )
        for engine in ENGINES:
            call(engine)
