"""Tests for the LER experiment harness (paper section 5.3).

Fast deterministic checks (error injection) plus scaled-down
statistical runs; the full paper-scale sweeps live in benchmarks/.
"""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.operation import Operation
from repro.experiments.ler import LerExperiment, build_ler_stack
from repro.experiments.parallel import run_parallel_sweep


def inject_error(experiment, kind, qubit):
    """Push a flagged physical error through the stack."""
    circuit = Circuit("inject")
    slot = circuit.new_slot()
    slot.add(Operation(kind, (qubit,), is_error=True))
    experiment.stack.top.add(circuit)
    experiment.stack.top.execute()


@pytest.fixture(params=[False, True], ids=["no_frame", "with_frame"])
def noiseless(request):
    experiment = LerExperiment(
        0.0,
        use_pauli_frame=request.param,
        max_logical_errors=1,
        max_windows=1,
        seed=12,
    )
    experiment.corrections_commanded = 0
    experiment.initialize_logical_qubit()
    return experiment


class TestStackConstruction:
    def test_stack_shape_with_frame(self):
        stack = build_ler_stack(1e-3, use_pauli_frame=True, seed=0)
        assert stack.pauli_frame is not None
        assert stack.core.num_qubits == 18  # 17 + probe ancilla
        assert stack.error_layer.active_qubits == set(range(17))

    def test_stack_shape_without_frame(self):
        stack = build_ler_stack(1e-3, use_pauli_frame=False, seed=0)
        assert stack.pauli_frame is None
        assert stack.top is stack.counter_above

    def test_invalid_error_kind(self):
        with pytest.raises(ValueError):
            LerExperiment(0.1, True, error_kind="y")


class TestNoiselessBehaviour:
    def test_clean_after_init(self, noiseless):
        assert noiseless._no_observable_errors()
        assert not noiseless.check_logical_error()

    def test_window_keeps_clean_state(self, noiseless):
        for _ in range(3):
            noiseless.execute_window()
            assert noiseless._no_observable_errors()
            assert not noiseless.check_logical_error()

    def test_zero_noise_run_counts_no_errors(self):
        result = LerExperiment(
            0.0,
            use_pauli_frame=False,
            max_logical_errors=1,
            max_windows=15,
            seed=1,
        ).run()
        assert result.windows == 15
        assert result.logical_errors == 0
        assert result.clean_windows == 15
        assert result.logical_error_rate == 0.0


class TestErrorInjection:
    @pytest.mark.parametrize("qubit", [0, 4, 8])
    def test_single_x_error_corrected(self, noiseless, qubit):
        inject_error(noiseless, "x", qubit)
        assert not noiseless._no_observable_errors()
        noiseless.execute_window()
        assert noiseless._no_observable_errors()
        assert not noiseless.check_logical_error()

    @pytest.mark.parametrize("qubit", [1, 4, 7])
    def test_single_z_error_corrected(self, noiseless, qubit):
        inject_error(noiseless, "z", qubit)
        noiseless.execute_window()
        assert noiseless._no_observable_errors()
        assert not noiseless.check_logical_error()

    def test_single_y_error_corrected(self, noiseless):
        inject_error(noiseless, "y", 4)
        noiseless.execute_window()
        assert noiseless._no_observable_errors()
        assert not noiseless.check_logical_error()

    def test_logical_x_chain_counts_as_logical_error(self, noiseless):
        if noiseless.error_kind != "x":
            pytest.skip("probe watches X_L only in x-kind runs")
        for qubit in (2, 4, 6):
            inject_error(noiseless, "x", qubit)
        noiseless.execute_window()
        assert noiseless._no_observable_errors()
        assert noiseless.check_logical_error()
        # ... and the flip is only counted once.
        assert not noiseless.check_logical_error()

    def test_z_kind_probe_detects_logical_z(self):
        experiment = LerExperiment(
            0.0,
            use_pauli_frame=False,
            error_kind="z",
            max_logical_errors=1,
            max_windows=1,
            seed=13,
        )
        experiment.corrections_commanded = 0
        experiment.initialize_logical_qubit()
        for qubit in (0, 4, 8):  # Z_L chain in normal orientation
            inject_error(experiment, "z", qubit)
        experiment.execute_window()
        assert experiment._no_observable_errors()
        assert experiment.check_logical_error()

    def test_z_kind_ignores_x_logical(self):
        experiment = LerExperiment(
            0.0,
            use_pauli_frame=False,
            error_kind="z",
            max_logical_errors=1,
            max_windows=1,
            seed=13,
        )
        experiment.corrections_commanded = 0
        experiment.initialize_logical_qubit()
        for qubit in (2, 4, 6):
            inject_error(experiment, "x", qubit)
        experiment.execute_window()
        assert not experiment.check_logical_error()


class TestStatisticalRuns:
    def test_run_terminates_at_error_budget(self):
        result = LerExperiment(
            8e-3,
            use_pauli_frame=False,
            max_logical_errors=3,
            seed=3,
        ).run()
        assert result.logical_errors == 3
        assert 0 < result.logical_error_rate <= 1

    def test_frame_statistics_only_with_frame(self):
        with_frame = LerExperiment(
            8e-3, True, max_logical_errors=2, seed=4
        ).run()
        without = LerExperiment(
            8e-3, False, max_logical_errors=2, seed=4
        ).run()
        assert with_frame.frame_statistics is not None
        assert without.frame_statistics is None

    def test_savings_bounded_by_correction_slot_share(self):
        """Fig. 5.26: at most 1 slot in 17 can ever be filtered."""
        result = LerExperiment(
            1e-2, True, max_logical_errors=4, seed=5
        ).run()
        assert 0.0 < result.saved_slots_fraction <= 1.0 / 17.0 + 1e-9
        assert 0.0 < result.saved_operations_fraction < 0.05

    def test_runner_loop_samples(self):
        """The runner's loop mode: ``shots`` independent per-shot runs
        per arm, each stopped at the error quota."""
        report = run_parallel_sweep(
            [8e-3], shots=3, windows=None, max_logical_errors=2, seed=6
        )
        results = report.arms[(0, False)].results()
        assert len(results) == 3
        assert all(r.logical_errors == 2 for r in results)
        assert len({r.windows for r in results}) >= 1

    def test_higher_per_gives_higher_ler(self):
        low = LerExperiment(
            1.5e-3, False, max_logical_errors=4, seed=7
        ).run()
        high = LerExperiment(
            1.2e-2, False, max_logical_errors=4, seed=7
        ).run()
        assert high.logical_error_rate > low.logical_error_rate
