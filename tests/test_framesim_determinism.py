"""Seed determinism of the lockstep core.

The reproducibility contract of
:class:`~repro.qpdo.packed_core.PackedStabilizerCore`:

* the same seed always yields bit-identical outcome streams,
* different seeds yield different streams (no accidental stream
  reuse),
* capping the frame map's draw blocks changes no bit,
* a whole batched LER experiment is a pure function of its seed.

How shots split across workers is gated separately, in
``tests/test_parallel_determinism.py``.
"""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.operation import Operation
from repro.codes.surface17 import parallel_esm
from repro.experiments import BatchedLerExperiment
from repro.qpdo import PackedStabilizerCore
from repro.sim import NoiseParameters


class TestBatchedCoreDeterminism:
    @staticmethod
    def _run_core(seed=None, shots=250, shards=None) -> np.ndarray:
        core = PackedStabilizerCore(
            None if shards else shots,
            noise=NoiseParameters(0.02, active_qubits=range(17)),
            seed=seed,
            shards=shards,
        )
        core.createqubit(17)
        prep = Circuit("prep")
        slot = prep.new_slot()
        for qubit in range(9):
            slot.add(Operation("prep_z", (qubit,)))
        core.run(prep)
        columns = []
        for _ in range(3):
            esm = parallel_esm(list(range(17)))
            result = core.run(esm.circuit)
            for measure in esm.x_measurements + esm.z_measurements:
                columns.append(result.bits_of(measure))
        return np.stack(columns, axis=1)

    def test_same_seed_bit_identical(self):
        assert np.array_equal(self._run_core(31), self._run_core(31))

    def test_different_seeds_differ(self):
        assert not np.array_equal(self._run_core(31), self._run_core(32))

    @pytest.mark.parametrize("rows_per_draw", [1, 3])
    def test_capped_draws_are_invisible(self, rows_per_draw, monkeypatch):
        """A draw cap of a few rows splits every circuit's uniforms,
        and its slots, into many blocks without changing a bit."""
        from repro.qpdo import lockstep

        whole = self._run_core(31)
        monkeypatch.setattr(lockstep, "DRAW_CAP", rows_per_draw * 250)
        assert np.array_equal(self._run_core(31), whole)

    @pytest.mark.parametrize("rows_per_draw", [None, 1, 3])
    def test_fused_shards_equal_lone_cores(self, rows_per_draw, monkeypatch):
        """Shards side by side on one core -- equal sizes drawn as one
        block, a ragged one alone, under any draw cap -- give every
        shard the bits of a core of its own."""
        from repro.qpdo import Shard, lockstep

        sizes, seeds = (30, 30, 30, 7), (31, 32, 33, 34)
        if rows_per_draw is not None:
            monkeypatch.setattr(lockstep, "DRAW_CAP", rows_per_draw * 90)
        fused = self._run_core(
            shards=[Shard(n, seed) for n, seed in zip(sizes, seeds)]
        )
        lone = np.concatenate(
            [self._run_core(seed, n) for n, seed in zip(sizes, seeds)]
        )
        assert np.array_equal(fused, lone)

    def test_batched_ler_experiment_reproducible(self):
        def run():
            results = BatchedLerExperiment(
                8e-3, num_shots=60, windows=6, seed=2017
            ).run()
            return [
                (r.logical_errors, r.clean_windows, r.corrections_commanded)
                for r in results
            ]

        assert run() == run()
