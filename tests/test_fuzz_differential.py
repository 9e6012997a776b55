"""Differential fuzzing across the three simulator implementations.

Random small Clifford circuits with random injected Pauli noise run
through (a) the lockstep core, sampled through
:func:`repro.qpdo.sample`, (b) the per-shot tableau loop and, at <= 6
qubits, (c) exact branch enumeration on the dense state-vector
simulator.  All three must describe the same physics:

* every sampled outcome lies inside the exact support,
* the core's samples match the exact distribution (chi-square),
* the core's and per-shot samples are homogeneous (chi-square),
* under depolarizing noise, the core's built-in channel matches the
  per-shot ``DepolarizingErrorLayer`` loop (chi-square).

The corpus below is fixed and seeded, so the default run is fully
deterministic.  ``pytest --fuzz-iters N`` appends ``N`` extra
deterministic seeds per test for deeper local fuzzing (the seeds are
still fixed — iteration ``i`` always uses seed ``FUZZ_SEED_BASE + i``
— so a failure reproduces by rerunning with the same ``N``).
"""

import numpy as np
import pytest
from scipy import stats

from repro.circuits import Circuit
from repro.circuits.operation import Operation
from repro.qpdo import DepolarizingErrorLayer, StabilizerCore, sample
from repro.sim import NoiseParameters

from .test_framesim_equivalence import (
    P_VALUE_FLOOR,
    exact_distribution,
    outcome_counts,
    random_measured_circuit,
    tableau_shot_loop,
)

#: Seeded corpus of the default (CI) run.
CORPUS_SEEDS = (1301, 1302, 1303, 1304, 1305, 1306)
#: Extra --fuzz-iters seeds start here (deterministic, reproducible).
FUZZ_SEED_BASE = 90_000

#: Per-gate probability of injecting a random Pauli error op.
ERROR_PROBABILITY = 0.15


def pytest_generate_tests(metafunc):
    """Parametrize ``fuzz_seed`` with the corpus plus --fuzz-iters."""
    if "fuzz_seed" in metafunc.fixturenames:
        iters = metafunc.config.getoption("--fuzz-iters")
        seeds = list(CORPUS_SEEDS) + [
            FUZZ_SEED_BASE + i for i in range(iters)
        ]
        metafunc.parametrize("fuzz_seed", seeds)


def random_noisy_circuit(
    num_qubits: int, num_gates: int, rng: np.random.Generator
) -> Circuit:
    """Random Clifford circuit + interleaved random Pauli error ops.

    The injected errors are flagged ``is_error`` — exactly how the
    QPDO error layer marks physical faults — and are deterministic
    (shared by every shot), so the exact enumerator, the tableau loop
    and the lockstep core all see the same channel.
    """
    base = random_measured_circuit(num_qubits, num_gates, rng)
    noisy = Circuit("fuzz")
    for operation in base.operations():
        noisy.append(operation)
        if rng.random() < ERROR_PROBABILITY:
            pauli = ("x", "y", "z")[int(rng.integers(3))]
            victim = int(rng.integers(num_qubits))
            noisy.append(
                Operation(pauli, (victim,), is_error=True)
            )
    return noisy


def _chisquare_against_exact(samples, expected, shots, context):
    """Chi-square of sampled outcome counts against exact weights."""
    observed = outcome_counts(samples)
    support = set(expected)
    assert set(observed) <= support, context
    keys = sorted(support)
    f_exp = np.array([expected[k] * shots for k in keys])
    f_obs = np.array([observed.get(k, 0) for k in keys])
    big = f_exp >= 5.0
    f_exp = np.append(f_exp[big], f_exp[~big].sum())
    f_obs = np.append(f_obs[big], f_obs[~big].sum())
    if f_exp[-1] == 0.0:
        f_exp, f_obs = f_exp[:-1], f_obs[:-1]
    if len(f_exp) < 2:
        assert f_obs.sum() == shots
        return
    result = stats.chisquare(f_obs, f_exp * shots / f_exp.sum())
    assert result.pvalue > P_VALUE_FLOOR, (context, result.pvalue)


def _chisquare_homogeneity(a, b, context):
    """Chi-square homogeneity of two sample sets."""
    counts_a = outcome_counts(a)
    counts_b = outcome_counts(b)
    keys = sorted(set(counts_a) | set(counts_b))
    table = np.array(
        [
            [counts_a.get(k, 0) for k in keys],
            [counts_b.get(k, 0) for k in keys],
        ]
    )
    expected = stats.contingency.expected_freq(table)
    rare = expected.min(axis=0) < 5.0
    if rare.any() and (~rare).any():
        table = np.concatenate(
            [
                table[:, ~rare],
                table[:, rare].sum(axis=1, keepdims=True),
            ],
            axis=1,
        )
    if table.shape[1] < 2:
        return
    result = stats.chi2_contingency(table)
    assert result.pvalue > P_VALUE_FLOOR, (context, result.pvalue)


class TestFuzzThreeWayAgreement:
    """Lockstep core vs tableau loop vs exact enumeration."""

    def _make_case(self, fuzz_seed):
        rng = np.random.default_rng(fuzz_seed)
        num_qubits = int(rng.integers(2, 6))
        num_gates = int(rng.integers(6, 15))
        circuit = random_noisy_circuit(num_qubits, num_gates, rng)
        return circuit, num_qubits

    def test_batched_matches_exact_distribution(self, fuzz_seed):
        circuit, num_qubits = self._make_case(fuzz_seed)
        expected = exact_distribution(circuit, num_qubits)
        shots = 2000
        samples = sample(
            circuit, shots, seed=fuzz_seed + 1, num_qubits=num_qubits
        )
        _chisquare_against_exact(
            samples, expected, shots, context=fuzz_seed
        )

    def test_tableau_loop_matches_exact_distribution(self, fuzz_seed):
        circuit, num_qubits = self._make_case(fuzz_seed)
        expected = exact_distribution(circuit, num_qubits)
        shots = 2000
        samples = tableau_shot_loop(
            circuit, num_qubits, shots, seed=fuzz_seed + 2
        )
        _chisquare_against_exact(
            samples, expected, shots, context=fuzz_seed
        )

    def test_batched_and_tableau_loop_homogeneous(self, fuzz_seed):
        circuit, num_qubits = self._make_case(fuzz_seed)
        shots = 1500
        batched = sample(
            circuit, shots, seed=fuzz_seed + 3, num_qubits=num_qubits
        )
        loop = tableau_shot_loop(
            circuit, num_qubits, shots, seed=fuzz_seed + 4
        )
        _chisquare_homogeneity(batched, loop, context=fuzz_seed)


class TestFuzzDepolarizingChannel:
    """The core's built-in noise vs per-shot error-layer loops on
    random circuits (statistical, since the channel is stochastic)."""

    @pytest.mark.parametrize("seed", [2401, 2402])
    def test_noisy_distributions_agree(self, seed):
        probability = 0.06
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 4))
        circuit = random_measured_circuit(
            num_qubits, int(rng.integers(6, 12)), rng
        )
        shots = 1200
        loop_rng = np.random.default_rng(seed + 5)
        measures = [
            op for op in circuit.operations() if op.is_measurement
        ]
        loop_rows = []
        for _ in range(shots):
            core = StabilizerCore(rng=loop_rng)
            stack = DepolarizingErrorLayer(
                core, probability=probability, rng=loop_rng
            )
            stack.createqubit(num_qubits)
            result = stack.run(circuit.copy(fresh_uids=False))
            loop_rows.append([result.result_of(m) for m in measures])
        loop = np.array(loop_rows, dtype=bool)
        batched = sample(
            circuit,
            shots,
            seed=seed + 6,
            noise=NoiseParameters(probability),
            num_qubits=num_qubits,
        )
        _chisquare_homogeneity(loop, batched, context=seed)
