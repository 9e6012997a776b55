"""Logical-error-rate experiment for a SC17 logical qubit (section 5.3).

Implements the paper's Listing 5.7 around the test setup of Fig. 5.8:
an idling ninja star under symmetric depolarizing noise, decoded in
windows by the rule-based LUT decoder, with and without a Pauli frame
layer in the control stack.

One *window* executes ``rounds_per_window`` noisy ESM rounds and ends
with the decoder's corrections.  After every window two *perfect*
diagnostic probes run in bypass mode (no noise, no counters,
section 5.3.1):

1. one noiseless ESM round -- "no observable errors" means every
   parity check passes;
2. when clean, the logical stabilizer measurement of Fig. 5.10
   (``Z0 Z4 Z8`` for X-error runs from ``|0>_L``, ``X2 X4 X6`` for
   Z-error runs from ``|+>_L``) via an 18th bookkeeping ancilla; a
   flip of its eigenvalue relative to the previous clean observation
   counts as one logical error.

The Logical Error Rate for a given Physical Error Rate ``p`` is then
``P_L = m / R`` with ``m`` logical errors over ``R`` windows (Eq. 5.1).

In :class:`BatchedLerExperiment` the only per-shot feedback is the
decoder's Pauli corrections, so each stretch between two corrections
is one circuit of :func:`protocol_circuits`, built once per process: a
window is two core calls, its noisy rounds, then the diagnostic round
with the probe.  Its decoder is one
:class:`~repro.decoders.batched.BatchedWindowedLutDecoder` for all
shots, chosen from the registry by name alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..codes.surface17.esm import EsmRound, parallel_esm
from ..codes.surface17.layout import (
    NUM_QUBITS,
    X_CHECK_MATRIX,
    X_LOGICAL_SUPPORT,
    Z_CHECK_MATRIX,
    Z_LOGICAL_SUPPORT,
)
from ..decoders.batched import BatchedWindowDecision
from ..decoders.lut import correction_operations
from ..decoders.rule_based import SyndromeRound, WindowedLutDecoder
from ..qpdo.core import Core
from ..qpdo.cores import StabilizerCore
from ..qpdo.counter_layer import CounterLayer
from ..qpdo.error_layer import DepolarizingErrorLayer
from ..qpdo.packed_core import (
    PackedExecutionResult,
    PackedStabilizerCore,
    Shard,
    shard_list,
)
from ..qpdo.pauli_frame_layer import PauliFrameLayer
from ..sim.framesim import NoiseParameters
from ..sim.packedsim import unpack_bits
from ..sim.refcache import reference_trace_key
from .. import telemetry
from .results import BatchCounts, RunResult

#: ESM rounds per decoding window (Fig. 5.9 uses two fresh rounds plus
#: the carried-over round of the previous window).
DEFAULT_ROUNDS_PER_WINDOW = 2
#: Initialization rounds (= code distance, section 2.6.1).
DEFAULT_INIT_ROUNDS = 3


@dataclass
class LerStack:
    """The assembled control stack of Fig. 5.8.

    Stack order, bottom-up: simulation core, depolarizing error layer
    (physical noise), counter below the frame, optional Pauli frame
    layer, counter above the frame.  The error layer sits directly on
    the core so that only operations that truly reach the hardware are
    charged noise and idle time (see the placement note in
    :mod:`repro.qpdo.error_layer`).
    """

    core: StabilizerCore
    error_layer: DepolarizingErrorLayer
    counter_below: CounterLayer
    pauli_frame: Optional[PauliFrameLayer]
    counter_above: CounterLayer

    @property
    def top(self) -> Core:
        """The element the experiment drives."""
        return self.counter_above


def build_ler_stack(
    physical_error_rate: float,
    use_pauli_frame: bool,
    seed: Optional[int] = None,
    frame_placement: str = "physical",
) -> LerStack:
    """Assemble the LER control stack (17 code qubits + 1 probe ancilla).

    ``frame_placement`` selects where the Pauli frame sits relative to
    the noise source:

    * ``"physical"`` (default) -- noise directly above the core, frame
      above the noise: only operations that truly reach the hardware
      are charged errors and idle time (this library's reading);
    * ``"paper"`` -- the literal stacking of Fig. 5.8 (error layer
      above the frame): commanded corrections are charged noise *even
      though the frame then absorbs them*.  Kept as an ablation; see
      ``benchmarks/test_bench_ablation_frame_placement.py``.
    """
    if frame_placement not in ("physical", "paper"):
        raise ValueError("frame_placement must be 'physical' or 'paper'")
    rng = np.random.default_rng(seed)
    core = StabilizerCore(rng=rng)
    core.createqubit(NUM_QUBITS + 1)  # + diagnostic ancilla (index 17)

    def make_error_layer(lower, layer_rng):
        return DepolarizingErrorLayer(
            lower,
            probability=physical_error_rate,
            rng=layer_rng,
            active_qubits=range(NUM_QUBITS),
        )

    if frame_placement == "physical" or not use_pauli_frame:
        error_layer = make_error_layer(core, rng)
        counter_below = CounterLayer(error_layer, name="below_frame")
        pauli_frame = (
            PauliFrameLayer(counter_below) if use_pauli_frame else None
        )
        counter_above = CounterLayer(
            pauli_frame if pauli_frame is not None else counter_below,
            name="above_frame",
        )
    else:
        # Literal Fig. 5.8 order (top to bottom): counter, error
        # layer, counter, Pauli frame, core.
        pauli_frame = PauliFrameLayer(core)
        counter_below = CounterLayer(pauli_frame, name="below_frame")
        error_layer = make_error_layer(counter_below, rng)
        counter_above = CounterLayer(error_layer, name="above_frame")
    return LerStack(
        core=core,
        error_layer=error_layer,
        counter_below=counter_below,
        pauli_frame=pauli_frame,
        counter_above=counter_above,
    )


class LerExperiment:
    """One LER simulation: fixed PER, error kind, frame choice, seed.

    Parameters
    ----------
    physical_error_rate:
        The PER ``p`` of the symmetric depolarizing model.
    use_pauli_frame:
        Whether a Pauli frame layer handles the corrections.
    error_kind:
        ``"x"`` -- start from ``|0>_L`` and watch ``Z0 Z4 Z8`` for
        logical X errors; ``"z"`` -- start from ``|+>_L`` and watch
        ``X2 X4 X6`` for logical Z errors (Fig. 5.10).
    max_logical_errors:
        Stop after this many logical errors (the paper uses 50).
    max_windows:
        Safety valve for very low error rates.
    seed:
        Seed of the shared RNG (noise + measurement sampling).
    rounds_per_window, init_rounds:
        Window geometry (defaults follow the paper).
    """

    def __init__(
        self,
        physical_error_rate: float,
        use_pauli_frame: bool,
        error_kind: str = "x",
        max_logical_errors: int = 50,
        max_windows: int = 2_000_000,
        seed: Optional[int] = None,
        rounds_per_window: int = DEFAULT_ROUNDS_PER_WINDOW,
        init_rounds: int = DEFAULT_INIT_ROUNDS,
        use_majority_vote: bool = True,
        frame_placement: str = "physical",
        preflight: bool = False,
    ) -> None:
        if error_kind not in ("x", "z"):
            raise ValueError("error_kind must be 'x' or 'z'")
        self.physical_error_rate = float(physical_error_rate)
        self.use_pauli_frame = bool(use_pauli_frame)
        self.error_kind = error_kind
        self.max_logical_errors = int(max_logical_errors)
        self.max_windows = int(max_windows)
        self.seed = seed
        self.rounds_per_window = int(rounds_per_window)
        self.init_rounds = int(init_rounds)
        self.stack = build_ler_stack(
            self.physical_error_rate,
            self.use_pauli_frame,
            seed=seed,
            frame_placement=frame_placement,
        )
        self.decoder = WindowedLutDecoder(
            X_CHECK_MATRIX,
            Z_CHECK_MATRIX,
            use_majority_vote=use_majority_vote,
        )
        self.qubit_map = list(range(NUM_QUBITS))
        self.probe_ancilla = NUM_QUBITS  # physical index 17
        self._reference_eigenvalue: Optional[int] = None
        self.preflight_analyses = (
            self.run_preflight() if preflight else None
        )

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _esm_round(self, bypass: bool = False) -> SyndromeRound:
        """Execute one ESM round; returns its syndrome."""
        esm = parallel_esm(self.qubit_map, name="esm")
        esm.circuit.bypass = bypass
        self.stack.top.add(esm.circuit)
        result = self.stack.top.execute()
        x_bits, z_bits = esm.syndromes(result)
        return SyndromeRound.from_bits(x_bits, z_bits)

    def _apply_corrections(self, decision) -> None:
        gates = correction_operations(
            decision.x_corrections,
            decision.z_corrections,
            self.qubit_map[:9],
        )
        if not gates:
            return
        self.corrections_commanded += 1
        circuit = Circuit("corrections")
        slot = circuit.new_slot()
        for gate, physical in gates:
            slot.add(Operation(gate, (physical,)))
        self.stack.top.add(circuit)
        self.stack.top.execute()

    def _logical_probe_circuit(self) -> Tuple[Circuit, Operation]:
        """The bypass stabilizer circuit of Fig. 5.10 for our kind."""
        circuit = Circuit("logical_probe", bypass=True)
        ancilla = self.probe_ancilla
        circuit.add("prep_z", ancilla)
        if self.error_kind == "x":
            # Z0 Z4 Z8: data qubits control CNOTs onto the ancilla.
            for data in Z_LOGICAL_SUPPORT:
                circuit.add("cnot", data, ancilla)
        else:
            # X2 X4 X6: H-bracketed ancilla controls CNOTs onto data.
            circuit.add("h", ancilla)
            for data in X_LOGICAL_SUPPORT:
                circuit.add("cnot", ancilla, data)
            circuit.add("h", ancilla)
        measure = circuit.add("measure", ancilla)
        return circuit, measure

    def _measure_logical_eigenvalue(self) -> int:
        circuit, measure = self._logical_probe_circuit()
        self.stack.top.add(circuit)
        result = self.stack.top.execute()
        return result.result_of(measure)

    def _no_observable_errors(self) -> bool:
        """Perfect diagnostic ESM round: all parities must pass."""
        return self._esm_round(bypass=True).is_trivial()

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _prepare_circuit(self) -> Circuit:
        """The FT preparation circuit of ``|0>_L`` / ``|+>_L``."""
        prepare = Circuit("prepare")
        slot = prepare.new_slot()
        for data in range(9):
            slot.add(Operation("prep_z", (data,)))
        if self.error_kind == "z":
            slot = prepare.new_slot()
            for data in range(9):
                slot.add(Operation("h", (data,)))
        return prepare

    def _prototype_circuits(self) -> List[Circuit]:
        """One instance of every circuit structure the protocol runs."""
        return [
            self._prepare_circuit(),
            parallel_esm(self.qubit_map, name="esm").circuit,
            self._logical_probe_circuit()[0],
        ]

    def run_preflight(self) -> List["CircuitAnalysis"]:
        """Statically verify the protocol's circuits at compile time.

        Every circuit *structure* the experiment will submit -- FT
        preparation, the parallel ESM round, the logical probe -- is
        verified once against the assembled stack's capabilities,
        under the strict frame policy (the protocol must stay in the
        commuting regime, paper section 5.3).  Raises
        :class:`~repro.analysis.preflight.PreflightError` before a
        single window executes if any check fails.
        """
        from ..analysis.preflight import PreflightError
        from ..analysis.verifier import FRAME_FORBID, verify_circuit

        analyses = []
        for circuit in self._prototype_circuits():
            analysis = verify_circuit(
                circuit,
                target=self.stack.top,
                frame_policy=FRAME_FORBID,
            )
            if not analysis.passed:
                raise PreflightError(analysis)
            analyses.append(analysis)
        return analyses

    def initialize_logical_qubit(self) -> None:
        """Noisy FT preparation of ``|0>_L`` / ``|+>_L`` + decoding."""
        prepare = self._prepare_circuit()
        self.stack.top.add(prepare)
        self.stack.top.execute()
        rounds = [self._esm_round() for _ in range(self.init_rounds)]
        self.decoder.reset()
        decision = self.decoder.initialize(rounds)
        self._apply_corrections(decision)
        self._reference_eigenvalue = self._measure_logical_eigenvalue()

    def execute_window(self) -> None:
        """One decoding window: noisy ESM rounds + corrections."""
        rounds = [
            self._esm_round() for _ in range(self.rounds_per_window)
        ]
        decision = self.decoder.decode_window(rounds)
        self._apply_corrections(decision)

    def check_logical_error(self) -> bool:
        """Whether the logical eigenvalue flipped since last clean look."""
        eigenvalue = self._measure_logical_eigenvalue()
        flipped = eigenvalue != self._reference_eigenvalue
        self._reference_eigenvalue = eigenvalue
        return flipped

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the full Listing 5.7 loop and collect statistics."""
        t = telemetry.ACTIVE
        if t is None:
            return self._run()
        with t.span(
            "experiment",
            "LerExperiment.run",
            physical_error_rate=self.physical_error_rate,
            use_pauli_frame=self.use_pauli_frame,
        ):
            return self._run()

    def _run(self) -> RunResult:
        self.corrections_commanded = 0
        self.initialize_logical_qubit()
        # Initialization is excluded from the savings statistics.
        self.stack.counter_above.reset_counts()
        self.stack.counter_below.reset_counts()
        if self.stack.pauli_frame is not None:
            self.stack.pauli_frame.reset_statistics()
        windows = 0
        logical_errors = 0
        clean_windows = 0
        while (
            logical_errors < self.max_logical_errors
            and windows < self.max_windows
        ):
            self.execute_window()
            windows += 1
            if self._no_observable_errors():
                clean_windows += 1
                if self.check_logical_error():
                    logical_errors += 1
        frame_stats = (
            self.stack.pauli_frame.statistics
            if self.stack.pauli_frame is not None
            else None
        )
        return RunResult(
            physical_error_rate=self.physical_error_rate,
            error_kind=self.error_kind,
            use_pauli_frame=self.use_pauli_frame,
            windows=windows,
            logical_errors=logical_errors,
            clean_windows=clean_windows,
            corrections_commanded=self.corrections_commanded,
            frame_statistics=frame_stats,
            counts_above=self.stack.counter_above.counts.snapshot(),
            counts_below=self.stack.counter_below.counts.snapshot(),
            # The loop's scalar windowed LUT decoder makes the decisions
            # of the registry's "lut".
            decoder="lut",
        )


#: Default window count per shot for the batched LER path (the batch
#: runs a fixed number of windows per shot instead of stopping at a
#: logical-error quota, which lockstep execution cannot do per shot).
DEFAULT_BATCH_WINDOWS = 200

#: The batched path's simulation engines (see
#: :class:`BatchedLerExperiment`), each mapped to its frame stream:
#: the core's ``rng_mode`` and a checkpoint header's ``rng_stream``.
#: Every front door accepts exactly these names.
ENGINES: Dict[str, str] = {"framesim": "exact", "packed-fast": "fast"}


class Stretch(NamedTuple):
    """A stretch of Listing 5.7 without feedback as one circuit: its ESM
    rounds, each with its own measurements, and the probe's measurement
    when it ends with the probe."""

    circuit: Circuit
    rounds: Tuple[EsmRound, ...]
    probe: Optional[Operation]


class ProtocolCircuits(NamedTuple):
    """The batched protocol's stretches: preparation + init rounds, a
    window's noisy rounds, the bypass diagnostic round + probe, and the
    bypass probe alone (after the init decode)."""

    init: Stretch
    window: Stretch
    check: Stretch
    probe: Stretch


def _stretch(
    name: str,
    num_rounds: int,
    bypass: bool = False,
    prepare: Optional[Circuit] = None,
    probe: Optional[Circuit] = None,
) -> Stretch:
    """``prepare``, ``num_rounds`` fresh ESM rounds, then ``probe``, as
    one circuit in which every part keeps its own time slots."""
    rounds = tuple(
        parallel_esm(range(NUM_QUBITS)) for _ in range(num_rounds)
    )
    circuit = Circuit(name, bypass=bypass)
    for part in [prepare, *(esm.circuit for esm in rounds), probe]:
        if part is not None:
            circuit.extend(part)
    return Stretch(
        circuit, rounds, probe.measurements()[0] if probe else None
    )


def _logical_probe(error_kind: str) -> Circuit:
    """The logical-stabilizer probe of Fig. 5.10 for our kind, on the
    18th (bookkeeping) qubit."""
    circuit = Circuit("logical_probe")
    ancilla = NUM_QUBITS
    circuit.add("prep_z", ancilla)
    if error_kind == "x":
        for data in Z_LOGICAL_SUPPORT:
            circuit.add("cnot", data, ancilla)
    else:
        circuit.add("h", ancilla)
        for data in X_LOGICAL_SUPPORT:
            circuit.add("cnot", ancilla, data)
        circuit.add("h", ancilla)
    circuit.add("measure", ancilla)
    return circuit


# Keyed by geometry alone, so a process holds a handful of entries.
@functools.lru_cache(maxsize=8)
def protocol_circuits(
    error_kind: str, init_rounds: int, rounds_per_window: int
) -> ProtocolCircuits:
    """The batched protocol's circuits, built once per process and
    shared read-only by its experiments.  Fusing is bit-identical: noise
    is charged per slot, a frame map draws a circuit's rows back to
    back, and the reference replays measurements in operation order."""
    prepare = Circuit("prepare")
    slot = prepare.new_slot()
    for data in range(9):
        slot.add(Operation("prep_z", (data,)))
    if error_kind == "z":
        slot = prepare.new_slot()
        for data in range(9):
            slot.add(Operation("h", (data,)))
    return ProtocolCircuits(
        init=_stretch("init", init_rounds, prepare=prepare),
        window=_stretch("window", rounds_per_window),
        check=_stretch(
            "check", 1, bypass=True, probe=_logical_probe(error_kind)
        ),
        probe=_stretch(
            "probe", 0, bypass=True, probe=_logical_probe(error_kind)
        ),
    )


class BatchedLerExperiment:
    """The LER protocol of Listing 5.7 over N shots in lockstep.

    The batched counterpart of :class:`LerExperiment`: one
    :class:`~repro.qpdo.packed_core.PackedStabilizerCore` carries all
    shots at once — a shared noiseless reference trajectory plus
    per-shot Pauli error frames, 64 shots per ``uint64`` word.  This
    works because every per-shot difference in the protocol is a
    Pauli:

    * noise is Pauli by construction (depolarizing), injected straight
      into the frame arrays by the core;
    * decoder corrections are Pauli gates, applied as per-shot frame
      XORs (``apply_pauli_frame``) — adaptive feedback without
      breaking lockstep;
    * the non-Pauli stream (ESM rounds, diagnostic probes) is
      identical for every shot and runs once on the reference.

    Two protocol deviations from the loop, both statistically neutral:

    * each shot runs a *fixed* number of windows instead of stopping at
      ``max_logical_errors`` (binomial instead of negative-binomial
      sampling of the same LER);
    * the logical eigenvalue probe executes every window instead of
      only after clean diagnostics.  The probe is a bypass
      (noiseless) QND measurement of a logical stabilizer, so probing
      on dirty windows neither disturbs the state nor enters the
      count — flips are still only scored on clean windows, against
      the previous *clean* observation.

    ``use_pauli_frame`` selects the arm semantics under the default
    ``"physical"`` frame placement: with a frame, corrections are
    absorbed classically (no noise); without, the correction circuit
    reaches hardware, so its slot is charged depolarizing noise on the
    shots that commanded corrections.

    ``decoder_impl`` names a windowed decoder from the registry
    (:mod:`repro.decoders.registry`), which builds it from the window
    context alone.  ``"lut"`` (the default) decodes every shot at once
    through the array-native
    :class:`~repro.decoders.batched.BatchedWindowedLutDecoder` —
    majority vote, LUT gather and carry-state as numpy operations over
    the shot axis, with the dense tables shared process-wide.
    ``"mwpm"``, ``"unionfind"`` and ``"sparse-mwpm"`` swap the gather
    tables for ones filled by Blossom matching, union-find growth +
    peeling, and sparse local matching respectively (same windowed
    protocol, different decoding principle).  The ``"lut"`` decisions
    are bit-identical to one scalar
    :class:`~repro.decoders.rule_based.WindowedLutDecoder` per shot
    (:class:`~repro.decoders.rule_based.PerShotWindowedLutDecoder`, the
    reference of ``tests/test_batched_ler_equivalence.py`` and
    benchmark E21).

    ``engine`` picks the core's frame stream (one of :data:`ENGINES`):

    * ``"framesim"`` (default) — the ``"exact"`` RNG mode: each
      circuit runs through its compiled frame map, one uniform per
      shot and channel, bit-identical to the operation-by-operation
      loop over the bool :class:`~repro.sim.framesim.FrameArray`
      kernels;
    * ``"packed-fast"`` — word-level noise draws (``"fast"`` RNG
      mode): the same channel sampled through a different stream —
      statistically identical, not bit-identical, and the faster of
      the two (benchmark E22).

    The decoders see one syndrome layout, ``(shots, rounds, checks)``
    bools: the core's ``uint64`` syndrome planes are unpacked once
    per window, in :meth:`_stack_window`.

    ``reference_cache`` (default on) records the run's noiseless
    reference as a symbolic trace in the process-level cache
    (:mod:`repro.sim.refcache`), keyed by the protocol structure alone,
    and replays it on every later run of that structure, whatever its
    seed — identical :class:`BatchCounts`, minus the whole tableau
    pass.  Shards, arms and serve jobs of one protocol share one
    entry.

    ``shards`` replaces ``num_shots`` and ``seed`` with a list of
    :class:`~repro.qpdo.packed_core.Shard` blocks run side by side on
    one core (``framesim`` only).  Each shard's counts equal those of
    a run with its own shots and seed: its streams are its own, and
    every data-dependent draw (the frame-less arm's correction slot)
    is decided per shard.
    """

    def __init__(
        self,
        physical_error_rate: float,
        num_shots: Optional[int] = None,
        use_pauli_frame: bool = True,
        error_kind: str = "x",
        windows: int = DEFAULT_BATCH_WINDOWS,
        seed: Optional[int] = None,
        rounds_per_window: int = DEFAULT_ROUNDS_PER_WINDOW,
        init_rounds: int = DEFAULT_INIT_ROUNDS,
        use_majority_vote: bool = True,
        preflight: bool = False,
        decoder_impl: str = "lut",
        engine: str = "framesim",
        reference_cache: bool = True,
        shards: Optional[List[Shard]] = None,
    ) -> None:
        from ..decoders.registry import WindowContext, get_decoder

        if error_kind not in ("x", "z"):
            raise ValueError("error_kind must be 'x' or 'z'")
        shards = shard_list(num_shots, seed, shards)
        decoder_spec = get_decoder(decoder_impl)
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {list(ENGINES)}")
        self.physical_error_rate = float(physical_error_rate)
        sizes = [shard.shots for shard in shards]
        self.num_shots = sum(sizes)
        # First shot of every shard.
        self._starts = np.cumsum([0] + sizes[:-1])
        self.use_pauli_frame = bool(use_pauli_frame)
        self.error_kind = error_kind
        self.windows = int(windows)
        self.rounds_per_window = int(rounds_per_window)
        self.init_rounds = int(init_rounds)
        self.decoder_impl = decoder_spec.name
        self.engine = engine
        noise = NoiseParameters(
            self.physical_error_rate,
            active_qubits=range(NUM_QUBITS),
        )
        # The symbolic reference trace is a pure function of the
        # protocol structure — the seed and every parameter that only
        # shapes the *frames* (shots, arm, noise rate, decoder,
        # rng_mode) are deliberately absent from the key.
        reference_key = None
        if reference_cache:
            reference_key = reference_trace_key(
                (
                    "batched_ler",
                    error_kind,
                    self.windows,
                    self.rounds_per_window,
                    self.init_rounds,
                )
            )
        self.core = PackedStabilizerCore(
            noise=noise,
            rng_mode=ENGINES[engine],
            reference_key=reference_key,
            shards=shards,
        )
        self.core.createqubit(NUM_QUBITS + 1)  # + diagnostic ancilla
        # Registry-driven construction: the WindowContext carries the
        # SC17 check matrices plus the d=3 rotated geometry (the SC17
        # layout is a row permutation of it, identical data labels)
        # for the matching/union-find boundary lookups.
        from ..codes.rotated.layout import RotatedSurfaceCode

        self.decoder = decoder_spec.build(
            WindowContext(
                X_CHECK_MATRIX,
                Z_CHECK_MATRIX,
                code=RotatedSurfaceCode(3),
                use_majority_vote=use_majority_vote,
            )
        )
        self.qubit_map = list(range(NUM_QUBITS))
        self.circuits = protocol_circuits(
            error_kind, self.init_rounds, self.rounds_per_window
        )
        self.preflight_analyses = (
            self.run_preflight() if preflight else None
        )

    def run_preflight(self) -> List["CircuitAnalysis"]:
        """Statically verify the batched protocol's circuits.

        Mirrors :meth:`LerExperiment.run_preflight`: the four circuits
        of :func:`protocol_circuits` (the only non-Pauli streams the
        batched core ever sees) are checked against the core's
        capabilities before any shot executes.
        """
        from ..analysis.preflight import PreflightError
        from ..analysis.verifier import FRAME_FORBID, verify_circuit

        analyses = []
        for stretch in self.circuits:
            analysis = verify_circuit(
                stretch.circuit,
                target=self.core,
                frame_policy=FRAME_FORBID,
            )
            if not analysis.passed:
                raise PreflightError(analysis)
            analyses.append(analysis)
        return analyses

    # ------------------------------------------------------------------
    # Building blocks (batched)
    # ------------------------------------------------------------------
    def _round_words(
        self, result: PackedExecutionResult, stretch: Stretch
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Each round of a stretch as its ``uint64`` syndrome planes of
        shape ``(num_checks, num_words)`` per species."""
        return [
            (
                np.array([result.words_of(m) for m in esm.x_measurements]),
                np.array([result.words_of(m) for m in esm.z_measurements]),
            )
            for esm in stretch.rounds
        ]

    def _stack_window(
        self, rounds: List[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stack per-round syndromes into ``(shots, rounds, checks)``.

        The one place where the syndromes leave word space: each
        species' ``(rounds, checks, num_words)`` planes are unpacked in
        a single pass per window.
        """
        x_planes, z_planes = (np.array(planes) for planes in zip(*rounds))
        return (
            np.moveaxis(unpack_bits(x_planes, self.num_shots), -1, 0),
            np.moveaxis(unpack_bits(z_planes, self.num_shots), -1, 0),
        )

    def _apply_corrections(
        self, decision: BatchedWindowDecision
    ) -> np.ndarray:
        """Apply a decoder decision as per-shot frame XORs.

        Its correction masks are ``(shots, 9)`` over the data qubits;
        returns its per-shot any-correction mask for counting.
        """
        commanded = decision.has_corrections
        if commanded.any():
            width = self.core.frames.num_qubits
            x_mask = np.zeros((self.num_shots, width), dtype=bool)
            z_mask = np.zeros((self.num_shots, width), dtype=bool)
            data = self.qubit_map[:9]
            x_mask[:, data] = decision.x_corrections
            z_mask[:, data] = decision.z_corrections
            self.core.apply_pauli_frame(x_mask, z_mask)
            if not self.use_pauli_frame:
                # Frame-less arm: the correction circuit physically
                # reaches the hardware, so its time slot is charged
                # depolarizing noise (gate error on corrected qubits,
                # idle error on the rest — the same channel either
                # way) on exactly the shots that commanded it.  A
                # shard draws the slot only when one of its own shots
                # commanded it, as it does when it runs alone.
                self.core.inject_depolarizing(
                    range(NUM_QUBITS),
                    shot_mask=commanded,
                    shards=np.logical_or.reduceat(
                        commanded, self._starts
                    ),
                )
        return commanded

    # ------------------------------------------------------------------
    def run(self) -> List[RunResult]:
        """Run all shots; one :class:`RunResult` per shot."""
        results = self.run_counts().to_results()
        for result in results:
            result.decoder = self.decoder_impl
        return results

    def run_counts(self) -> BatchCounts:
        """Run all shots; per-shot count arrays.

        The cheap form of :meth:`run` — no per-shot dataclasses, just
        the three count arrays.  The parallel shard runner uses this
        to keep inter-process records compact.
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._run_counts()
        with t.span(
            "experiment",
            "BatchedLerExperiment.run_counts",
            shots=self.num_shots,
            windows=self.windows,
            physical_error_rate=self.physical_error_rate,
            use_pauli_frame=self.use_pauli_frame,
            decoder_impl=self.decoder_impl,
            engine=self.engine,
        ):
            return self._run_counts()

    def _run_counts(self) -> BatchCounts:
        circuits, core = self.circuits, self.core
        init_x, init_z = self._stack_window(
            self._round_words(core.run(circuits.init.circuit), circuits.init)
        )
        self.decoder.reset()
        self._apply_corrections(self.decoder.initialize(init_x, init_z))
        reference = core.run(circuits.probe.circuit).bits_of(
            circuits.probe.probe
        )

        logical_errors = np.zeros(self.num_shots, dtype=np.int64)
        clean_windows = np.zeros(self.num_shots, dtype=np.int64)
        corrections = np.zeros(self.num_shots, dtype=np.int64)
        for _ in range(self.windows):
            window_x, window_z = self._stack_window(
                self._round_words(
                    core.run(circuits.window.circuit), circuits.window
                )
            )
            corrections += self._apply_corrections(
                self.decoder.decode_window(window_x, window_z)
            )
            # The perfect diagnostic round, then the probe: a shot is
            # clean when its round shows no syndrome at all.
            result = core.run(circuits.check.circuit)
            (diagnostic,) = self._round_words(result, circuits.check)
            dirty = np.bitwise_or.reduce(np.concatenate(diagnostic), axis=0)
            clean = ~unpack_bits(dirty, self.num_shots)
            eigenvalues = result.bits_of(circuits.check.probe)
            flipped = clean & (eigenvalues != reference)
            logical_errors += flipped
            clean_windows += clean
            # The reference only advances on clean observations,
            # exactly like the loop protocol's check_logical_error.
            reference = np.where(clean, eigenvalues, reference)

        self.core.commit_reference_trace()
        return BatchCounts(
            physical_error_rate=self.physical_error_rate,
            error_kind=self.error_kind,
            use_pauli_frame=self.use_pauli_frame,
            windows=self.windows,
            logical_errors=logical_errors,
            clean_windows=clean_windows,
            corrections_commanded=corrections,
        )


def run_ler_point(
    physical_error_rate: float,
    use_pauli_frame: bool,
    error_kind: str = "x",
    samples: int = 10,
    max_logical_errors: int = 50,
    seed: int = 0,
    max_windows: int = 2_000_000,
    batch_windows: Optional[int] = None,
    decoder_impl: str = "lut",
    engine: str = "framesim",
) -> List[RunResult]:
    """Repeat the experiment ``samples`` times with distinct seeds.

    Matches the paper's protocol: 10 (or 20 near the pseudo-threshold)
    independent simulations per PER value, each terminated at
    ``max_logical_errors`` logical errors.

    With ``batch_windows`` set, the batched sampler replaces the
    per-shot tableau loop: ``samples`` becomes the number of lockstep
    shots, each running exactly ``batch_windows`` windows
    (``max_logical_errors`` and ``max_windows`` are then unused — the
    stopping rule is the fixed window count).  ``decoder_impl`` names
    the registry's windowed decoder and ``engine`` the core's frame
    stream (``"packed-fast"`` is statistically identical to
    ``"framesim"``; see :class:`BatchedLerExperiment`).
    """
    if batch_windows is not None:
        experiment = BatchedLerExperiment(
            physical_error_rate,
            num_shots=samples,
            use_pauli_frame=use_pauli_frame,
            error_kind=error_kind,
            windows=batch_windows,
            seed=seed,
            decoder_impl=decoder_impl,
            engine=engine,
        )
        return experiment.run()
    results = []
    for sample in range(samples):
        experiment = LerExperiment(
            physical_error_rate,
            use_pauli_frame,
            error_kind=error_kind,
            max_logical_errors=max_logical_errors,
            max_windows=max_windows,
            seed=seed + sample,
        )
        results.append(experiment.run())
    return results
