"""The unified machine-readable results API.

Before this module, the experiment layer grew four divergent result
shapes: per-run ``LerResult`` objects, the batched sampler's
``BatchedLerCounts`` arrays, ``SweepPoint``/``LerSweep`` containers and
the parallel engine's ``ShardRecord`` checkpoint lines.  They are now
one family: every canonical result is a dataclass deriving from
:class:`ResultBase` with a shared ``to_json()`` / ``from_json()``
round-trip and a ``kind`` discriminator, so any serialized result can
be loaded back with :func:`result_from_json` without knowing its type
up front.

The CLI's ``--json`` mode builds exactly one document per invocation
from the ``*Report`` dataclasses below, validated against the schemas
in :mod:`repro.experiments.schemas`.

Compatibility note: :meth:`ShardResult.to_json` is byte-identical to
the historical ``ShardRecord.to_json`` checkpoint line format
(``{"kind": "shard", ...}`` with sorted keys) — existing checkpoint
files parse unchanged and the golden digests over shard records still
hold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..pauliframe.unit import FrameStatistics
from ..qpdo.counter_layer import StreamCounts
from .stats import PointComparison, SampleSummary

#: Arm identifier used in parallel records and keys.
ArmKey = Tuple[int, bool]

#: ``kind`` discriminator -> result class, for :func:`result_from_json`.
RESULT_KINDS: Dict[str, type] = {}


class ResultBase:
    """Shared JSON round-trip machinery of every result dataclass.

    Subclasses set a class-level ``kind`` string (the discriminator
    stored in serialized form) and are automatically registered in
    :data:`RESULT_KINDS`.  The default implementation serializes all
    dataclass fields via :func:`dataclasses.asdict`; subclasses with
    non-JSON fields (numpy arrays, nested results) override
    ``to_json_dict``/``from_json_dict`` symmetrically.
    """

    kind: str = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.kind:
            RESULT_KINDS[cls.kind] = cls

    def to_json_dict(self) -> Dict:
        """A JSON-safe dict, including the ``kind`` discriminator."""
        payload = {"kind": self.kind}
        payload.update(asdict(self))
        return payload

    def to_json(self) -> str:
        """One JSON document (sorted keys, no trailing newline)."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "ResultBase":
        """Rebuild from :meth:`to_json_dict` output."""
        return cls(
            **{f.name: payload[f.name] for f in fields(cls)}
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultBase":
        """Rebuild from :meth:`to_json` output."""
        payload = json.loads(text)
        if payload.get("kind") != cls.kind:
            raise ValueError(
                f"expected kind {cls.kind!r}, got "
                f"{payload.get('kind')!r}"
            )
        return cls.from_json_dict(payload)


def result_from_json_dict(payload: Dict) -> ResultBase:
    """Dispatch a serialized result to its class via ``kind``."""
    kind = payload.get("kind")
    klass = RESULT_KINDS.get(kind)
    if klass is None:
        raise ValueError(f"unknown result kind {kind!r}")
    return klass.from_json_dict(payload)


def result_from_json(text: str) -> ResultBase:
    """Parse one serialized result of any registered kind."""
    return result_from_json_dict(json.loads(text))


# ----------------------------------------------------------------------
# Nested codec helpers (numpy arrays and non-Result dataclasses)
# ----------------------------------------------------------------------
def _summary_to_dict(summary: SampleSummary) -> Dict:
    return {
        "physical_error_rate": summary.physical_error_rate,
        "use_pauli_frame": summary.use_pauli_frame,
        "ler_values": [float(v) for v in summary.ler_values],
        "window_counts": [float(v) for v in summary.window_counts],
    }


def _summary_from_dict(payload: Dict) -> SampleSummary:
    return SampleSummary(
        physical_error_rate=payload["physical_error_rate"],
        use_pauli_frame=payload["use_pauli_frame"],
        ler_values=np.asarray(payload["ler_values"], dtype=float),
        window_counts=np.asarray(payload["window_counts"], dtype=float),
    )


def _comparison_to_dict(comparison: PointComparison) -> Dict:
    return {
        "physical_error_rate": comparison.physical_error_rate,
        "without_frame": _summary_to_dict(comparison.without_frame),
        "with_frame": _summary_to_dict(comparison.with_frame),
        "delta_ler": comparison.delta_ler,
        "sigma_max": comparison.sigma_max,
        "rho_independent": comparison.rho_independent,
        "rho_paired": comparison.rho_paired,
    }


def _comparison_from_dict(payload: Dict) -> PointComparison:
    return PointComparison(
        physical_error_rate=payload["physical_error_rate"],
        without_frame=_summary_from_dict(payload["without_frame"]),
        with_frame=_summary_from_dict(payload["with_frame"]),
        delta_ler=payload["delta_ler"],
        sigma_max=payload["sigma_max"],
        rho_independent=payload["rho_independent"],
        rho_paired=payload["rho_paired"],
    )


# ----------------------------------------------------------------------
# Canonical experiment results
# ----------------------------------------------------------------------
@dataclass
class RunResult(ResultBase):
    """Outcome of one LER simulation run (historically ``LerResult``).

    ``logical_error_rate`` is ``logical_errors / windows`` (Eq. 5.1).
    ``frame_statistics`` is present only for runs with a Pauli frame
    and feeds the savings analysis of Figs 5.25/5.26.  ``decoder``
    echoes the name of the registry decoder that produced the run;
    ``None`` on results predating decoder selection.
    """

    kind = "run"

    physical_error_rate: float
    error_kind: str
    use_pauli_frame: bool
    windows: int = 0
    logical_errors: int = 0
    clean_windows: int = 0
    corrections_commanded: int = 0
    frame_statistics: Optional[FrameStatistics] = None
    counts_above: StreamCounts = field(default_factory=StreamCounts)
    counts_below: StreamCounts = field(default_factory=StreamCounts)
    decoder: Optional[str] = None

    @property
    def logical_error_rate(self) -> float:
        """``P_L = m / R`` for this run."""
        if self.windows == 0:
            return 0.0
        return self.logical_errors / self.windows

    @property
    def saved_operations_fraction(self) -> float:
        """Fraction of commanded operations the frame filtered."""
        if self.counts_above.operations == 0:
            return 0.0
        saved = self.counts_above.operations - self.counts_below.operations
        return saved / self.counts_above.operations

    @property
    def saved_slots_fraction(self) -> float:
        """Fraction of commanded time slots the frame removed."""
        if self.counts_above.slots == 0:
            return 0.0
        saved = self.counts_above.slots - self.counts_below.slots
        return saved / self.counts_above.slots

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "RunResult":
        frame_stats = payload["frame_statistics"]
        return cls(
            physical_error_rate=payload["physical_error_rate"],
            error_kind=payload["error_kind"],
            use_pauli_frame=payload["use_pauli_frame"],
            windows=payload["windows"],
            logical_errors=payload["logical_errors"],
            clean_windows=payload["clean_windows"],
            corrections_commanded=payload["corrections_commanded"],
            frame_statistics=(
                None
                if frame_stats is None
                else FrameStatistics(**frame_stats)
            ),
            counts_above=StreamCounts(**payload["counts_above"]),
            counts_below=StreamCounts(**payload["counts_below"]),
            # .get: tolerate pre-registry documents with no decoder.
            decoder=payload.get("decoder"),
        )


@dataclass
class BatchCounts(ResultBase):
    """Raw per-shot count arrays of one batched LER run
    (historically ``BatchedLerCounts``).

    The array-level result of
    :meth:`~repro.experiments.ler.BatchedLerExperiment.run_counts`:
    three int arrays of shape ``(num_shots,)`` plus the shared window
    count.  :meth:`to_results` expands it into the per-shot
    :class:`RunResult` views the analysis layer consumes.
    """

    kind = "batch_counts"

    physical_error_rate: float
    error_kind: str
    use_pauli_frame: bool
    windows: int
    logical_errors: np.ndarray
    clean_windows: np.ndarray
    corrections_commanded: np.ndarray

    @property
    def num_shots(self) -> int:
        return len(self.logical_errors)

    @property
    def total_errors(self) -> int:
        return int(self.logical_errors.sum())

    @property
    def total_windows(self) -> int:
        return self.windows * self.num_shots

    def to_results(self) -> List[RunResult]:
        """One :class:`RunResult` per shot."""
        return [
            RunResult(
                physical_error_rate=self.physical_error_rate,
                error_kind=self.error_kind,
                use_pauli_frame=self.use_pauli_frame,
                windows=self.windows,
                logical_errors=int(self.logical_errors[shot]),
                clean_windows=int(self.clean_windows[shot]),
                corrections_commanded=int(
                    self.corrections_commanded[shot]
                ),
            )
            for shot in range(self.num_shots)
        ]

    def to_json_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "physical_error_rate": self.physical_error_rate,
            "error_kind": self.error_kind,
            "use_pauli_frame": self.use_pauli_frame,
            "windows": self.windows,
            "logical_errors": [int(v) for v in self.logical_errors],
            "clean_windows": [int(v) for v in self.clean_windows],
            "corrections_commanded": [
                int(v) for v in self.corrections_commanded
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "BatchCounts":
        return cls(
            physical_error_rate=payload["physical_error_rate"],
            error_kind=payload["error_kind"],
            use_pauli_frame=payload["use_pauli_frame"],
            windows=payload["windows"],
            logical_errors=np.asarray(
                payload["logical_errors"], dtype=np.int64
            ),
            clean_windows=np.asarray(
                payload["clean_windows"], dtype=np.int64
            ),
            corrections_commanded=np.asarray(
                payload["corrections_commanded"], dtype=np.int64
            ),
        )


@dataclass
class ShardResult(ResultBase):
    """The complete result of one executed parallel shard
    (historically ``ShardRecord``).

    Carries the identifying spec fields plus per-shot count lists, so
    an aggregate (or a resumed run) can rebuild exact
    :class:`RunResult` views without re-running anything.  Serializes
    to one JSON object per checkpoint line; the byte format is pinned
    (golden digests) and identical to the historical ``ShardRecord``.
    """

    kind = "shard"

    point_index: int
    physical_error_rate: float
    use_pauli_frame: bool
    shard_index: int
    shots: int
    error_kind: str
    mode: str
    windows: int
    shot_errors: List[int]
    shot_windows: List[int]
    shot_clean: List[int]
    shot_corrections: List[int]

    @property
    def key(self) -> Tuple[int, bool, int]:
        return (self.point_index, self.use_pauli_frame, self.shard_index)

    @property
    def arm_key(self) -> ArmKey:
        return (self.point_index, self.use_pauli_frame)

    @property
    def total_errors(self) -> int:
        return sum(self.shot_errors)

    @property
    def total_windows(self) -> int:
        return sum(self.shot_windows)

    def to_results(self) -> List[RunResult]:
        """Expand into per-shot :class:`RunResult` views."""
        return [
            RunResult(
                physical_error_rate=self.physical_error_rate,
                error_kind=self.error_kind,
                use_pauli_frame=self.use_pauli_frame,
                windows=self.shot_windows[shot],
                logical_errors=self.shot_errors[shot],
                clean_windows=self.shot_clean[shot],
                corrections_commanded=self.shot_corrections[shot],
            )
            for shot in range(self.shots)
        ]

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "ShardResult":
        return cls(
            **{
                f.name: payload[f.name]
                for f in fields(cls)
            }
        )


@dataclass
class SweepPointResult(ResultBase):
    """All data collected at one Physical Error Rate
    (historically ``SweepPoint``)."""

    kind = "sweep_point"

    physical_error_rate: float
    without_frame: List[RunResult]
    with_frame: List[RunResult]
    comparison: PointComparison
    #: Name of the registry decoder that produced both arms;
    #: ``None`` on pre-registry documents.
    decoder: Optional[str] = None

    @property
    def mean_ler_without(self) -> float:
        """Mean LER of the frame-less arm."""
        return self.comparison.without_frame.mean_ler

    @property
    def mean_ler_with(self) -> float:
        """Mean LER of the Pauli-frame arm."""
        return self.comparison.with_frame.mean_ler

    @property
    def mean_saved_slots(self) -> Optional[float]:
        """Mean fraction of time slots the frame filtered (Fig 5.26);
        ``None`` when no with-frame run measured it."""
        return self._mean_frame_statistic("saved_slots_fraction")

    @property
    def mean_saved_operations(self) -> Optional[float]:
        """Mean fraction of gates the frame filtered (Fig 5.25);
        ``None`` when no with-frame run measured it."""
        return self._mean_frame_statistic("saved_operations_fraction")

    def _mean_frame_statistic(self, name: str) -> Optional[float]:
        fractions = [
            getattr(r.frame_statistics, name)
            for r in self.with_frame
            if r.frame_statistics is not None
        ]
        return float(np.mean(fractions)) if fractions else None

    def to_json_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "physical_error_rate": self.physical_error_rate,
            "without_frame": [
                r.to_json_dict() for r in self.without_frame
            ],
            "with_frame": [r.to_json_dict() for r in self.with_frame],
            "comparison": _comparison_to_dict(self.comparison),
            "decoder": self.decoder,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "SweepPointResult":
        return cls(
            physical_error_rate=payload["physical_error_rate"],
            without_frame=[
                RunResult.from_json_dict(r)
                for r in payload["without_frame"]
            ],
            with_frame=[
                RunResult.from_json_dict(r)
                for r in payload["with_frame"]
            ],
            comparison=_comparison_from_dict(payload["comparison"]),
            decoder=payload.get("decoder"),
        )


@dataclass
class SweepResult(ResultBase):
    """A complete with/without-frame sweep over PER values
    (historically ``LerSweep``)."""

    kind = "sweep"

    error_kind: str
    points: List[SweepPointResult] = field(default_factory=list)

    def per_values(self) -> List[float]:
        """The swept Physical Error Rates, in order."""
        return [p.physical_error_rate for p in self.points]

    def series(self, use_pauli_frame: bool) -> List[float]:
        """Mean LER per PER for one arm (Figs 5.11/5.13)."""
        if use_pauli_frame:
            return [p.mean_ler_with for p in self.points]
        return [p.mean_ler_without for p in self.points]

    def delta_series(self) -> List[float]:
        """The absolute differences of Eq. 5.2 (Figs 5.17/5.18)."""
        return [p.comparison.delta_ler for p in self.points]

    def sigma_series(self) -> List[float]:
        """The sigma_max values of Eq. 5.3 (error bars of Fig 5.17)."""
        return [p.comparison.sigma_max for p in self.points]

    def rho_series(self, paired: bool = False) -> List[float]:
        """t-test rho per PER (Figs 5.21-5.24)."""
        if paired:
            return [
                p.comparison.rho_paired
                if p.comparison.rho_paired is not None
                else float("nan")
                for p in self.points
            ]
        return [p.comparison.rho_independent for p in self.points]

    def window_cov_series(self, use_pauli_frame: bool) -> List[float]:
        """Coefficient of variation of window counts (Figs 5.19/5.20)."""
        summaries = [
            p.comparison.with_frame
            if use_pauli_frame
            else p.comparison.without_frame
            for p in self.points
        ]
        return [s.window_cov for s in summaries]

    def savings_series(self) -> Dict[str, List[Optional[float]]]:
        """Saved-gates and saved-slots fractions (Figs 5.25/5.26);
        ``None`` at points whose runs did not measure them."""
        return {
            "operations": [p.mean_saved_operations for p in self.points],
            "slots": [p.mean_saved_slots for p in self.points],
        }

    def to_json_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "error_kind": self.error_kind,
            "points": [p.to_json_dict() for p in self.points],
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "SweepResult":
        return cls(
            error_kind=payload["error_kind"],
            points=[
                SweepPointResult.from_json_dict(p)
                for p in payload["points"]
            ],
        )


# ----------------------------------------------------------------------
# Per-subcommand CLI reports (the --json documents)
# ----------------------------------------------------------------------
@dataclass
class VerifyReport(ResultBase):
    """``repro verify``: random-circuit + odd-Bell benches."""

    kind = "verify_report"

    iterations: int
    matches: int
    total_gates_filtered: int
    all_match: bool
    histogram_with_frame: Dict[str, int]
    histogram_without_frame: Dict[str, int]
    both_valid: bool
    passed: bool


@dataclass
class ArmReport(ResultBase):
    """One with/without-frame arm of a ``repro ler`` invocation."""

    kind = "ler_arm"

    use_pauli_frame: bool
    logical_errors: int
    windows: int
    logical_error_rate: float
    corrections_commanded: int
    wilson_low: Optional[float] = None
    wilson_high: Optional[float] = None
    saved_slots_fraction: Optional[float] = None
    committed_shards: Optional[int] = None
    num_shards: Optional[int] = None

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "ArmReport":
        return cls(
            **{f.name: payload[f.name] for f in fields(cls)}
        )


@dataclass
class LerReport(ResultBase):
    """``repro ler``: one PER point, both arms."""

    kind = "ler_report"

    physical_error_rate: float
    error_kind: str
    mode: str  # "loop", "batch" or "parallel"
    seed: int
    arms: List[ArmReport]
    committed_shards: Optional[int] = None
    executed_shards: Optional[int] = None
    resumed_shards: Optional[int] = None
    decoder: Optional[str] = None

    def to_json_dict(self) -> Dict:
        payload = {"kind": self.kind}
        payload.update(asdict(self))
        payload["arms"] = [arm.to_json_dict() for arm in self.arms]
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "LerReport":
        values = {
            f.name: payload.get(f.name)
            for f in fields(cls)
            if f.name != "arms"
        }
        values["arms"] = [
            ArmReport.from_json_dict(arm) for arm in payload["arms"]
        ]
        return cls(**values)


@dataclass
class SweepReport(ResultBase):
    """``repro sweep``: the full sweep plus aggregate statistics."""

    kind = "sweep_report"

    error_kind: str
    seed: int
    mean_rho: float
    significant_fraction: float
    sweep: SweepResult
    arms: Optional[List[Dict]] = None
    committed_shards: Optional[int] = None
    executed_shards: Optional[int] = None
    resumed_shards: Optional[int] = None
    decoder: Optional[str] = None

    def to_json_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "error_kind": self.error_kind,
            "seed": self.seed,
            "mean_rho": self.mean_rho,
            "significant_fraction": self.significant_fraction,
            "sweep": self.sweep.to_json_dict(),
            "arms": self.arms,
            "committed_shards": self.committed_shards,
            "executed_shards": self.executed_shards,
            "resumed_shards": self.resumed_shards,
            "decoder": self.decoder,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "SweepReport":
        return cls(
            error_kind=payload["error_kind"],
            seed=payload["seed"],
            mean_rho=payload["mean_rho"],
            significant_fraction=payload["significant_fraction"],
            sweep=SweepResult.from_json_dict(payload["sweep"]),
            arms=payload["arms"],
            committed_shards=payload["committed_shards"],
            executed_shards=payload["executed_shards"],
            resumed_shards=payload["resumed_shards"],
            decoder=payload.get("decoder"),
        )


@dataclass
class DecodersReport(ResultBase):
    """``repro decoders``: the registered decoder catalogue.

    One row per registry entry, from
    :meth:`repro.decoders.registry.RegisteredDecoder.describe`.
    """

    kind = "decoders_report"

    decoders: List[Dict]


@dataclass
class DistanceReport(ResultBase):
    """``repro distance``: code-capacity distance scaling rows."""

    kind = "distance_report"

    trials: int
    seed: int
    rows: List[Dict]


@dataclass
class PhenomenologicalReport(ResultBase):
    """``repro phenomenological``: scaling with measurement errors."""

    kind = "phenomenological_report"

    trials: int
    seed: int
    rows: List[Dict]


@dataclass
class MemoryReport(ResultBase):
    """``repro memory``: circuit-level block memory rows."""

    kind = "memory_report"

    physical_error_rate: float
    trials: int
    seed: int
    rows: List[Dict]


@dataclass
class BoundReport(ResultBase):
    """``repro bound``: the Fig. 5.27 analytic improvement bound."""

    kind = "bound_report"

    ts_esm: int
    rows: List[Dict]


@dataclass
class ScheduleReport(ResultBase):
    """``repro schedule``: the Fig. 3.3 schedule comparison."""

    kind = "schedule_report"

    without_frame: Dict
    with_frame: Dict
    time_saved: float
    relative_time_saved: float
    decoder_deadline_relaxation: float


@dataclass
class CensusReport(ResultBase):
    """``repro census``: per-workload Pauli-gate census."""

    kind = "census_report"

    workloads: Dict[str, Dict]


@dataclass
class InjectReport(ResultBase):
    """``repro inject``: logical state-injection fidelity check."""

    kind = "inject_report"

    theta: float
    phi: float
    observed: List[float]
    expected: List[float]
    max_error: float
    passed: bool


@dataclass
class TraceReport(ResultBase):
    """``repro report``: aggregated view of a saved telemetry trace."""

    kind = "trace_report"

    path: str
    spans: List[Dict]
    counters: List[Dict]
    events: List[Dict]


@dataclass
class CircuitReport(ResultBase):
    """``repro lint-circuit``: static pre-flight analysis of a circuit.

    Wraps one
    :class:`~repro.analysis.verifier.CircuitAnalysis` -- findings are
    serialized :class:`~repro.analysis.findings.Finding` dicts.
    """

    kind = "circuit_report"

    circuit: str
    target: Optional[str]
    initial_frame: str
    frame_policy: str
    num_qubits: int
    num_slots: int
    num_operations: int
    gate_census: Dict[str, int]
    is_clifford: bool
    routing: str
    frame_safe: bool
    findings: List[Dict]
    errors: int
    warnings: int
    passed: bool


@dataclass
class LintReport(ResultBase):
    """``repro lint-code``: determinism-linter findings over a tree."""

    kind = "lint_report"

    root: str
    files_checked: int
    findings: List[Dict]
    counts_by_code: Dict[str, int]
    suppressed: int
    unsuppressed: int
    passed: bool


@dataclass
class MatrixReport(ResultBase):
    """``repro analyze matrix``: static capability-matrix verdicts."""

    kind = "matrix_report"

    decoders: List[str]
    experiments: List[str]
    cells: List[Dict]
    doc_examples: int
    problems: List[str]
    passed: bool
