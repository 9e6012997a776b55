"""Machine-readable findings shared by both static-analysis passes.

Every diagnostic the static layer produces -- the circuit pre-flight
verifier (``CIRxxx`` codes) and the determinism linter over the Python
sources (``REPxxx`` codes) -- is one :class:`Finding`: a stable code, a
severity, a free-form location dict and a human-readable message.
Findings serialize to plain JSON dicts so they can travel through the
unified results API (:mod:`repro.experiments.results`) and the CLI's
``--json`` documents unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail a pre-flight check or a lint gate;
    ``WARNING`` findings are reported but do not fail by default;
    ``INFO`` findings are purely informational (classification notes).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: code -> one-line description; the single registry both passes and
#: the documentation table draw from.
FINDING_CODES: Dict[str, str] = {}


def register_code(code: str, description: str) -> str:
    """Register a finding code; returns ``code`` for assignment."""
    if code in FINDING_CODES:
        raise ValueError(f"finding code {code!r} registered twice")
    FINDING_CODES[code] = description
    return code


# ----------------------------------------------------------------------
# Circuit pre-flight verifier codes (CIRxxx)
# ----------------------------------------------------------------------
CIR_UNKNOWN_GATE = register_code(
    "CIR001", "operation uses a gate unknown to the gate set"
)
CIR_ARITY = register_code(
    "CIR002", "operation arity does not match its gate's arity"
)
CIR_SLOT_CONFLICT = register_code(
    "CIR003", "qubit targeted twice within one time slot"
)
CIR_USE_AFTER_MEASURE = register_code(
    "CIR004",
    "qubit operated on after measurement without re-preparation",
)
CIR_BARE_MEASURE = register_code(
    "CIR005",
    "measurement reads a qubit with no prior operation in the circuit",
)
CIR_DEAD_ALLOCATION = register_code(
    "CIR006",
    "qubit is prepared but never used nor measured afterwards",
)
CIR_NON_CLIFFORD = register_code(
    "CIR007",
    "non-Clifford gate routes the circuit to the state-vector backend",
)
CIR_CAPABILITY = register_code(
    "CIR008",
    "target core lacks a capability the circuit requires",
)
CIR_FRAME_COMMUTE = register_code(
    "CIR009",
    "a Pauli frame cannot commute through this operation",
)

# ----------------------------------------------------------------------
# Determinism linter codes (REPxxx)
# ----------------------------------------------------------------------
REP_LEGACY_RANDOM = register_code(
    "REP001",
    "legacy global-state RNG call (np.random.* / random.*) instead of "
    "a threaded numpy Generator",
)
REP_UNSEEDED_RNG = register_code(
    "REP002",
    "np.random.default_rng() without a seed draws OS entropy",
)
REP_WALL_CLOCK = register_code(
    "REP003",
    "wall-clock call (time.time / datetime.now) in a result-affecting "
    "path",
)
REP_UNORDERED_SERIALIZATION = register_code(
    "REP004",
    "unordered iteration or unsorted json.dumps in a serialization "
    "path",
)
REP_TELEMETRY_BYPASS = register_code(
    "REP005",
    "telemetry.ACTIVE used directly, bypassing the null-object fast "
    "path",
)

# ----------------------------------------------------------------------
# Whole-program dataflow analyzer codes (REP1xx)
# ----------------------------------------------------------------------
REP_RNG_DEFAULT_NONE = register_code(
    "REP100",
    "RNG constructed from a seed parameter that defaults to None "
    "while an in-package call site leaves the seed unset",
)
REP_RNG_CLOSURE = register_code(
    "REP101",
    "RNG object captured into a closure or lambda instead of being "
    "threaded explicitly",
)
REP_RNG_ACROSS_POOL = register_code(
    "REP102",
    "RNG object passed across a process-pool boundary; pass derived "
    "seeds (SeedSequence children) instead",
)
REP_RNG_BOTH_SIDES = register_code(
    "REP103",
    "RNG stream consumed on both sides of a fork boundary (drawn "
    "locally and shipped to a worker)",
)
REP_SEED_ENTROPY = register_code(
    "REP104",
    "seed derivation mixes in a nondeterministic source (pid, "
    "wall clock, urandom, uuid, id(), hash())",
)
REP_GLOBAL_MUTABLE = register_code(
    "REP110",
    "module-level mutable container written from function code "
    "without a registered ownership contract",
)
REP_NONATOMIC_WRITE = register_code(
    "REP111",
    "truncating write in a checkpoint/journal/spool path without the "
    "tmp-write + os.replace idiom",
)
REP_TMP_NO_REPLACE = register_code(
    "REP112",
    "temp-suffixed file written but never published with os.replace "
    "(torn-publish hazard)",
)


@dataclass
class Finding:
    """One diagnostic produced by a static-analysis pass.

    Attributes
    ----------
    code:
        Stable identifier from :data:`FINDING_CODES`.
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable, single-sentence description.
    location:
        Free-form location dict.  The circuit verifier uses
        ``{"circuit", "slot", "operation", "qubits"}``; the linter
        uses ``{"path", "line", "column"}``.
    suppressed:
        Whether an inline ``# allow-lint:`` comment acknowledged the
        finding (linter pass only).
    suppression_reason:
        The human reason given in the suppression comment.
    """

    code: str
    severity: Severity
    message: str
    location: Dict[str, Any] = field(default_factory=dict)
    suppressed: bool = False
    suppression_reason: Optional[str] = None

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (severity as its string value)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": dict(self.location),
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "Finding":
        """Rebuild from :meth:`to_json_dict` output."""
        return cls(
            code=payload["code"],
            severity=Severity(payload["severity"]),
            message=payload["message"],
            location=dict(payload["location"]),
            suppressed=payload["suppressed"],
            suppression_reason=payload["suppression_reason"],
        )

    @property
    def is_error(self) -> bool:
        """Whether this finding fails a gate when unsuppressed."""
        return self.severity is Severity.ERROR

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = ":".join(
            str(self.location[key])
            for key in ("path", "line")
            if key in self.location
        )
        prefix = f"{where} " if where else ""
        return (
            f"{prefix}{self.code} [{self.severity.value}] {self.message}"
        )


def format_findings_table() -> str:
    """The documentation table of all registered finding codes."""
    lines = []
    for code in sorted(FINDING_CODES):
        lines.append(f"{code}  {FINDING_CODES[code]}")
    return "\n".join(lines)
