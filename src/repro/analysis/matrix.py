"""Static capability-matrix verification (``repro analyze matrix``).

The decoder registry made decoder selection declarative: capability
flags plus builder callables.  That turned "which decoder works
where" into *data* -- which means it can be checked statically, the
same move the circuit pre-flight made for frame rules.  This module
enumerates every registered decoder x experiment combination and
verifies the contracts between them **without sampling a single
shot**:

* **registry consistency** -- a capability flag and its builder must
  agree (``windowed`` <-> ``window_builder``, ``spacetime`` <->
  ``spacetime_builder``), names are well-formed CLI tokens;
* **experiment matrix** -- windowed experiments (``ler``, ``sweep``,
  serve jobs) require ``windowed``; graph experiments
  (``phenomenological``, ``distance``, ``memory``) require
  ``spacetime``; serve-side params validation
  (:func:`repro.serve.workers.check_job_params`) must accept exactly
  the decoders the registry says it should;
* **documentation** -- every ``--decoder NAME`` example in README.md /
  EXPERIMENTS.md names a registered decoder.

Every engine runs every windowed decoder: the batched experiment
hands all of them the same ``(shots, rounds, checks)`` syndrome
arrays, so there is no decoder x engine axis to check.

The result is a :class:`~repro.experiments.results.MatrixReport`
(``repro analyze matrix --json``), gated in CI next to the
determinism linter.  A broken registry entry -- flag without builder,
serve contract drift -- turns into a named problem string and a
non-zero exit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..decoders.registry import (
    CAP_SPACETIME,
    CAP_WINDOWED,
    RegisteredDecoder,
    list_decoders,
)

#: experiment context -> the decoder capability it requires.
EXPERIMENT_REQUIREMENTS: Dict[str, str] = {
    "ler": CAP_WINDOWED,
    "sweep": CAP_WINDOWED,
    "serve": CAP_WINDOWED,
    "phenomenological": CAP_SPACETIME,
    "distance": CAP_SPACETIME,
    "memory": CAP_SPACETIME,
}

#: ``--decoder <token>`` occurrences in the documentation.
_DOC_DECODER_PATTERN = re.compile(r"--decoder[= ]([A-Za-z0-9_:,.=-]+)")

_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9-]*$")


@dataclass
class MatrixCell:
    """One decoder x context compatibility verdict."""

    decoder: str
    context: str
    supported: bool
    reason: str

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "decoder": self.decoder,
            "context": self.context,
            "supported": self.supported,
            "reason": self.reason,
        }


def check_registry(
    decoders: Sequence[RegisteredDecoder],
) -> List[str]:
    """Flag/builder consistency + naming problems."""
    problems: List[str] = []
    for spec in decoders:
        if not _NAME_PATTERN.match(spec.name):
            problems.append(
                f"decoder name {spec.name!r} is not a well-formed "
                f"CLI token (expected [a-z][a-z0-9-]*)"
            )
        if not spec.summary.strip():
            problems.append(f"decoder {spec.name!r} has no summary")
        windowed = CAP_WINDOWED in spec.capabilities
        if windowed != (spec.window_builder is not None):
            problems.append(
                f"decoder {spec.name!r}: capability "
                f"{CAP_WINDOWED!r} is "
                f"{'claimed' if windowed else 'absent'} but "
                f"window_builder is "
                f"{'missing' if windowed else 'present'}"
            )
        spacetime = CAP_SPACETIME in spec.capabilities
        if spacetime != (spec.spacetime_builder is not None):
            problems.append(
                f"decoder {spec.name!r}: capability "
                f"{CAP_SPACETIME!r} is "
                f"{'claimed' if spacetime else 'absent'} but "
                f"spacetime_builder is "
                f"{'missing' if spacetime else 'present'}"
            )
    return problems


def check_experiment_matrix(
    decoders: Sequence[RegisteredDecoder],
) -> Tuple[List[MatrixCell], List[str]]:
    """Experiment-context support + serve params cross-check."""
    from ..serve.workers import JobParamsError, check_job_params

    cells: List[MatrixCell] = []
    problems: List[str] = []
    for spec in decoders:
        for context, required in sorted(
            EXPERIMENT_REQUIREMENTS.items()
        ):
            supported = required in spec.capabilities
            reason = (
                f"capability {required!r} "
                f"{'present' if supported else 'missing'}"
            )
            cells.append(
                MatrixCell(
                    decoder=spec.name,
                    context=f"experiment:{context}",
                    supported=supported,
                    reason=reason,
                )
            )
            if context != "serve":
                continue
            try:
                check_job_params(
                    "ler",
                    {
                        "physical_error_rate": 1e-3,
                        "decoder": spec.name,
                    },
                )
                accepted = True
            except JobParamsError:
                accepted = False
            if accepted != supported:
                problems.append(
                    f"serve params validation "
                    f"{'accepts' if accepted else 'rejects'} "
                    f"decoder {spec.name!r} but the capability "
                    f"matrix says it is "
                    f"{'supported' if supported else 'unsupported'}"
                )
    return cells, problems


def check_doc_grammar(
    doc_paths: Sequence[Path],
) -> Tuple[int, List[str]]:
    """Every ``--decoder`` example in the docs must name a decoder."""
    problems: List[str] = []
    names = {spec.name for spec in list_decoders()}
    examples = 0
    for doc in doc_paths:
        if not doc.exists():
            problems.append(f"documentation file {doc} is missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for match in _DOC_DECODER_PATTERN.finditer(text):
            token = match.group(1).rstrip(".,;")
            # Skip the placeholder itself (NAME).
            if token.upper() == token:
                continue
            examples += 1
            if token not in names:
                line = text.count(chr(10), 0, match.start()) + 1
                problems.append(
                    f"{doc.name}:{line}: --decoder names {token!r}, "
                    f"not a registered decoder"
                )
    return examples, problems


def default_doc_paths() -> List[Path]:
    """README.md / EXPERIMENTS.md next to the package checkout."""
    repo = Path(__file__).resolve().parents[3]
    return [repo / "README.md", repo / "EXPERIMENTS.md"]


def verify_matrix(
    doc_paths: Optional[Sequence[Path]] = None,
) -> "MatrixVerification":
    """Run every static matrix check; nothing is sampled or decoded."""
    decoders = list_decoders()
    problems = check_registry(decoders)
    cells, exp_problems = check_experiment_matrix(decoders)
    problems.extend(exp_problems)
    docs = (
        list(doc_paths)
        if doc_paths is not None
        else default_doc_paths()
    )
    examples, doc_problems = check_doc_grammar(docs)
    problems.extend(doc_problems)
    return MatrixVerification(
        decoders=[spec.name for spec in decoders],
        experiments=sorted(EXPERIMENT_REQUIREMENTS),
        cells=cells,
        doc_examples=examples,
        problems=problems,
    )


@dataclass
class MatrixVerification:
    """Everything :func:`verify_matrix` established."""

    decoders: List[str]
    experiments: List[str]
    cells: List[MatrixCell]
    doc_examples: int
    problems: List[str]

    @property
    def passed(self) -> bool:
        return not self.problems
