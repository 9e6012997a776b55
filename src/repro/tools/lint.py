"""Determinism/correctness linter over the package's own sources.

The parallel runner's bit-identical-results guarantee (PR 2) and the
schema'd results API (PR 3) both rest on source-level discipline: all
randomness flows through seeded :class:`numpy.random.Generator`
objects threaded from the caller, nothing result-affecting reads the
wall clock, serialization never iterates unordered containers, and
telemetry call sites honor the null-object fast path.  This module
enforces that discipline statically with custom AST rules (``REPxxx``
codes registered in :mod:`repro.analysis.findings`):

``REP001``
    Legacy global-state RNG calls: ``np.random.shuffle`` & co, or the
    stdlib ``random`` module.  These share hidden global state across
    call sites, breaking shot-level reproducibility.
``REP002``
    ``np.random.default_rng()`` *without* a seed -- draws OS entropy,
    so two runs can never be compared bit-for-bit.
``REP003``
    Wall-clock reads (``time.time``, ``datetime.now``, ...).
    Monotonic clocks (``time.perf_counter``/``monotonic``) are fine:
    they measure durations, never values that enter results.
``REP004``
    Serialization hazards: ``json.dumps``/``json.dump`` without
    ``sort_keys=True``, or iterating a ``set`` inside a
    serialization-shaped function (``to_json*``, ``to_dict``,
    ``serialize*``, ``dump*``, ``save*``, ``write*``).
``REP005``
    ``telemetry.ACTIVE.<anything>`` used directly; the sanctioned
    idiom binds ``t = telemetry.ACTIVE`` and branches on ``None`` so
    the disabled path stays allocation-free.

Suppression
-----------
A finding is acknowledged with an inline comment on the same line or
on a comment-only line directly above::

    rng = np.random.default_rng()  # allow-lint: REP002 documented entropy API

The code list is comma-separated and the trailing reason is
**required** -- a suppression without a reason does not suppress.

Run directly as a CI gate (exits non-zero on unsuppressed findings)::

    python -m repro.tools.lint [--json] [root]
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import findings as F
from ..analysis.findings import Finding, Severity

#: Comment marker acknowledging findings.
SUPPRESSION_MARKER = "allow-lint:"

#: ``np.random.<name>`` constructors that do NOT touch global state.
_SANCTIONED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: stdlib ``random`` module functions with hidden global state.
_STDLIB_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "seed",
        "getrandbits",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "lognormvariate",
        "randbytes",
    }
)

#: Attribute chains that read the wall clock.
_WALL_CLOCK_CHAINS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("datetime", "datetime", "now"),
        ("datetime", "datetime", "utcnow"),
        ("datetime", "datetime", "today"),
        ("date", "today"),
        ("datetime", "date", "today"),
    }
)

#: Function-name prefixes marking a serialization path for ``REP004``.
_SERIALIZATION_PREFIXES = (
    "to_json",
    "to_dict",
    "serialize",
    "dump",
    "save",
    "write",
)


def _dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-trivial bases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def parse_suppressions(
    source: str,
) -> Dict[int, Tuple[Tuple[str, ...], str]]:
    """line -> (codes, reason) for every valid suppression comment.

    A comment-only line forwards its suppression to the next line, so
    long statements can carry the acknowledgement above them.
    """
    suppressions: Dict[int, Tuple[Tuple[str, ...], str]] = {}
    comment_only: List[Tuple[int, Tuple[str, ...], str]] = []
    code_lines = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            text = token.string.lstrip("#").strip()
            if not text.startswith(SUPPRESSION_MARKER):
                continue
            rest = text[len(SUPPRESSION_MARKER):].strip()
            head, _, reason = rest.partition(" ")
            reason = reason.strip()
            codes = tuple(
                c.strip() for c in head.split(",") if c.strip()
            )
            if not codes or not reason:
                # A suppression without codes or without a reason is
                # not a suppression.
                continue
            line = token.start[0]
            suppressions[line] = (codes, reason)
            if line not in code_lines:
                comment_only.append((line, codes, reason))
        elif token.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            code_lines.add(token.start[0])
    for line, codes, reason in comment_only:
        suppressions.setdefault(line + 1, (codes, reason))
    return suppressions


class _LintVisitor(ast.NodeVisitor):
    """One file's AST walk collecting unsuppressed-candidate findings."""

    def __init__(self, path: str, in_telemetry_package: bool):
        self.path = path
        self.in_telemetry_package = in_telemetry_package
        self.findings: List[Finding] = []
        self._function_stack: List[str] = []

    # -- helpers --------------------------------------------------------
    def _report(
        self,
        code: str,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(
            Finding(
                code,
                severity,
                message,
                {
                    "path": self.path,
                    "line": node.lineno,
                    "column": node.col_offset,
                },
            )
        )

    def _in_serialization_path(self) -> bool:
        return any(
            name.startswith(_SERIALIZATION_PREFIXES)
            for name in self._function_stack
        )

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    # -- rules ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted_chain(node.func)
        if chain is not None:
            self._check_random(node, chain)
            self._check_wall_clock(node, chain)
            self._check_json_dumps(node, chain)
        self.generic_visit(node)

    def _check_random(
        self, node: ast.Call, chain: Tuple[str, ...]
    ) -> None:
        if (
            len(chain) == 3
            and chain[0] in ("np", "numpy")
            and chain[1] == "random"
        ):
            name = chain[2]
            if name == "default_rng":
                if not node.args and not node.keywords:
                    self._report(
                        F.REP_UNSEEDED_RNG,
                        node,
                        "np.random.default_rng() without a seed "
                        "draws OS entropy; thread a seeded Generator "
                        "from the caller",
                    )
            elif name not in _SANCTIONED_NP_RANDOM:
                self._report(
                    F.REP_LEGACY_RANDOM,
                    node,
                    f"np.random.{name} uses numpy's hidden global "
                    f"RNG state; use a seeded Generator instead",
                )
            return
        if chain == ("default_rng",):
            if not node.args and not node.keywords:
                self._report(
                    F.REP_UNSEEDED_RNG,
                    node,
                    "default_rng() without a seed draws OS entropy; "
                    "thread a seeded Generator from the caller",
                )
            return
        if (
            len(chain) == 2
            and chain[0] == "random"
            and chain[1] in _STDLIB_RANDOM
        ):
            self._report(
                F.REP_LEGACY_RANDOM,
                node,
                f"stdlib random.{chain[1]} uses hidden global RNG "
                f"state; use a seeded numpy Generator instead",
            )

    def _check_wall_clock(
        self, node: ast.Call, chain: Tuple[str, ...]
    ) -> None:
        if chain in _WALL_CLOCK_CHAINS:
            self._report(
                F.REP_WALL_CLOCK,
                node,
                f"{'.'.join(chain)}() reads the wall clock; use "
                f"time.perf_counter for durations or pass timestamps "
                f"in explicitly",
            )

    def _check_json_dumps(
        self, node: ast.Call, chain: Tuple[str, ...]
    ) -> None:
        if chain not in (("json", "dumps"), ("json", "dump")):
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if (
                    isinstance(value, ast.Constant)
                    and value.value is True
                ):
                    return
        self._report(
            F.REP_UNORDERED_SERIALIZATION,
            node,
            f"{'.'.join(chain)} without sort_keys=True emits "
            f"dict-insertion order; serialized documents must be "
            f"key-sorted",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._in_serialization_path():
            iterable = node.iter
            is_set = isinstance(iterable, (ast.Set, ast.SetComp)) or (
                isinstance(iterable, ast.Call)
                and _dotted_chain(iterable.func) == ("set",)
            )
            if is_set:
                self._report(
                    F.REP_UNORDERED_SERIALIZATION,
                    node,
                    "iterating a set in a serialization path yields "
                    "hash order; sort it first",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.in_telemetry_package:
            chain = _dotted_chain(node)
            if (
                chain is not None
                and len(chain) >= 3
                and chain[0] == "telemetry"
                and chain[1] == "ACTIVE"
            ):
                self._report(
                    F.REP_TELEMETRY_BYPASS,
                    node,
                    "telemetry.ACTIVE used directly; bind "
                    "`t = telemetry.ACTIVE` and branch on None to "
                    "keep the disabled fast path allocation-free",
                )
        self.generic_visit(node)


def default_root() -> Path:
    """The package source tree this module lives in (``src/repro``)."""
    return Path(__file__).resolve().parents[1]


def iter_source_files(root: Path) -> List[Path]:
    """All ``.py`` files under ``root`` in sorted (deterministic) order."""
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.py"))


def lint_source(
    source: str, path: str, in_telemetry_package: bool = False
) -> List[Finding]:
    """Lint one source string; findings carry ``path`` locations."""
    tree = ast.parse(source, filename=path)
    visitor = _LintVisitor(path, in_telemetry_package)
    visitor.visit(tree)
    suppressions = parse_suppressions(source)
    for finding in visitor.findings:
        entry = suppressions.get(finding.location["line"])
        if entry is not None and finding.code in entry[0]:
            finding.suppressed = True
            finding.suppression_reason = entry[1]
    visitor.findings.sort(
        key=lambda f: (f.location["line"], f.location["column"], f.code)
    )
    return visitor.findings


def lint_paths(root: Optional[Path] = None) -> List[Finding]:
    """Lint every source file under ``root`` (default: ``src/repro``).

    Combines the per-file rules (``REP001``-``REP005``) with the
    whole-program dataflow pass (``REP100``-``REP112``,
    :mod:`repro.analysis.dataflow`) whenever ``root`` is a directory;
    a single-file root runs the per-file rules only, since the
    interprocedural rules need the rest of the program to say
    anything sound.
    """
    base = default_root() if root is None else root
    collected: List[Finding] = []
    paths = iter_source_files(base)
    display: List[str] = []
    for path in paths:
        relative = path
        try:
            relative = path.relative_to(base.parent.parent)
        except ValueError:
            pass
        display.append(str(relative))
        collected.extend(
            lint_source(
                path.read_text(encoding="utf-8"),
                str(relative),
                in_telemetry_package="telemetry" in path.parts,
            )
        )
    if base.is_dir():
        from ..analysis.dataflow import analyze_program

        collected.extend(analyze_program(paths, display))
    return collected


def unsuppressed(findings: Sequence[Finding]) -> List[Finding]:
    """The findings that actually gate (not acknowledged inline)."""
    return [f for f in findings if not f.suppressed]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CI entry point: ``python -m repro.tools.lint [--json] [root]``."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in arguments
    if as_json:
        arguments.remove("--json")
    root = Path(arguments[0]) if arguments else None
    findings = lint_paths(root)
    offending = unsuppressed(findings)
    if as_json:
        payload = {
            "files_checked": len(
                iter_source_files(default_root() if root is None else root)
            ),
            "findings": [f.to_json_dict() for f in findings],
            "unsuppressed": len(offending),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for finding in findings:
            marker = " (suppressed)" if finding.suppressed else ""
            print(f"{finding}{marker}")
        print(
            f"{len(findings)} finding(s), "
            f"{len(offending)} unsuppressed"
        )
    return 1 if offending else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
