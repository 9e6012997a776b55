"""Tests for the determinism linter (repro.tools.lint)."""

import subprocess
import sys
import textwrap

from repro.analysis import findings as F
from repro.tools.lint import (
    default_root,
    iter_source_files,
    lint_paths,
    lint_source,
    parse_suppressions,
    unsuppressed,
)


def lint(snippet: str, path: str = "src/repro/example.py", **kwargs):
    return lint_source(textwrap.dedent(snippet), path, **kwargs)


def codes(findings, include_suppressed=True):
    return [
        f.code
        for f in findings
        if include_suppressed or not f.suppressed
    ]


# ----------------------------------------------------------------------
# REP001: legacy global-state RNG
# ----------------------------------------------------------------------
def test_rep001_numpy_legacy_and_stdlib_random():
    findings = lint(
        """
        import random
        import numpy as np

        a = np.random.rand(3)
        b = np.random.seed(0)
        c = random.random()
        d = random.shuffle([1, 2])
        """
    )
    assert codes(findings) == [F.REP_LEGACY_RANDOM] * 4


def test_rep001_not_triggered_by_generator_api():
    findings = lint(
        """
        import numpy as np

        rng = np.random.default_rng(7)
        x = rng.random()
        bits = np.random.PCG64(1)
        seq = np.random.SeedSequence(5)
        """
    )
    assert codes(findings) == []


# ----------------------------------------------------------------------
# REP002: unseeded default_rng
# ----------------------------------------------------------------------
def test_rep002_unseeded_default_rng():
    findings = lint(
        """
        import numpy as np
        from numpy.random import default_rng

        a = np.random.default_rng()
        b = default_rng()
        """
    )
    assert codes(findings) == [F.REP_UNSEEDED_RNG] * 2


def test_rep002_seeded_default_rng_is_clean():
    findings = lint(
        """
        import numpy as np

        a = np.random.default_rng(0)
        b = np.random.default_rng(seed=3)
        """
    )
    assert codes(findings) == []


# ----------------------------------------------------------------------
# REP003: wall clock
# ----------------------------------------------------------------------
def test_rep003_wall_clock_calls():
    findings = lint(
        """
        import time
        import datetime

        a = time.time()
        b = datetime.datetime.now()
        """
    )
    assert F.REP_WALL_CLOCK in codes(findings)
    assert len(
        [c for c in codes(findings) if c == F.REP_WALL_CLOCK]
    ) >= 1


def test_rep003_perf_counter_is_clean():
    findings = lint(
        """
        import time

        start = time.perf_counter()
        elapsed = time.perf_counter() - start
        """
    )
    assert codes(findings) == []


# ----------------------------------------------------------------------
# REP004: unordered serialization
# ----------------------------------------------------------------------
def test_rep004_json_dumps_without_sort_keys():
    findings = lint(
        """
        import json

        a = json.dumps({"b": 1})
        b = json.dumps({"b": 1}, sort_keys=False)
        """
    )
    assert codes(findings) == [F.REP_UNORDERED_SERIALIZATION] * 2


def test_rep004_json_dumps_with_sort_keys_is_clean():
    findings = lint(
        """
        import json

        a = json.dumps({"b": 1}, sort_keys=True)
        """
    )
    assert codes(findings) == []


def test_rep004_set_iteration_in_serialization_function():
    findings = lint(
        """
        def to_json_dict(values):
            out = []
            for item in set(values):
                out.append(item)
            return out

        def compute(values):
            for item in set(values):
                pass
        """
    )
    assert codes(findings) == [F.REP_UNORDERED_SERIALIZATION]


# ----------------------------------------------------------------------
# REP005: telemetry fast-path bypass
# ----------------------------------------------------------------------
def test_rep005_direct_telemetry_active_chain():
    findings = lint(
        """
        from repro import telemetry

        def record():
            telemetry.ACTIVE.count("a", "b")
        """
    )
    assert F.REP_TELEMETRY_BYPASS in codes(findings)


def test_rep005_bound_local_pattern_is_clean():
    findings = lint(
        """
        from repro import telemetry

        def record():
            t = telemetry.ACTIVE
            if t is not None:
                t.count("a", "b")
        """
    )
    assert codes(findings) == []


def test_rep005_skipped_inside_telemetry_package():
    findings = lint(
        """
        def emit():
            telemetry.ACTIVE.count("a", "b")
        """,
        path="src/repro/telemetry/collector.py",
        in_telemetry_package=True,
    )
    assert codes(findings) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_same_line_with_reason():
    findings = lint(
        """
        import numpy as np

        rng = np.random.default_rng()  # allow-lint: REP002 entropy API
        """
    )
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].suppression_reason == "entropy API"
    assert unsuppressed(findings) == []


def test_suppression_comment_line_above_forwards():
    findings = lint(
        """
        import numpy as np

        # allow-lint: REP002 documented entropy fallback
        rng = np.random.default_rng()
        """
    )
    assert [f.suppressed for f in findings] == [True]


def test_suppression_without_reason_does_not_suppress():
    findings = lint(
        """
        import numpy as np

        rng = np.random.default_rng()  # allow-lint: REP002
        """
    )
    assert [f.suppressed for f in findings] == [False]
    assert unsuppressed(findings) == findings


def test_suppression_wrong_code_does_not_suppress():
    findings = lint(
        """
        import numpy as np

        rng = np.random.default_rng()  # allow-lint: REP001 nope
        """
    )
    assert [f.suppressed for f in findings] == [False]


def test_suppression_multiple_codes():
    source = textwrap.dedent(
        """
        # allow-lint: REP001,REP003 test fixture
        pass
        """
    )
    suppressions = parse_suppressions(source)
    assert suppressions[2] == (("REP001", "REP003"), "test fixture")
    # Comment-only line forwards to the statement below it.
    assert suppressions[3] == (("REP001", "REP003"), "test fixture")


# ----------------------------------------------------------------------
# Whole-tree gate: the package must lint clean.
# ----------------------------------------------------------------------
def test_src_repro_lints_clean():
    """The acceptance criterion: zero unsuppressed findings in-tree."""
    findings = lint_paths()
    offending = unsuppressed(findings)
    assert offending == [], [str(f) for f in offending]
    # Every suppression in-tree carries a reason.
    assert all(
        f.suppression_reason for f in findings if f.suppressed
    )


def test_default_root_is_the_package_tree():
    root = default_root()
    assert root.name == "repro"
    files = iter_source_files(root)
    assert any(p.name == "cli.py" for p in files)
    assert files == sorted(files)


def test_lint_code_cli_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint-code"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=default_root().parent.parent,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 unsuppressed" in result.stdout


def test_findings_are_sorted_and_json_safe():
    import json

    findings = lint(
        """
        import json as j
        import json
        import numpy as np

        b = np.random.rand()
        a = json.dumps({})
        """
    )
    lines = [f.location["line"] for f in findings]
    assert lines == sorted(lines)
    for finding in findings:
        json.dumps(finding.to_json_dict(), sort_keys=True)
