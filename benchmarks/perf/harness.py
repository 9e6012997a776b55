"""Plumbing shared by the workloads: paths, child processes, checks.

Every measured operation runs in a child process of its own process
group (a cold start, an operation loop or a server).  The benchmark
reaps each child with ``os.wait4`` (wall time and ``ru_maxrss`` of the
child and its reaped descendants), then signals whatever is left in
the group and reaps it too, so a run leaves no process behind.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import jsonschema
from tracer import TRACE_DIR_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

#: Longest scratch path handed to children as TMPDIR: multiprocessing
#: binds its forkserver socket under it, and a Unix socket path is
#: limited to 107 bytes.
_MAX_TMPDIR = 60

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be reaped here (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans then go to init, which reaps them


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.

    The reference kernel (``pace.py``) then times the CPU the measured
    work ran on.  Cold starts timed this way repeated twice as closely
    between runs as unpinned ones.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])


@dataclass
class Context:
    """Settings and scratch space of one benchmark invocation."""

    seed: int
    seconds: float
    smoke: bool
    tmp: Path
    setup_reps: int
    _serial: int = 0

    def scratch(self, stem: str) -> Path:
        """A fresh path under the invocation's scratch directory."""
        self._serial += 1
        return self.tmp / f"{stem}-{self._serial}"

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [str(SRC)] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
        )
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env.pop(TRACE_DIR_ENV, None)
        if len(str(self.tmp)) <= _MAX_TMPDIR:
            env["TMPDIR"] = str(self.tmp)
        return env


@dataclass
class Finished:
    """A reaped child: exit code, wall time, peak RSS and its output."""

    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Child:
    """One child process in a new process group."""

    def __init__(self, argv: Sequence[str], ctx: Context) -> None:
        base = ctx.scratch("child")
        self.stdout_path = base.with_suffix(".out")
        self.stderr_path = base.with_suffix(".err")
        with open(self.stdout_path, "wb") as out, open(
            self.stderr_path, "wb"
        ) as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                list(argv),
                cwd=str(ctx.tmp),
                env=ctx.env(),
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        self.pgid = self.proc.pid

    def exited(self) -> bool:
        """Whether the child has exited (never reaps it)."""
        try:
            waited = os.waitid(
                os.P_PID, self.proc.pid,
                os.WEXITED | os.WNOHANG | os.WNOWAIT,
            )
        except ChildProcessError:
            return True
        return waited is not None

    def read_stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def wait(self, timeout: float) -> Finished:
        """Reap the child (killing its group after ``timeout``)."""
        timer = threading.Timer(timeout, self._signal_group,
                                (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        reap_group(self.pgid)
        return Finished(
            returncode=self.proc.returncode,
            wall_s=ended - self.started,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=self.read_stdout(),
            stderr=self.stderr_path.read_text(errors="replace"),
        )

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.pgid, signum)
        except ProcessLookupError:
            pass


def reap_group(pgid: int, grace: float = 5.0, limit: float = 30.0) -> None:
    """Stop every remaining member of a process group and reap it.

    Members get SIGTERM, then SIGKILL after ``grace`` seconds.  The
    subreaper flag makes orphaned members children of this process,
    so they are reaped here instead of lingering as zombies.
    """
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        try:
            os.killpg(pgid, signal.SIGTERM if elapsed < grace
                      else signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if elapsed > limit:
            raise RuntimeError(f"process group {pgid} did not exit")
        time.sleep(0.02)


def repro_argv(args: Sequence[str], trace_dir: Optional[Path]) -> List[str]:
    """argv running the ``repro`` CLI, traced when ``trace_dir`` is set."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACER), str(trace_dir), *args]


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed derived from the run seed and a label."""
    payload = json.dumps([seed, *parts], sort_keys=True).encode()
    hashed = hashlib.sha256(payload).digest()
    return int.from_bytes(hashed[:4], "big") & 0x7FFFFFFF


def digest(document) -> str:
    """SHA-256 of a document's canonical JSON."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def schema_problems(document) -> List[str]:
    """Check a ``--json`` report or a serve wire document.

    Reports go through the package's own ``--json`` validator (schema
    and round trip through the results API).  Serve wire documents
    have no result class, so they are checked against their schema.
    """
    from repro.experiments.results import RESULT_KINDS
    from repro.experiments.schemas import REPORT_SCHEMAS
    from repro.tools.validate_cli_json import validate_document

    kind = document.get("kind") if isinstance(document, dict) else None
    try:
        if kind in RESULT_KINDS:
            validate_document(kind, json.dumps(document, sort_keys=True))
        elif kind in REPORT_SCHEMAS:
            jsonschema.validate(document, REPORT_SCHEMAS[kind])
        else:
            return [f"unknown document kind {kind!r}"]
    except jsonschema.ValidationError as error:
        return [f"{kind} fails its schema: {error.message}"]
    except (AssertionError, ValueError) as error:
        return [f"{kind}: {error}"]
    return []


@dataclass
class TraceTotals:
    """Span totals summed over the trace files of several processes."""

    calls: Dict[str, float] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    covered_s: float = 0.0
    missing: List[str] = field(default_factory=list)

    @classmethod
    def read(cls, directory: Path) -> "TraceTotals":
        """The totals the processes tracing into ``directory`` wrote."""
        totals = cls()
        for path in sorted(directory.glob("*.json")):
            document = json.loads(path.read_text())
            totals.add(cls(
                calls=document["calls"], self_s=document["self_s"],
                counts=document["counts"],
                covered_s=document["covered_s"]
                if document["role"] == "main" else 0.0,
                missing=document["missing"],
            ))
        return totals

    def add(self, other: "TraceTotals", sign: float = 1.0) -> None:
        """Add ``other`` into these totals (subtract with ``sign=-1``)."""
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_s, other.self_s),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0.0) + sign * value
        self.covered_s += sign * other.covered_s
        for name in other.missing:
            if name not in self.missing:
                self.missing.append(name)
