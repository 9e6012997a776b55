"""Per-layer spans recorded from outside the program.

The benchmark attributes time to the package's layers without
changing a line of ``src/``: this module wraps the public functions
and methods of each layer (listed in :data:`TARGETS`) with a span
recorder.  ``oploop.py`` installs the wrappers before its traced CLI
operations; the traced server runs the ``repro`` CLI through this
file with the wrappers installed::

    python benchmarks/perf/tracer.py TRACE_DIR serve --port 0 ...

The CLI's stdout is untouched.  Each time a top-level span ends, the
process rewrites its span totals in ``TRACE_DIR/main-<pid>.json``, so
the totals can be read while a server is still running.

``repro serve`` runs jobs in a forkserver worker fleet.  The
forkserver imports this file as ``__mp_main__`` before it forks
workers, so the bottom of this module installs the wrappers there as
well, and each worker keeps its own ``TRACE_DIR/worker-<pid>.json``.

A span's self time is its duration minus the time its child spans
and the tracer's own bookkeeping took.  Targets that do not exist at
the traced commit are skipped and listed under ``missing``, so the
benchmark keeps running when a layer is renamed or deleted.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Environment variable naming the directory span totals go to.
TRACE_DIR_ENV = "REPRO_PERF_TRACE_DIR"

Hook = Callable[..., Dict[str, float]]


def _ops_queued(args, result=None) -> Dict[str, float]:
    """Operations a core is about to execute (before the call)."""
    queue = getattr(args[0], "_queue", ())
    return {
        "qpdo.ops": float(
            sum(circuit.num_operations() for circuit in queue)
        )
    }


def _refcache_outcome(args, result) -> Dict[str, float]:
    key = "sim.refcache.misses" if result is None else "sim.refcache.hits"
    return {key: 1.0}


def _packed_words(args, result) -> Dict[str, float]:
    return {"sim.packedsim.words": float(args[0].num_words)}


def _shard_shots(args, result=None) -> Dict[str, float]:
    return {"experiments.parallel.shard_shots": float(args[0].shots)}


def _unique_histories(args, result) -> Dict[str, float]:
    """Distinct syndrome histories in a decode batch (dedupe ratio)."""
    import numpy as np

    histories = np.asarray(args[1], dtype=bool)
    if histories.shape[0] == 0:
        return {}
    rows = np.packbits(histories.reshape(histories.shape[0], -1), axis=1)
    return {
        "decoders.unionfind.histories": float(histories.shape[0]),
        "decoders.unionfind.unique": float(
            np.unique(rows, axis=0).shape[0]
        ),
    }


_FRAME_GATES = ("h", "s", "cnot", "cz", "swap", "reset", "measure_flips",
                "apply_pauli_masks")
_FRAME_NOISE = ("xerr", "depolarize1", "depolarize2")


def _frame_targets(module: str, cls: str, layer: str, after=None):
    gates = [
        (module, f"{cls}.{name}", (layer,), None, after)
        for name in _FRAME_GATES
    ]
    noise = [
        (module, f"{cls}.{name}", (layer, f"{layer}.noise"), None, after)
        for name in _FRAME_NOISE
    ]
    return gates + noise


#: ``(module, qualified name, span keys, before hook, after hook)``.
#: A span's time and call count go to every one of its keys; hooks
#: return extra counters.  Functions are re-bound in every loaded
#: ``repro`` module that imported them by name (``parallel_esm`` is
#: also bound in ``repro.experiments.ler``, ``run_parallel_sweep`` in
#: ``repro.serve.workers``).
TARGETS: List[Tuple[str, str, Tuple[str, ...], Optional[Hook],
                    Optional[Hook]]] = [
    ("repro.codes.surface17.esm", "parallel_esm",
     ("codes.surface17.parallel_esm",), None, None),
    ("repro.sim.refcache", "lookup_reference_trace",
     ("sim.refcache",), None, _refcache_outcome),
    ("repro.sim.stabilizer", "StabilizerSimulator.measure",
     ("sim.stabilizer", "sim.stabilizer.measure"), None, None),
    ("repro.sim.stabilizer", "StabilizerSimulator.apply_gate",
     ("sim.stabilizer",), None, None),
    ("repro.sim.stabilizer", "StabilizerSimulator.reset",
     ("sim.stabilizer",), None, None),
    *_frame_targets("repro.sim.framesim", "FrameArray", "sim.framesim"),
    *_frame_targets("repro.sim.packedsim", "PackedFrameArray",
                    "sim.packedsim", after=_packed_words),
    ("repro.qpdo.batched_core", "BatchedStabilizerCore.execute",
     ("qpdo.execute",), _ops_queued, None),
    ("repro.qpdo.packed_core", "PackedStabilizerCore.execute",
     ("qpdo.execute",), _ops_queued, None),
    ("repro.decoders.batched", "BatchedWindowedLutDecoder.initialize",
     ("decoders.window",), None, None),
    ("repro.decoders.batched", "BatchedWindowedLutDecoder.decode_window",
     ("decoders.window",), None, None),
    ("repro.decoders.batched", "PackedWindowedLutDecoder.initialize",
     ("decoders.window",), None, None),
    ("repro.decoders.batched", "PackedWindowedLutDecoder.decode_window",
     ("decoders.window",), None, None),
    ("repro.decoders.unionfind", "SpaceTimeUnionFindDecoder.decode_batch",
     ("decoders.unionfind.decode_batch",), None, _unique_histories),
    ("repro.experiments.ler", "BatchedLerExperiment.__init__",
     ("experiments.ler.init",), None, None),
    ("repro.experiments.ler", "BatchedLerExperiment.run_counts",
     ("experiments.ler",), None, None),
    ("repro.experiments.phenomenological",
     "PhenomenologicalSimulator.estimate_ler",
     ("experiments.phenomenological",), None, None),
    ("repro.experiments.parallel", "run_parallel_sweep",
     ("experiments.parallel",), None, None),
    ("repro.experiments.parallel", "run_shard",
     ("experiments.parallel", "experiments.parallel.shard"),
     _shard_shots, None),
    ("repro.experiments.parallel", "CheckpointWriter.write_record",
     ("experiments.parallel.checkpoint_write",), None, None),
    ("repro.serve.app", "ServeApp.submit_job", ("serve.app",), None, None),
    ("repro.serve.app", "ServeApp.execute_job", ("serve.app",), None, None),
    ("repro.serve.jobs", "JobJournal.record",
     ("serve.journal.record",), None, None),
    ("repro.serve.workers", "WorkerFleet.run_sweep_job",
     ("serve.fleet",), None, None),
    ("repro.serve.workers", "WorkerFleet.run_decode",
     ("serve.fleet",), None, None),
]


class Tracer:
    """In-memory span totals of one process.

    Spans nest per thread (``repro serve`` runs two job threads), and
    the totals are shared under a lock.  The totals file in
    ``directory`` is rewritten whenever a top-level span ends: worker
    processes are never joined, so they report as they go.
    """

    def __init__(self, role: str, directory: str):
        self.role = role
        self.directory = directory
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.top_spans: List[Tuple[float, float]] = []
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, keys, before=None, after=None):
        """``fn`` with a span recorded under ``keys`` around each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hidden = perf_counter()
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            extra = before(args) if before is not None else {}
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            hidden = start - hidden
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if ok and after is not None:
                    extra.update(after(args, result))
                tracer._record(keys, end - start - frame[0], extra)
                if stack:
                    stack[-1][0] += perf_counter() - start + hidden
                else:
                    tracer._top_level(start, end)
            return result

        return traced

    def _record(self, keys, self_time: float, extra) -> None:
        with self._lock:
            for key in keys:
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + self_time
            for key, amount in extra.items():
                self.counts[key] = self.counts.get(key, 0.0) + amount

    def _top_level(self, start: float, end: float) -> None:
        with self._lock:
            self.top_spans.append((start, end))
        self.write()

    def covered_s(self) -> float:
        """Wall time covered by at least one top-level span."""
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(self.top_spans):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def write(self) -> None:
        """Atomically (re)write this process's totals file."""
        with self._lock:
            document = {
                "role": self.role,
                "pid": os.getpid(),
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "covered_s": self.covered_s(),
                "missing": list(self.missing),
            }
        path = os.path.join(
            self.directory, f"{self.role}-{os.getpid()}.json"
        )
        with open(path + ".tmp", "w") as handle:
            json.dump(document, handle, sort_keys=True)
        os.replace(path + ".tmp", path)


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, original)`` or ``None`` when absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    original = vars(owner).get(attribute)
    if original is None:
        return None
    return owner, attribute, original


def install(tracer: Tracer) -> None:
    """Wrap every target that exists in the imported package."""
    resolved = []
    for module_name, qualname, keys, before, after in TARGETS:
        found = _resolve(module_name, qualname)
        if found is None:
            tracer.missing.append(f"{module_name}:{qualname}")
        else:
            resolved.append((found, keys, before, after))
    for (owner, attribute, original), keys, before, after in resolved:
        traced = tracer.wrap(original, keys, before, after)
        if isinstance(owner, type):
            setattr(owner, attribute, traced)
            continue
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and (
                vars(module).get(attribute) is original
            ):
                setattr(module, attribute, traced)


def main(argv: List[str]) -> int:
    """Run ``repro.cli.main(argv[1:])`` traced; totals to ``argv[0]``."""
    trace_dir, repro_argv = argv[0], argv[1:]
    os.environ[TRACE_DIR_ENV] = trace_dir
    tracer = Tracer("main", trace_dir)
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_argv)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and os.environ.get(TRACE_DIR_ENV):
    # Imported by the serve fleet's forkserver (or a spawned worker):
    # install here so every forked worker inherits the wrappers.
    _worker_tracer = Tracer("worker", os.environ[TRACE_DIR_ENV])
    install(_worker_tracer)
