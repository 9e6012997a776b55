"""Per-layer metrics from the span totals of a traced run.

Layers are named after the package's modules.  Self times are given
as a share of the traced wall time (``*_frac``): the summed wall time
of the traced CLI operations, or the serve window (first send to last
finished job).  In serve the server's job thread waits while the
worker computes, so there the shares can add up past 1.  A layer a
workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict

from harness import TraceTotals


def layer_metrics(totals: TraceTotals, wall_s: float) -> Dict[str, float]:
    """Every span-derived per-layer metric (see the module docstring)."""

    def calls(key: str) -> float:
        return float(totals.calls.get(key, 0.0))

    def frac(key: str) -> float:
        return totals.self_s.get(key, 0.0) / wall_s

    def count(key: str) -> float:
        return float(totals.counts.get(key, 0.0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "codes.surface17.parallel_esm.calls":
            calls("codes.surface17.parallel_esm"),
        "codes.surface17.parallel_esm.self_frac":
            frac("codes.surface17.parallel_esm"),
        "sim.refcache.hits": count("sim.refcache.hits"),
        "sim.refcache.misses": count("sim.refcache.misses"),
        "sim.stabilizer.measure.calls": calls("sim.stabilizer.measure"),
        "sim.stabilizer.self_frac": frac("sim.stabilizer"),
        "sim.framesim.calls": calls("sim.framesim"),
        "sim.framesim.self_frac": frac("sim.framesim"),
        "sim.framesim.noise_frac": frac("sim.framesim.noise"),
        "sim.packedsim.calls": calls("sim.packedsim"),
        "sim.packedsim.self_frac": frac("sim.packedsim"),
        "sim.packedsim.noise_frac": frac("sim.packedsim.noise"),
        "sim.packedsim.words_per_call": ratio(
            count("sim.packedsim.words"), calls("sim.packedsim")
        ),
        "qpdo.execute.calls": calls("qpdo.execute"),
        "qpdo.self_frac": frac("qpdo.execute"),
        "qpdo.ops_per_execute": ratio(
            count("qpdo.ops"), calls("qpdo.execute")
        ),
        "decoders.window.calls": calls("decoders.window"),
        "decoders.window.self_frac": frac("decoders.window"),
        "decoders.unionfind.decode_batch.self_frac":
            frac("decoders.unionfind.decode_batch"),
        "decoders.unionfind.unique_frac": ratio(
            count("decoders.unionfind.unique"),
            count("decoders.unionfind.histories"),
        ),
        "experiments.ler.init_frac": frac("experiments.ler.init"),
        "experiments.ler.self_frac": frac("experiments.ler"),
        "experiments.phenomenological.sample_frac":
            frac("experiments.phenomenological"),
        "experiments.parallel.shards": calls("experiments.parallel.shard"),
        "experiments.parallel.shots_per_shard": ratio(
            count("experiments.parallel.shard_shots"),
            calls("experiments.parallel.shard"),
        ),
        "experiments.parallel.self_frac": frac("experiments.parallel"),
        "experiments.parallel.checkpoint_write.calls":
            calls("experiments.parallel.checkpoint_write"),
        "experiments.parallel.checkpoint_write.self_frac":
            frac("experiments.parallel.checkpoint_write"),
        "serve.app.self_frac": frac("serve.app"),
        "serve.journal.record.self_frac": frac("serve.journal.record"),
        "serve.fleet_wait_frac": frac("serve.fleet"),
        "trace.unattributed_frac": max(
            0.0, 1.0 - totals.covered_s / wall_s
        ),
    }
