"""PER sweeps: the data behind Figs 5.11-5.26.

The paper sweeps the Physical Error Rate and, for every value, runs
several independent LER simulations with and without a Pauli frame.
The sharded runner (:func:`~repro.experiments.parallel.run_parallel_sweep`)
runs such sweeps; this module holds their seed layout, packages each
point's per-shot results into its comparison and savings statistics,
and renders the table the CLI and the examples print.

The paper's full scale (PER from 1e-4 to 1e-2 in 1e-4 steps, 10-20
seeds, 50 logical errors per run) takes CPU-days in pure Python; the
runner therefore takes all scale knobs as parameters and the
benchmarks run a reduced grid that still exhibits the shapes:
LER(+PF) = LER(-PF) within noise, rho values scattered around 0.5,
slot savings below 6%.
"""

from __future__ import annotations

from typing import List, Optional

from .results import RunResult, SweepPointResult, SweepResult
from .stats import compare_point


#: Seed offset of the with-frame arm relative to the without-frame arm
#: at the same sweep point.
ARM_SEED_OFFSET = 5_000
#: Seed stride between consecutive sweep points.
POINT_SEED_STRIDE = 10_000


def point_base_seed(seed: int, point_index: int) -> int:
    """Base seed of sweep point ``point_index`` (without-frame arm).

    The with-frame arm of the same point uses
    ``point_base_seed(...) + ARM_SEED_OFFSET``; the sharded runner
    (:mod:`repro.experiments.parallel`) derives every shard's RNG tree
    from these per-arm seeds.
    """
    return seed + POINT_SEED_STRIDE * point_index


def build_sweep_point(
    physical_error_rate: float,
    without_frame: List[RunResult],
    with_frame: List[RunResult],
    decoder: Optional[str] = None,
) -> SweepPointResult:
    """Package both arms of one PER value into a
    :class:`~repro.experiments.results.SweepPointResult`."""
    return SweepPointResult(
        physical_error_rate=physical_error_rate,
        without_frame=without_frame,
        with_frame=with_frame,
        comparison=compare_point(without_frame, with_frame),
        decoder=decoder,
    )


def format_sweep_table(sweep: SweepResult) -> str:
    """Render a sweep like the combined plots (Figs 5.15/5.16)."""
    lines = [
        "PER        LER(no PF)   LER(PF)      delta        sigma_max  "
        "rho_ind  saved_slots%",
    ]
    for point in sweep.points:
        # Only the per-shot loop counts frame slots; "-" marks a point
        # whose runs never measured them.
        saved = point.mean_saved_slots
        lines.append(
            f"{point.physical_error_rate:9.2e}  "
            f"{point.mean_ler_without:11.4e}  "
            f"{point.mean_ler_with:11.4e}  "
            f"{point.comparison.delta_ler:+11.4e}  "
            f"{point.comparison.sigma_max:9.3e}  "
            f"{point.comparison.rho_independent:7.3f}  "
            + ("          -" if saved is None else f"{100.0 * saved:11.3f}")
        )
    return "\n".join(lines)
