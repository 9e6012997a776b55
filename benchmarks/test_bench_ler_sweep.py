"""E7 -- Figs 5.11-5.16: PER vs LER with and without a Pauli frame.

Regenerates the central result of the paper at scaled statistics: the
logical error rate of an idling SC17 qubit across a PER sweep, in both
arms.  The paper's conclusion -- the curves coincide within sampling
noise -- must hold: the mean LER of the two arms never differs by more
than a small multiple of the sampling sigma.

Scale note: the paper sweeps ~100 PER values with 10-20 seeds x 50
logical errors each; this bench uses the grid in
``benchmarks/conftest.py``.  The library API (`run_parallel_sweep`)
takes the paper-scale parameters directly.
"""

from repro.experiments.stats import pseudo_threshold


def test_bench_figs_5_11_to_5_16_ler_sweep(benchmark, ler_sweep_x):
    # The sweep itself is computed in the shared fixture; time the
    # (cheap) series extraction so pytest-benchmark has a target while
    # the printed table carries the physics.
    series = benchmark.pedantic(
        lambda: (ler_sweep_x.series(False), ler_sweep_x.series(True)),
        rounds=1,
        iterations=1,
    )
    without_frame, with_frame = series
    print("\n[E7] Figs 5.11-5.16 -- PER vs LER (X errors, scaled):")
    print("  PER        LER(no PF)   LER(PF)")
    for per, lf, lt in zip(
        ler_sweep_x.per_values(), without_frame, with_frame
    ):
        print(f"  {per:9.2e}  {lf:11.4e}  {lt:11.4e}")
    crossing = pseudo_threshold(
        ler_sweep_x.per_values(), without_frame
    )
    print(f"  pseudo-threshold estimate (no PF): {crossing}")

    # Shape 1: LER grows with PER in both arms.
    assert without_frame == sorted(without_frame)
    assert with_frame == sorted(with_frame)
    # Shape 2: the two arms agree within sampling noise everywhere.
    for point in ler_sweep_x.points:
        sigma = max(point.comparison.sigma_max, 1e-4)
        assert abs(point.comparison.delta_ler) < 6 * sigma
    # Shape 3: in this (above-threshold) scaled regime LER > PER, so
    # the pseudo-threshold sits below the sampled grid -- consistent
    # with the paper's 3e-4.
    for per, ler in zip(ler_sweep_x.per_values(), without_frame):
        assert ler > per
