"""Statistical analysis of LER experiments (paper Figs 5.17-5.24).

The paper compares the with/without-Pauli-frame data sets per Physical
Error Rate using:

* the absolute LER difference plotted against the larger of the two
  standard deviations (Figs 5.17/5.18),
* the coefficient of variation of the window counts (Figs 5.19/5.20),
* independent and paired t-tests (Figs 5.21-5.24), concluding "not
  statistically significant" when the rho values scatter around 0.5.

This module reproduces those aggregations over lists of
:class:`~repro.experiments.results.RunResult`.  It imports scipy only
for the t-tests and for confidences missing from :data:`Z_QUANTILES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .results import RunResult

#: ``scipy.stats.norm.ppf(0.5 + c / 2)`` for the confidences ``c`` the
#: front doors use, checked against scipy by a test (``NormalDist``
#: differs from scipy in the last ulp).
Z_QUANTILES = {0.95: 1.959963984540054}


@dataclass
class SampleSummary:
    """Mean/std summary of one (PER, arm) sample set."""

    physical_error_rate: float
    use_pauli_frame: bool
    ler_values: np.ndarray
    window_counts: np.ndarray

    @property
    def mean_ler(self) -> float:
        """Sample mean of the logical error rate."""
        return float(self.ler_values.mean())

    @property
    def std_ler(self) -> float:
        """Sample standard deviation (ddof=1) of the LER."""
        if self.ler_values.size < 2:
            return 0.0
        return float(self.ler_values.std(ddof=1))

    @property
    def window_cov(self) -> float:
        """Coefficient of variation of the window counts (Eq. 5.4).

        The paper observes this hovers around 13% independent of the
        PER, which explains why the absolute LER standard deviation
        grows with the PER (section 5.3.2).
        """
        mean = self.window_counts.mean()
        if mean == 0:
            return 0.0
        if self.window_counts.size < 2:
            return 0.0
        return float(self.window_counts.std(ddof=1) / mean)


def summarize(results: Sequence["RunResult"]) -> SampleSummary:
    """Aggregate same-configuration runs into a :class:`SampleSummary`."""
    if not results:
        raise ValueError("no results to summarize")
    per = results[0].physical_error_rate
    pf = results[0].use_pauli_frame
    for result in results:
        if (
            result.physical_error_rate != per
            or result.use_pauli_frame != pf
        ):
            raise ValueError("results mix different configurations")
    return SampleSummary(
        physical_error_rate=per,
        use_pauli_frame=pf,
        ler_values=np.array([r.logical_error_rate for r in results]),
        window_counts=np.array([r.windows for r in results], dtype=float),
    )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The LER of Eq. 5.1 is a binomial proportion (``m`` logical errors
    over ``R`` windows); the Wilson interval stays well-behaved at the
    extreme rates the sweep visits (``m = 0`` near the low-PER end),
    unlike the normal approximation.  Used by the parallel sweep
    engine's online aggregation and its early-stopping rule.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    z = Z_QUANTILES.get(confidence)
    if z is None:
        from scipy import stats as scipy_stats

        z = float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))
    p = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denominator
    half = (z / denominator) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


def wilson_halfwidth(
    successes: int, trials: int, confidence: float = 0.95
) -> float:
    """Half-width of :func:`wilson_interval` (the early-stop metric)."""
    low, high = wilson_interval(successes, trials, confidence)
    return (high - low) / 2.0


@dataclass
class PointComparison:
    """With/without-frame comparison at one Physical Error Rate.

    ``delta_ler`` follows Eq. 5.2 (``without - with``); ``sigma_max``
    is Eq. 5.3; the rho values come from the independent and paired
    two-sided t-tests of section 5.3.2.
    """

    physical_error_rate: float
    without_frame: SampleSummary
    with_frame: SampleSummary
    delta_ler: float
    sigma_max: float
    rho_independent: float
    rho_paired: Optional[float]

    @property
    def delta_within_sigma(self) -> bool:
        """Whether |delta| falls inside the +-sigma_max band."""
        return abs(self.delta_ler) <= self.sigma_max

    @property
    def significant(self) -> bool:
        """Whether the independent t-test flags the difference.

        The conventional criterion of the paper: rho < 0.05.
        """
        return self.rho_independent < 0.05


def compare_point(
    without_frame: Sequence["RunResult"],
    with_frame: Sequence["RunResult"],
) -> PointComparison:
    """Build the full Figs 5.17-5.24 comparison for one PER value."""
    summary_without = summarize(without_frame)
    summary_with = summarize(with_frame)
    if (
        summary_without.physical_error_rate
        != summary_with.physical_error_rate
    ):
        raise ValueError("samples come from different PER values")
    delta = summary_without.mean_ler - summary_with.mean_ler
    sigma_max = max(summary_without.std_ler, summary_with.std_ler)
    a = summary_without.ler_values
    b = summary_with.ler_values
    # Zero-variance data decide a t-test outright (scipy would compute
    # t from rounding noise): equal constants give t = 0/0, maximally
    # non-significant, and different ones an infinite t, p = 0.  One
    # sample per arm leaves no degrees of freedom, so the pooled
    # variance is 0/0 too, whatever the two values.
    if np.all(a == a[0]) and np.all(b == b[0]):
        rho_ind = 1.0 if a[0] == b[0] or a.size + b.size == 2 else 0.0
    else:
        from scipy import stats as scipy_stats

        rho_ind = float(scipy_stats.ttest_ind(a, b).pvalue)
    rho_paired: Optional[float] = None
    if a.size == b.size and a.size >= 2:
        difference = a - b
        if np.allclose(a, b):
            rho_paired = 1.0
        elif np.all(difference == difference[0]):
            rho_paired = 0.0
        else:
            from scipy import stats as scipy_stats

            rho_paired = float(scipy_stats.ttest_rel(a, b).pvalue)
    return PointComparison(
        physical_error_rate=summary_without.physical_error_rate,
        without_frame=summary_without,
        with_frame=summary_with,
        delta_ler=delta,
        sigma_max=sigma_max,
        rho_independent=rho_ind,
        rho_paired=rho_paired,
    )


def pseudo_threshold(
    per_values: Sequence[float], ler_values: Sequence[float]
) -> Optional[float]:
    """PER where the interpolated LER curve crosses ``LER = PER``.

    The paper defines the pseudo-threshold as the crossing of the
    simulated curve with the line ``x = y`` (section 2.5.1) and finds
    it near ``3e-4`` for SC17.  Returns ``None`` when the sampled
    curve never crosses.
    """
    per = np.asarray(per_values, dtype=float)
    ler = np.asarray(ler_values, dtype=float)
    order = np.argsort(per)
    per = per[order]
    ler = ler[order]
    diff = ler - per
    for index in range(len(per) - 1):
        if diff[index] == 0:
            return float(per[index])
        if diff[index] * diff[index + 1] < 0:
            # Linear interpolation in log-log space.
            x0, x1 = np.log(per[index]), np.log(per[index + 1])
            d0, d1 = diff[index], diff[index + 1]
            t = d0 / (d0 - d1)
            return float(np.exp(x0 + t * (x1 - x0)))
    if diff[-1] == 0:
        return float(per[-1])
    return None


def mean_rho(comparisons: Sequence[PointComparison]) -> float:
    """Average rho over all PER points (the dashed line of Fig 5.21)."""
    return float(
        np.mean([c.rho_independent for c in comparisons])
    )


def significant_fraction(
    comparisons: Sequence[PointComparison],
) -> float:
    """Fraction of PER points with rho < 0.05.

    Under the null hypothesis roughly 5% of points are expected to
    cross the line by chance; the paper sees no consistent crossing.
    """
    if not comparisons:
        return 0.0
    hits = sum(1 for c in comparisons if c.significant)
    return hits / len(comparisons)
