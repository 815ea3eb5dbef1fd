"""Statistical checks of the limit laws for spacing maxima and range counts.

Each check compares a Monte Carlo statistic against its asymptotic target
and reports (statistic, threshold, pass/fail).  Thresholds are calibration
choices for the finite sizes exercised here, not consequences of the limit
laws; defaults are documented in the README.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .spacings import WindowMaxima, dspacing_gumbel_centering, gumbel_cdf, spacing_matrix

#: Finite-k bias allowance of the KS distance for the single-spacing
#: maximum (k >= 10^3); the full threshold adds KS sampling noise, so at
#: 10^4 trials it sits at the calibrated 0.02 contract.
KS_BIAS_D1 = 0.005

#: Bias allowance for d > 1 (slow loglog-order convergence even with the
#: self-consistent centering; calibrated at k = 10^4).
KS_BIAS_DGT1 = 0.09

#: KS sampling-noise quantile coefficient (~1% point of the Kolmogorov law).
KS_NOISE = 1.63

#: Numbers per block of demand rows in ``_one_pass``: 256 KB of float64, so
#: that a block, its power sums and the accumulator of ``WindowMaxima`` stay
#: in L2 cache for small d (three such arrays at d <= 3).
_BLOCK_ELEMENTS = 2**15


def ks_threshold(d: int, trials: int) -> float:
    bias = KS_BIAS_D1 if d == 1 else KS_BIAS_DGT1
    return bias + KS_NOISE / math.sqrt(trials)


@dataclass(frozen=True)
class LimitCheck:
    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def ks_distance(sample: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    f = cdf(x)
    hi = np.abs(np.arange(1, n + 1) / n - f).max()
    lo = np.abs(np.arange(0, n) / n - f).max()
    return float(max(hi, lo))


def _count_ranges(k: int) -> list[tuple[str, float, float, float, Optional[float]]]:
    """(name, lo, hi, limit mean, limit variance or None) of each range count.

    See ``count_range_checks`` for the three ranges and their limit laws.
    """
    a, b = 0.5, 2.0
    p = math.exp(-a) - math.exp(-b)
    cov = a * math.exp(-a) - b * math.exp(-b)
    mid = ("mid", a / k, b / k, k * p, k * (p * (1 - p) - cov * cov))
    a, b = 1.0, 4.0
    tiny = ("tiny", a / k**2, b / k**2, b - a, None)
    a, b = 0.0, 1.0
    top = ("top", (math.log(k) + a) / k, (math.log(k) + b) / k, math.exp(-a) - math.exp(-b), None)
    return [mid, tiny, top]


@dataclass
class _Pass:
    """Per-trial statistics from one pass over the demand rows.

    ``line[d]`` and ``circle[d]`` are the window maxima of the first
    ``trials`` rows; ``counts[name]`` the range counts of the first
    ``count_trials`` rows.
    """

    line: dict[int, np.ndarray]
    circle: dict[int, np.ndarray]
    counts: dict[str, np.ndarray]


def _one_pass(k: int, d_values, trials: int, count_trials: int, master_seed: int) -> _Pass:
    """Draw each block of unit-spacing rows once and reduce it to every statistic.

    A block holds ``max(1, _BLOCK_ELEMENTS // k)`` rows.  Row i is
    ``spacing_matrix``'s row i whatever the blocking, and every sum and
    maximum is taken per row, so the maxima and counts equal those of
    separate passes.  Each block is drawn into the same buffer, the entries
    of one ``WindowMaxima`` made for the pass (a plain block when no d is
    below k).  Its range counts are taken first, as the set bits of each
    row's packed range mask, then each d cuts both maxima from its direct
    window sums.
    """
    ds = sorted({d for d in d_values if d < k})
    ranges = _count_ranges(k) if count_trials else []
    line = {d: np.empty(trials) for d in ds}
    circle = {d: np.empty(trials) for d in ds}
    counts = {name: np.empty(count_trials) for name, *_ in ranges}
    rows = max(trials if ds else 0, count_trials)
    block = max(1, _BLOCK_ELEMENTS // k)
    windows = WindowMaxima(min(block, rows), k, ds) if ds else None
    buffer = windows.entries if ds else np.empty((min(block, rows), k))
    for start in range(0, rows, block):
        n = min(block, rows - start)
        s = spacing_matrix(k, 1.0, master_seed, n, start_index=start, out=buffer[:n])
        c = s[: max(0, count_trials - start)]
        for name, lo, hi, *_ in ranges:
            in_range = np.packbits((c >= lo) & (c <= hi), axis=1)
            counts[name][start : start + len(c)] = np.bitwise_count(in_range).sum(axis=1)
        stop = min(start + n, trials)
        if ds and stop > start:
            for d, line_max, circle_max in windows.max_pairs(stop - start):
                line[d][start:stop], circle[d][start:stop] = line_max, circle_max
    return _Pass(line=line, circle=circle, counts=counts)


def gumbel_ks_checks(
    k: int, d: int, line: Optional[np.ndarray], circle: Optional[np.ndarray]
) -> list[LimitCheck]:
    """KS distance of the centered scaled maxima (line and circle) to Gumbel.

    ``line`` and ``circle`` are the per-trial maxima of one pass.  The check
    is skipped at d = k, where the window spans the whole interval and no
    maxima are needed, and where d is outside the domain of
    ``dspacing_gumbel_centering``.
    """
    skipped = "window spans the whole interval; statistic is constant"
    if d < k:
        try:
            center = dspacing_gumbel_centering(k, d)
        except ValueError as err:
            skipped = str(err)
        else:
            skipped = None
    if skipped:
        return [
            LimitCheck(
                name=f"gumbel_ks_skipped_k{k}_d{d}",
                statistic=1.0,
                threshold=1.0,
                passed=True,
                detail=skipped,
            )
        ]
    trials = len(line)
    threshold = ks_threshold(d, trials)
    out = []
    for name, arr in (("line", line), ("circle", circle)):
        ks = ks_distance(arr * k - center, gumbel_cdf)
        out.append(
            LimitCheck(
                name=f"gumbel_ks_{name}_k{k}_d{d}",
                statistic=ks,
                threshold=threshold,
                passed=ks <= threshold,
                detail=f"centering {center:.6f}, trials {trials}",
            )
        )
    return out


def circular_line_checks(
    k: int, d: int, line: np.ndarray, circle: np.ndarray
) -> list[LimitCheck]:
    """Circle-vs-line facts: mismatch probability and the tail sandwich.

    The probability that the circular maximum exceeds the line maximum is at
    most d/k, and at any x the circular tail is sandwiched between the line
    tail and (k/(k-d)) times it.  The sandwich is evaluated at the 0.5 and
    0.9 empirical quantiles of the line maximum.  ``line`` and ``circle``
    are the per-trial maxima of one pass, for d < k.
    """
    trials = len(line)
    out = []
    p_diff = float(np.count_nonzero(circle > line) / trials)
    bound = d / k + 3.0 * math.sqrt(max(p_diff * (1 - p_diff), 1e-12) / trials)
    out.append(
        LimitCheck(
            name=f"circle_neq_line_prob_k{k}_d{d}",
            statistic=p_diff,
            threshold=bound,
            passed=p_diff <= bound,
            detail=f"d/k = {d / k:.6f}",
        )
    )
    ratio = k / (k - d)
    for q in (0.5, 0.9):
        x = float(np.quantile(line, q))
        p_line = float(np.count_nonzero(line > x) / trials)
        p_circ = float(np.count_nonzero(circle > x) / trials)
        lower_ok = p_line <= p_circ  # exact per-sample dominance
        se = math.sqrt(
            p_circ * (1 - p_circ) / trials + ratio**2 * p_line * (1 - p_line) / trials
        )
        upper = ratio * p_line + 3.0 * se
        out.append(
            LimitCheck(
                name=f"tail_sandwich_q{int(q * 100)}_k{k}_d{d}",
                statistic=p_circ,
                threshold=upper,
                passed=lower_ok and p_circ <= upper,
                detail=f"line tail {p_line:.4f}, ratio {ratio:.4f}",
            )
        )
    return out


def exact_count_moments(k: int, lo: float, hi: float) -> tuple[float, float]:
    """Exact mean and variance of the number of spacings in [lo, hi].

    From the joint Beta law of uniform spacings: with
    p1 = (1-lo)^(k-1) - (1-hi)^(k-1) and
    p2 = (1-2lo)^(k-1) - 2(1-lo-hi)^(k-1) + (1-2hi)^(k-1),
    the mean is k p1 and the variance k p1 + k(k-1) p2 - (k p1)^2.
    These are the finite-k values the asymptotic normal/Poisson laws
    approximate.
    """

    def pw(x: float) -> float:
        return max(0.0, 1.0 - x) ** (k - 1)

    p1 = pw(lo) - pw(hi)
    p2 = pw(2 * lo) - 2 * pw(lo + hi) + pw(2 * hi)
    mean = k * p1
    var = mean + k * (k - 1) * p2 - mean * mean
    return mean, max(var, 0.0)


def _count_stats(counts: np.ndarray) -> tuple[float, float, float]:
    """(mean, variance, fourth central moment) of per-trial range counts."""
    m = counts.mean()
    var = counts.var(ddof=1)
    m4 = float(((counts - m) ** 4).mean())
    return float(m), float(var), m4


def count_range_checks(k: int, counts: dict[str, np.ndarray]) -> list[LimitCheck]:
    """Counts of spacings in scaled ranges against their limit distributions.

    Around-average range [a/k, b/k]: normal with mean ~ k(e^-a - e^-b) and
    variance ~ k(p(1-p) - (a e^-a - b e^-b)^2) where p = e^-a - e^-b.  Tiny
    range [a/k^2, b/k^2]: Poisson(b - a).  Top range
    [(log k + a)/k, (log k + b)/k]: Poisson(e^-a - e^-b).  Monte Carlo means
    and variances are compared against the exact finite-k moments (the O(1/k)
    gap to the limit values would otherwise dominate the MC error); the
    limit value itself is checked to be within 5% of the exact moment.
    ``counts`` maps each range name to the per-trial counts of one pass.
    """
    checks = []
    for name, lo, hi, limit_mean, limit_var in _count_ranges(k):
        trials = len(counts[name])
        mean, var, m4 = _count_stats(counts[name])
        exact_mean, exact_var = exact_count_moments(k, lo, hi)
        se_mean = math.sqrt(var / trials)
        checks.append(
            LimitCheck(
                name=f"count_{name}_mean_k{k}",
                statistic=mean,
                threshold=3.0 * se_mean,
                passed=abs(mean - exact_mean) <= 3.0 * se_mean,
                detail=f"exact {exact_mean:.4f}, limit {limit_mean:.4f}",
            )
        )
        checks.append(
            LimitCheck(
                name=f"count_{name}_mean_limit_k{k}",
                statistic=exact_mean,
                threshold=0.05,
                passed=abs(exact_mean - limit_mean) <= 0.05 * max(limit_mean, 1.0),
                detail="exact finite-k mean approaches the limit value",
            )
        )
        if limit_var is not None:
            se_var = math.sqrt(max(m4 - var * var, 0.0) / trials)
            checks.append(
                LimitCheck(
                    name=f"count_{name}_var_k{k}",
                    statistic=var,
                    threshold=3.0 * se_var,
                    passed=abs(var - exact_var) <= 3.0 * se_var,
                    detail=f"exact {exact_var:.4f}, limit {limit_var:.4f}",
                )
            )
    return checks


def run_limit_checks(
    k: int,
    d_values: list[int],
    trials: int,
    master_seed: int,
    count_trials: Optional[int] = None,
) -> dict:
    """Full limit-law battery; returns a report dict with per-check results.

    One pass draws each block of rows once and reduces it to the maxima of
    every d and the three range counts; the checks are then built from those
    per-trial statistics.  Both trial counts must be at least 2, since the
    checks take sample variances.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if trials < 2 or (count_trials is not None and count_trials < 2):
        raise ValueError("trials and count_trials must be >= 2")
    for d in d_values:
        if not 1 <= d <= k:
            raise ValueError(f"d={d} out of range [1, {k}]")
    count_trials = count_trials or trials
    sample = _one_pass(k, d_values, trials, count_trials, master_seed)
    checks: list[LimitCheck] = []
    for d in d_values:
        line, circle = sample.line.get(d), sample.circle.get(d)
        checks.extend(gumbel_ks_checks(k, d, line, circle))
        if d < k:
            checks.extend(circular_line_checks(k, d, line, circle))
    checks.extend(count_range_checks(k, sample.counts))
    return {
        "k": k,
        "d_values": list(d_values),
        "trials": trials,
        "seed": master_seed,
        "checks": [c.as_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
