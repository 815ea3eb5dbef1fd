"""Robustness and load-imbalance metrics.

Monte Carlo estimation of the robustness probability (fraction of uniformly
drawn demand vectors the system can serve stably) and the mean imbalance
factor, plus an exact polygon-slicing computation of the robustness
probability for three-object replica systems.

Determinism: trial i always draws row i of ``spacing_matrix``'s stream, and
per-trial results are reduced in trial-index order, so reports are
bit-identical for a given seed regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from .allocation import Allocation, UnsupportedDesignError, node_expansion
from .loadsolver import (
    FAMILIES,
    STABILITY_TOL,
    NumericalFailureError,
    shared_pass,
    t_star_batch,
)
from .spacings import EULER_GAMMA, REGIME_SINGLE, p_sigma_transition, spacing_matrix

_Z95 = 1.959963984540054

#: Trials per chunk (see ``batch_rows``); bounds peak memory and sizes the
#: parallel work units.
BATCH_TRIALS = 20000

#: Cap on demand-matrix elements per chunk (keeps peak memory modest).
BATCH_ELEMENTS = 20_000_000

#: Finite-size slack for comparing observed means against asymptotic bands:
#: the observed statistic divided by the predicted band edge must fall in
#: this interval.  A calibration choice (the theory gives only limits).
BAND_SLACK = (0.4, 1.2)

#: Factors applied to the phase-transition thresholds when probing the
#: robustness 0/1 transition from both sides.
TRANSITION_PROBE = (0.5, 1.5)

#: Trials of each robustness estimate on either side of the transition.
TRANSITION_TRIALS = 2000

#: Cumulative load per object at which every demand row is drawn and solved.
#: Demand is uniform over the load vectors of one cumulative value sigma, so
#: sigma only scales a row and, t* being homogeneous of degree one, its t*;
#: ``estimate_metrics`` applies that scale.  At 0.8 per object a design with
#: k = n is solved on exactly the rows a sweep at sigma = 0.8 n draws, and
#: the scale sigma / (0.8 k) is exactly 1, so those reports keep the bits
#: they had when each sigma was drawn and solved on its own.
SOLVE_LOAD = 0.8


@dataclass(frozen=True)
class MetricEstimate:
    """A Monte Carlo estimate with a 95% confidence interval."""

    mean: float
    stderr: float
    ci95_lo: float
    ci95_hi: float
    trials: int
    seed: int
    quantiles: Optional[dict[str, float]] = None

    def __post_init__(self):
        if not (self.ci95_lo <= self.mean <= self.ci95_hi):
            raise ValueError("confidence interval must contain the point estimate")
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = _Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # The Wilson interval contains p exactly; enforce it under FP rounding.
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


def batch_rows(k: int) -> int:
    """Rows per chunk of k-element demand rows.

    At most ``BATCH_TRIALS``, and at most ``BATCH_ELEMENTS // k`` unless
    that falls below 64 rows.
    """
    return max(64, min(BATCH_TRIALS, BATCH_ELEMENTS // max(1, k)))


def _t_star_chunk(args) -> np.ndarray:
    """t* of one chunk of trials for each allocation, one row each; the
    allocations share k.

    The chunk is drawn once, at cumulative load ``SOLVE_LOAD * k``.
    ``shared_pass`` checks its rows and solves every allocation with a
    closed form over them, one kernel call per (kind, n), and each
    allocation still gets its own ``t_star_batch`` call, which returns its
    row of that pass or solves its LP on the checked rows.  Every
    allocation's row thus passes through ``t_star_batch`` with the chunk it
    belongs to, where a wrapper set on ``metrics.t_star_batch`` sees it.
    """
    allocs, master_seed, start, count = args
    k = allocs[0].k
    demands = spacing_matrix(k, SOLVE_LOAD * k, master_seed, count, start_index=start)
    solved = shared_pass(allocs, demands)
    try:
        return np.stack([t_star_batch(alloc, demands, solved) for alloc in allocs])
    except NumericalFailureError as exc:
        trial = start + getattr(exc, "row_index", 0)
        raise NumericalFailureError(f"trial {trial}: {exc}") from exc


def t_star_series(
    allocs: list[Allocation],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Optimal max load of each allocation for trials independent demand
    draws at cumulative load ``SOLVE_LOAD * k``.

    Row j of the ``(len(allocs), trials)`` result belongs to ``allocs[j]``.
    The allocations that share their number of objects k are solved
    together: trial i draws its ``spacing_matrix`` row of that k once for
    all of them, so they are compared on paired demands, and
    ``estimate_metrics`` reduces each design's row at any sigma.  Each k's
    chunks of ``batch_rows(k)`` trials are solved in trial order, the k in
    the order they first occur in ``allocs``, or mapped over a process pool
    when ``workers`` > 1; either way the result is independent of the
    worker count, and the first trials of a longer series are a shorter
    series.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ks = [alloc.k for alloc in allocs]
    chunks = [
        ([a for a in allocs if a.k == k], master_seed, start, min(batch_rows(k), trials - start))
        for k in dict.fromkeys(ks)
        for start in range(0, trials, batch_rows(k))
    ]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_t_star_chunk, chunks))
    else:
        results = [_t_star_chunk(c) for c in chunks]
    series = np.empty((len(allocs), trials))
    for (group, _, start, count), t_stars in zip(chunks, results):
        series[np.equal(ks, group[0].k), start : start + count] = t_stars
    return series


def estimate_metrics(
    alloc: Allocation,
    sigma: float,
    trials: int,
    master_seed: int,
    t_stars: np.ndarray,
) -> tuple[MetricEstimate, MetricEstimate]:
    """Joint estimate of (robustness probability, imbalance factor) at
    cumulative load sigma from ``t_stars``, the allocation's row of a
    ``t_star_series`` call with the same trials and master_seed.

    The series was solved at ``SOLVE_LOAD * k``; sigma only scales it.  A
    trial is stable when its t* scaled to sigma is at most
    ``1 + STABILITY_TOL``, and its imbalance factor is t* * n over the load
    it was solved at, which does not depend on sigma.  Designs solved in one
    ``t_star_series`` call are compared on identical demand draws, and every
    sigma of a design reduces the same series.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if len(t_stars) != trials:
        raise ValueError(f"t_stars holds {len(t_stars)} trials, not {trials}")
    solved_at = SOLVE_LOAD * alloc.k
    stable = int(np.count_nonzero(t_stars * (sigma / solved_at) <= 1.0 + STABILITY_TOL))
    p_hat = stable / trials
    p_lo, p_hi = wilson_interval(stable, trials)
    p_stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    p_est = MetricEstimate(
        mean=p_hat, stderr=p_stderr, ci95_lo=p_lo, ci95_hi=p_hi, trials=trials, seed=master_seed
    )

    imb = t_stars * (alloc.n / solved_at)
    mean = float(imb.mean())
    stderr = float(imb.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    q05, q50, q95 = (float(q) for q in np.quantile(imb, [0.05, 0.5, 0.95]))
    i_est = MetricEstimate(
        mean=mean,
        stderr=stderr,
        ci95_lo=mean - _Z95 * stderr,
        ci95_hi=mean + _Z95 * stderr,
        trials=trials,
        seed=master_seed,
        quantiles={"q05": q05, "q50": q50, "q95": q95},
    )
    return p_est, i_est


# ---------------------------------------------------------------------------
# Exact three-object geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactRegionK3:
    """Halfspace description of the capacity region for k = n = 3 replicas.

    Halfspaces are (normal, offset) pairs meaning normal . rho <= offset;
    they include the nonnegativity constraints, so the region is the full
    feasible set and contains the origin.
    """

    halfspaces: tuple[tuple[tuple[Fraction, Fraction, Fraction], Fraction], ...]
    simplex_sigma: Fraction

    def polygon_vertices(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """Vertices of the region sliced by the plane sum(rho) = sigma."""
        return _slice_polygon(self.halfspaces, self.simplex_sigma)

    def p_sigma(self) -> Fraction:
        """Exact area fraction of the slice within the demand simplex."""
        verts = self.polygon_vertices()
        if len(verts) < 3:
            return Fraction(0)
        pts = [(v[0], v[1]) for v in verts]  # (rho1, rho2) parameterization
        area2 = Fraction(0)
        for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
            area2 += x1 * y2 - x2 * y1
        area = abs(area2) / 2
        simplex_area = self.simplex_sigma * self.simplex_sigma / 2
        return area / simplex_area


def exact_region_k3(alloc: Allocation, sigma) -> ExactRegionK3:
    """Capacity region of a 3-object, 3-node replica system, by subset bounds.

    For replica allocations, max-flow duality makes the region exactly
    {rho >= 0 : sum_{i in S} rho_i <= |N(S)| for all object subsets S};
    with k = 3 the seven subsets are enumerated directly.
    """
    if alloc.k != 3 or alloc.n != 3:
        raise UnsupportedDesignError("exact geometry is implemented for k = n = 3")
    if alloc.r != 1:
        raise UnsupportedDesignError("exact geometry requires a replica allocation")
    halfspaces = []
    for i in range(3):
        normal = tuple(Fraction(-1) if j == i else Fraction(0) for j in range(3))
        halfspaces.append((normal, Fraction(0)))  # rho_i >= 0
    for size in (1, 2, 3):
        for objs in combinations(range(3), size):
            normal = tuple(Fraction(1) if j in objs else Fraction(0) for j in range(3))
            halfspaces.append((normal, Fraction(node_expansion(alloc, objs))))
    return ExactRegionK3(halfspaces=tuple(halfspaces), simplex_sigma=Fraction(sigma))


def _slice_polygon(halfspaces, sigma: Fraction) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Intersect the halfspace region with the plane rho1+rho2+rho3 = sigma.

    Works in the (u, v) = (rho1, rho2) chart with exact rationals: every 3D
    halfspace becomes a halfplane a*u + b*v <= c, candidate vertices are the
    pairwise line intersections that satisfy all constraints, ordered by a
    monotone-chain hull.
    """
    planes = []
    for (n1, n2, n3), off in halfspaces:
        planes.append((n1 - n3, n2 - n3, off - n3 * sigma))
    pts: set[tuple[Fraction, Fraction]] = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(planes, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        u = (c1 * b2 - c2 * b1) / det
        v = (a1 * c2 - a2 * c1) / det
        if all(a * u + b * v <= c for a, b, c in planes):
            pts.add((u, v))
    if not pts:
        return []
    ordered = sorted(pts)
    if len(ordered) <= 2:
        return [(u, v, sigma - u - v) for u, v in ordered]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in ordered:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(ordered):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [(u, v, sigma - u - v) for u, v in hull]


def exact_p_sigma_k3(alloc: Allocation, sigma) -> float:
    """Exact robustness probability for k = n = 3 replica allocations."""
    return float(exact_region_k3(alloc, sigma).p_sigma())


# ---------------------------------------------------------------------------
# Asymptotic band checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandCheck:
    name: str
    observed: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.observed <= self.hi

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "observed": self.observed,
            "lo": self.lo,
            "hi": self.hi,
            "passed": self.passed,
        }


def asymptotic_band_check(alloc: Allocation, trials: int, master_seed: int) -> dict:
    """Compare simulated metrics against the closed-form predictor bands.

    Solves one ``t_star_series`` of max(trials, ``TRANSITION_TRIALS``)
    trials and reduces its prefixes.  The imbalance estimate takes the first
    ``trials`` at cumulative load 0.8 n (the imbalance factor does not
    depend on the cumulative load, which only scales the optimum) and checks
    its mean against the family's band with the finite-size slack
    ``BAND_SLACK``; for single-choice storage with m objects per node the
    observed statistic is imbalance * m, the coordinate of its limit law.
    The robustness probability is also estimated, from the first
    ``TRANSITION_TRIALS`` trials, at cumulative loads b * n / log n
    for b on both sides of the predicted 0/1 transition.
    """
    n, d, r = alloc.n, alloc.d, alloc.r
    m = max(1, alloc.k // n)
    family = FAMILIES.get(alloc.kind)
    if family is None:
        raise UnsupportedDesignError(f"no predictor for kind {alloc.kind!r}")
    pred = family.predict(alloc)
    series = t_star_series([alloc], max(trials, TRANSITION_TRIALS), master_seed)[0]
    _, i_est = estimate_metrics(alloc, 0.8 * n, trials, master_seed, series[:trials])

    if pred.regime == REGIME_SINGLE:
        # the limit law centres imbalance * m; Gumbel mean shift
        target = pred.centering + EULER_GAMMA
        name, observed = "mean_imbalance_over_prediction", i_est.mean * m / target
    else:
        name, observed = "mean_imbalance_over_band_hi", i_est.mean / pred.band_hi
    checks = [BandCheck(name=name, observed=observed, lo=BAND_SLACK[0], hi=BAND_SLACK[1])]

    b_lo, b_hi = p_sigma_transition(pred.regime, d, m=m)
    transition = {}
    for label, b in (("below", TRANSITION_PROBE[0] * b_lo), ("above", TRANSITION_PROBE[1] * b_hi)):
        sig = b * n / math.log(n)
        p_est, _ = estimate_metrics(
            alloc, sig, TRANSITION_TRIALS, master_seed, series[:TRANSITION_TRIALS]
        )
        transition[label] = {"b": b, "sigma": sig, "p_sigma": p_est.mean}
    checks.append(
        BandCheck(name="p_sigma_below_transition", observed=transition["below"]["p_sigma"], lo=0.9, hi=1.0)
    )
    checks.append(
        BandCheck(name="p_sigma_above_transition", observed=transition["above"]["p_sigma"], lo=0.0, hi=0.1)
    )

    return {
        "kind": alloc.kind,
        "n": n,
        "d": d,
        "r": r,
        "trials": trials,
        "seed": master_seed,
        "prediction": {
            "regime": pred.regime,
            "centering": pred.centering,
            "scale": pred.scale,
            "band_lo": pred.band_lo,
            "band_hi": pred.band_hi,
        },
        "observed_mean_imbalance": i_est.mean,
        "observed_stderr": i_est.stderr,
        "checks": [chk.as_dict() for chk in checks],
        "transition": transition,
    }


# ---------------------------------------------------------------------------
# Report rows
# ---------------------------------------------------------------------------

#: The CSV schema, and the keys of ``ExperimentRow.as_dict`` in order.
CSV_COLUMNS = (
    "kind", "n", "k", "d", "r", "sigma", "trials",
    "p_sigma", "p_lo", "p_hi",
    "i_mean", "i_stderr", "i_q05", "i_q50", "i_q95",
    "seed",
)


@dataclass(frozen=True)
class ExperimentRow:
    """One simulated configuration, serializable to a stable CSV schema."""

    kind: str
    n: int
    k: int
    d: int
    r: int
    sigma: float
    trials: int
    seed: int
    p: MetricEstimate = field(repr=False)
    imbalance: MetricEstimate = field(repr=False)

    def as_dict(self) -> dict:
        """The row's values keyed by ``CSV_COLUMNS``, line for line."""
        p, i = self.p, self.imbalance
        q = i.quantiles or {}
        values = (
            self.kind, self.n, self.k, self.d, self.r, self.sigma, self.trials,
            p.mean, p.ci95_lo, p.ci95_hi,
            i.mean, i.stderr, q.get("q05"), q.get("q50"), q.get("q95"),
            self.seed,
        )
        return dict(zip(CSV_COLUMNS, values, strict=True))


def _csv_field(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # plain-float repr even for numpy scalars
    return str(x)


def csv_text(columns, rows) -> str:
    """Deterministic CSV: a header of ``columns``, then one line per row,
    each a mapping from column to value."""
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_field(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """Deterministic CSV: header plus one row per configuration."""
    return csv_text(CSV_COLUMNS, [row.as_dict() for row in rows])
