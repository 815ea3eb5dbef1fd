"""Optimal demand splitting and stability conditions.

Given routing matrices (M, T) and a demand vector rho, the optimal split
minimizes the maximum node load:

    min_x ||M x||_inf   subject to   T x = rho, x >= 0.

The epigraph LP is solved with HiGHS.  Replica allocations additionally get
an independent max-flow bisection oracle, and the single-choice, clustering,
and cyclic families have exact closed forms (window maxima over the demand
vector) used as fast paths by the Monte Carlo layer; all routes are
cross-checked in the test suite.

A node is stable when its load is at most 1; the strict inequality of the
model has probability-zero boundary under the continuous demand model, so
verdicts use t* <= 1 + STABILITY_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .allocation import Allocation, AllocationMatrices, UnsupportedDesignError, to_matrices
from .spacings import SpacingSample, prefix_sums, window_max, window_maxima_circle

#: Stability verdict tolerance on the optimal max load.
STABILITY_TOL = 1e-9

#: LP feasibility/optimality tolerance requested from the solver.
LP_TOL = 1e-9


class NumericalFailureError(RuntimeError):
    """The LP or flow solver failed to converge to the requested tolerance."""


@dataclass(frozen=True, eq=False)
class LoadSplit:
    """An optimal demand split: portions x, node loads M x, and t* = max load."""

    portions: np.ndarray
    max_load: float
    node_loads: np.ndarray


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    max_load: float
    condition_kind: str  # lp_exact | sufficient | necessary


def min_max_load(matrices: AllocationMatrices, rho) -> LoadSplit:
    """Solve the min-max load program to optimality.

    Raises NumericalFailureError if the solver does not converge; never
    silently returns an unverified split.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (matrices.k,):
        raise ValueError(f"rho must have length k={matrices.k}, got shape {rho.shape}")
    if np.any(rho < 0):
        raise ValueError("demands must be non-negative")
    L = matrices.num_portions
    c = np.zeros(L + 1)
    c[-1] = 1.0
    a_ub = np.hstack([matrices.M.astype(np.float64), -np.ones((matrices.n, 1))])
    a_eq = np.hstack([matrices.T.astype(np.float64), np.zeros((matrices.k, 1))])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(matrices.n),
        A_eq=a_eq,
        b_eq=rho,
        bounds=[(0, None)] * (L + 1),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise NumericalFailureError(f"LP solver failed (status {res.status}): {res.message}")
    x = res.x[:L]
    recon = matrices.T @ x
    scale = max(1.0, float(rho.max(initial=0.0)))
    if np.max(np.abs(recon - rho)) > LP_TOL * scale:
        raise NumericalFailureError("LP solution violates demand-conservation constraints")
    loads = matrices.M @ x
    return LoadSplit(portions=x, max_load=float(loads.max()), node_loads=loads)


def lp_stability(matrices: AllocationMatrices, rho) -> StabilityVerdict:
    """Exact stability verdict from the LP optimum."""
    t_star = min_max_load(matrices, rho).max_load
    return StabilityVerdict(
        stable=t_star <= 1.0 + STABILITY_TOL, max_load=t_star, condition_kind="lp_exact"
    )


def dump_lp(matrices: AllocationMatrices, rho, path: str) -> None:
    """Write the epigraph LP in the CPLEX LP text format for external checks."""
    rho = np.asarray(rho, dtype=np.float64)
    lines = ["Minimize", " obj: t", "Subject To"]
    for v in range(matrices.n):
        portions = [f"x{j}" for j in range(matrices.num_portions) if matrices.M[v, j]]
        if portions:
            lines.append(f" node{v}: " + " + ".join(portions) + " - t <= 0")
    for i in range(matrices.k):
        portions = [f"x{j}" for j in range(matrices.num_portions) if matrices.T[i, j]]
        lines.append(f" obj{i}: " + " + ".join(portions) + f" = {float(rho[i])!r}")
    lines.append("Bounds")
    lines.append(" t >= 0")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Max-flow bisection oracle (replica allocations)
# ---------------------------------------------------------------------------

# Flow solver capacities must stay below 2**31; demands are normalized to
# sum 1 and scaled by 2**30, so the largest capacity (the total) is 2**30.
_FLOW_SCALE = 2**30


def _flow_feasible(hosts, rho_int, total: int, t_int: int, n: int) -> bool:
    # source 0, objects 1..k, nodes k+1..k+n, sink k+n+1
    k = len(hosts)
    rows, cols, caps = [], [], []
    for i, h in enumerate(hosts):
        rows.append(0)
        cols.append(1 + i)
        caps.append(int(rho_int[i]))
        for v in h:
            rows.append(1 + i)
            cols.append(1 + k + v)
            caps.append(total)
    for v in range(n):
        rows.append(1 + k + v)
        cols.append(k + n + 1)
        caps.append(t_int)
    g = csr_matrix((caps, (rows, cols)), shape=(k + n + 2, k + n + 2), dtype=np.int64)
    return maximum_flow(g, 0, k + n + 1).flow_value >= total


def min_max_load_flow(alloc: Allocation, rho, tol: float = 1e-8) -> float:
    """t* via bisection on the node-capacity bound with a max-flow test.

    Independent of the LP: source->object edges carry the demands, objects
    connect to their hosting nodes, nodes drain into the sink with capacity
    t.  Only replica allocations form a bipartite transportation problem, so
    r > 1 is rejected.  The problem is solved on demands normalized to sum 1
    (the optimum is homogeneous in the demand scale) with capacities on a
    2**30 integer grid; quantization error is a few grid units, orders of
    magnitude below any sensible tol.
    """
    if alloc.r != 1:
        raise UnsupportedDesignError("flow oracle requires a replica allocation")
    if tol <= 1e-11:
        raise ValueError("tol too small for the integer-scaled flow network")
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (alloc.k,):
        raise ValueError(f"rho must have length k={alloc.k}")
    if np.any(rho < 0):
        raise ValueError("demands must be non-negative")
    sigma = float(rho.sum())
    if sigma == 0.0:
        return 0.0
    hosts = [sorted(alloc.choice_nodes(i)) for i in range(alloc.k)]
    rho_int = np.round(rho / sigma * _FLOW_SCALE).astype(np.int64)
    total = int(rho_int.sum())
    unit_tol = tol / sigma
    lo = float(rho.max()) / sigma / alloc.d
    hi = 1.0
    if _flow_feasible(hosts, rho_int, total, int(round(lo * _FLOW_SCALE)), alloc.n):
        return lo * sigma
    while hi - lo > unit_tol:
        mid = 0.5 * (lo + hi)
        if _flow_feasible(hosts, rho_int, total, int(round(mid * _FLOW_SCALE)), alloc.n):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) * sigma


# ---------------------------------------------------------------------------
# Exact closed forms for structured designs
# ---------------------------------------------------------------------------


def t_star_batch(alloc: Allocation, demands: np.ndarray) -> np.ndarray:
    """Optimal max load for each row of a (trials, k) demand matrix.

    single_choice, clustering, and cyclic use exact closed forms (window
    maxima); anything else solves the LP row by row.  Closed forms agree
    with the LP to machine precision (see the solver cross-check tests).
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=np.float64))
    if demands.shape[1] != alloc.k:
        raise ValueError(f"demand rows must have length k={alloc.k}")
    if alloc.kind == "single_choice":
        m = alloc.k // alloc.n
        if m == 1:
            return demands.max(axis=1)
        return demands.reshape(demands.shape[0], alloc.n, m).sum(axis=2).max(axis=1)
    if alloc.kind == "clustering":
        d = alloc.d
        return demands.reshape(demands.shape[0], alloc.n // d, d).sum(axis=2).max(axis=1) / d
    if alloc.kind == "cyclic":
        return _t_star_cyclic(demands, alloc.n, alloc.d)
    matrices = to_matrices(alloc)
    out = np.empty(demands.shape[0])
    for i, row in enumerate(demands):
        try:
            out[i] = min_max_load(matrices, row).max_load
        except NumericalFailureError as exc:
            exc.row_index = i
            raise
    return out


def _t_star_cyclic(demands: np.ndarray, n: int, d: int) -> np.ndarray:
    """t* for cyclic designs: max over circular windows w of W_w / (w + d - 1).

    A window of w consecutive objects expands to exactly min(w + d - 1, n)
    nodes, and by max-flow duality the binding demand subsets collapse to
    circular windows, so t* = max(sum/n, max_w W_w / (w + d - 1)) with w up
    to n - d.
    """
    best = demands.sum(axis=1) / n
    if d >= n:
        return best
    p = prefix_sums(demands, wrap=n - d - 1)
    for w in range(1, n - d + 1):
        np.maximum(best, window_max(p, n, w, circle=True) / (w + d - 1), out=best)
    return best


def imbalance_factor(matrices: AllocationMatrices, rho, n: int) -> float:
    """Load imbalance: optimal max load over its perfect-balance value sum/n."""
    rho = np.asarray(rho, dtype=np.float64)
    sigma = float(rho.sum())
    if sigma <= 0:
        raise ValueError("cumulative demand must be positive")
    return min_max_load(matrices, rho).max_load * n / sigma


# ---------------------------------------------------------------------------
# Closed-form stability conditions
# ---------------------------------------------------------------------------


def _demand_window_max(sample: SpacingSample, w: int) -> float:
    return float(window_maxima_circle(sample.spacings, min(w, sample.k)))


def sufficient_condition(alloc: Allocation, sample: SpacingSample, r_gap: int | None = None) -> bool:
    """Kind-specific sufficient stability condition; True implies t* <= 1.

    Thresholds on the circular window maxima of the demand vector:
    clustering/cyclic: W_d <= d; block design: W_d <= d/2; cyclic XOR:
    W_{1 + r(d-1)} <= d; generic r-gap designs (pass ``r_gap``):
    W_{r+1} <= d.
    """
    if sample.k != alloc.k:
        raise ValueError("sample length must equal the object count")
    d = alloc.d
    if alloc.kind in ("clustering", "cyclic"):
        return _demand_window_max(sample, d) <= d
    if alloc.kind == "block_design":
        return _demand_window_max(sample, d) <= d / 2.0
    if alloc.kind == "cyclic_xor":
        return _demand_window_max(sample, 1 + alloc.r * (d - 1)) <= d
    if r_gap is not None:
        return _demand_window_max(sample, r_gap + 1) <= d
    raise UnsupportedDesignError(f"no known sufficient condition for kind {alloc.kind!r}")


def necessary_condition(
    alloc: Allocation,
    sample: SpacingSample,
    r_gap: int | None = None,
    cyclic_variant: str = "window_d_plus_1",
    xor_threshold: str = "window_capacity",
) -> bool:
    """Kind-specific necessary stability condition; False implies t* > 1.

    clustering/cyclic: W_{d+1} <= 2d (default).  For cyclic designs the
    expansion argument also yields the variant W_d <= 2d - 1
    (``cyclic_variant="window_d"``); both are valid, and the test suite
    records which one is empirically tighter.  Block design: W_d <=
    d^2 - 2d + 3.  Generic r-gap designs: W_i <= i + 2r for every window
    size i in 1..n-2r (conjunction).

    Cyclic XOR: the D = 1 + r(d-1) consecutive objects of a window expand
    over 2D - 1 nodes, their primary portions fit in at most D of them, and
    each recovery portion consumes r units of capacity, so the window can
    carry at most D + (d-1) demand; the default threshold is that exact
    window capacity, W_D <= d + r(d-1).  ``xor_threshold="two_d"`` evaluates
    the looser-looking bound W_D <= 2d instead, which for d >= 3 is *not*
    implied by stability (a window of demand D + d - 1 > 2d is servable) and
    is provided only for side-by-side comparison.
    """
    if sample.k != alloc.k:
        raise ValueError("sample length must equal the object count")
    d = alloc.d
    if alloc.kind in ("clustering", "cyclic"):
        if cyclic_variant == "window_d_plus_1" or alloc.kind == "clustering":
            return _demand_window_max(sample, d + 1) <= 2.0 * d
        if cyclic_variant == "window_d":
            return _demand_window_max(sample, d) <= 2.0 * d - 1.0
        raise ValueError(f"unknown cyclic_variant {cyclic_variant!r}")
    if alloc.kind == "block_design":
        return _demand_window_max(sample, d) <= d * d - 2.0 * d + 3.0
    if alloc.kind == "cyclic_xor":
        window = 1 + alloc.r * (d - 1)
        if xor_threshold == "window_capacity":
            return _demand_window_max(sample, window) <= d + alloc.r * (d - 1)
        if xor_threshold == "two_d":
            return _demand_window_max(sample, window) <= 2.0 * d
        raise ValueError(f"unknown xor_threshold {xor_threshold!r}")
    if r_gap is not None:
        n = alloc.k
        if n - 2 * r_gap < 1:
            return True  # no window sizes to constrain
        p = prefix_sums(sample.spacings[None, :], wrap=n - 2 * r_gap - 1)
        return all(
            window_max(p, n, i, circle=True)[0] <= i + 2.0 * r_gap
            for i in range(1, n - 2 * r_gap + 1)
        )
    raise UnsupportedDesignError(f"no known necessary condition for kind {alloc.kind!r}")
