"""Optimal demand splitting and stability conditions.

Given routing matrices (M, T) and a demand vector rho, the optimal split
minimizes the maximum node load:

    min_x ||M x||_inf   subject to   T x = rho, x >= 0.

The epigraph LP is solved with HiGHS, one model re-solved row after row,
and every row's split is certified by its dual.  Replica allocations
additionally get an independent min-cut oracle (t* as rho(S) / |N(S)|),
and the single-choice, clustering, and cyclic families have exact closed
forms (window maxima over the demand vector) used as fast paths by the
Monte Carlo layer; all routes are cross-checked in the test suite.  What the
package knows about each named design family (builder, closed form,
stability conditions, predictor) lives in one table, ``FAMILIES``.

A node is stable when its load is at most 1; the strict inequality of the
model has probability-zero boundary under the continuous demand model, so
verdicts use t* <= 1 + STABILITY_TOL.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import inspect
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .allocation import (
    Allocation,
    AllocationMatrices,
    UnsupportedDesignError,
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    node_expansion,
    to_matrices,
)
from .spacings import (
    REGIME_SMALL_D,
    AsymptoticPrediction,
    WindowMaxima,
    predict_d_choice,
    predict_single_choice,
    predict_xor,
)

#: Stability verdict tolerance on the optimal max load.
STABILITY_TOL = 1e-9

#: LP feasibility/optimality tolerance requested from the solver.
LP_TOL = 1e-9

#: An LP model of at most this many rows (n + k) prices the dual simplex by
#: Dantzig's rule and refactors its basis every 20 updates; larger models
#: keep HiGHS's defaults (see ``_EpigraphLP``).
_DANTZIG_MAX_ROWS = 48


class NumericalFailureError(RuntimeError):
    """The LP solver failed to converge, or its split failed a check."""


@dataclass(frozen=True, eq=False)
class LoadSplit:
    """An optimal demand split: portions x, node loads M x, and t* = max load."""

    portions: np.ndarray
    max_load: float
    node_loads: np.ndarray


def min_max_load(matrices: AllocationMatrices, rho) -> LoadSplit:
    """Solve the min-max load program of ``to_matrices``'s routing matrices
    to optimality at one demand vector rho.

    The one-row case of the LP solve behind ``t_star_batch``, on a model
    built for this call from ``matrices`` as they are: the split is checked
    for demand conservation and certified by its dual.  Raises ValueError
    for a rho of the wrong length or with an entry that is negative or not
    finite, and for an object that no node can serve (see
    ``_check_servable``), and NumericalFailureError if the solver does not
    converge or a check fails; never silently returns an unverified split.
    """
    rho = _demand_rows(matrices.k, rho, ndim=1)
    x, loads = _EpigraphLP(matrices).solve(rho[None, :])
    return LoadSplit(portions=x[0], max_load=float(loads[0].max()), node_loads=loads[0])


#: The module name of scipy's HiGHS bindings.
_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS extension module, ``scipy.optimize._highspy._core``.

    Importing it by name first runs ``scipy/optimize/__init__.py``, which
    loads some 300 scipy modules the LP never calls.  So the module is
    loaded from its file in scipy's install directory, for each suffix in
    ``importlib.machinery.EXTENSION_SUFFIXES``, and registered under its
    own name in ``sys.modules``, where a later import of it finds it.  An
    already imported module is reused; if no file is found, it is imported
    by name.
    """
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    for folder in scipy.submodule_search_locations if scipy is not None else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
                core = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(core)
                sys.modules[_HIGHS_CORE] = core
                return core
    return importlib.import_module(_HIGHS_CORE)


def _bin_sums(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Sums of the columns of (b, m) ``values`` into ``size`` bins per row,
    column j going to bin index[j]; each bin adds its columns in order."""
    b = values.shape[0]
    bins = (np.arange(b)[:, None] * size + index).ravel()
    return np.bincount(bins, weights=values.ravel(), minlength=b * size).reshape(b, size)


class _EpigraphLP:
    """The epigraph LP of one set of routing matrices, one HiGHS model
    re-solved per demand row.

    With M the nodes x portions routing matrix and T the objects x
    portions aggregation matrix of ``to_matrices``, the model

        min t  s.t.  M x - t <= 0,  T x = rho,  x, t >= 0

    is built once, with presolve off, straight from their compressed
    columns: portion c's column holds 1 at its nodes' rows (ascending) and
    at row n + owner[c], and the t column, last, holds -1 at every node
    row.  Each row sets the k equality bounds to its rho and runs the
    simplex from the basis the row before it left, so a row's x (and the
    last bits of its t*) can depend on the rows solved before it on the
    same model.  Row j's t* is max(M x_j), each node's load summed over its
    portions in portion order.  A table that ``_check_servable`` rejects
    raises ValueError before the model is built, and an option or model
    that HiGHS refuses raises RuntimeError.

    A model of at most ``_DANTZIG_MAX_ROWS`` rows (n + k) prices the dual
    simplex by Dantzig's rule and refactors its basis every 20 updates;
    a larger one keeps HiGHS's defaults (dual steepest edge).  The
    crossover was measured per row, in process, on 200 rows at 0.8 k of
    block designs d = 3, 4, 5, 6, 8 and cyclic XOR designs of 30-200
    rows: Dantzig took 0.75-0.98 of the default's time at 14-48 rows,
    0.89-1.02 at 52 and more above, up to 1.8 at 200.  Without the update
    limit, a few Dantzig rows in 20 000 missed conservation by up to
    4e-10; with it, no row of 20 000-row chunks of the small designs
    missed by more than 4e-13 (HiGHS's defaults: up to 1.3e-11).

    Every row must pass two checks, each at LP_TOL (absolute on the dual,
    relative to max(1, max rho_j) on demands and loads):

    - conservation: |T x_j - rho_j| <= LP_TOL * scale;
    - a dual certificate from HiGHS's row duals y_j (equalities) and z_j
      (inequalities), of the sign linprog reports as marginals:
      z_j <= LP_TOL, every reduced cost -M^T z_j - T^T y_j of x_j and
      1 + sum(z_j) of t_j is at least -LP_TOL, and
      |rho_j . y_j - t*_j| <= LP_TOL * scale.  A feasible
      dual whose value meets the primal value proves the split optimal.
    """

    def __init__(self, matrices: AllocationMatrices):
        n, k, owner, indptr, nodes = matrices
        _check_servable(k, owner, indptr)
        core = _highs_core()
        self.matrices = matrices
        num_portions = owner.size
        self._entry_portion = np.repeat(np.arange(num_portions), np.diff(indptr))
        # each portion's entries, then its owner's row; the t column last
        start = indptr + np.arange(num_portions + 1)
        index = np.empty(start[-1] + n, dtype=np.int32)
        index[np.arange(nodes.size) + self._entry_portion] = nodes
        index[start[1:] - 1] = n + owner
        index[start[-1]:] = np.arange(n)
        value = np.ones(index.size)
        value[start[-1]:] = -1.0
        lp = core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = num_portions + 1
        lp.num_row_ = lp.a_matrix_.num_row_ = n + k
        lp.col_cost_ = np.append(np.zeros(num_portions), 1.0)
        lp.col_lower_ = np.zeros(num_portions + 1)
        lp.col_upper_ = np.full(num_portions + 1, core.kHighsInf)
        lp.row_lower_ = np.append(np.full(n, -core.kHighsInf), np.zeros(k))
        lp.row_upper_ = np.zeros(n + k)
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = np.append(start, index.size).astype(np.int32)
        lp.a_matrix_.index_, lp.a_matrix_.value_ = index, value
        self._optimal = core.HighsModelStatus.kOptimal
        self._highs = core._Highs()
        options = [
            ("output_flag", False),
            ("presolve", "off"),
            ("primal_feasibility_tolerance", 1e-10),
            ("dual_feasibility_tolerance", 1e-10),
        ]
        if n + k <= _DANTZIG_MAX_ROWS:
            options += [("simplex_dual_edge_weight_strategy", 0), ("simplex_update_limit", 20)]
        for option, value in options:
            _check_status(self._highs.setOptionValue(option, value), f"option {option}")
        _check_status(self._highs.passModel(lp), "passModel")

    def solve(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal splits x (b, L) and node loads M x (b, n) of (b, k) rows
        that ``_demand_rows`` has checked.

        The rows are solved in order.  A failed solve or check raises
        NumericalFailureError whose ``row_index`` is the failing row's
        index in ``rows``.
        """
        n, k, owner, _, nodes = self.matrices
        b, num_portions = rows.shape[0], owner.size
        x, y, z = np.empty((b, num_portions)), np.empty((b, k)), np.empty((b, n))
        for i, rho in enumerate(rows):
            status, xi, yi, zi = self._solve_row(rho)
            if status != self._optimal:
                what = self._highs.modelStatusToString(status)
                raise _row_failure(i, f"LP solver failed on this row (model status: {what})")
            x[i], y[i], z[i] = xi, yi, zi
        loads = _bin_sums(x[:, self._entry_portion], nodes, n)
        scale = LP_TOL * np.maximum(1.0, rows.max(axis=1))
        conserved = np.abs(_bin_sums(x, owner, k) - rows).max(axis=1) <= scale
        reduced_costs = -_bin_sums(z[:, nodes], self._entry_portion, num_portions) - y[:, owner]
        dual_feasible = (
            (z.max(axis=1) <= LP_TOL)
            & (reduced_costs.min(axis=1) >= -LP_TOL)
            & (1.0 + z.sum(axis=1) >= -LP_TOL)
        )
        gap_closed = np.abs(np.einsum("ij,ij->i", rows, y) - loads.max(axis=1)) <= scale
        for ok, what in (
            (conserved, "LP solution violates demand-conservation constraints"),
            (dual_feasible, "LP dual certificate is infeasible"),
            (gap_closed, "LP dual certificate does not meet the primal value"),
        ):
            if not ok.all():
                raise _row_failure(int(np.argmin(ok)), what)
        return x, loads

    def _solve_row(self, rho: np.ndarray) -> tuple:
        """Re-solve the model at demand row rho: (model status, x, y, z).

        y and z are the duals of T x = rho and of M x - t <= 0.
        """
        n = self.matrices.n
        for j, value in enumerate(rho.tolist()):
            self._highs.changeRowBounds(n + j, value, value)
        self._highs.run()
        solution = self._highs.getSolution()
        duals = solution.row_dual
        return self._highs.getModelStatus(), solution.col_value[:-1], duals[n:], duals[:n]


def _check_status(status, what: str) -> None:
    """Raise RuntimeError, an internal fault, unless a HiGHS call returned
    ``kOk``: a model built on options HiGHS did not take would solve on its
    defaults."""
    if status != _highs_core().HighsStatus.kOk:
        raise RuntimeError(f"HiGHS {what}: {status}")


def _check_servable(k: int, owner: np.ndarray, indptr: np.ndarray) -> None:
    """Raise ValueError naming the first of k objects that has no portion,
    or a portion with no node, in a table whose portion c belongs to object
    owner[c] and has indptr[c + 1] - indptr[c] nodes.  The LP would serve
    an empty portion at no load and find no split for an object without
    one; the flow oracle would ignore the first and divide by zero on the
    second."""
    portions = np.bincount(owner, minlength=k)
    empty = np.bincount(owner[indptr[1:] == indptr[:-1]], minlength=k)
    bad = np.flatnonzero((portions == 0) | (empty > 0))
    if bad.size:
        i = bad[0]
        what = "has no choice" if portions[i] == 0 else "has a choice with no node"
        raise ValueError(f"object {i}: {what}")


def _row_failure(row: int, message: str) -> NumericalFailureError:
    exc = NumericalFailureError(message)
    exc.row_index = row
    return exc


# ---------------------------------------------------------------------------
# Min-cut oracle (replica allocations)
# ---------------------------------------------------------------------------

# Flow solver capacities must stay below 2**31; demands are normalized to
# sum 1 and scaled by 2**30, so the largest capacity (the total) is 2**30.
_FLOW_SCALE = 2**30


def min_max_load_flow(alloc: Allocation, rho) -> float:
    """t* of a replica design as rho(S) / |N(S)| for the S of ``_binding_set``,
    N(S) the nodes hosting S: by max-flow duality, independent of the LP.

    Raises ValueError for a rho that ``_demand_rows`` rejects and for a
    design that ``_check_servable`` rejects."""
    if alloc.r != 1:
        raise UnsupportedDesignError("flow oracle requires a replica allocation")
    rho = _demand_rows(alloc.k, rho, ndim=1)
    _check_servable(alloc.k, *alloc.portions[:2])
    if rho.sum() == 0.0:
        return 0.0
    S = _binding_set(alloc, rho)
    return float(rho[S].sum() / node_expansion(alloc, S))


def _binding_set(alloc: Allocation, rho: np.ndarray) -> np.ndarray:
    """The sorted object set S of largest rho(S) / |N(S)|, by Dinkelbach's iteration.

    The network is source -> object i (capacity rho_int_i = round(rho_i u / sigma),
    u = 2**30, sigma = sum rho) -> i's nodes (capacity total = sum rho_int) ->
    sink (capacity c per node); its min cuts have source side S + N(S) and cost
    total - rho_int(S) + c |N(S)|.  From t = max_i rho_i / |N({i})|, each step
    sets c = floor(t u / sigma) and stops if the flow saturates the source.
    Else the objects S' reached in the residual graph form a min cut, and as
    no object-node edge is full the nodes reached are N(S'); t moves to
    rho(S') / |N(S')| if that is a rise, or stops.  Every t is a real set's
    ratio, so t <= t* up to float rounding, and t rises, so the loop ends.

    Stop rule: |rho_int(S) - rho(S) u / sigma| <= |S| / 2 and
    0 <= t u / sigma - c < 1.  Saturation means rho_int(S*) <= c |N(S*)|, so
    t* - t <= sigma 2**-31 |S*| / |N(S*)|.  No rise at the min cut S', which
    maximises G(S) = rho_int(S) - c |N(S)|, means
    |N(S*)| (t* - t) u / sigma - |S*| / 2 <= G(S*) <= G(S') < |N(S')| + |S'| / 2,
    so t* - t < sigma 2**-30 (n + k) / |N(S*)|.  Either way t is t* itself
    unless another set's ratio lies within that bound below t*.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    (indptr, indices), k, n = alloc.incidence, alloc.k, alloc.n
    sigma = float(rho.sum())
    rho_int = np.round(rho / sigma * _FLOW_SCALE).astype(np.int64)
    total = int(rho_int.sum())
    degree = np.diff(indptr)
    # source 0, objects 1..k, nodes k+1..k+n (object-node edges from B), sink k+n+1
    owner = np.repeat(np.arange(k), degree)
    rows = np.concatenate([np.zeros(k, np.int64), 1 + owner, 1 + k + np.arange(n)])
    cols = np.concatenate([1 + np.arange(k), 1 + k + indices, np.full(n, k + n + 1)])
    caps = np.concatenate([rho_int, np.full(owner.size, total), np.ones(n, np.int64)])
    g = csr_matrix((caps, (rows, cols)), shape=(k + n + 2, k + n + 2), dtype=np.int64)
    sink_edges = g.indptr[k + 1 : k + n + 1]  # a node's one entry is its sink edge
    S = np.array([np.argmax(rho / degree)])
    t = rho[S].sum() / degree[S[0]]
    while True:
        g.data[sink_edges] = int(t * _FLOW_SCALE / sigma)
        flow = maximum_flow(g, 0, k + n + 1)
        if flow.flow_value >= total:
            return S
        reached = breadth_first_order((g - flow.flow) > 0, 0, return_predecessors=False)
        objects = np.sort(reached[(reached >= 1) & (reached <= k)]) - 1
        ratio = rho[objects].sum() / np.count_nonzero(reached > k)
        if ratio <= t:
            return S
        S, t = objects, ratio


# ---------------------------------------------------------------------------
# Exact closed forms for structured designs
# ---------------------------------------------------------------------------


def t_star_batch(
    alloc: Allocation, demands: np.ndarray, solved: Optional[SharedPass] = None
) -> np.ndarray:
    """Optimal max load for each row of a (trials, k) demand matrix.

    ``solved`` is a ``shared_pass`` run on this same ``demands`` object; a
    pass over the design alone is run when none is given.  A design whose
    family has a closed form in ``FAMILIES`` returns its row of that pass.
    Anything else solves the LP for the pass's checked rows in order, on
    one HiGHS model built for this call, each re-solve starting from the
    basis of the row before, with every row certified (see
    ``_EpigraphLP``); a row's t* can thus differ in its last bits with the
    rows before it, so callers cut batches by row index alone.  Closed
    forms agree with the LP to machine precision (see the solver
    cross-check tests).  On either route, demands that ``_demand_rows``
    rejects raise ValueError, and a failed row raises NumericalFailureError
    with ``row_index`` set to its index in ``demands``.
    """
    if solved is None:
        solved = shared_pass([alloc], demands)
    return solved.row(alloc, demands)


@dataclass(frozen=True, eq=False)
class SharedPass:
    """What ``shared_pass`` made of one demand matrix ``demands``: its
    ``checked`` rows and the closed-form t* rows, keyed by each design's
    (kind, n, d).

    ``row`` gives a design's t*: its closed-form row, or the LP solved on
    the checked rows.  It raises ValueError for other demand rows, for a
    design of another k, and for a closed-form design the pass does not
    cover."""

    demands: np.ndarray
    checked: np.ndarray
    rows: dict[tuple[str, int, int], np.ndarray]

    def row(self, alloc: Allocation, demands) -> np.ndarray:
        if demands is not self.demands:
            raise ValueError("the shared pass was run on other demand rows")
        # the key leaves out k, which single_choice designs of one n vary by m
        _check_width(alloc.k, self.checked)
        if getattr(FAMILIES.get(alloc.kind), "t_star", None) is None:
            return _EpigraphLP(to_matrices(alloc)).solve(self.checked)[1].max(axis=1)
        row = self.rows.get((alloc.kind, alloc.n, alloc.d))
        if row is None:
            raise ValueError(f"the shared pass does not cover {alloc.kind} n={alloc.n} d={alloc.d}")
        return row


def shared_pass(allocs: Sequence[Allocation], demands) -> SharedPass:
    """Check ``demands`` by ``_demand_rows`` and solve the closed-form
    designs of ``allocs`` over them: one ``FAMILIES`` kernel call for each
    (kind, n), for each of its distinct d once.  Designs without a closed
    form get no row.  Every design must have the rows' k: a design of
    another k raises ValueError before any kernel runs."""
    rows = _demand_rows(allocs[0].k, demands)
    groups: dict[tuple[str, int], list[int]] = {}
    for alloc in allocs:
        _check_width(alloc.k, rows)
        if getattr(FAMILIES.get(alloc.kind), "t_star", None) is not None:
            d_values = groups.setdefault((alloc.kind, alloc.n), [])
            if alloc.d not in d_values:
                d_values.append(alloc.d)
    solved = {}
    for (kind, n), d_values in groups.items():
        t_stars = FAMILIES[kind].t_star(n, d_values, rows)
        solved.update(((kind, n, d), t_star) for d, t_star in zip(d_values, t_stars))
    return SharedPass(demands, rows, solved)


def _demand_rows(k: int, demands, ndim: int = 2) -> np.ndarray:
    """``demands`` as float64 demands of k objects: the one statement of
    the demand rule that every t* route applies.  At ``ndim`` 2 it takes
    (T, k) rows, or a (k,) vector as one row, and returns (T, k) rows; at
    ``ndim`` 1 it takes and returns one (k,) vector.  ValueError unless
    the shape is one of these and every demand is finite and non-negative.
    """
    demands = np.asarray(demands, dtype=np.float64)
    _check_width(k, demands, ndim)
    if not np.all(np.isfinite(demands) & (demands >= 0)):
        raise ValueError("demands must be finite and non-negative")
    return np.atleast_2d(demands) if ndim == 2 else demands


def _check_width(k: int, demands: np.ndarray, ndim: int = 2) -> None:
    """Raise ValueError unless ``demands`` is a (k,) vector or, at ``ndim``
    2, (T, k) rows."""
    if not 1 <= demands.ndim <= ndim or demands.shape[-1] != k:
        raise ValueError(f"demand rows must have length k={k}, got shape {demands.shape}")


def _t_star_clusters(n: int, d_values: Sequence[int], demands: np.ndarray) -> np.ndarray:
    """t* of the clustering designs (n, d) for each d, one row each: max cluster sum / d.

    Each splits the k objects into n/d clusters of k*d/n consecutive objects,
    each served by its own d nodes only; single choice is d = 1, k = n*m.
    """
    (t, k), rows = demands.shape, []
    for d in d_values:
        clusters = demands.reshape(t, n // d, k * d // n)
        # a one-object cluster is its own sum; summing would copy the whole batch
        sums = clusters[:, :, 0] if clusters.shape[2] == 1 else clusters.sum(axis=2)
        rows.append(sums.max(axis=1) / d)
    return np.stack(rows)


#: The cyclic kernel compacts its live rows once at least this share of them
#: is proven final; compacting on every drop copies the rows and their window
#: sums too often.
_COMPACT_SHARE = 0.25


def _t_star_cyclic(n: int, d_values: Sequence[int], demands: np.ndarray) -> np.ndarray:
    """t* of the cyclic designs (n, d) for each d of ``d_values``, one row each.

    A window of w consecutive objects expands to exactly min(w + d - 1, n)
    nodes, and by max-flow duality the binding demand subsets collapse to
    circular windows, so t* = max(sum/n, max_w W_w / (w + d - 1)) with w up
    to n - d, and t* = sum/n at d >= n.

    The circular window maximum W_w does not depend on d, so one pass over
    w = 1 .. n - min d serves every d: it keeps the sums of the w entries
    from each position, adds the entries shifted cyclically by w - 1 to
    step from w - 1 to w, computes W_w once per w over the rows still live,
    and updates each d with w <= n - d from it.  Every d sees the same W_w
    and the same float operations as a pass of its own, so its row is that
    pass's row bit for bit; a single design is the one-d case.

    The entries and sums are position-major, one column per trial, so each
    add and maximum runs long inner loops across the trials instead of one
    short loop per row (100 entries at n = 100).  Each window sum is the
    sequential sum of its w entries from its first, whatever the layout.

    Rows whose t* is already final are skipped.  Circular window maxima are
    subadditive, W_{a+b} <= W_a + W_b (for a + b < n), so if after step w a
    row has W_w <= best * w, then every longer window w' = q w + s
    (0 <= s < w) has W_w' <= q W_w + W_s <= best (w' + d - 1): no later step
    can raise best.  At d = 1 no row is final at w = 1, where best equals
    W_1, and generic rows are final at w = 2; a larger d takes longer
    windows before W_w <= best * w.

    A row leaves the pass once it is final for the largest d still running,
    d_top, since at any w <= n - d_top that implies it is final for every
    smaller d.  For each w' <= w and d < d_top, W_w' >= 0 and division
    rounds monotonically, so fl(W_w' / (w' + d - 1)) >=
    fl(W_w' / (w' + d_top - 1)); hence best_d >= best_d_top, and as the
    product best * fl(w (1 - m)) also rounds monotonically, a row that
    passes the test for d_top at some step passes it for d there too.  Once
    w passes n - d_top, that d is done and the next smaller d takes its
    place; rows already final for it leave at the next compaction.

    The test runs on rounded sums, so it asks for W_w <= best * w * (1 - m).
    With u = 2^-53 and g_j = j u / (1 - j u), a sequential sum of j
    non-negative entries is within g_{j-1} relative of its exact value
    (Higham, SIAM J. Sci. Comput. 14, 1993), and so is each computed W_j.
    The test and the rounded W_s / (s + d - 1) <= best at step s < w give
    W_w <= best w (1 - m)(1 + u)^2 / (1 - g) and W_s <= best (s + d - 1)
    (1 + u)^2 / (1 - g) for the exact maxima, with g = g_{w'-1}; the
    computed W_w' is at most (1 + g)(q W_w + W_s), so it is at most
    best (w' + d - 1), and the rounded W_w' / (w' + d - 1) at most best,
    when m >= (F - 1)(w' + d - 1) / (q w) with F = (1 + g)(1 + u)^2 /
    (1 - g).  As q w >= w' / 2, w' + d - 1 < n and F - 1 is about 2 w' u,
    this asks for about 4 n u, and m = 8 n u covers it at every n up to
    2^49 (barring underflow), 8.9e-14 at n = 100.  ``build_cyclic`` puts
    no upper limit on n, so the margin is taken at the n of the call.
    Skipped rows therefore keep exactly the value the full loop would give
    them.
    """
    total = demands.sum(axis=1) / n
    ds = sorted({d for d in d_values if d < n}, reverse=True)
    out = np.tile(total, (len(ds), 1))
    if ds:
        shrink = 1.0 - 8.0 * n * 2.0**-53
        x = np.ascontiguousarray(demands.T)  # one column per trial
        acc = np.zeros_like(x)  # the sums of the w entries from each position
        rows = np.arange(len(total))
        best = out.copy()
        final = np.zeros(best.shape, dtype=bool)
        d_minus_1 = np.array(ds, dtype=np.float64)[:, None] - 1.0
        top = 0  # ds[top:] are the d still running; ds[top] is d_top
        for w in range(1, n - ds[-1] + 1):
            if w > n - ds[top]:
                top += 1
            acc[: n - w + 1] += x[w - 1 :]  # the entries w - 1 positions on
            acc[n - w + 1 :] += x[: w - 1]
            wmax = acc.max(axis=0)
            live_best = best[top:]
            np.maximum(live_best, wmax / (w + d_minus_1[top:]), out=live_best)
            final[top:] |= wmax <= live_best * (w * shrink)
            done = final[top]
            if np.count_nonzero(done) >= _COMPACT_SHARE * len(done):
                out[:, rows[done]] = best[:, done]
                live = ~done
                x = np.compress(live, x, axis=1)  # one at a time, to free the old x first
                acc = np.compress(live, acc, axis=1)
                rows, best, final = rows[live], best[:, live], final[:, live]
                if not len(rows):
                    break
        out[:, rows] = best
    index = {d: i for i, d in enumerate(ds)}
    return np.stack([out[index[d]] if d in index else total for d in d_values])


# ---------------------------------------------------------------------------
# Closed-form stability conditions
# ---------------------------------------------------------------------------


def sufficient_condition(alloc: Allocation, demands, r_gap: int | None = None) -> np.ndarray:
    """Sufficient stability condition per demand row; True implies t* <= 1.

    ``demands`` is a (T, k) matrix or a (k,) row.  A family's condition is
    W_w <= bound on the circular window maximum, with (w, bound) from
    ``FAMILIES``; generic r-gap designs (pass ``r_gap``) use W_{r+1} <= d.
    """
    generic = None if r_gap is None else [(r_gap + 1, alloc.d)]
    return _condition(alloc, demands, "sufficient", generic)


def necessary_condition(alloc: Allocation, demands, r_gap: int | None = None) -> np.ndarray:
    """Necessary stability condition per demand row; False implies t* > 1.

    Same form as ``sufficient_condition``; generic r-gap designs need
    W_i <= i + 2r for every window size i in 1..n-2r.
    """
    generic = None
    if r_gap is not None:
        generic = [(i, i + 2.0 * r_gap) for i in range(1, alloc.k - 2 * r_gap + 1)]
    return _condition(alloc, demands, "necessary", generic)


def _condition(alloc: Allocation, demands, name: str, generic) -> np.ndarray:
    """Per row, whether W_w <= bound for every (w, bound) pair; w is clamped to k.

    The pair is the family's ``name`` rule, else the ``generic`` pairs.  A
    demand that is negative or not finite raises ValueError, as on every t*
    route.  The circle maxima W_w come from one ``WindowMaxima`` over all
    rows, whose floor(log2 D) + 2 buffers of T x (k + D - 1) numbers, D the
    largest window, cost time and memory at long windows: at a block design
    of d = 32 (k = 993), 2000 rows take about 36 ms and 109 MiB.  No command
    calls the conditions.
    """
    rule = getattr(FAMILIES.get(alloc.kind), name, None)
    pairs = [rule(alloc.d, alloc.r)] if rule is not None else generic
    if pairs is None:
        raise UnsupportedDesignError(f"no known {name} condition for kind {alloc.kind!r}")
    demands = _demand_rows(alloc.k, demands)
    t, k = demands.shape
    ok = np.ones(t, dtype=bool)
    if pairs:
        windows = WindowMaxima(t, k, [min(w, k) for w, _ in pairs])
        windows.entries[:] = demands
        circle = {d: circle_max for d, _, circle_max in windows.max_pairs(t)}
        for w, bound in pairs:
            ok &= circle[min(w, k)] <= bound
    return ok


# ---------------------------------------------------------------------------
# Design families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """What the package knows about one named design family.

    ``build`` constructs it from the config fields among n, d, r and m that
    its parameters name, listed in ``reads``; ``build_with`` passes them.
    ``predict(alloc)`` is the asymptotic band of its imbalance factor (small
    d for the d-choice families); ``t_star(n, d_values, demands)`` is its
    closed form, the t* of the designs (n, d) for each d over (T, k) demand
    rows, one row per d, so that its designs of one n share a
    ``shared_pass`` (None: the LP); ``sufficient`` and ``necessary`` map
    (d, r) to (window, bound), meaning W_window <= bound (None: no known
    condition).
    """

    build: Callable[..., Allocation]
    predict: Callable[[Allocation], AsymptoticPrediction]
    t_star: Optional[Callable[[int, Sequence[int], np.ndarray], np.ndarray]] = None
    sufficient: Optional[Callable[[int, int], tuple[int, float]]] = None
    necessary: Optional[Callable[[int, int], tuple[int, float]]] = None
    reads: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "reads", tuple(inspect.signature(self.build).parameters))

    def build_with(self, **fields: int) -> Allocation:
        """``build`` called with the ones of ``fields`` that it reads."""
        return self.build(**{name: fields[name] for name in self.reads})


#: The named design families.  A cyclic XOR window of D = 1 + r(d-1)
#: objects carries at most D + d - 1 demand: its primaries fit in at most D
#: nodes and each of the d - 1 recovery units costs r.
FAMILIES: dict[str, Family] = {
    "single_choice": Family(
        build=build_single_choice,
        predict=lambda a: predict_single_choice(a.n, a.k // a.n),
        t_star=_t_star_clusters,
    ),
    "clustering": Family(
        build=build_clustering,
        predict=lambda a: predict_d_choice(a.n, a.d, REGIME_SMALL_D),
        t_star=_t_star_clusters,
        sufficient=lambda d, r: (d, d),
        necessary=lambda d, r: (d + 1, 2.0 * d),
    ),
    "cyclic": Family(
        build=build_cyclic,
        predict=lambda a: predict_d_choice(a.n, a.d, REGIME_SMALL_D),
        t_star=_t_star_cyclic,
        sufficient=lambda d, r: (d, d),
        necessary=lambda d, r: (d + 1, 2.0 * d),
    ),
    "block_design": Family(
        build=build_block_design,
        predict=lambda a: predict_d_choice(a.n, a.d, REGIME_SMALL_D),
        sufficient=lambda d, r: (d, d / 2.0),
        necessary=lambda d, r: (d, d * d - 2.0 * d + 3.0),
    ),
    "cyclic_xor": Family(
        build=build_cyclic_xor,
        predict=lambda a: predict_xor(a.n, a.d, a.r, REGIME_SMALL_D),
        sufficient=lambda d, r: (1 + r * (d - 1), d),
        necessary=lambda d, r: (1 + r * (d - 1), d + r * (d - 1)),
    ),
}
