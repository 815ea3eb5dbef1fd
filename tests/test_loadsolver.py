"""Tests for the min-max load solvers and stability conditions."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storagebalance.loadsolver as ls
from storagebalance.allocation import (
    Allocation,
    UnsupportedDesignError,
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    node_expansion,
    to_matrices,
)
from storagebalance.loadsolver import (
    STABILITY_TOL,
    min_max_load,
    min_max_load_flow,
    necessary_condition,
    sufficient_condition,
    t_star_batch,
)
from storagebalance.spacings import spacing_matrix
from util import (
    NotCertified,
    certify_lp_row,
    crowded_allocation,
    dense,
    exact_t_star_clusters,
    exact_t_star_cyclic,
    exact_window_maxima,
    reference_to_matrices,
    replica_instance,
    window_maxima,
)


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------


def test_min_max_load_cyclic_example():
    split = min_max_load(to_matrices(build_cyclic(3, 2)), [2.0, 1.0, 0.0])
    assert split.max_load == pytest.approx(1.0, abs=1e-9)
    assert np.all(split.portions >= -1e-12)


def test_min_max_load_full_replication():
    split = min_max_load(to_matrices(build_cyclic(3, 3)), [3.0, 0.0, 0.0])
    assert split.max_load == pytest.approx(1.0, abs=1e-9)


def test_min_max_load_single_choice():
    split = min_max_load(to_matrices(build_single_choice(3, 1)), [0.2, 0.5, 0.9])
    assert split.max_load == pytest.approx(0.9, abs=1e-12)


def test_min_max_load_rejects_bad_input():
    m = to_matrices(build_cyclic(3, 2))
    with pytest.raises(ValueError):
        min_max_load(m, [1.0, 2.0])
    with pytest.raises(ValueError):
        min_max_load(m, [1.0, -0.5, 0.0])
    # not a solver fault: a non-finite demand is bad input on either LP route
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="demands must be finite and non-negative"):
            min_max_load(m, [1.0, bad, 0.0])
        with pytest.raises(ValueError, match="demands must be finite and non-negative"):
            t_star_batch(build_block_design(3), [bad] + [1.0] * 6)


@pytest.mark.parametrize(
    "alloc, row",
    [
        (build_cyclic(5, 2), [1.0, np.nan, 0.0, 0.0, 0.0]),
        (build_cyclic(5, 2), [1.0, -3.0, 0.0, 0.0, 0.0]),
        (build_clustering(4, 2), [1.0, np.inf, 0.0, 0.0]),
    ],
    ids=["cyclic-nan", "cyclic-negative", "clustering-inf"],
)
def test_closed_form_route_rejects_bad_demands(alloc, row):
    # the same rule as the LP route and the flow oracle, checked by the pass
    with pytest.raises(ValueError, match="demands must be finite and non-negative"):
        t_star_batch(alloc, row)
    with pytest.raises(ValueError, match="demands must be finite and non-negative"):
        ls.shared_pass([alloc], np.array([row]))


def test_load_split_consistency():
    m = to_matrices(build_cyclic(5, 2))
    M, T = dense(m)
    rho = np.array([1.0, 0.3, 0.0, 0.7, 0.5])
    split = min_max_load(m, rho)
    assert np.allclose(T @ split.portions, rho, atol=1e-9)
    assert np.allclose(split.node_loads, M @ split.portions)
    assert split.max_load == split.node_loads.max()


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=20, deadline=None)
def test_scale_linearity(c):
    m = to_matrices(build_cyclic(4, 2))
    rho = np.array([1.3, 0.2, 0.0, 0.9])
    base = min_max_load(m, rho).max_load
    scaled = min_max_load(m, c * rho).max_load
    assert scaled == pytest.approx(c * base, rel=1e-7)


def test_lp_stability_verdict():
    m = to_matrices(build_cyclic(3, 2))
    assert min_max_load(m, [2.0, 1.0, 0.0]).max_load <= 1 + STABILITY_TOL
    assert min_max_load(m, [3.0, 3.0, 0.0]).max_load > 1 + STABILITY_TOL


def test_convexity_probe():
    # midpoints of stable demand pairs stay stable (capacity region is convex)
    alloc = build_cyclic(6, 2)
    m = to_matrices(alloc)
    rng = np.random.default_rng(17)
    stable_points = []
    while len(stable_points) < 8:
        e = rng.standard_exponential(6)
        rho = e / e.sum() * 4.5
        if min_max_load(m, rho).max_load <= 1 + STABILITY_TOL:
            stable_points.append(rho)
    for a, b in zip(stable_points[::2], stable_points[1::2]):
        mid = 0.5 * (a + b)
        assert min_max_load(m, mid).max_load <= 1 + 1e-8


def test_monotone_expansion_in_d():
    # more choices can only reduce the optimal max load (paired demands)
    rng = np.random.default_rng(3)
    for n in (5, 8):
        e = rng.standard_exponential(n)
        rho = e / e.sum() * 0.9 * n
        prev = None
        for d in range(1, n + 1):
            t = min_max_load(to_matrices(build_cyclic(n, d)), rho).max_load
            if prev is not None:
                assert t <= prev + 1e-9
            prev = t


def test_imbalance_factor_examples():
    # imbalance factor: optimal max load over its perfect-balance value sum/n
    for alloc, rho, imbalance in [
        (build_cyclic(4, 4), [1.0, 0.5, 0.2, 0.1], 1.0),
        (build_single_choice(2, 1), [0.75, 0.25], 1.5),
        (build_cyclic(3, 2), [2.0, 1.0, 0.0], 1.0),
    ]:
        t_star = min_max_load(to_matrices(alloc), rho).max_load
        assert t_star * alloc.n / sum(rho) == pytest.approx(imbalance, rel=1e-9)


def test_xor_grid_search_oracle():
    # 3-node XOR system, rho = (1,1,1): exhaustive grid over the three free
    # primary fractions; XOR remainders hit both nodes of the pair.
    m = to_matrices(build_cyclic_xor(3, 2, 2))
    lp = min_max_load(m, [1.0, 1.0, 1.0]).max_load
    grid = np.linspace(0.0, 1.0, 201)
    a1, b1, c1 = np.meshgrid(grid, grid, grid, indexing="ij", sparse=True)
    a2, b2, c2 = 1 - a1, 1 - b1, 1 - c1
    n1 = a1 + b2 + c2
    n2 = a2 + b1 + c2
    n3 = a2 + b2 + c1
    best = np.minimum(np.minimum(np.maximum(np.maximum(n1, n2), n3).min(), np.inf), np.inf)
    assert lp == pytest.approx(float(best), abs=1e-3)


# ---------------------------------------------------------------------------
# flow oracle
# ---------------------------------------------------------------------------


def _certifies(alloc, rho, t_lp) -> bool:
    """Whether rho(S) / |N(S)|, for the flow oracle's binding set S, meets the
    LP's t* within 1e-9 max(1, t*): a check of the LP that does not use it."""
    S = ls._binding_set(alloc, rho)
    return abs(t_lp - rho[S].sum() / node_expansion(alloc, S)) <= 1e-9 * max(1.0, t_lp)


def test_flow_oracle_matches_lp_basic():
    # t* = 1 is the ratio of {0}, {0, 1} and {0, 1, 2} alike, exactly in floats
    alloc = build_cyclic(3, 2)
    rho = np.array([2.0, 1.0, 0.0])
    assert min_max_load_flow(alloc, rho) == 1.0
    assert min_max_load_flow(alloc, np.zeros(3)) == 0.0


def test_flow_oracle_rejects_xor():
    with pytest.raises(UnsupportedDesignError):
        min_max_load_flow(build_cyclic_xor(7, 3, 2), np.ones(7))


def test_flow_oracle_rejects_bad_input():
    alloc = build_cyclic(3, 2)
    with pytest.raises(ValueError, match="length"):
        min_max_load_flow(alloc, [1.0, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        min_max_load_flow(alloc, [1.0, -0.5, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="demands must be finite and non-negative"):
            min_max_load_flow(alloc, [1.0, bad, 0.0])


def test_flow_oracle_random_agreement():
    # 120 instances of the acceptance suite's three replica families here;
    # its 1000-instance sweep runs there.
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(120):
        alloc, rho = replica_instance(rng, i % 3)
        t_lp = min_max_load(to_matrices(alloc), rho).max_load
        worst = max(worst, abs(t_lp - min_max_load_flow(alloc, rho)))
        assert _certifies(alloc, rho, t_lp)
    assert worst <= 1e-7


# ---------------------------------------------------------------------------
# batch LP route
# ---------------------------------------------------------------------------

_LP_DESIGNS = {
    "block_design_d3": build_block_design(3),
    "block_design_d4": build_block_design(4),
    "block_design_d5": build_block_design(5),
    "cyclic_xor_r2": build_cyclic_xor(15, 3, 2),
    "cyclic_xor_r3": build_cyclic_xor(16, 3, 3),
    "crowded": crowded_allocation(),
}


@pytest.mark.parametrize("name", sorted(_LP_DESIGNS))
def test_block_lp_matches_row_lp(name, monkeypatch):
    alloc = _LP_DESIGNS[name]
    demands = spacing_matrix(alloc.k, 0.8 * alloc.n, 41, 35)
    m = to_matrices(alloc)
    rows = np.array([min_max_load(m, rho).max_load for rho in demands])
    # the flow oracle is independent of the LP; it covers replica designs only
    flows = np.array([min_max_load_flow(alloc, rho) for rho in demands]) if alloc.r == 1 else None
    full = t_star_batch(alloc, demands)
    built = []

    class Counting(ls._EpigraphLP):
        def __init__(self, matrices):
            built.append(None)
            super().__init__(matrices)

    def forbidden(*args):
        raise AssertionError("the LP route must not solve row by row")

    monkeypatch.setattr(ls, "_EpigraphLP", Counting)
    monkeypatch.setattr(ls, "min_max_load", forbidden)
    for trials in (1, 15, 16, 17, 35):
        built.clear()
        t = t_star_batch(alloc, demands[:trials])
        assert np.max(np.abs(t - rows[:trials])) <= 1e-9 * max(1.0, rows.max())
        if flows is not None:
            assert np.max(np.abs(t - flows[:trials])) <= 1e-7
        # one model (one HiGHS instance) per call, re-solved row after row:
        # a row's bits depend only on the rows before it
        assert len(built) == 1
        assert t.tobytes() == full[:trials].tobytes()


def test_lp_row_bits_do_not_depend_on_the_batch_size():
    # the first 25 rows of both batches start from the same bases, and each
    # row's node loads are summed on their own, in portion order
    alloc = build_cyclic_xor(21, 5, 2)
    demands = spacing_matrix(alloc.k, 16.8, 1, 200)
    assert t_star_batch(alloc, demands[:25]).tobytes() == t_star_batch(alloc, demands)[:25].tobytes()


def _hot_start_hazards(k, sigma, seed):
    """Spacing rows, each followed by a degenerate row, then the degenerate
    rows back to back in both orders.

    The degenerate rows are all-equal, one-hot, zero but the last entry,
    and alternating zeros, each scaled to sum sigma.
    """
    degenerate = np.zeros((4, k))
    degenerate[0] = 1.0
    degenerate[1, 0] = 1.0
    degenerate[2, -1] = 1.0
    degenerate[3, ::2] = 1.0
    degenerate *= sigma / degenerate.sum(axis=1, keepdims=True)
    spacings = spacing_matrix(k, sigma, seed, 12)
    interleaved = np.stack([spacings, degenerate[np.arange(12) % 4]], axis=1).reshape(24, k)
    return np.vstack([interleaved, degenerate, degenerate[::-1]])


@pytest.mark.parametrize("name", sorted(_LP_DESIGNS))
def test_hot_started_rows_match_cold_solves(name):
    # each row of one batch starts from the basis of the row before it
    alloc = _LP_DESIGNS[name]
    demands = _hot_start_hazards(alloc.k, 0.8 * alloc.n, 43)
    hot = t_star_batch(alloc, demands)
    m = to_matrices(alloc)
    cold = np.array([min_max_load(m, rho).max_load for rho in demands])
    assert np.all(np.abs(hot - cold) <= 1e-9 * np.maximum(1.0, hot))
    if alloc.r == 1:
        flows = np.array([min_max_load_flow(alloc, rho) for rho in demands])
        assert np.max(np.abs(hot - flows)) <= 1e-7
        assert all(_certifies(alloc, rho, t) for rho, t in zip(demands, cold))


#: How far a float t* of the LP route may lie from its exact optimum,
#: relative; the worst of 232 rows of each ``_LP_DESIGNS`` design was 4e-14
#: off, and 2.2e-13 with HiGHS's default pricing on every model.
EXACT_RTOL = 1e-12


@pytest.mark.parametrize("name", sorted(_LP_DESIGNS))
def test_lp_rows_are_certified_in_exact_arithmetic(name):
    # each row solved in order on one model, as t_star_batch solves it, and
    # proven optimal over rationals from the basis HiGHS ended on
    alloc = _LP_DESIGNS[name]
    demands = _hot_start_hazards(alloc.k, 0.8 * alloc.n, 43)
    m = to_matrices(alloc)
    lp = ls._EpigraphLP(m)
    floats, failures = [], []
    for j, rho in enumerate(demands):
        t = lp.solve(rho[None, :])[1].max()
        floats.append(t)
        try:
            exact = certify_lp_row(m, rho, lp._highs.getBasis())
        except NotCertified as exc:
            failures.append(f"row {j}: {exc}")
            continue
        if abs(Fraction(float(t)) - exact) > EXACT_RTOL * exact:
            failures.append(f"row {j}: t* {t!r} is {float(abs(t - exact) / exact):.1e} off")
    assert failures == []
    assert np.array(floats).tobytes() == t_star_batch(alloc, demands).tobytes()


def test_the_certifier_proves_only_optimal_bases():
    # bases that are not optimal for their row, from the primal simplex
    # stopped early (infeasible, or feasible with an infeasible dual) and
    # from the uniform row at a one-hot row; each check turns some away
    alloc = build_cyclic_xor(15, 3, 2)
    m = to_matrices(alloc)
    rho = spacing_matrix(alloc.k, 0.8 * alloc.n, 43, 1)[0]
    optimal = ls._highs_core().HighsModelStatus.kOptimal
    rejected, certified = set(), 0
    for limit in range(0, 60, 3):
        highs = ls._EpigraphLP(m)._highs
        highs.setOptionValue("simplex_strategy", 4)  # primal simplex
        highs.setOptionValue("simplex_iteration_limit", limit)
        for j, value in enumerate(rho):
            highs.changeRowBounds(alloc.n + j, value, value)
        highs.run()
        try:
            exact = certify_lp_row(m, rho, highs.getBasis())
        except NotCertified as exc:
            assert highs.getModelStatus() != optimal
            rejected.add(str(exc).split(" has ")[-1])
        else:
            # a stop at the limit can already hold an optimal basis
            assert abs(Fraction(float(t_star_batch(alloc, rho)[0])) - exact) <= EXACT_RTOL * exact
            certified += 1
    lp = ls._EpigraphLP(m)
    lp.solve(np.full((1, alloc.k), 0.8))
    with pytest.raises(NotCertified) as exc:
        certify_lp_row(m, 12.0 * np.eye(alloc.k)[0], lp._highs.getBasis())
    rejected.add(str(exc.value))
    assert certified > 0
    assert rejected == {
        "a basic column is negative",
        "a row the basis leaves free is violated",
        "a node row's dual is positive",
        "a negative reduced cost",
    }


def test_small_models_price_by_dantzig_and_large_ones_keep_highs_defaults():
    options = ("simplex_dual_edge_weight_strategy", "simplex_update_limit")

    def read_back(highs):
        return tuple(highs.getOptionValue(option)[1] for option in options)

    default = read_back(ls._highs_core()._Highs())
    n = ls._DANTZIG_MAX_ROWS // 2  # cyclic_xor has n + k = 2 n model rows
    for alloc, expected in (
        (build_block_design(3), (0, 20)),
        (build_cyclic_xor(n, 3, 2), (0, 20)),
        (build_cyclic_xor(n + 1, 3, 2), default),
        (crowded_allocation(), default),
    ):
        assert read_back(ls._EpigraphLP(to_matrices(alloc))._highs) == expected
    assert default[0] != 0 and default[1] != 20


def test_a_long_chunk_on_a_small_model_conserves_demand_closely():
    # at the crossover, 48 model rows; Dantzig pricing with HiGHS's default
    # update limit left row 110 of this chunk 3e-11 off
    alloc = build_cyclic_xor(ls._DANTZIG_MAX_ROWS // 2, 3, 2)
    m = to_matrices(alloc)
    demands = spacing_matrix(alloc.k, 0.8 * alloc.k, 1, 2000)
    x, _ = ls._EpigraphLP(m).solve(demands)
    served = x @ dense(m)[1].T
    assert np.abs(served - demands).max() <= 1e-12 * max(1.0, demands.max())


def test_an_option_highs_refuses_is_an_internal_fault(monkeypatch):
    core = ls._highs_core()

    class Misspelt(core._Highs):
        def setOptionValue(self, option, value):
            return super().setOptionValue(option.replace("presolve", "presolv"), value)

    monkeypatch.setattr(core, "_Highs", Misspelt)
    with pytest.raises(RuntimeError, match="HiGHS option presolve: HighsStatus.kError"):
        t_star_batch(build_block_design(3), np.full(7, 0.8))


def test_lp_counts_a_node_named_twice_once():
    # object 0's second choice names node 2 twice and lists its nodes out of
    # order; the reference table, built from the tuples, names it once
    sets = (((0,), (2, 1, 2)), ((1,), (2, 0)), ((2,), (0, 1)))
    alloc = Allocation(n=3, k=3, d=2, r=2, kind="custom", recovery_sets=sets)
    demands = np.array([[2.4, 0.3, 0.1], [1.8, 0.0, 0.9], *spacing_matrix(3, 2.4, 44, 10)])
    m = reference_to_matrices(alloc)
    for rho in demands:
        assert t_star_batch(alloc, rho)[0] == min_max_load(m, rho).max_load


def test_lp_memory_grows_with_the_portions():
    # dense M and T would hold (n + k) * portions = 6e6 entries here, 48 MB as float64
    alloc = build_cyclic_xor(1000, 3, 2)
    demands = spacing_matrix(alloc.k, 800.0, 45, 2)
    tracemalloc.start()
    try:
        t_star_batch(alloc, demands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


#: Loads HiGHS's core module through ``_highs_core`` in a fresh process, its
#: file lookup made to miss if asked, and prints what the solver needs of it.
_LOAD_HIGHS_CORE = (
    "import importlib.machinery, json, sys\n"
    "if sys.argv[1] == 'miss':\n"
    "    importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']\n"
    "from storagebalance.loadsolver import _highs_core\n"
    "core = _highs_core()\n"
    "print(json.dumps({\n"
    "    'names': [name for name in ('HighsLp', 'MatrixFormat', '_Highs', 'kHighsInf',\n"
    "                                'HighsModelStatus') if hasattr(core, name)],\n"
    "    'registered': sys.modules['scipy.optimize._highspy._core'] is core,\n"
    "    'optimize': 'scipy.optimize' in sys.modules,\n"
    "}))\n"
)


@pytest.mark.parametrize("lookup", ["file", "miss"])
def test_highs_core_loads_by_file_or_by_import(lookup):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_HIGHS_CORE, lookup],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["names"] == ["HighsLp", "MatrixFormat", "_Highs", "kHighsInf", "HighsModelStatus"]
    assert loaded["registered"]
    # only the plain import runs scipy/optimize/__init__.py
    assert loaded["optimize"] == (lookup == "miss")


# ---------------------------------------------------------------------------
# closed-form fast paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: build_single_choice(int(rng.integers(2, 7)), int(rng.integers(1, 4))),
        lambda rng: (lambda d: build_clustering(d * int(rng.integers(1, 5)), d))(
            int(rng.integers(1, 5))
        ),
        lambda rng: (lambda n: build_cyclic(n, int(rng.integers(1, n + 1))))(
            int(rng.integers(3, 13))
        ),
    ],
    ids=["single_choice", "clustering", "cyclic"],
)
def test_closed_forms_match_lp(build):
    rng = np.random.default_rng(21)
    for _ in range(40):
        alloc = build(rng)
        e = rng.standard_exponential(alloc.k)
        rho = e / e.sum() * float(rng.uniform(0.2, 1.6)) * alloc.n
        fast = t_star_batch(alloc, rho)[0]
        lp = min_max_load(to_matrices(alloc), rho).max_load
        assert fast == pytest.approx(lp, abs=1e-8)


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("d", [2, 5])
def test_cyclic_closed_form_matches_lp_at_larger_n(n, d):
    # The last two rows load an arc of 3n/4 objects that wraps past the last
    # one nearly evenly, so the binding window is long and crosses the end.
    alloc = build_cyclic(n, d)
    demands = spacing_matrix(n, 0.8 * n, 17, 4)
    arc = np.roll(np.arange(n) < 3 * n // 4, -n // 2)
    demands[2:] = np.where(arc, 1.0 + 0.1 * demands[2:], 0.02)
    matrices = to_matrices(alloc)
    lp = [min_max_load(matrices, row).max_load for row in demands]
    assert np.abs(t_star_batch(alloc, demands) - lp).max() <= 1e-8


def _t_star_cyclic_unpruned(n, d, demands):
    """The cyclic closed form of one (n, d) with every window size run for every row."""
    best = demands.sum(axis=1) / n
    if d >= n:
        return best
    sums = np.zeros_like(demands)  # the sums of the w entries from each position
    for w in range(1, n - d + 1):
        sums += np.roll(demands, 1 - w, axis=1)
        np.maximum(best, sums.max(axis=1) / (w + d - 1), out=best)
    return best


def _adversarial_rows(rng, n, d, sigma):
    """Demand rows whose window ratios tie or differ only in the last bits.

    Spacings, near-uniform rows 1 + eps * noise, exact ties, one-hot rows,
    rows with many zeros and d-periodic rows, each scaled to sum sigma (an
    all-zero row stays zero).
    """
    rows = [rng.standard_exponential((3, n))]
    for eps in (1e-15, 1e-13, 1e-10, 1e-6):
        rows.append(1.0 + eps * rng.standard_normal((2, n)))
    ties = np.ones((3, n))
    ties[1, ::2] = 2.0
    ties[2, : max(1, n // 3)] = 3.0
    one_hot = np.zeros((2, n))
    one_hot[0, 0] = one_hot[1, rng.integers(n)] = 1.0
    zeros = rng.standard_exponential((2, n)) * (rng.random((2, n)) < 0.3)
    period = np.stack(
        [np.resize(rng.standard_exponential(d), n), np.resize(np.eye(1, d)[0], n)]
    )
    rows = np.vstack(rows + [ties, one_hot, zeros, period])
    total = rows.sum(axis=1, keepdims=True)
    return rows * np.divide(sigma, total, out=np.zeros_like(total), where=total > 0)


def _assert_pass_equals_unpruned(n, d_values, demands):
    """Every d's row of one pass equals the unpruned loop byte for byte."""
    want = {d: _t_star_cyclic_unpruned(n, d, demands).tobytes() for d in d_values}
    got = ls._t_star_cyclic(n, d_values, demands)
    assert [row.tobytes() for row in got] == [want[d] for d in d_values]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cyclic_kernel_equals_unpruned_loop(data):
    n = data.draw(st.integers(min_value=2, max_value=400), label="n")
    d_values = data.draw(
        st.lists(
            st.one_of(st.integers(1, n), st.sampled_from([n - 1, n, n + 1, 2 * n])),
            min_size=1,
            max_size=5,
        ),
        label="d values",
    )
    d_values.append(d_values[0])  # a duplicate d
    sigma = 10.0 ** data.draw(st.floats(min_value=-6.0, max_value=6.0), label="log10 sigma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rows seed"))
    demands = _adversarial_rows(rng, n, min(d_values[0], n), sigma)
    _assert_pass_equals_unpruned(n, d_values, demands)


def test_cyclic_kernel_equals_unpruned_loop_at_n_3000():
    demands = _adversarial_rows(np.random.default_rng(30), 3000, 3, 2400.0)
    _assert_pass_equals_unpruned(3000, [3, 2, 3, 3001], demands)


#: Unit roundoff of float64.
_U = 2.0**-53


def _assert_within_exact(fast, exact, budget):
    """|fast - exact| <= budget * exact, in exact arithmetic."""
    got = Fraction(float(fast))
    assert abs(got - exact) <= Fraction(budget) * exact, (float(got), float(exact))


@pytest.mark.parametrize("n", [5, 12, 40, 100])
def test_cyclic_t_star_is_within_its_error_budget_of_the_exact_value(n):
    # Spacing rows, which the kernel's pruning drops after two window sizes
    # at d = 1; rows that tie or differ only in their last bits; and rows
    # whose binding window is long and wraps past the last object.  The
    # budget follows the kernel's error analysis: a sum of j >= 1 demands,
    # in any order, is within (j - 1) u / (1 - (j - 1) u) relative of its
    # exact value, and one division adds u, which (n + 1) u covers at n <= 100.
    d_values = [d for d in range(1, 6) if d <= n]
    rng = np.random.default_rng(n)
    arc = np.where(np.roll(np.arange(n) < 3 * n // 4, -n // 2), 1.0 + 0.1 * rng.random((3, n)), 0.02)
    demands = np.vstack([
        spacing_matrix(n, 0.8 * n, 23, 24),
        _adversarial_rows(rng, n, 2, 0.8 * n),
        arc * (0.8 * n / arc.sum(axis=1, keepdims=True)),
    ])
    allocs = [build_cyclic(n, d) for d in d_values]
    solved = ls.shared_pass(allocs, demands)
    fast = [t_star_batch(alloc, demands, solved) for alloc in allocs]
    budget = (n + 1) * _U
    for j, row in enumerate(demands):
        for t_stars, exact in zip(fast, exact_t_star_cyclic(n, d_values, row)):
            _assert_within_exact(t_stars[j], exact, budget)


@pytest.mark.parametrize("n", [12, 20, 60])
def test_cluster_t_star_is_within_rounding_of_the_exact_value(n):
    # clustering at every d in 1..5 that divides n, and single choice with
    # m objects a node, all with k = n; a cluster of c objects sums with
    # relative error at most (c - 1) u and divides with one more rounding
    allocs = [build_clustering(n, d) for d in range(1, 6) if n % d == 0]
    allocs += [build_single_choice(n // m, m) for m in (1, 2, 3, 4) if n % m == 0]
    rng = np.random.default_rng(n)
    demands = np.vstack([spacing_matrix(n, 0.8 * n, 29, 24), _adversarial_rows(rng, n, 3, 0.8 * n)])
    solved = ls.shared_pass(allocs, demands)
    for alloc in allocs:
        fast = t_star_batch(alloc, demands, solved)
        cluster = alloc.k * alloc.d // alloc.n
        for j, row in enumerate(demands):
            _assert_within_exact(fast[j], exact_t_star_clusters(alloc, row), (cluster + 1) * _U)


def test_cyclic_kernel_skips_final_rows(monkeypatch):
    import storagebalance.loadsolver as loadsolver_mod

    handed = []

    class CountingNumpy:
        """numpy, but counting the live trials each step raises best over."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def maximum(best, ratios, out):
            handed.append(best.shape[1])
            return np.maximum(best, ratios, out=out)

    monkeypatch.setattr(loadsolver_mod, "np", CountingNumpy())
    n, trials = 100, 1000
    demands = spacing_matrix(n, 0.8 * n, 5, trials)
    alone = {}
    for d in range(1, 6):
        handed.clear()
        alloc = build_cyclic(n, d)
        got = t_star_batch(alloc, demands)
        assert got.tobytes() == _t_star_cyclic_unpruned(n, d, demands).tobytes()
        alone[d] = sum(handed)
    # the full loop reduces trials * (n - d) rows
    assert alone[1] <= 2 * trials  # every row live at w = 1, final at w = 2
    assert alone[3] < trials * (n - 3) / 5
    # one pass for d = 1..5 leaves a row once it is final for d = 5, so it
    # reduces about what d = 5 alone does, not the sum over all d
    handed.clear()
    allocs = [build_cyclic(n, d) for d in range(1, 6)]
    solved = ls.shared_pass(allocs, demands)
    for alloc in allocs:
        assert t_star_batch(alloc, demands, solved).tobytes() == (
            _t_star_cyclic_unpruned(n, alloc.d, demands).tobytes()
        )
    assert sum(handed) <= 1.1 * alone[5] < 0.6 * sum(alone.values())


def test_cyclic_kernel_memory_stays_within_a_few_copies_of_its_demands():
    # the entries and their window sums are one copy each, and a compaction
    # copies them one at a time: 2.75 copies here, where the prefix-sum
    # route's position-major sums and the window sums cut from them held 3.45
    n, trials = 300, 2000
    demands = spacing_matrix(n, 0.8 * n, 1801, trials)
    tracemalloc.start()
    try:
        ls._t_star_cyclic(n, [1, 2, 3, 4, 5], demands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * demands.nbytes


def test_t_star_batch_reads_only_a_pass_that_covers_it():
    demands = spacing_matrix(12, 9.0, 3, 40)
    clusters = build_clustering(12, 3)
    solved = ls.shared_pass([build_cyclic(12, 2), clusters], demands)
    assert np.array_equal(t_star_batch(build_cyclic(12, 2), demands, solved),
                          t_star_batch(build_cyclic(12, 2), demands))
    with pytest.raises(ValueError, match="does not cover cyclic n=12 d=3"):
        t_star_batch(build_cyclic(12, 3), demands, solved)
    with pytest.raises(ValueError, match="other demand rows"):
        t_star_batch(build_cyclic(12, 2), demands.copy(), solved)
    # a clustering design reads its row of the same pass
    assert np.array_equal(t_star_batch(clusters, demands, solved), t_star_batch(clusters, demands))


def _t_star_clusters_per_design(alloc, demands):
    """The cluster closed form of one design, solved on its own: max cluster sum / d."""
    n, d = alloc.n, alloc.d
    clusters = demands.reshape(demands.shape[0], n // d, alloc.k * d // n)
    sums = clusters[:, :, 0] if clusters.shape[2] == 1 else clusters.sum(axis=2)
    return sums.max(axis=1) / d


def test_cluster_pass_equals_per_design_kernel():
    # clustering n = 60 and single_choice n = 20, m = 3 both have k = 60
    allocs = [build_clustering(60, d) for d in range(1, 7)] + [build_single_choice(20, 3)]
    demands = spacing_matrix(60, 48.0, 11, 500)
    solved = ls.shared_pass(allocs, demands)
    for alloc in allocs:
        assert t_star_batch(alloc, demands, solved).tobytes() == (
            _t_star_clusters_per_design(alloc, demands).tobytes()
        )


def test_single_choice_lookup_checks_k():
    # single_choice designs of one n share the key (kind, n, 1) whatever their m
    demands = spacing_matrix(20, 8.0, 12, 30)
    solved = ls.shared_pass([build_single_choice(10, 2)], demands)
    with pytest.raises(ValueError, match="length k=30"):
        t_star_batch(build_single_choice(10, 3), demands, solved)


def test_shared_pass_rejects_a_design_of_another_k_before_any_kernel(monkeypatch):
    import dataclasses

    family = ls.FAMILIES["single_choice"]

    def no_kernel(*args):
        raise AssertionError("ran a kernel")

    monkeypatch.setitem(ls.FAMILIES, "single_choice", dataclasses.replace(family, t_star=no_kernel))
    allocs = [build_single_choice(10, 2), build_single_choice(10, 3)]
    with pytest.raises(ValueError, match="length k=30"):
        ls.shared_pass(allocs, np.ones((4, 20)))


def test_a_chunk_with_an_lp_design_checks_its_demand_rows_once(monkeypatch):
    # the pass checks the chunk; the LP route solves the rows it checked
    checked, solved_rows = [], []
    real_check, real_solve = ls._demand_rows, ls._EpigraphLP.solve

    def counting_check(k, demands, ndim=2):
        checked.append(k)
        return real_check(k, demands, ndim)

    def recording_solve(self, rows):
        solved_rows.append(rows)
        return real_solve(self, rows)

    monkeypatch.setattr(ls, "_demand_rows", counting_check)
    monkeypatch.setattr(ls._EpigraphLP, "solve", recording_solve)
    allocs = [build_cyclic(7, 3), build_block_design(3)]
    demands = spacing_matrix(7, 5.6, 4, 30)
    solved = ls.shared_pass(allocs, demands)
    got = [t_star_batch(alloc, demands, solved) for alloc in allocs]
    assert checked == [7]
    assert len(solved_rows) == 1 and solved_rows[0] is solved.checked
    m = to_matrices(allocs[1])
    assert got[1] == pytest.approx([min_max_load(m, row).max_load for row in demands], abs=1e-9)


@pytest.mark.parametrize(
    "sets, message",
    [
        ((((0,), ()), ((1,), ())), "object 0: has a choice with no node"),
        ((((0,), (1,)), ((1,), ())), "object 1: has a choice with no node"),
        ((((0,), (1,)), ()), "object 1: has no choice"),
    ],
    ids=["empty-choice", "one-empty-choice", "no-choice"],
)
def test_both_oracles_reject_an_object_no_node_can_serve(sets, message, tmp_path, capsys):
    from storagebalance import cli
    from storagebalance.allocation import save_allocation

    alloc = Allocation(n=2, k=2, d=2, r=1, kind="custom", recovery_sets=sets)
    # the LP would route demand through an empty choice, which loads no node
    with pytest.raises(ValueError, match=message):
        t_star_batch(alloc, [1.0, 1.0])
    with pytest.raises(ValueError, match=message):
        min_max_load(to_matrices(alloc), [1.0, 1.0])
    with pytest.raises(ValueError, match=message):
        min_max_load_flow(alloc, [1.0, 1.0])
    # inspect lists such a design's violations rather than failing
    path = tmp_path / "alloc.json"
    save_allocation(alloc, str(path))
    assert cli.main(["inspect", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["violations"]


def test_t_star_batch_block_design_uses_lp():
    alloc = build_block_design(3)
    rng = np.random.default_rng(5)
    demands = rng.standard_exponential((4, 7))
    demands /= demands.sum(axis=1, keepdims=True) / 4.0
    batch = t_star_batch(alloc, demands)
    m = to_matrices(alloc)
    for row, t in zip(demands, batch):
        assert t == pytest.approx(min_max_load(m, row).max_load, abs=1e-9)


# ---------------------------------------------------------------------------
# stability conditions
# ---------------------------------------------------------------------------


def unit_sample(values, sigma):
    arr = np.asarray(values, dtype=np.float64)
    return arr * (sigma / arr.sum())


def test_sufficient_condition_thresholds():
    alloc = build_cyclic(6, 3)
    flat = unit_sample(np.ones(6), 5.4)  # every 3-window sums to 2.7 <= 3
    assert sufficient_condition(alloc, flat)[0]
    spiky = unit_sample([10, 1, 1, 1, 1, 1], 6.0)  # window max 4.8 > 3
    assert not sufficient_condition(alloc, spiky)[0]


def test_block_design_condition_thresholds():
    alloc = build_block_design(3)
    ok = unit_sample(np.ones(7), 3.0)  # 3-window = 9/7 <= 1.5
    assert sufficient_condition(alloc, ok)[0]
    # 3-window demand 2 exceeds d/2 = 1.5
    bad = unit_sample([2, 0, 0, 0.5, 0.5, 0.5, 0.5], 4.0)
    assert not sufficient_condition(alloc, bad)[0]
    # necessary threshold d^2 - 2d + 3 = 6
    assert necessary_condition(alloc, ok)[0]
    assert not necessary_condition(alloc, unit_sample([7, 0, 0, 0, 0, 0, 0], 7.0))[0]


def test_necessary_condition_cyclic_variants():
    alloc = build_cyclic(8, 3)
    s = unit_sample([6.5, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.3], 8.0)
    # window-4 max 7.1 > 2d = 6 -> stated variant rejects
    assert not necessary_condition(alloc, s)[0]
    # window-3 max 6.9 > 2d-1 = 5 -> proof-sketch variant W_d <= 2d - 1 rejects too
    assert window_maxima(s, 3, circle=True) > 5.0


@pytest.mark.parametrize(
    "alloc",
    [
        build_cyclic(12, 3),
        build_clustering(12, 3),
        build_block_design(3),
        build_cyclic_xor(12, 3, 2),
        build_single_choice(12, 1),
    ],
    ids=lambda a: a.kind,
)
def test_conditions_return_one_bool_per_row(alloc):
    # a (T, k) batch gives the rows' verdicts; a (k,) row gives one verdict
    r_gap = 0 if alloc.kind == "single_choice" else None
    demands = spacing_matrix(alloc.k, 0.8 * alloc.n, 31, 50)
    for condition in (sufficient_condition, necessary_condition):
        batch = condition(alloc, demands, r_gap=r_gap)
        assert batch.dtype == bool and batch.shape == (50,)
        rows = [condition(alloc, row, r_gap=r_gap) for row in demands]
        assert all(row.shape == (1,) for row in rows)
        assert batch.tolist() == [bool(row[0]) for row in rows]
        with pytest.raises(ValueError):
            condition(alloc, demands[:, 1:], r_gap=r_gap)


def test_conditions_vanishing_load():
    alloc = build_clustering(9, 3)
    tiny = spacing_matrix(9, 1e-6, 4, 1)[0]
    assert sufficient_condition(alloc, tiny)[0]
    assert necessary_condition(alloc, tiny)[0]


def test_conditions_unsupported_kind():
    alloc = build_single_choice(4, 1)
    s = spacing_matrix(4, 1.0, 0, 1)[0]
    with pytest.raises(UnsupportedDesignError):
        sufficient_condition(alloc, s)
    with pytest.raises(UnsupportedDesignError):
        necessary_condition(alloc, s)
    # generic r-gap form applies when a radius is supplied
    assert sufficient_condition(alloc, s, r_gap=0).dtype == bool
    assert necessary_condition(alloc, s, r_gap=0).dtype == bool


@pytest.mark.parametrize("bad", [-3.0, np.nan, np.inf])
def test_conditions_reject_bad_demands(bad):
    # a negative demand was judged stable, and a NaN or inf row unstable,
    # without a word
    alloc = build_cyclic(5, 2)
    row = [1.0, bad, 0.0, 0.0, 0.0]
    for condition in (sufficient_condition, necessary_condition):
        with pytest.raises(ValueError, match="finite and non-negative"):
            condition(alloc, row)
        with pytest.raises(ValueError, match="finite and non-negative"):
            condition(alloc, [[0.5] * 5, row])


def test_xor_condition_window():
    alloc = build_cyclic_xor(12, 3, 2)
    flat = unit_sample(np.ones(12), 7.0)  # 5-window = 35/12 < 3
    assert sufficient_condition(alloc, flat)[0]
    assert necessary_condition(alloc, flat)[0]


def test_xor_window_capacity_is_tight():
    # A window of D = 1 + r(d-1) consecutive objects carries up to
    # D + d - 1 demand (primaries saturated plus d - 1 recovery units in
    # the trailing fresh nodes) and no more; the necessary threshold is
    # pinned to that capacity, not to 2d.
    alloc = build_cyclic_xor(12, 3, 2)
    m = to_matrices(alloc)
    cap = 5 + 3 - 1  # = 7 > 2d = 6
    rho = np.zeros(12)
    rho[:5] = [1.0, 1.0, 2.0, 1.0, 2.0]
    assert min_max_load(m, rho).max_load == pytest.approx(1.0, abs=1e-9)
    assert rho.sum() == cap
    assert necessary_condition(alloc, rho)[0]
    # the servable point violates the 2d form W_D <= 2d, so that form is not necessary
    assert window_maxima(rho, 5, circle=True) > 2 * 3
    rho[4] += 0.05
    assert min_max_load(m, rho).max_load > 1.0 + 1e-6


@pytest.mark.parametrize(
    "alloc,sigmas,kwargs",
    [
        (build_cyclic(12, 3), (6.0, 9.0, 12.0), {}),
        (build_clustering(12, 3), (6.0, 9.0, 12.0), {}),
        (build_block_design(3), (2.0, 4.0, 6.5), {}),
        (build_cyclic_xor(12, 3, 2), (5.0, 8.0, 11.0), {}),
        (build_cyclic(12, 3), (6.0, 12.0), {"window_d": True}),
        (build_cyclic(10, 3), (5.0, 9.0), {"r_gap": 2}),
    ],
    ids=["cyclic", "clustering", "block", "xor", "cyclic-alt", "rgap-generic"],
)
def test_stability_sandwich(alloc, sigmas, kwargs):
    # sufficient => stable => necessary on every sampled demand
    r_gap = kwargs.get("r_gap")
    for sigma in sigmas:
        demands = spacing_matrix(alloc.k, sigma, 8080, 400)
        stable = t_star_batch(alloc, demands) <= 1 + STABILITY_TOL
        if kwargs.get("window_d"):
            # the cyclic expansion argument also gives W_d <= 2d - 1
            necessary = window_maxima(demands, alloc.d, circle=True) <= 2.0 * alloc.d - 1.0
        else:
            necessary = necessary_condition(alloc, demands, r_gap=r_gap)
        sufficient = sufficient_condition(alloc, demands, r_gap=r_gap)
        assert not np.any(sufficient & ~stable), f"sufficient held but unstable at sigma={sigma}"
        assert not np.any(stable & ~necessary), f"stable but necessary failed at sigma={sigma}"


@pytest.mark.parametrize(
    "alloc,r_gap",
    [
        (build_cyclic(12, 3), None),
        (build_clustering(12, 3), None),
        (build_block_design(3), None),
        (build_block_design(4), None),
        (build_cyclic_xor(12, 3, 2), None),
        (build_single_choice(12, 1), 0),
        (build_single_choice(12, 1), 2),
        (build_single_choice(12, 1), 12),  # window r + 1 clamped to k
    ],
    ids=["cyclic", "clustering", "block-d3", "block-d4", "xor", "rgap-0", "rgap-2", "rgap-12"],
)
def test_conditions_equal_the_exact_window_test(alloc, r_gap):
    # each verdict is W_w <= bound with W_w the exact circle maximum of the
    # float row; rows with one demand of exactly a bound, and of the next
    # float above it, sit on the boundary of each pair's test
    family = ls.FAMILIES[alloc.kind]
    if family.sufficient is not None:
        rules = {"sufficient": [family.sufficient(alloc.d, alloc.r)],
                 "necessary": [family.necessary(alloc.d, alloc.r)]}
    else:
        rules = {"sufficient": [(r_gap + 1, alloc.d)],
                 "necessary": [(i, i + 2.0 * r_gap) for i in range(1, alloc.k - 2 * r_gap + 1)]}
    k = alloc.k
    rows = [spacing_matrix(k, sigma * alloc.n, 41, 8) for sigma in (0.3, 0.6, 1.0)]
    for _, bound in rules["sufficient"] + rules["necessary"][:1]:
        for value in (bound, np.nextafter(bound, np.inf)):
            rows.append(np.eye(1, k) * value)
            rows.append(np.full((1, k), value / k))  # the same total, spread out
    rows = np.vstack(rows)
    verdicts = {}
    for name, condition in (("sufficient", sufficient_condition), ("necessary", necessary_condition)):
        got = condition(alloc, rows, r_gap=r_gap)
        want = [
            all(exact_window_maxima(row, min(w, k))[1] <= Fraction(bound) for w, bound in rules[name])
            for row in rows
        ]
        assert got.tolist() == want, name
        verdicts[name] = want
    assert True in verdicts["sufficient"] and False in verdicts["sufficient"]
