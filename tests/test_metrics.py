"""Tests for Monte Carlo metrics and the exact three-object geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest

import storagebalance.loadsolver as ls
from storagebalance.allocation import (
    UnsupportedDesignError,
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    to_matrices,
)
from storagebalance.metrics import (
    SOLVE_LOAD,
    BandCheck,
    ExperimentRow,
    MetricEstimate,
    asymptotic_band_check,
    estimate_metrics,
    exact_p_sigma_k3,
    exact_region_k3,
    rows_to_csv,
    t_star_series,
    wilson_interval,
)
from storagebalance.spacings import EULER_GAMMA, predict_single_choice, spacing_matrix
from util import estimate_alone

SEED = 987654321


# ---------------------------------------------------------------------------
# Wilson interval and estimate plumbing
# ---------------------------------------------------------------------------


def test_wilson_interval_contains_estimate():
    for s, t in ((0, 10), (10, 10), (3, 10), (0, 100000), (99999, 100000)):
        lo, hi = wilson_interval(s, t)
        assert 0.0 <= lo <= s / t <= hi <= 1.0


def test_wilson_interval_narrows():
    lo1, hi1 = wilson_interval(50, 100)
    lo2, hi2 = wilson_interval(5000, 10000)
    assert (hi2 - lo2) < (hi1 - lo1)


def test_metric_estimate_validates():
    with pytest.raises(ValueError):
        MetricEstimate(mean=0.5, stderr=0.1, ci95_lo=0.6, ci95_hi=0.7, trials=10, seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------


def test_full_replication_imbalance_is_one():
    est = estimate_alone(build_cyclic(4, 4), sigma=2.0, trials=200, master_seed=SEED)[1]
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    assert est.quantiles == pytest.approx({"q05": 1.0, "q50": 1.0, "q95": 1.0}, abs=1e-12)


def test_single_choice_mean_imbalance_near_gumbel_mean():
    alloc = build_single_choice(100, 1)
    est = estimate_alone(alloc, sigma=1.0, trials=10_000, master_seed=SEED)[1]
    target = math.log(100) + 0.5772156649
    assert abs(est.mean - target) / target < 0.05


def test_estimates_are_deterministic_and_paired():
    a = estimate_alone(build_cyclic(10, 2), 8.0, 500, SEED)
    b = estimate_alone(build_cyclic(10, 2), 8.0, 500, SEED)
    assert a[0] == b[0] and a[1] == b[1]


def test_more_choices_improve_both_metrics_on_paired_seeds():
    allocs = [build_cyclic(100, 1), build_cyclic(100, 2)]
    series = t_star_series(allocs, 400, SEED)
    (p1, i1), (p2, i2) = (estimate_metrics(a, 80.0, 400, SEED, t) for a, t in zip(allocs, series))
    assert i2.mean < i1.mean
    assert p2.mean >= p1.mean


def test_p_sigma_monotone_in_sigma():
    # every sigma reduces the one series, so a larger sigma can only lose
    # stable trials
    alloc = build_cyclic(12, 2)
    series = t_star_series([alloc], 600, SEED)[0]
    means = [estimate_metrics(alloc, s, 600, SEED, series)[0].mean for s in (4.0, 6.0, 8.0, 10.0)]
    assert means == sorted(means, reverse=True) and means[0] > means[-1]


def _solved_at(alloc, sigma, trials):
    """The reduction of a series drawn and solved at sigma itself: its
    stable count and its imbalance factors."""
    t_stars = ls.t_star_batch(alloc, spacing_matrix(alloc.k, sigma, SEED, trials))
    return int(np.count_nonzero(t_stars <= 1.0 + ls.STABILITY_TOL)), t_stars * (alloc.n / sigma)


@pytest.mark.parametrize("alloc", [build_cyclic(12, 3), build_cyclic_xor(9, 3, 2)], ids=["cyclic", "lp"])
def test_scaled_series_matches_solving_at_sigma(alloc):
    trials = 300
    series = t_star_series([alloc], trials, SEED)[0]
    for factor in (0.8, 0.3, 0.6, 1.7):
        sigma = factor * alloc.k
        p_est, i_est = estimate_metrics(alloc, sigma, trials, SEED, series)
        stable, imb = _solved_at(alloc, sigma, trials)
        assert p_est.mean == stable / trials, factor
        direct = [float(imb.mean()), *(float(q) for q in np.quantile(imb, [0.05, 0.5, 0.95]))]
        scaled = [i_est.mean, *i_est.quantiles.values()]
        if factor == 0.8:  # the scale is exactly 1: the very bits
            assert scaled == direct
            assert i_est.stderr == float(imb.std(ddof=1) / math.sqrt(trials))
        else:
            assert scaled == pytest.approx(direct, rel=1e-13, abs=0), factor
    # the check has teeth: some trials are stable at one sigma and not another
    assert 0 < estimate_metrics(alloc, 0.6 * alloc.k, trials, SEED, series)[0].mean < 1


def test_t_star_series_worker_invariance(monkeypatch):
    import storagebalance.metrics as metrics_mod

    # chunks of 70, 70 and 10 trials: each chunk starts a fresh LP model, so
    # the model restarts mid-run at the same trials at any worker count
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 70)
    for allocs in ([build_block_design(3), build_cyclic(7, 3)], [build_cyclic_xor(9, 3, 2)]):
        seq = t_star_series(allocs, 150, SEED, workers=1)
        par = t_star_series(allocs, 150, SEED, workers=3)
        assert seq.shape == (len(allocs), 150)
        assert np.array_equal(seq, par)
        # a row depends only on the rows before it, so a shorter run is a prefix
        assert np.array_equal(t_star_series(allocs, 100, SEED), seq[:, :100])


def test_t_star_series_starts_no_more_workers_than_chunks(monkeypatch):
    import concurrent.futures

    import storagebalance.metrics as metrics_mod

    pools = []

    class InProcessPool:
        """Records ``max_workers`` and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 70)  # 150 trials: 3 chunks
    allocs = [build_cyclic(12, 3), build_cyclic(12, 2)]
    par = t_star_series(allocs, 150, SEED, workers=100_000)
    assert pools == [3]  # one pool for both designs
    assert np.array_equal(par, t_star_series(allocs, 150, SEED, workers=1))


def test_each_design_and_chunk_passes_through_t_star_batch(monkeypatch):
    import storagebalance.metrics as metrics_mod

    # a wrapper on ``metrics.t_star_batch`` (as perfbench's tracer sets) sees
    # every design's rows of every chunk, those of a shared pass too
    calls = []
    real = metrics_mod.t_star_batch

    def recording(alloc, demands, *rest):
        result = real(alloc, demands, *rest)
        calls.append((alloc, len(demands), result))
        return result

    monkeypatch.setattr(metrics_mod, "t_star_batch", recording)
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 70)  # 120 trials: chunks of 70 and 50
    allocs = [build_cyclic(7, d) for d in (1, 2, 3)] + [
        build_block_design(3),
        build_clustering(7, 7),
    ]
    series = t_star_series(allocs, 120, SEED)
    assert [(alloc, rows) for alloc, rows, _ in calls] == [(a, 70) for a in allocs] + [
        (a, 50) for a in allocs
    ]
    for j, alloc in enumerate(allocs):
        returned = [result for a, _, result in calls if a is alloc]
        assert np.concatenate(returned).tobytes() == series[j].tobytes()


def test_a_repeated_design_is_solved_once_per_chunk(monkeypatch):
    import dataclasses

    import storagebalance.metrics as metrics_mod

    # a single_choice sweep over d = 1, 2, 5 builds one design three times
    handed = []
    family = ls.FAMILIES["single_choice"]

    def recording(n, d_values, demands):
        handed.append(list(d_values))
        return family.t_star(n, d_values, demands)

    monkeypatch.setitem(ls.FAMILIES, "single_choice", dataclasses.replace(family, t_star=recording))
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 70)  # 120 trials: chunks of 70 and 50
    allocs = [build_single_choice(10, 2) for _ in range(3)]
    series = t_star_series(allocs, 120, SEED)
    assert handed == [[1], [1]]
    alone = t_star_series(allocs[:1], 120, SEED)[0]
    assert all(row.tobytes() == alone.tobytes() for row in series)


def _perturbed_row(monkeypatch, target, perturb):
    """Make the LP's per-row solve hand back ``perturb(status, x, y, z)``
    for the demand row equal to ``target``."""
    real = ls._EpigraphLP._solve_row

    def patched(self, rho):
        status, x, y, z = real(self, rho)
        if np.array_equal(rho, target):
            return perturb(status, np.array(x), np.array(y), np.array(z))
        return status, x, y, z

    monkeypatch.setattr(ls._EpigraphLP, "_solve_row", patched)


def test_solver_failure_carries_trial_index(monkeypatch):
    import storagebalance.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 70)  # chunks start at 0, 70, 140
    alloc = build_block_design(3)
    failing = 91  # second chunk, 22nd row
    target = spacing_matrix(alloc.k, SOLVE_LOAD * alloc.k, SEED, 1, start_index=failing)[0]

    def break_conservation(status, x, y, z):
        x[0] += 1e-6
        return status, x, y, z

    _perturbed_row(monkeypatch, target, break_conservation)
    with pytest.raises(ls.NumericalFailureError, match=f"trial {failing}: .*conservation") as info:
        t_star_series([build_cyclic(7, 3), alloc], 150, SEED)
    assert info.value.__cause__.row_index == failing - 70


@pytest.mark.parametrize(
    "marginals, entry, shift, message",
    [
        ("eqlin", 2, 1e-6, "infeasible"),  # a reduced cost turns negative
        ("eqlin", 2, -1e-6, "does not meet the primal value"),  # the dual value drops
        ("ineqlin", 4, 1e-6, "infeasible"),  # a load multiplier turns positive
    ],
)
def test_perturbed_dual_fails_the_certificate(monkeypatch, marginals, entry, shift, message):
    # eqlin: the duals y of T x = rho; ineqlin: the duals z of M x - t <= 0
    alloc = build_cyclic_xor(9, 3, 2)
    demands = spacing_matrix(alloc.k, 6.0, SEED, 32)
    failing = 19

    def shift_dual(status, x, y, z):
        (y if marginals == "eqlin" else z)[entry] += shift
        return status, x, y, z

    _perturbed_row(monkeypatch, demands[failing], shift_dual)
    with pytest.raises(ls.NumericalFailureError, match=message) as info:
        ls.t_star_batch(alloc, demands)
    assert info.value.row_index == failing
    with pytest.raises(ls.NumericalFailureError, match=message):
        ls.min_max_load(to_matrices(alloc), demands[failing])


def test_failed_row_solve_names_that_row(monkeypatch):
    from scipy.optimize._highspy._core import HighsModelStatus

    alloc = build_block_design(3)
    demands = spacing_matrix(alloc.k, 4.0, SEED, 48)
    failing = 33

    def fail(status, x, y, z):
        return HighsModelStatus.kSolveError, x, y, z

    _perturbed_row(monkeypatch, demands[failing], fail)
    message = "LP solver failed on this row.*Solve error"
    with pytest.raises(ls.NumericalFailureError, match=message) as info:
        ls.t_star_batch(alloc, demands)
    assert info.value.row_index == failing


def test_estimate_requires_positive_inputs():
    alloc = build_cyclic(3, 2)
    with pytest.raises(ValueError, match="trials must be"):
        t_star_series([alloc], 0, SEED)
    series = t_star_series([alloc], 10, SEED)[0]
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="sigma must be positive"):
            estimate_metrics(alloc, sigma, 10, SEED, series)
    # a series of other trials would give a silently wrong p_sigma
    for t_stars in (series[:9], t_star_series([alloc], 11, SEED)[0]):
        with pytest.raises(ValueError, match="not 10"):
            estimate_metrics(alloc, 1.0, 10, SEED, t_stars)


# ---------------------------------------------------------------------------
# Exact k = 3 geometry
# ---------------------------------------------------------------------------


def test_exact_p_sigma_three_node_values():
    assert exact_p_sigma_k3(build_cyclic(3, 1), 3) == 0.0
    assert exact_p_sigma_k3(build_cyclic(3, 2), 3) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert exact_p_sigma_k3(build_cyclic(3, 3), 3) == 1.0


def test_estimated_p_sigma_boundary_cases():
    # single-choice at the capacity boundary has measure zero; full
    # replication at sigma = n is stable with probability one
    assert estimate_alone(build_cyclic(3, 1), 3.0, 5000, SEED)[0].mean == 0.0
    assert estimate_alone(build_cyclic(3, 3), 3.0, 5000, SEED)[0].mean == 1.0


def test_exact_region_vertices_d2():
    region = exact_region_k3(build_cyclic(3, 2), 3)
    verts = {tuple(float(c) for c in v) for v in region.polygon_vertices()}
    expected = {
        (0.0, 1.0, 2.0),
        (0.0, 2.0, 1.0),
        (1.0, 0.0, 2.0),
        (1.0, 2.0, 0.0),
        (2.0, 0.0, 1.0),
        (2.0, 1.0, 0.0),
    }
    assert verts == expected
    assert region.p_sigma() == Fraction(2, 3)


def test_exact_region_d1_degenerate_point():
    region = exact_region_k3(build_cyclic(3, 1), 3)
    assert [tuple(map(float, v)) for v in region.polygon_vertices()] == [(1.0, 1.0, 1.0)]


def test_exact_small_sigma_fully_supported():
    assert exact_p_sigma_k3(build_cyclic(3, 2), 1.5) == 1.0
    # cross-check with Monte Carlo at moderate size
    est = estimate_alone(build_cyclic(3, 2), 1.5, 20_000, SEED)[0]
    assert est.mean == 1.0


def test_exact_agrees_with_monte_carlo_grid():
    trials = 20_000
    for d in (1, 2, 3):
        alloc = build_cyclic(3, d)
        for sigma in (1.5, 2.4, 3.0):
            exact = exact_p_sigma_k3(alloc, sigma)
            est = estimate_alone(alloc, sigma, trials, SEED)[0]
            slack = 3.0 * max(est.stderr, 1e-4)
            assert abs(est.mean - exact) <= slack, (d, sigma, exact, est.mean)


def test_exact_region_rejects_unsupported():
    with pytest.raises(UnsupportedDesignError):
        exact_p_sigma_k3(build_cyclic(4, 2), 3)
    with pytest.raises(UnsupportedDesignError):
        exact_p_sigma_k3(build_cyclic_xor(3, 2, 2), 3)


def test_exact_region_contains_origin():
    region = exact_region_k3(build_cyclic(3, 2), 3)
    for normal, offset in region.halfspaces:
        assert offset >= 0  # origin satisfies normal . 0 <= offset


# ---------------------------------------------------------------------------
# Band checks and report rows
# ---------------------------------------------------------------------------


def test_band_check_single_choice():
    report = asymptotic_band_check(build_single_choice(100, 1), trials=2000, master_seed=SEED)
    main = report["checks"][0]
    assert main["name"] == "mean_imbalance_over_prediction"
    assert main["passed"]
    assert report["transition"]["below"]["p_sigma"] >= 0.9
    assert report["transition"]["above"]["p_sigma"] <= 0.1


def test_band_check_single_choice_uses_m():
    # the limit law centres imbalance * m, not the imbalance itself
    report = asymptotic_band_check(build_single_choice(200, 2), trials=300, master_seed=SEED)
    centering = predict_single_choice(200, 2).centering
    assert report["prediction"]["centering"] == centering
    main = report["checks"][0]
    assert main["observed"] == report["observed_mean_imbalance"] * 2 / (centering + EULER_GAMMA)


def test_band_check_cyclic_small_d():
    report = asymptotic_band_check(build_cyclic(200, 3), trials=500, master_seed=SEED)
    main = report["checks"][0]
    assert main["name"] == "mean_imbalance_over_band_hi"
    assert 0.4 <= main["observed"] <= 1.2
    # robustness flips across the predicted transition: probe at 0.5d and 3d
    assert report["transition"]["below"]["b"] == pytest.approx(1.5)
    assert report["transition"]["above"]["b"] == pytest.approx(9.0)
    assert report["transition"]["below"]["p_sigma"] >= 0.9
    assert report["transition"]["above"]["p_sigma"] <= 0.1


def test_band_check_dataclass():
    chk = BandCheck(name="x", observed=0.5, lo=0.4, hi=1.2)
    assert chk.passed
    assert not BandCheck(name="x", observed=1.3, lo=0.4, hi=1.2).passed


def test_experiment_row_csv_schema():
    p, i = estimate_alone(build_cyclic(5, 2), 3.0, 100, SEED)
    row = ExperimentRow(
        kind="cyclic", n=5, k=5, d=2, r=1, sigma=3.0, trials=100, seed=SEED, p=p, imbalance=i
    )
    text = rows_to_csv([row])
    header, line = text.strip().split("\n")
    assert header == (
        "kind,n,k,d,r,sigma,trials,p_sigma,p_lo,p_hi,"
        "i_mean,i_stderr,i_q05,i_q50,i_q95,seed"
    )
    fields = line.split(",")
    assert fields[0] == "cyclic" and fields[-1] == str(SEED)
    assert float(fields[7]) == p.mean
