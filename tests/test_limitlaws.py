"""Tests for the limit-law check battery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from storagebalance.limitlaws import (
    _count_ranges,
    _one_pass,
    circular_line_checks,
    count_range_checks,
    exact_count_moments,
    gumbel_ks_checks,
    ks_distance,
    ks_threshold,
    run_limit_checks,
)
from storagebalance.spacings import gumbel_cdf, spacing_matrix
from util import exact_window_maxima


def test_ks_distance_of_exact_cdf_sample():
    # quantiles of the Gumbel law itself have vanishing KS distance
    n = 2000
    q = (np.arange(n) + 0.5) / n
    sample = -np.log(-np.log(q))
    assert ks_distance(sample, gumbel_cdf) < 1.0 / n


def test_exact_count_moments_match_simulation():
    k, trials = 200, 40_000
    lo, hi = 0.5 / k, 2.0 / k
    mean, var = exact_count_moments(k, lo, hi)
    m = spacing_matrix(k, 1.0, 31, trials)
    c = np.count_nonzero((m >= lo) & (m <= hi), axis=1).astype(np.float64)
    assert abs(c.mean() - mean) <= 3.0 * c.std(ddof=1) / math.sqrt(trials)
    se_var = math.sqrt(max(((c - c.mean()) ** 4).mean() - c.var() ** 2, 0) / trials)
    assert abs(c.var(ddof=1) - var) <= 3.0 * se_var


def test_exact_count_moments_whole_interval():
    mean, var = exact_count_moments(50, 0.0, 1.0)
    assert mean == pytest.approx(50.0)
    assert var == pytest.approx(0.0, abs=1e-9)


def _maxima(k, d, trials, seed):
    sample = _one_pass(k, [d], trials, 0, seed)
    return sample.line[d], sample.circle[d]


def test_gumbel_ks_check_small_case():
    checks = gumbel_ks_checks(2000, 1, *_maxima(2000, 1, 1500, 11))
    assert [c.passed for c in checks] == [True, True]
    names = {c.name for c in checks}
    assert any("line" in n for n in names) and any("circle" in n for n in names)


def test_gumbel_ks_trials_come_from_the_statistics():
    k, d = 200, 2
    line = np.linspace(0.02, 0.08, 37)
    checks = gumbel_ks_checks(k, d, line, line)
    assert {c.threshold for c in checks} == {ks_threshold(d, 37)}
    assert all(c.detail.endswith("trials 37") for c in checks)


def test_gumbel_ks_skips_degenerate_window():
    checks = gumbel_ks_checks(50, 50, None, None)
    assert len(checks) == 1 and checks[0].passed
    assert "skipped" in checks[0].name


def test_gumbel_ks_skips_d_outside_the_centering_domain():
    # k = 300: d = 14 is the last d whose centering iteration stays above 0
    line = np.linspace(0.05, 0.2, 30)
    assert [c.name for c in gumbel_ks_checks(300, 14, line, line)] == [
        "gumbel_ks_line_k300_d14",
        "gumbel_ks_circle_k300_d14",
    ]
    [skip] = gumbel_ks_checks(300, 15, line, line)
    assert skip.name == "gumbel_ks_skipped_k300_d15" and skip.passed
    assert "fixed-point iteration from log k falls to b <= 0" in skip.detail
    for d in range(1, 51):
        assert gumbel_ks_checks(50, d, line, line)


def test_circular_line_checks_pass():
    checks = circular_line_checks(100, 3, *_maxima(100, 3, 20_000, 5))
    assert all(c.passed for c in checks)
    mismatch = next(c for c in checks if "neq" in c.name)
    assert mismatch.statistic <= 3 / 100 + 0.01


def test_circle_below_line_fails_tail_sandwich():
    line = np.linspace(0.1, 1.0, 100)
    assert all(c.passed for c in circular_line_checks(1000, 2, line, line.copy()))
    circle = line.copy()
    circle[-1] = 0.0  # a circular maximum below its line maximum is impossible
    checks = {c.name: c for c in circular_line_checks(1000, 2, line, circle)}
    assert checks["circle_neq_line_prob_k1000_d2"].passed
    assert not checks["tail_sandwich_q50_k1000_d2"].passed
    assert not checks["tail_sandwich_q90_k1000_d2"].passed


def test_count_range_checks_pass():
    checks = count_range_checks(1000, _one_pass(1000, [], 0, 20_000, 6).counts)
    assert all(c.passed for c in checks), [c.as_dict() for c in checks if not c.passed]


def test_count_range_checks_read_trials_from_counts():
    counts = {"mid": np.array([9.0, 11.0] * 4), "tiny": np.zeros(8), "top": np.zeros(8)}
    mid = count_range_checks(1000, counts)[0]
    assert mid.name == "count_mid_mean_k1000" and mid.statistic == 10.0
    assert mid.threshold == pytest.approx(3.0 * math.sqrt(np.var(counts["mid"], ddof=1) / 8))


def test_run_limit_checks_report_shape():
    report = run_limit_checks(k=500, d_values=[1, 2], trials=800, master_seed=3)
    assert report["k"] == 500 and report["d_values"] == [1, 2]
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for c in report["checks"]:
        assert set(c) == {"name", "statistic", "threshold", "passed", "detail"}
    assert isinstance(report["all_passed"], bool)


def test_run_limit_checks_validates_input():
    with pytest.raises(ValueError):
        run_limit_checks(k=2, d_values=[1], trials=10, master_seed=0)
    with pytest.raises(ValueError):
        run_limit_checks(k=10, d_values=[11], trials=10, master_seed=0)
    # one trial has no sample variance
    with pytest.raises(ValueError, match="trials"):
        run_limit_checks(k=50, d_values=[2], trials=1, master_seed=0)
    with pytest.raises(ValueError, match="count_trials"):
        run_limit_checks(k=50, d_values=[2], trials=10, master_seed=0, count_trials=1)


def test_one_pass_matches_separate_runs():
    k, seed = 60, 13
    for trials, count_trials in ((300, None), (90, 4100), (2100, 90)):
        joint = run_limit_checks(k, [1, 2, 3], trials, seed, count_trials=count_trials)
        count_part = [c for c in joint["checks"] if c["name"].startswith("count_")]
        per_d = []
        for d in (1, 2, 3):
            alone = run_limit_checks(k, [d], trials, seed, count_trials=count_trials)
            assert [c for c in alone["checks"] if c["name"].startswith("count_")] == count_part
            per_d += [c for c in alone["checks"] if not c["name"].startswith("count_")]
            maxima = _maxima(k, d, trials, seed)
            direct = gumbel_ks_checks(k, d, *maxima) + circular_line_checks(k, d, *maxima)
            assert [c.as_dict() for c in direct] == per_d[-len(direct) :]
        counts = _one_pass(k, [], 0, count_trials or trials, seed).counts
        direct = count_range_checks(k, counts)
        assert [c.as_dict() for c in direct] == count_part
        assert joint["checks"] == per_d + count_part


@pytest.mark.parametrize("k, trials, count_trials", [(40, 150, 2500), (3000, 150, 250), (40_000, 3, 2)])
def test_one_pass_draws_each_block_once(monkeypatch, k, trials, count_trials):
    import storagebalance.limitlaws as lim

    real = lim.spacing_matrix
    calls = []

    def counting(k, sigma, master_seed, trials, start_index=0, out=None):
        calls.append((start_index, trials))
        return real(k, sigma, master_seed, trials, start_index=start_index, out=out)

    monkeypatch.setattr(lim, "spacing_matrix", counting)
    run_limit_checks(k, [1, 2, k], trials, 3, count_trials=count_trials)
    block = max(1, lim._BLOCK_ELEMENTS // k)
    sizes = [n for _, n in calls]
    assert sizes[:-1] == [block] * (len(calls) - 1) and 0 < sizes[-1] <= block
    assert [s for s, _ in calls] == [sum(sizes[:i]) for i in range(len(calls))]
    assert sum(sizes) == max(trials, count_trials)


@pytest.mark.parametrize("count_trials", [400, 250, 90])
def test_report_independent_of_block_size(monkeypatch, count_trials):
    import storagebalance.limitlaws as lim

    k, trials = 50, 250
    want = run_limit_checks(k, [1, 2, k], trials, 3, count_trials=count_trials)
    for elements in (1, k - 1, k, 10 * k, 2**20):
        monkeypatch.setattr(lim, "_BLOCK_ELEMENTS", elements)
        assert run_limit_checks(k, [1, 2, k], trials, 3, count_trials=count_trials) == want


@pytest.mark.parametrize(
    "k, ds, trials", [(300, [1, 2, 3, 5, 8, 64, 299], 12), (10_000, [1, 2, 3], 1)]
)
def test_pass_maxima_are_within_their_summation_depth_of_exact(k, ds, trials):
    # a sum of d non-negative entries as a tree of depth h = ceil(log2 d)
    # is within gamma_h = h u / (1 - h u) relative of the exact sum
    sample = _one_pass(k, ds, trials, 0, 17)
    rows = spacing_matrix(k, 1.0, 17, trials)
    for d in ds:
        h = (d - 1).bit_length()
        gamma = Fraction(h, 2**53 - h)
        assert (sample.circle[d] >= sample.line[d]).all()
        for i, row in enumerate(rows):
            got = (sample.line[d][i], sample.circle[d][i])
            for value, exact in zip(got, exact_window_maxima(row, d)):
                assert abs(Fraction(float(value)) - exact) <= gamma * exact, (d, i)


def test_pass_maxima_bits_depend_on_d_and_row_alone(monkeypatch):
    import storagebalance.limitlaws as lim

    k, ds, trials = 300, [1, 2, 3, 5, 8, 64, 299], 250
    want = _one_pass(k, ds, trials, 0, 4)
    for d in ds:
        alone = _one_pass(k, [d], trials, 0, 4)
        assert alone.line[d].tobytes() == want.line[d].tobytes()
        assert alone.circle[d].tobytes() == want.circle[d].tobytes()
    for elements in (1, trials * k):  # one-row blocks, and one block
        monkeypatch.setattr(lim, "_BLOCK_ELEMENTS", elements)
        got = _one_pass(k, ds, trials, 0, 4)
        assert [got.line[d].tobytes() for d in ds] == [want.line[d].tobytes() for d in ds]
        assert [got.circle[d].tobytes() for d in ds] == [want.circle[d].tobytes() for d in ds]


@pytest.mark.parametrize("k, count_trials", [(40, 2000), (10_000, 7)])
def test_range_counts_match_per_row_counts(k, count_trials):
    # 819-row blocks of short rows at k = 40, 3-row blocks of long ones at 10^4
    counts = _one_pass(k, [1], 2, count_trials, 8).counts
    rows = spacing_matrix(k, 1.0, 8, count_trials)
    for name, lo, hi, *_ in _count_ranges(k):
        want = [np.count_nonzero((row >= lo) & (row <= hi)) for row in rows]
        assert counts[name].tolist() == want, name


def test_limit_checks_hold_a_few_rows_at_large_k():
    # 64 rows of k = 200 000 are 102 MB; one-row blocks hold a few 1.6 MB rows.
    import tracemalloc

    tracemalloc.start()
    try:
        run_limit_checks(200_000, [1, 3], 64, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
