"""Tests for the limit-law check battery."""

import math

import numpy as np
import pytest

from storagebalance.limitlaws import (
    circular_line_checks,
    count_range_checks,
    exact_count_moments,
    gumbel_ks_checks,
    ks_distance,
    run_limit_checks,
)
from storagebalance.spacings import gumbel_cdf, spacing_matrix


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


def test_gumbel_ks_check_small_case():
    checks = gumbel_ks_checks(k=2000, d=1, trials=1500, master_seed=11)
    assert [c.passed for c in checks] == [True, True]
    names = {c.name for c in checks}
    assert any("line" in n for n in names) and any("circle" in n for n in names)


def test_gumbel_ks_skips_degenerate_window():
    checks = gumbel_ks_checks(k=50, d=50, trials=10, master_seed=0)
    assert len(checks) == 1 and checks[0].passed
    assert "skipped" in checks[0].name


def test_circular_line_checks_pass():
    checks = circular_line_checks(k=100, d=3, trials=20_000, master_seed=5)
    assert all(c.passed for c in checks)
    mismatch = next(c for c in checks if "neq" in c.name)
    assert mismatch.statistic <= 3 / 100 + 0.01


def test_count_range_checks_pass():
    checks = count_range_checks(k=1000, trials=20_000, master_seed=6)
    assert all(c.passed for c in checks), [c.as_dict() for c in checks if not c.passed]


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
            direct = gumbel_ks_checks(k, d, trials, seed) + circular_line_checks(k, d, trials, seed)
            assert [c.as_dict() for c in direct] == per_d[-len(direct) :]
        direct = count_range_checks(k, count_trials or trials, seed)
        assert [c.as_dict() for c in direct] == count_part
        assert joint["checks"] == per_d + count_part


def test_one_pass_draws_each_batch_once(monkeypatch):
    import storagebalance.limitlaws as lim

    real = lim.spacing_matrix
    calls = []

    def counting(k, sigma, master_seed, trials, start_index=0):
        calls.append((trials, start_index))
        return real(k, sigma, master_seed, trials, start_index=start_index)

    monkeypatch.setattr(lim, "spacing_matrix", counting)
    run_limit_checks(40, [1, 2, 40], 150, 3, count_trials=2500)
    assert calls == [(2000, 0), (500, 2000)]
