"""Tests for the demand model, windowed maxima, and closed-form predictors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storagebalance.spacings import (
    EULER_GAMMA,
    REGIME_LOG_ORDER_D,
    REGIME_SMALL_D,
    AsymptoticPrediction,
    RandomStream,
    SpacingSample,
    count_spacings_in_range,
    dspacing_gumbel_centering,
    gumbel_cdf,
    max_d_spacing_circle,
    max_d_spacing_line,
    max_nonoverlapping_m_spacing,
    p_sigma_transition,
    predict_d_choice,
    predict_single_choice,
    predict_xor,
    sample_uniform_spacings,
    solve_alpha,
    spacing_matrix,
    window_maxima_circle,
    window_maxima_line,
)


def make_sample(values, sigma=None):
    arr = np.asarray(values, dtype=np.float64)
    return SpacingSample(arr, float(sigma if sigma is not None else arr.sum()), len(arr))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_single_spacing_is_whole_interval():
    s = sample_uniform_spacings(1, 1.0, RandomStream(0, 0))
    assert s.spacings.tolist() == [1.0]


def test_identical_stream_reproduces_sample():
    a = sample_uniform_spacings(3, 2.0, RandomStream(1234, 5))
    b = sample_uniform_spacings(3, 2.0, RandomStream(1234, 5))
    assert np.array_equal(a.spacings, b.spacings)


def test_distinct_streams_differ():
    a = sample_uniform_spacings(5, 1.0, RandomStream(1234, 0))
    b = sample_uniform_spacings(5, 1.0, RandomStream(1234, 1))
    assert not np.array_equal(a.spacings, b.spacings)


def test_sigma_is_a_pure_scale():
    unit = sample_uniform_spacings(6, 1.0, RandomStream(9, 3))
    scaled = sample_uniform_spacings(6, 7.5, RandomStream(9, 3))
    assert np.array_equal(unit.spacings * 7.5, scaled.spacings)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        sample_uniform_spacings(0, 1.0, RandomStream(0))
    with pytest.raises(ValueError):
        sample_uniform_spacings(3, 0.0, RandomStream(0))
    with pytest.raises(ValueError):
        sample_uniform_spacings(3, -1.0, RandomStream(0))


def test_coordinate_means_match_exchangeability():
    # E[S_i] = 1/k by exchangeability; Monte Carlo with 10^6 draws.
    k, trials = 4, 1_000_000
    total = np.zeros(k)
    batch = 50_000
    for start in range(0, trials, batch):
        total += spacing_matrix(k, 1.0, 2024, batch, start_index=start).sum(axis=0)
    means = total / trials
    # var of one coordinate is about 1/k^2; MC stderr ~ 1/(k*sqrt(trials))
    tol = 3.0 / (k * math.sqrt(trials))
    assert np.all(np.abs(means - 0.25) < tol)


def test_spacing_matrix_rows_match_per_trial_streams():
    # the re-keyed batch sampler and its row-sum normalisation are bit-exact
    # against one generator per trial, across k and the full seed range
    for k, rows in ((1, 8), (5, 8), (100, 8), (10_000, 3)):
        for seed in (0, 1, 77, 2**63 - 1, 2**63 + 1):
            mat = spacing_matrix(k, 2.0, seed, rows, start_index=3)
            for i in range(rows):
                row = sample_uniform_spacings(k, 2.0, RandomStream(seed, 3 + i)).spacings
                assert mat[i].tobytes() == row.tobytes(), (k, seed, i)


def test_seeds_beyond_2_63_draw_distinct_streams():
    a = spacing_matrix(10, 1.0, 2**63 + 1, 4, start_index=2)
    b = spacing_matrix(10, 1.0, 2**63 + 2, 4, start_index=2)
    assert not np.array_equal(a, b)
    top = RandomStream(2**64 - 1, 0).generator().standard_exponential(4)
    low = RandomStream(1, 0).generator().standard_exponential(4)
    assert not np.array_equal(top, low)


def test_seed_outside_64_bits_rejected():
    for seed in (-1, -1000, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="master_seed"):
            RandomStream(seed, 0)
        with pytest.raises(ValueError, match="master_seed"):
            spacing_matrix(3, 1.0, seed, 2)


# ---------------------------------------------------------------------------
# Windowed maxima
# ---------------------------------------------------------------------------


def test_nonoverlapping_blocks_basic():
    s = make_sample([0.1, 0.2, 0.3, 0.4])
    assert max_nonoverlapping_m_spacing(s, 2) == pytest.approx(0.7, abs=1e-15)
    assert max_nonoverlapping_m_spacing(s, 4) == pytest.approx(s.sigma, abs=1e-15)
    with pytest.raises(ValueError):
        max_nonoverlapping_m_spacing(s, 3)


def test_max_spacing_mean_matches_harmonic_number():
    # E[max spacing] = H_k / k; cross-check with 10^6 Monte Carlo draws.
    k, trials = 100, 1_000_000
    h_k = sum(1.0 / i for i in range(1, k + 1))
    acc = 0.0
    acc_sq = 0.0
    batch = 20_000
    for start in range(0, trials, batch):
        m = window_maxima_line(spacing_matrix(k, 1.0, 31337, batch, start_index=start), 1) * k
        acc += m.sum()
        acc_sq += (m * m).sum()
    mean = acc / trials
    var = acc_sq / trials - mean * mean
    assert abs(mean - h_k) <= 3.0 * math.sqrt(var / trials)


def test_line_window_examples():
    s = make_sample([0.4, 0.1, 0.1, 0.4])
    assert max_d_spacing_line(s, 2) == pytest.approx(0.5, abs=1e-15)
    s2 = make_sample([0.1, 0.2, 0.3, 0.4])
    assert max_d_spacing_line(s2, 3) == pytest.approx(0.9, abs=1e-12)
    assert max_d_spacing_line(s2, 4) == pytest.approx(s2.sigma, abs=1e-12)
    with pytest.raises(ValueError):
        max_d_spacing_line(s2, 5)


def test_circle_window_examples():
    s = make_sample([0.4, 0.1, 0.1, 0.4])
    assert max_d_spacing_circle(s, 2) == pytest.approx(0.8, abs=1e-12)
    s2 = make_sample([0.1, 0.2, 0.3, 0.4])
    assert max_d_spacing_circle(s2, 2) == pytest.approx(0.7, abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_circle_dominates_line(values, data):
    if sum(values) <= 0:
        values = [v + 0.1 for v in values]
    arr = np.asarray(values)
    d = data.draw(st.integers(min_value=1, max_value=len(values)))
    line = window_maxima_line(arr, d)
    circ = window_maxima_circle(arr, d)
    assert circ >= line  # exact, by shared prefix sums
    if d == 1:
        assert circ == line


def test_circle_equals_line_when_max_does_not_wrap():
    s = np.array([0.05, 0.5, 0.3, 0.1, 0.05])
    assert window_maxima_circle(s, 2) == window_maxima_line(s, 2)


def test_count_spacings_in_range():
    s = make_sample([0.1, 0.2, 0.3, 0.4])
    assert count_spacings_in_range(s, 0.15, 0.35) == 2
    assert count_spacings_in_range(s, 0.0, s.sigma) == 4
    with pytest.raises(ValueError):
        count_spacings_in_range(s, 0.5, 0.1)


def test_count_monotone_by_inclusion():
    s = sample_uniform_spacings(50, 1.0, RandomStream(5, 0))
    inner = count_spacings_in_range(s, 0.01, 0.02)
    outer = count_spacings_in_range(s, 0.005, 0.03)
    assert inner <= outer


def test_count_tiny_range_poisson_mean():
    # Counts in [1/k^2, 4/k^2] tend to Poisson(3); 10^5 draws at k = 1000.
    # The MC mean is checked against the exact finite-k mean (Beta law of a
    # spacing), which itself sits within O(1/k) of the Poisson limit 3.
    from storagebalance.limitlaws import exact_count_moments

    k, trials = 1000, 100_000
    lo, hi = 1.0 / k**2, 4.0 / k**2
    exact_mean, _ = exact_count_moments(k, lo, hi)
    assert abs(exact_mean - 3.0) < 0.02  # finite-k gap to the limit
    acc = 0.0
    acc_sq = 0.0
    batch = 20_000
    for start in range(0, trials, batch):
        m = spacing_matrix(k, 1.0, 4096, batch, start_index=start)
        c = np.count_nonzero((m >= lo) & (m <= hi), axis=1)
        acc += c.sum()
        acc_sq += (c.astype(np.float64) ** 2).sum()
    mean = acc / trials
    var = acc_sq / trials - mean * mean
    assert abs(mean - exact_mean) <= 3.0 * math.sqrt(var / trials)


# ---------------------------------------------------------------------------
# Gumbel pieces
# ---------------------------------------------------------------------------


def test_gumbel_cdf_values():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert gumbel_cdf(50.0) == pytest.approx(1.0, abs=1e-12)
    assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-15)


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20))
@settings(max_examples=100, deadline=None)
def test_gumbel_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert gumbel_cdf(lo) <= gumbel_cdf(hi)


def _alpha_bisect(c: float) -> float:
    # independent oracle: plain interval halving on the defining equation
    target = math.exp(-1.0 / c)
    lo, hi = 1e-12, 1.0
    while (1 + hi) * math.exp(-hi) > target:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1 + mid) * math.exp(-mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_alpha_against_bisection_oracle():
    assert solve_alpha(1.0) == pytest.approx(2.1461932206205825, abs=1e-10)
    assert solve_alpha(2.0) == pytest.approx(1.3576766739458987, abs=1e-10)
    for c in (0.3, 0.5, 1.0, 2.0, 5.0):
        assert solve_alpha(c) == pytest.approx(_alpha_bisect(c), abs=1e-10)


def test_solve_alpha_residual_and_monotonicity():
    prev = None
    for c in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        a = solve_alpha(c)
        assert abs((1 + a) * math.exp(-a) - math.exp(-1.0 / c)) <= 1e-12
        if prev is not None:
            assert a < prev  # alpha strictly decreasing in c
        prev = a
    with pytest.raises(ValueError):
        solve_alpha(0.0)


def test_dspacing_centering_forms():
    assert dspacing_gumbel_centering(10_000, 1) == pytest.approx(math.log(10_000))
    raw = dspacing_gumbel_centering(10_000, 3, refined=False)
    assert raw == pytest.approx(
        math.log(10_000) + 2 * math.log(math.log(10_000)) - math.log(2.0)
    )
    b = dspacing_gumbel_centering(10_000, 3, refined=True)
    # fixed point of b = log k + (d-1) log b - log((d-1)!)
    assert b == pytest.approx(math.log(10_000) + 2 * math.log(b) - math.log(2.0), abs=1e-10)


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def test_predict_single_choice_values():
    p1 = predict_single_choice(100, 1)
    assert p1.centering == pytest.approx(math.log(100), rel=1e-12)
    p2 = predict_single_choice(100, 2)
    # f_n = loglog 100 for m = 2 (natural iterated logarithm)
    assert p2.centering == pytest.approx(math.log(100) + math.log(math.log(100)), rel=1e-12)
    assert p2.centering == pytest.approx(6.132349811795993, abs=1e-12)
    pe = predict_single_choice(math.e**math.e, 1)
    assert pe.centering == pytest.approx(math.e, rel=1e-12)
    with pytest.raises(ValueError):
        predict_single_choice(2, 1)


def test_predict_d_choice_small_d():
    p = predict_d_choice(100, 1, REGIME_SMALL_D)
    assert (p.band_lo, p.band_hi) == (
        pytest.approx(math.log(100) / 2, rel=1e-12),
        pytest.approx(math.log(100), rel=1e-12),
    )
    p3 = predict_d_choice(100, 3, REGIME_SMALL_D)
    b = math.log(100) + 2 * (1 + math.log(math.log(100)) - math.log(3))
    assert p3.centering == pytest.approx(b, rel=1e-12)
    assert p3.centering == pytest.approx(7.462304860267674, abs=1e-12)
    assert p3.band_lo == pytest.approx(b / 6, rel=1e-12)
    assert p3.band_hi == pytest.approx(b / 3, rel=1e-12)


def test_predict_band_ordering_everywhere():
    for n in (10, 100, 5000):
        for d in (1, 2, 3, 7):
            p = predict_d_choice(n, d, REGIME_SMALL_D)
            assert p.band_lo <= p.band_hi
    p = predict_d_choice(1000, 7, REGIME_LOG_ORDER_D, c=1.0)
    assert p.band_lo <= p.band_hi
    assert p.alpha == pytest.approx(solve_alpha(1.0))
    assert p.tau == pytest.approx(1.0 * (1 + p.alpha) ** 2 / p.alpha)


def test_predict_d_choice_requires_c_in_log_regime():
    with pytest.raises(ValueError):
        predict_d_choice(100, 5, REGIME_LOG_ORDER_D)


def test_predict_xor_values():
    p = predict_xor(100, 3, 2, REGIME_SMALL_D)
    beta = 4 * (1 + math.log(math.log(100)) - math.log(5))
    assert p.centering == pytest.approx(math.log(100) + beta, rel=1e-12)
    assert p.band_hi == pytest.approx((math.log(100) + beta) / 3, rel=1e-12)
    assert p.band_lo == pytest.approx(p.band_hi / 2, rel=1e-12)
    # (d-1) factor kills the centering shift at d = 1 for any r
    for r in (2, 3, 5):
        p1 = predict_xor(100, 1, r, REGIME_SMALL_D)
        assert p1.centering == pytest.approx(math.log(100), rel=1e-12)
    with pytest.raises(ValueError):
        predict_xor(100, 3, 1, REGIME_SMALL_D)


def test_prediction_log_order_invariant_enforced():
    with pytest.raises(ValueError):
        AsymptoticPrediction(
            centering=1.0,
            scale=1.0,
            regime=REGIME_LOG_ORDER_D,
            band_lo=0.0,
            band_hi=1.0,
            alpha=1.0,
            tau=1.0,  # inconsistent with alpha
        )


def test_p_sigma_transition_thresholds():
    assert p_sigma_transition("fixed_m_single_choice", 1, m=2) == (2.0, 2.0)
    assert p_sigma_transition(REGIME_SMALL_D, 3) == (3.0, 6.0)
    lo, hi = p_sigma_transition(REGIME_LOG_ORDER_D, 6, c=1.0)
    tau = 1.0 * (1 + solve_alpha(1.0)) ** 2 / solve_alpha(1.0)
    assert lo == pytest.approx(6 / (1.5 * tau))
    assert hi == pytest.approx(24 / tau)


# ---------------------------------------------------------------------------
# Limit behavior (statistical, fixed seeds)
# ---------------------------------------------------------------------------


def test_max_spacing_gumbel_ks():
    # KS distance of M_{k,1}*k - log k to the Gumbel law, k = 10^4.
    from storagebalance.limitlaws import ks_distance

    k, trials = 10_000, 10_000
    stats = np.empty(trials)
    batch = 2000
    for start in range(0, trials, batch):
        m = spacing_matrix(k, 1.0, 99, batch, start_index=start)
        stats[start : start + batch] = window_maxima_line(m, 1)
    ks = ks_distance(stats * k - math.log(k), gumbel_cdf)
    assert ks <= 0.02


def test_circle_line_mismatch_probability():
    # Pr{circular max != line max} <= d/k (+ MC slack), k=100, d=3, 10^5 trials.
    k, d, trials = 100, 3, 100_000
    diff = 0
    batch = 20_000
    for start in range(0, trials, batch):
        m = spacing_matrix(k, 1.0, 123, batch, start_index=start)
        diff += int(np.count_nonzero(window_maxima_circle(m, d) > window_maxima_line(m, d)))
    p = diff / trials
    assert p <= d / k + 3.0 * math.sqrt(p * (1 - p) / trials)
