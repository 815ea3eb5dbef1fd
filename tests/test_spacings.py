"""Tests for the demand model, windowed maxima, and closed-form predictors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storagebalance.allocation import build_single_choice
from storagebalance.loadsolver import t_star_batch
from storagebalance.spacings import (
    REGIME_LOG_ORDER_D,
    REGIME_SMALL_D,
    AsymptoticPrediction,
    dspacing_gumbel_centering,
    gumbel_cdf,
    gumbel_centering_m_blocks,
    p_sigma_transition,
    predict_d_choice,
    predict_single_choice,
    predict_xor,
    solve_alpha,
    spacing_matrix,
    WindowMaxima,
)
from util import per_trial_spacings, spacing_batches, window_maxima


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_single_spacing_is_whole_interval():
    assert spacing_matrix(1, 1.0, 0, 1).tolist() == [[1.0]]


def test_identical_stream_reproduces_sample():
    a = spacing_matrix(3, 2.0, 1234, 1, start_index=5)
    b = spacing_matrix(3, 2.0, 1234, 1, start_index=5)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = spacing_matrix(5, 1.0, 1234, 1, start_index=0)
    b = spacing_matrix(5, 1.0, 1234, 1, start_index=1)
    assert not np.array_equal(a, b)


def test_spacing_matrix_draws_into_a_view_of_a_wider_buffer():
    for k in (1, 7, 10_000):
        buffer = np.full((6, k + 5), np.nan)
        view = buffer[1:4, 2 : k + 2]
        assert spacing_matrix(k, 2.5, 9, 3, start_index=4, out=view) is view
        assert view.tobytes() == spacing_matrix(k, 2.5, 9, 3, start_index=4).tobytes()
        assert np.isnan(buffer[[0, 4, 5]]).all()
        assert np.isnan(buffer[:, :2]).all() and np.isnan(buffer[:, k + 2 :]).all()


def test_spacing_matrix_rejects_an_out_it_cannot_fill():
    buffer = np.empty((3, 20))
    for out in (buffer[:2, :10], buffer[:3, :9], buffer[:3, :10].astype(np.float32),
                buffer[:3, ::2], np.empty((10, 3)).T):
        with pytest.raises(ValueError, match="out"):
            spacing_matrix(10, 1.0, 9, 3, out=out)


def test_sigma_is_a_pure_scale():
    unit = spacing_matrix(6, 1.0, 9, 1, start_index=3)
    scaled = spacing_matrix(6, 7.5, 9, 1, start_index=3)
    assert np.array_equal(unit * 7.5, scaled)


def test_coordinate_means_match_exchangeability():
    # E[S_i] = 1/k by exchangeability; Monte Carlo with 10^6 draws.
    k, trials = 4, 1_000_000
    total = np.zeros(k)
    for _, m in spacing_batches(k, trials, 2024):
        total += m.sum(axis=0)
    means = total / trials
    # var of one coordinate is about 1/k^2; MC stderr ~ 1/(k*sqrt(trials))
    tol = 3.0 / (k * math.sqrt(trials))
    assert np.all(np.abs(means - 0.25) < tol)


def test_spacing_matrix_rows_match_per_trial_streams():
    # the re-keyed batch sampler and its row-sum normalisation are bit-exact
    # against one generator per trial, across k, the full seed range and
    # stream indices that wrap past 2^64
    for k, rows in ((1, 8), (5, 8), (100, 8), (10_000, 3)):
        for seed in (0, 1, 77, 2**63 - 1, 2**63 + 1, 2**64 - 1):
            for start in (3, 2**64 - 2):
                mat = spacing_matrix(k, 2.0, seed, rows, start_index=start)
                for i in range(rows):
                    row = per_trial_spacings(k, 2.0, seed, start + i)
                    assert mat[i].tobytes() == row.tobytes(), (k, seed, start, i)


def test_seeds_beyond_2_63_draw_distinct_streams():
    a = spacing_matrix(10, 1.0, 2**63 + 1, 4, start_index=2)
    b = spacing_matrix(10, 1.0, 2**63 + 2, 4, start_index=2)
    assert not np.array_equal(a, b)
    top = per_trial_spacings(4, 1.0, 2**64 - 1, 0)
    low = per_trial_spacings(4, 1.0, 1, 0)
    assert not np.array_equal(top, low)


def test_seed_outside_64_bits_rejected():
    for seed in (-1, -1000, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="master_seed"):
            spacing_matrix(3, 1.0, seed, 2)


def test_negative_start_index_rejected():
    with pytest.raises(ValueError, match="start_index"):
        spacing_matrix(3, 1.0, 0, 2, start_index=-1)


# ---------------------------------------------------------------------------
# Windowed maxima
# ---------------------------------------------------------------------------


def test_nonoverlapping_blocks_basic():
    # The largest of the k/m disjoint m-blocks is t* of a single-choice layout
    # storing m objects per node.
    s = [0.1, 0.2, 0.3, 0.4]
    assert t_star_batch(build_single_choice(2, 2), s)[0] == pytest.approx(0.7, abs=1e-15)
    assert t_star_batch(build_single_choice(1, 4), s)[0] == pytest.approx(1.0, abs=1e-15)


def test_max_spacing_mean_matches_harmonic_number():
    # E[max spacing] = H_k / k; cross-check with 10^6 Monte Carlo draws.
    k, trials = 100, 1_000_000
    h_k = sum(1.0 / i for i in range(1, k + 1))
    acc = 0.0
    acc_sq = 0.0
    for _, rows in spacing_batches(k, trials, 31337):
        m = window_maxima(rows, 1, circle=False) * k
        acc += m.sum()
        acc_sq += (m * m).sum()
    mean = acc / trials
    var = acc_sq / trials - mean * mean
    assert abs(mean - h_k) <= 3.0 * math.sqrt(var / trials)


def test_line_window_examples():
    s = [0.4, 0.1, 0.1, 0.4]
    assert window_maxima(s, 2, circle=False) == pytest.approx(0.5, abs=1e-15)
    s2 = [0.1, 0.2, 0.3, 0.4]
    assert window_maxima(s2, 3, circle=False) == pytest.approx(0.9, abs=1e-12)
    assert window_maxima(s2, 4, circle=False) == pytest.approx(1.0, abs=1e-12)


def test_circle_window_examples():
    s = [0.4, 0.1, 0.1, 0.4]
    assert window_maxima(s, 2, circle=True) == pytest.approx(0.8, abs=1e-12)
    s2 = [0.1, 0.2, 0.3, 0.4]
    assert window_maxima(s2, 2, circle=True) == pytest.approx(0.7, abs=1e-12)
    assert window_maxima([s, s2], 2, circle=True).tolist() == pytest.approx([0.8, 0.7], abs=1e-12)


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
    line = window_maxima(arr, d, circle=False)
    circ = window_maxima(arr, d, circle=True)
    assert circ >= line  # exact, both cut from the same window sums
    if d == 1:
        assert circ == line


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_window_maxima_match_direct_window_sums(data):
    # every doubling sum of one WindowMaxima agrees with direct sums of
    # shifted slices
    k = data.draw(st.integers(min_value=1, max_value=30), label="k")
    rows = data.draw(st.integers(min_value=1, max_value=3), label="rows")
    values = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=rows * k, max_size=rows * k)
    )
    a = np.array(values).reshape(rows, k)
    ds = set(data.draw(st.lists(st.integers(min_value=1, max_value=k), min_size=1, max_size=4)))
    if data.draw(st.booleans(), label="with d = k"):
        ds.add(k)
    ext = np.concatenate([a, a[:, : k - 1]], axis=1)
    windows = WindowMaxima(rows, k, ds)
    windows.entries[:] = a
    for d, line, circ in windows.max_pairs(rows):
        line_ref = sum(a[:, j : k - d + 1 + j] for j in range(d)).max(axis=1)
        circ_ref = sum(ext[:, j : k + j] for j in range(d)).max(axis=1)
        np.testing.assert_allclose(line, line_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(circ, circ_ref, rtol=1e-12, atol=0)
        assert (circ >= line).all()


def test_window_sums_add_the_doubling_pieces_smallest_first():
    # d = 7 = 1 + 2 + 4: s_i, plus the pair from i + 1, plus the two pairs
    # from i + 3, which keeps every sum within ceil(log2 7) = 3 roundings
    k, rows = 50, 200
    a = spacing_matrix(k, 1.0, 3, rows)
    ext = np.concatenate([a, a[:, :6]], axis=1)

    def s(j):
        return ext[:, j : j + k]

    sums = (s(0) + (s(1) + s(2))) + ((s(3) + s(4)) + (s(5) + s(6)))
    windows = WindowMaxima(rows, k, [7])
    windows.entries[:] = a
    [(_, line, circle)] = windows.max_pairs(rows)
    assert line.tobytes() == sums[:, : k - 6].max(axis=1).tobytes()
    assert circle.tobytes() == sums.max(axis=1).tobytes()


def test_circle_equals_line_when_max_does_not_wrap():
    s = np.array([0.05, 0.5, 0.3, 0.1, 0.05])
    assert window_maxima(s, 2, circle=True) == window_maxima(s, 2, circle=False)


def _range_counts(monkeypatch, ranges, k, rows, demands=None):
    """Per-row range counts from the limit-check pass, for the given ranges."""
    import storagebalance.limitlaws as lim

    patched = [(name, lo, hi, 0.0, None) for name, lo, hi in ranges]
    monkeypatch.setattr(lim, "_count_ranges", lambda k: patched)
    if demands is not None:
        monkeypatch.setattr(lim, "spacing_matrix", lambda *args, **kwargs: np.array(demands))
    return lim._one_pass(k, [], 0, rows, 5).counts


def test_count_spacings_in_range(monkeypatch):
    counts = _range_counts(
        monkeypatch, [("inner", 0.15, 0.35), ("all", 0.0, 1.0)], 4, 1, [[0.1, 0.2, 0.3, 0.4]]
    )
    assert counts["inner"].tolist() == [2]
    assert counts["all"].tolist() == [4]


def test_count_monotone_by_inclusion(monkeypatch):
    counts = _range_counts(monkeypatch, [("inner", 0.01, 0.02), ("outer", 0.005, 0.03)], 50, 20)
    assert (counts["inner"] <= counts["outer"]).all()


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
    for _, m in spacing_batches(k, trials, 4096):
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
    # the asymptotic form is the m-block centering with m = d
    raw = gumbel_centering_m_blocks(10_000, 3)
    assert raw == pytest.approx(
        math.log(10_000) + 2 * math.log(math.log(10_000)) - math.log(2.0)
    )
    b = dspacing_gumbel_centering(10_000, 3)
    # fixed point of b = log k + (d-1) log b - log((d-1)!)
    assert b == pytest.approx(math.log(10_000) + 2 * math.log(b) - math.log(2.0), abs=1e-10)


@pytest.mark.parametrize("k,first", [(50, 10), (300, 15), (1000, 18), (10_000, 24)])
def test_dspacing_centering_domain_ends_where_the_iteration_falls_below_zero(k, first):
    for d in range(1, first):
        b = dspacing_gumbel_centering(k, d)
        assert b > 0
        assert b == pytest.approx(math.log(k) + (d - 1) * math.log(b) - math.lgamma(d), abs=1e-10)
    with pytest.raises(ValueError, match=f"no Gumbel centering at k={k}, d={first}"):
        dspacing_gumbel_centering(k, first)


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


def test_predict_xor_log_order_band():
    n, d, c = 10_000, 14, 1.5
    alpha = solve_alpha(c)
    replica = predict_d_choice(n, d, REGIME_LOG_ORDER_D, c=c)
    band_hi = []
    for r in (2, 3, 4):
        p = predict_xor(n, d, r, REGIME_LOG_ORDER_D, c=c)
        x = (alpha + 1) * (3 * math.log(math.log(n)) / (2 * c * alpha * math.log(n)) + r)
        assert p.band_hi == pytest.approx(x, rel=1e-12)
        assert p.band_lo == p.band_hi / 2
        assert (p.alpha, p.tau) == (replica.alpha, replica.tau)
        band_hi.append(p.band_hi)
    # the band grows additively by r: each unit of r adds alpha + 1
    for lo, hi in zip(band_hi, band_hi[1:]):
        assert hi - lo == pytest.approx(alpha + 1, rel=1e-12)
    with pytest.raises(ValueError):
        predict_xor(n, d, 2, REGIME_LOG_ORDER_D)


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
    for start, m in spacing_batches(k, trials, 99):
        stats[start : start + len(m)] = window_maxima(m, 1, circle=False)
    ks = ks_distance(stats * k - math.log(k), gumbel_cdf)
    assert ks <= 0.02


def test_circle_line_mismatch_probability():
    # Pr{circular max != line max} <= d/k (+ MC slack), k=100, d=3, 10^5 trials.
    k, d, trials = 100, 3, 100_000
    diff = 0
    for _, m in spacing_batches(k, trials, 123):
        wraps = window_maxima(m, d, circle=True) > window_maxima(m, d, circle=False)
        diff += int(np.count_nonzero(wraps))
    p = diff / trials
    assert p <= d / k + 3.0 * math.sqrt(p * (1 - p) / trials)
