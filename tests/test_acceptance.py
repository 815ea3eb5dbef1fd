"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Monte Carlo criteria use fixed seeds, so the suite is
deterministic; the stated runtime budgets are asserted where the criterion
carries one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from storagebalance.allocation import (
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    overlap_sum,
    to_matrices,
)
from storagebalance.cli import ExperimentConfig, run_simulate
from storagebalance.limitlaws import ks_distance
from storagebalance.loadsolver import (
    STABILITY_TOL,
    min_max_load,
    min_max_load_flow,
    necessary_condition,
    sufficient_condition,
    t_star_batch,
)
from storagebalance.metrics import (
    SOLVE_LOAD,
    estimate_metrics,
    exact_region_k3,
    rows_to_csv,
    t_star_series,
)
from storagebalance.spacings import gumbel_cdf, spacing_matrix
from util import (
    dense,
    estimate_alone,
    is_fano_plane,
    replica_instance,
    spacing_batches,
    window_maxima,
)

pytestmark = pytest.mark.acceptance

SEED = 0x5EED2026


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_exact_three_node_geometry():
    t0 = time.perf_counter()
    values = {}
    for d in (1, 2, 3):
        values[d] = exact_region_k3(build_cyclic(3, d), 3).p_sigma()
    region2 = exact_region_k3(build_cyclic(3, 2), 3)
    verts = {tuple(float(c) for c in v) for v in region2.polygon_vertices()}
    expected_verts = {
        (0.0, 1.0, 2.0),
        (0.0, 2.0, 1.0),
        (1.0, 0.0, 2.0),
        (1.0, 2.0, 0.0),
        (2.0, 0.0, 1.0),
        (2.0, 1.0, 0.0),
    }
    elapsed = time.perf_counter() - t0
    ok = (
        values[1] == Fraction(0)
        and values[2] == Fraction(2, 3)
        and values[3] == Fraction(1)
        and verts == expected_verts
        and elapsed < 1.0
    )
    shown = {d: f"{v.numerator}/{v.denominator}" for d, v in values.items()}
    report(1, ok, f"exact P = {shown}, hexagon matched, {elapsed:.3f}s")


def test_criterion_02_monte_carlo_agreement():
    t0 = time.perf_counter()
    p, _ = estimate_alone(build_cyclic(3, 2), 3.0, 100_000, SEED)
    elapsed = time.perf_counter() - t0
    err = abs(p.mean - 2.0 / 3.0)
    ok = err <= 3.0 * p.stderr and elapsed < 60.0
    report(2, ok, f"P = {p.mean:.5f} vs 2/3, |err| = {err:.5f} <= {3 * p.stderr:.5f}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_overlap_identity():
    cases = [
        (build_clustering(9, 3), 2 * 3 * 9),
        (build_cyclic(7, 3), 2 * 3 * 7),
        (build_block_design(3), 2 * 3 * 7),
        (build_block_design(5), 4 * 5 * 21),
    ]
    for d in (2, 3, 5):
        cases.append((build_cyclic(100, d), (d - 1) * d * 100))
    results = [(a.kind, a.n, a.d, overlap_sum(a), want) for a, want in cases]
    ok = all(got == want for _, _, _, got, want in results)
    report(3, ok, "; ".join(f"{k}(n={n},d={d}): {got}=={want}" for k, n, d, got, want in results))


def test_criterion_04_reference_layouts():
    checks = []
    # cyclic(7,3): node j hosts objects {j, j-1, j-2}
    cyc = build_cyclic(7, 3)
    contents = [set() for _ in range(7)]
    for i in range(7):
        for s in cyc.recovery_sets[i]:
            contents[s[0]].add(i)
    checks.append(
        ("cyclic(7,3) layout", all(contents[j] == {j % 7, (j - 1) % 7, (j - 2) % 7} for j in range(7)))
    )
    # block(3) isomorphic to the printed seven-block design: both are the
    # 2-(7,3,1) design, which is unique up to relabeling
    display = [(0, 1, 2), (0, 5, 6), (0, 3, 4), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    bd = build_block_design(3)
    bd_contents = [[] for _ in range(7)]
    for i in range(7):
        for s in bd.recovery_sets[i]:
            bd_contents[s[0]].append(i)
    checks.append(("block(3) isomorphic", is_fano_plane(bd_contents) and is_fano_plane(display)))
    # routing matrices reproduced exactly
    m_rep, _ = dense(to_matrices(build_cyclic(3, 2)))
    checks.append(
        ("replica M", np.array_equal(m_rep, np.array([[1, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]])))
    )
    m_xor, _ = dense(to_matrices(build_cyclic_xor(3, 2, 2)))
    checks.append(
        ("xor M", np.array_equal(m_xor, np.array([[1, 0, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 1, 0]])))
    )
    ok = all(flag for _, flag in checks)
    report(4, ok, ", ".join(f"{name}: {'ok' if flag else 'MISMATCH'}" for name, flag in checks))


def test_criterion_05_solver_cross_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(515151)
    worst = 0.0
    for count in range(1000):
        alloc, rho = replica_instance(rng, count % 3)
        t_lp = min_max_load(to_matrices(alloc), rho).max_load
        t_fl = min_max_load_flow(alloc, rho)
        worst = max(worst, abs(t_lp - t_fl))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 120.0
    report(5, ok, f"1000 instances, max |LP - flow| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_stability_sandwich():
    cases = [
        (build_cyclic(12, 3), (6.0, 9.0, 12.0)),
        (build_clustering(12, 3), (6.0, 9.0, 12.0)),
        (build_block_design(3), (2.0, 4.0, 6.5)),
        (build_cyclic_xor(12, 3, 2), (5.0, 8.0, 11.0)),
    ]
    per_kind = 10_000
    violations = {}
    variant_rejections = [0, 0]  # cyclic necessary variants on unstable samples
    for alloc, sigmas in cases:
        v_suff = v_necc = 0
        per_sigma = per_kind // len(sigmas) + 1
        for sigma in sigmas:
            demands = spacing_matrix(alloc.k, sigma, SEED, per_sigma)
            stable = t_star_batch(alloc, demands) <= 1.0 + STABILITY_TOL
            necessary = necessary_condition(alloc, demands)
            v_suff += int(np.count_nonzero(sufficient_condition(alloc, demands) & ~stable))
            v_necc += int(np.count_nonzero(stable & ~necessary))
            if alloc.kind == "cyclic":
                # the expansion argument also gives W_d <= 2d - 1
                window_d = window_maxima(demands, alloc.d, circle=True) <= 2.0 * alloc.d - 1.0
                variant_rejections[0] += int(np.count_nonzero(~stable & ~necessary))
                variant_rejections[1] += int(np.count_nonzero(~stable & ~window_d))
        violations[alloc.kind] = (v_suff, v_necc)
    ok = all(v == (0, 0) for v in violations.values())
    detail = ", ".join(f"{k}: {v}" for k, v in violations.items())
    print(
        f"\n[criterion 06 info] cyclic necessary-variant rejections of unstable samples: "
        f"window_d_plus_1={variant_rejections[0]}, window_d={variant_rejections[1]} "
        f"(larger = tighter)"
    )
    report(6, ok, f"violations (sufficient=>stable, stable=>necessary) {detail}")


def test_criterion_07_single_choice_limit_law():
    t0 = time.perf_counter()
    n, trials = 10_000, 10_000
    alloc = build_single_choice(n, 1)
    imb = t_star_series([alloc], trials, SEED)[0] * (n / (SOLVE_LOAD * alloc.k))
    ks = ks_distance(imb - math.log(n), gumbel_cdf)
    target = math.log(n) + 0.5772156649
    rel_err = abs(imb.mean() - target) / target
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.02 and rel_err <= 0.05 and elapsed < 300.0
    report(7, ok, f"KS = {ks:.4f} <= 0.02, mean rel err = {rel_err:.4f} <= 0.05, {elapsed:.1f}s")


def test_criterion_08_replica_band_at_desk_scale():
    t0 = time.perf_counter()
    n, trials = 1000, 1000
    demands = spacing_matrix(n, 0.8 * n, SEED, trials)
    ratios = {}
    means = {}
    reversals = 0
    prev = None
    for d in (2, 3, 5):
        t_stars = t_star_batch(build_cyclic(n, d), demands)
        imb = t_stars * n / (0.8 * n)
        b = math.log(n) + (d - 1) * (1 + math.log(math.log(n)) - math.log(d))
        ratios[d] = imb.mean() * d / b
        means[d] = (imb.mean(), imb.std(ddof=1) / math.sqrt(trials))
        if prev is not None:
            diff = prev - imb  # must be >= 0 per trial (paired demands)
            reversals += int(np.count_nonzero(diff < -3.0 * diff.std(ddof=1) / math.sqrt(trials)))
        prev = imb
    elapsed = time.perf_counter() - t0
    in_band = all(0.4 <= r <= 1.2 for r in ratios.values())
    monotone = means[2][0] > means[3][0] > means[5][0]
    ok = in_band and monotone and reversals == 0
    report(8, ok, f"I*d/B = {{2: %.3f, 3: %.3f, 5: %.3f}}" % tuple(ratios.values())
                  + f", reversals = {reversals}, {elapsed:.1f}s")


def test_criterion_09_phase_transition():
    t0 = time.perf_counter()
    n, d, trials = 500, 3, 4000
    alloc = build_cyclic(n, d)
    p_lo, _ = estimate_alone(alloc, 0.5 * d * n / math.log(n), trials, SEED)
    p_hi, _ = estimate_alone(alloc, 3.0 * d * n / math.log(n), trials, SEED)
    elapsed = time.perf_counter() - t0
    ok = p_lo.mean >= 0.9 and p_hi.mean <= 0.1 and elapsed < 600.0
    report(9, ok, f"P(b=0.5d) = {p_lo.mean:.4f} >= 0.9, P(b=3d) = {p_hi.mean:.4f} <= 0.1, "
                  f"{elapsed:.1f}s")


def test_criterion_10_xor_comparison():
    t0 = time.perf_counter()
    n, trials = 100, 2000
    allocs = [build_cyclic(n, 3), build_cyclic_xor(n, 3, 2)]
    series = t_star_series(allocs, trials, SEED)
    (_, i_rep), (_, i_xor) = (
        estimate_metrics(a, 0.8 * n, trials, SEED, t) for a, t in zip(allocs, series)
    )
    margin = (i_xor.mean - i_rep.mean) / math.hypot(i_rep.stderr, i_xor.stderr)
    beta = 2 * 2 * (1 + math.log(math.log(n)) - math.log(5))
    ratio = i_xor.mean * 3 / (math.log(n) + beta)
    elapsed = time.perf_counter() - t0
    ok = margin > 3.0 and 0.4 <= ratio <= 1.2
    report(10, ok, f"I_xor = {i_xor.mean:.4f} vs I_rep = {i_rep.mean:.4f} "
                   f"(margin {margin:.1f} stderr), I*d/(log n + beta) = {ratio:.3f}, "
                   f"{elapsed:.1f}s")


def test_criterion_11_circular_spacing_facts():
    t0 = time.perf_counter()
    details = []
    ok = True
    for k, d in ((100, 3), (1000, 10)):
        trials = 100_000
        mismatch = 0
        line_all = np.empty(trials)
        circ_all = np.empty(trials)
        for start, m in spacing_batches(k, trials, SEED):
            wl = window_maxima(m, d, circle=False)
            wc = window_maxima(m, d, circle=True)
            line_all[start : start + len(m)] = wl
            circ_all[start : start + len(m)] = wc
            mismatch += int(np.count_nonzero(wc > wl))
        p_mis = mismatch / trials
        bound = d / k + 3.0 * math.sqrt(max(p_mis * (1 - p_mis), 1e-12) / trials)
        ok &= p_mis <= bound
        details.append(f"(k={k},d={d}) P(neq)={p_mis:.4f}<=d/k+3s={bound:.4f}")
        ratio = k / (k - d)
        for q in (0.5, 0.9):
            x = float(np.quantile(line_all, q))
            p_l = float(np.count_nonzero(line_all > x) / trials)
            p_c = float(np.count_nonzero(circ_all > x) / trials)
            se = math.sqrt(p_c * (1 - p_c) / trials + ratio**2 * p_l * (1 - p_l) / trials)
            ok &= p_l <= p_c <= ratio * p_l + 3.0 * se
            details.append(f"q{int(q*100)}: {p_l:.4f}<={p_c:.4f}<={ratio * p_l + 3 * se:.4f}")
    elapsed = time.perf_counter() - t0
    report(11, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_12_figure_shapes():
    t0 = time.perf_counter()
    n, trials = 100, 100_000
    p_means = {}
    i_means = {}
    # one call solves the d sweep on paired demand draws
    allocs = [build_cyclic(n, d) for d in range(1, 6)]
    for alloc, t_stars in zip(allocs, t_star_series(allocs, trials, SEED)):
        p_est, i_est = estimate_metrics(alloc, 80.0, trials, SEED, t_stars)
        p_means[alloc.d] = p_est.mean
        i_means[alloc.d] = i_est.mean
    i1 = i_means[1]
    shape_ok = 4.0 <= i1 <= 5.5
    ratio_ok = all(0.65 <= i_means[d] * d / i1 <= 1.35 for d in range(2, 6))
    p_monotone = all(p_means[d + 1] >= p_means[d] - 1e-12 for d in range(1, 5))

    # figure-3 ordering: block <= cyclic at the block design's n; cyclic <=
    # clustering at the nearest multiple of d (designs cannot share n)
    fig3_ok = True
    fig3_detail = []
    for d in (3, 5):
        nb = d * d - d + 1
        nc = d * (nb // d + 1)
        estimates = []
        for pair in ([build_block_design(d), build_cyclic(nb, d)],
                     [build_cyclic(nc, d), build_clustering(nc, d)]):
            sigma = 0.8 * pair[0].n
            for alloc, t_stars in zip(pair, t_star_series(pair, 10_000, SEED)):
                estimates.append(estimate_metrics(alloc, sigma, 10_000, SEED, t_stars)[1])
        ib, icb, icc, icl = estimates
        lhs_ok = ib.mean <= icb.mean + 3.0 * math.hypot(ib.stderr, icb.stderr)
        rhs_ok = icc.mean <= icl.mean + 3.0 * math.hypot(icc.stderr, icl.stderr)
        fig3_ok &= lhs_ok and rhs_ok
        fig3_detail.append(
            f"d={d}: block {ib.mean:.3f} <= cyclic {icb.mean:.3f} (n={nb}); "
            f"cyclic {icc.mean:.3f} <= clustering {icl.mean:.3f} (n={nc})"
        )
    elapsed = time.perf_counter() - t0
    ok = shape_ok and ratio_ok and p_monotone and fig3_ok
    report(
        12,
        ok,
        f"I(1) = {i1:.3f} in [4.0, 5.5]; I(d)*d/I(1) = "
        + ", ".join(f"{i_means[d] * d / i1:.3f}" for d in range(2, 6))
        + f"; P monotone: {p_monotone}; " + "; ".join(fig3_detail) + f"; {elapsed:.0f}s",
    )


def test_criterion_13_determinism(monkeypatch):
    config = ExperimentConfig(
        kinds=["cyclic"],
        n=12,
        m=1,
        d_values=[2, 3],
        r=1,
        sigma_specs=[{"fraction_of_n": 0.8}],
        trials=2000,
        master_seed=SEED,
    )
    runs = [rows_to_csv(run_simulate(config)).encode() for _ in range(2)]
    # worker count must not perturb the data section (LP path, forced chunks)
    import storagebalance.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 256)
    seq = t_star_series([build_block_design(3)], 1000, SEED, workers=1)
    par = t_star_series([build_block_design(3)], 1000, SEED, workers=4)
    ok = runs[0] == runs[1] and np.array_equal(seq, par)
    report(13, ok, f"CSV bytes identical across runs: {runs[0] == runs[1]}; "
                   f"t* series identical across worker counts: {np.array_equal(seq, par)}")
