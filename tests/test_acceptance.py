"""Golden acceptance gate.

Each test checks one released-figure criterion against the library with
frozen seeds and pinned tolerances, and registers a one-line PASS/FAIL
verdict printed in the terminal summary. Runtime budgets are asserted
alongside the numerical checks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import gwpva as g
from gwpva.datasets import (bear_cap, bear_life_table, bear_population_2016,
                            synthetic_abundances, synthetic_cap,
                            synthetic_life_table, synthetic_true_draw)
from gwpva.extinction import _lambda_below
from gwpva.montecarlo import PosteriorEnsemble
from gwpva.sampling import SeedSpec
from gwpva.spectral import pair_means

from conftest import dense_pgf, record_acceptance


def test_criterion_01_exact_posterior():
    t0 = time.perf_counter()
    post = g.posterior_update(g.prior_noninformative(synthetic_cap()),
                              synthetic_life_table())
    alpha = post.alpha[(1, 1)]
    elapsed = time.perf_counter() - t0
    expected = np.array([145.0, 128.0, 20.0, 14.0, 8.0])
    ok = np.array_equal(alpha, expected) and elapsed < 1.0
    record_acceptance("1", ok,
                      f"flat-prior posterior alpha = {list(alpha)} "
                      f"(expected {expected.tolist()}), {elapsed:.3f}s")
    assert np.array_equal(alpha, expected)
    assert elapsed < 1.0


def test_criterion_02_posterior_mean(synthetic_posterior):
    t0 = time.perf_counter()
    alpha = [int(a) for a in synthetic_posterior.alpha[(1, 1)]]
    mean_exact = Fraction(sum(k * a for k, a in enumerate(alpha)), sum(alpha))
    M = g.posterior_mean_matrix(synthetic_posterior)
    elapsed = time.perf_counter() - t0
    ok = (mean_exact == Fraction(242, 315)
          and abs(M[0][0] - float(Fraction(242, 315))) < 1e-15
          and abs(float(mean_exact) - 0.7689) < 1e-3
          and elapsed < 1.0)
    record_acceptance("2", ok,
                      f"posterior mean growth rate = {mean_exact} = "
                      f"{float(mean_exact):.6f} (reported 0.7689), {elapsed:.3f}s")
    assert ok


# (pair, index of the reported category, printed mean, printed 90% interval)
_BEAR_TABLE = [
    ((1, 2), 1, 0.8181, (0.67, 0.93)),
    ((2, 3), 1, 0.9444, (0.84, 1.00)),
    ((3, 4), 1, 0.8125, (0.64, 0.94)),
    ((4, 5), 1, 0.9286, (0.79, 1.00)),
    ((5, 5), 1, 0.9480, (0.90, 0.98)),
    ((5, 1), 0, 0.8068, (0.73, 0.87)),
    ((5, 1), 1, 0.1023, (0.05, 0.16)),
    ((5, 1), 2, 0.0795, (0.04, 0.13)),
    ((5, 1), 3, 0.0114, (0.00, 0.03)),
]
_BEAR_ALPHA = {(1, 2): [4, 18], (2, 3): [1, 17], (3, 4): [3, 13],
               (4, 5): [1, 13], (5, 5): [4, 73], (5, 1): [71, 9, 7, 1]}


def test_criterion_03_bear_posterior_table(bear_posterior):
    t0 = time.perf_counter()
    ok = True
    for pair, expected in _BEAR_ALPHA.items():
        ok &= bear_posterior.alpha[pair] == tuple(float(x) for x in expected)
    worst_mean = worst_ci = 0.0
    for pair, k, mean, (lo, hi) in _BEAR_TABLE:
        a = bear_posterior.alpha[pair]
        worst_mean = max(worst_mean, abs(g.marginal_mean(a, k) - mean))
        clo, chi = g.credible_interval(a, k, level=0.90)
        worst_ci = max(worst_ci, abs(clo - lo), abs(chi - hi))
    elapsed = time.perf_counter() - t0
    ok = ok and worst_mean < 5e-4 and worst_ci < 0.01 and elapsed < 1.0
    record_acceptance("3", ok,
                      f"all 6 posterior rows exact; means within {worst_mean:.1e} "
                      f"(< 5e-4), interval endpoints within {worst_ci:.3f} "
                      f"(< 0.01), {elapsed:.3f}s")
    assert ok


def test_criterion_04_viability(synthetic_posterior, bear_posterior, bear_ensemble):
    t0 = time.perf_counter()
    synth = g.mc_viability_probability(synthetic_posterior, n_prec=10_000,
                                       master_seed=2024)
    t_synth = time.perf_counter() - t0
    t0 = time.perf_counter()
    bear = g.mc_viability_probability(bear_posterior, ensemble=bear_ensemble)
    p_sub = 1.0 - bear.value
    t_bear = time.perf_counter() - t0
    ok = (synth.value <= 0.001 and abs(p_sub - 0.012) <= 0.010
          and t_synth < 30 and t_bear < 30)
    record_acceptance("4", ok,
                      f"synthetic P(viable) = {synth.value:.4f} (<= 0.001); "
                      f"bear P(not viable) = {p_sub:.4f} (0.012 +/- 0.010); "
                      f"{t_synth:.1f}s + {t_bear:.1f}s")
    assert ok


def test_criterion_05_time_bounds(synthetic_posterior):
    t0 = time.perf_counter()
    tb = g.mc_time_bounds(synthetic_posterior, (22,), alpha=0.05,
                          n_prec=10_000, master_seed=2024)
    elapsed = time.perf_counter() - t0
    ok = (tb.t_plus is not None and 2 <= tb.t_minus <= 4
          and 30 <= tb.t_plus <= 32 and elapsed < 60)
    record_acceptance("5", ok,
                      f"bracket = ({tb.t_minus}, {tb.t_plus}) "
                      f"(target (3, 31) +/- 1 per endpoint), {elapsed:.1f}s")
    assert ok


def test_criterion_06_coverage_study():
    SEED = 2026
    true = synthetic_true_draw()
    prior = g.prior_noninformative(synthetic_cap())
    t0 = time.perf_counter()
    cov_b = cov_n = n_b = n_n = 0
    for r in range(1000):
        traj = g.simulate(true, g.PopulationState((100,)), 5, SeedSpec(SEED, r))
        if traj.extinct_at is not None or len(traj.states) < 6:
            continue
        post = g.posterior_update(prior, traj.table)
        tb = g.mc_time_bounds(post, (traj.final.total,), alpha=0.05,
                              n_prec=1000, master_seed=SEED * 1000 + r)
        text = g.simulate_extinction_time(true, traj.final,
                                          SeedSpec(SEED, 10 ** 6 + r))
        n_b += 1
        if tb.t_minus < text <= (tb.t_plus if tb.t_plus is not None else 10 ** 9):
            cov_b += 1
        Ns = [s.total for s in traj.states]
        try:
            lo, hi = g.regression_extinction_interval(Ns, level=0.90)
        except ValueError:
            continue
        n_n += 1
        if lo <= text <= hi:
            cov_n += 1
    elapsed = time.perf_counter() - t0
    bayes = cov_b / n_b
    naive = cov_n / n_n
    ok = 0.90 <= bayes <= 0.96 and 0.43 <= naive <= 0.55 and elapsed < 900
    record_acceptance("6", ok,
                      f"bracket coverage = {bayes:.3f} over {n_b} replications "
                      f"(target [0.90, 0.96]); naive regression coverage = "
                      f"{naive:.3f} over {n_n} (target [0.43, 0.55]); {elapsed:.0f}s")
    assert ok


@pytest.mark.parametrize("p0_adult, lam", [(0.20, 0.992), (0.26, 0.959)])
def test_multitype_bracket_coverage(p0_adult, lam):
    # criterion 6 on bear's five-type cap: a known law is simulated for 5
    # years from (10, 8, 7, 6, 40), refit under the flat prior and
    # bracketed at alpha = 0.05 from 1 000 draws; its own extinction time
    # must fall inside the bracket at level 1 - 2 alpha, and above T+ or at
    # or below T- at most alpha of the time, within 3 binomial SEs
    laws = {(1, 2): [0.18, 0.82], (2, 3): [0.06, 0.94], (3, 4): [0.19, 0.81],
            (4, 5): [0.07, 0.93], (5, 5): [p0_adult, 1 - p0_adult],
            (5, 1): [0.80, 0.10, 0.08, 0.02]}
    true = g.ParameterDraw(bear_cap(), laws)
    assert g.perron_triple(g.mean_matrix(true)).lam == pytest.approx(lam, abs=5e-4)
    prior = g.prior_noninformative(bear_cap())
    t0 = time.perf_counter()
    below = above = 0
    widths, used = [], []
    for r in range(300):
        traj = g.simulate(true, g.PopulationState((10, 8, 7, 6, 40)), 5, SeedSpec(16, r))
        if traj.extinct_at is not None or len(traj.states) < 6:
            continue
        post = g.posterior_update(prior, traj.table)
        tb = g.mc_time_bounds(post, traj.final.N, alpha=0.05, n_prec=1000,
                              master_seed=16000 + r)
        text = g.simulate_extinction_time(true, traj.final, SeedSpec(16, 10 ** 6 + r))
        below += text <= tb.t_minus
        above += tb.t_plus is not None and text > tb.t_plus
        widths.append((tb.t_plus if tb.t_plus is not None else math.inf) - tb.t_minus)
        used.append(tb.n_used)
    elapsed = time.perf_counter() - t0
    n = len(used)
    coverage = 1 - (below + above) / n
    ok = (n >= 290 and coverage >= 0.9 - 3 * math.sqrt(0.9 * 0.1 / n)
          and max(below, above) / n <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / n))
    record_acceptance(f"6 (K = 5, lambda {lam})", ok,
                      f"bracket coverage = {coverage:.3f} over {n} replications "
                      f"({below} at or below T-, {above} above T+); median width "
                      f"{np.median(widths):g}, median n_used {np.median(used):g}; "
                      f"{elapsed:.0f}s")
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="the posterior puts ~1.1% mass on non-viable "
                          "parameters, each contributing certain extinction, "
                          "so the estimate cannot fall below that mass")
def test_criterion_07a_bear_extinction_2016(bear_posterior, bear_ensemble):
    t0 = time.perf_counter()
    est = g.mc_extinction_probability(bear_posterior, bear_population_2016(),
                                      ensemble=bear_ensemble)
    elapsed = time.perf_counter() - t0
    ok = est.value < 0.005 and elapsed < 60
    record_acceptance("7a", ok,
                      f"P(extinction | 2016 population) = {est.value:.5f} "
                      f"(target < 0.005; floor = posterior non-viability mass "
                      f"~ 0.011), {elapsed:.1f}s")
    assert ok


def test_criterion_07b_two_adult_females(bear_posterior, bear_ensemble):
    t0 = time.perf_counter()
    est = g.mc_extinction_probability(bear_posterior, (0, 0, 0, 0, 2),
                                      ensemble=bear_ensemble)
    elapsed = time.perf_counter() - t0
    ok = abs(est.value - 0.15) <= 0.03 and elapsed < 60
    record_acceptance("7b", ok,
                      f"P(extinction | 2 adult females) = {est.value:.4f} "
                      f"(0.15 +/- 0.03), {elapsed:.1f}s")
    assert ok


def test_criterion_07c_effective_population_size(bear_posterior, bear_ensemble):
    t0 = time.perf_counter()
    eff = g.effective_population_size(bear_posterior, 5, threshold=0.05,
                                      ensemble=bear_ensemble)
    elapsed = time.perf_counter() - t0
    ok = eff == 5 and elapsed < 60
    record_acceptance("7c", ok,
                      f"effective population size (adults, threshold 0.05) = "
                      f"{eff} (expected 5), {elapsed:.1f}s")
    assert ok


def test_criterion_08_baseline_moments():
    t0 = time.perf_counter()
    gm = g.log_growth_moments(synthetic_abundances())
    elapsed = time.perf_counter() - t0
    ok = (abs(gm.r_d - (-0.3028)) <= 5e-4 and abs(gm.v_r - 0.0041) <= 5e-4
          and elapsed < 1.0)
    record_acceptance("8", ok,
                      f"r_d = {gm.r_d:.4f} (-0.3028 +/- 5e-4), "
                      f"v_r = {gm.v_r:.4f} (0.0041 +/- 5e-4), {elapsed:.3f}s")
    assert ok


def _bisect_min_root(p: np.ndarray) -> float:
    ks = np.arange(len(p))
    if float(ks @ p) <= 1:
        return 1.0
    lo, hi = 0.0, 1.0 - 1e-13
    for _ in range(200):
        mid = (lo + hi) / 2
        if float(p @ mid ** ks) - mid > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_09_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    checks = {}

    # (a) conjugacy chain rule: two sequential updates == one joint update
    cap = g.OffspringCap(2, {(1, 1): 3, (1, 2): 2, (2, 2): 1})
    prior = g.prior_noninformative(cap)
    ok_a = True
    for _ in range(200):
        def rand_table():
            counts = {}
            for (i, j) in cap.pairs():
                for k in range(cap.cap_of(i, j) + 1):
                    for t in range(2):
                        n = int(rng.integers(0, 20))
                        if n:
                            counts[(i, j, k, t)] = n
            return g.LifeTable(2, 1, counts)

        t1, t2 = rand_table(), rand_table()
        chained = g.posterior_update(g.posterior_update(prior, t1), t2)
        joint = g.posterior_update(prior, t1.concat(t2))
        ok_a &= all(np.array_equal(chained.alpha[p], joint.alpha[p])
                    for p in cap.pairs())
    checks["a:chain-rule"] = ok_a

    # (b) single-type fixed point vs a 200-step bisection oracle
    worst_b = 0.0
    for _ in range(1000):
        kap = int(rng.integers(1, 6))
        p = rng.dirichlet(np.full(kap + 1, 0.8))
        draw = g.ParameterDraw(g.OffspringCap(1, {(1, 1): kap}), {(1, 1): p})
        prof = g.minimal_fixed_point(draw)
        worst_b = max(worst_b, abs(prof.s[0] - _bisect_min_root(p)))
    checks["b:fixed-point<=1e-9"] = worst_b <= 1e-9

    # (c) dominant-eigenpair residuals and row-sum bracketing
    ok_c = True
    worst_c = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 7))
        M = rng.uniform(0.05, 1.0, size=(K, K))
        tri = g.perron_triple(M)
        norm = np.abs(M).sum(axis=1).max()
        worst_c = max(worst_c, tri.residual / norm)
        rows = M.sum(axis=1)
        ok_c &= rows.min() - 1e-9 <= tri.lam <= rows.max() + 1e-9
    checks["c:perron"] = ok_c and worst_c <= 1e-10

    # (d) simulator conditional mean at 3 sigma
    draw = synthetic_true_draw()
    n0, runs = 40, 3000
    finals = np.array([g.simulate(draw, g.PopulationState((n0,)), 1,
                                  SeedSpec(14, r)).final.total
                       for r in range(runs)])
    p = np.asarray(draw.p[(1, 1)])
    var1 = float((np.arange(5) ** 2) @ p - 0.75 ** 2)
    se = math.sqrt(n0 * var1 / runs)
    checks["d:conditional-mean"] = abs(finals.mean() - n0 * 0.75) <= 3 * se

    # (e) U(t) dominates the empirical survival curve on subcritical draws
    ok_e = True
    paths, horizon = 800, 40
    for trial in range(20):
        while True:
            kap = int(rng.integers(1, 5))
            p = rng.dirichlet(np.ones(kap + 1))
            if float(np.arange(kap + 1) @ p) < 0.95:
                break
        d = g.ParameterDraw(g.OffspringCap(1, {(1, 1): kap}), {(1, 1): p})
        sb = g.survival_bounds(d, (10,))
        path_rng = np.random.default_rng(1000 + trial)
        N = np.full(paths, 10)
        for t in range(1, horizon + 1):
            counts = path_rng.multinomial(N, p)
            N = counts @ np.arange(kap + 1)
            phat = float(np.mean(N > 0))
            se_t = math.sqrt(max(phat * (1 - phat), 1e-12) / paths)
            ok_e &= float(sb.upper(np.array([t]))[0]) >= phat - 3 * se_t
    checks["e:upper-bound"] = ok_e

    # (f) bit-determinism: a rerun reproduces every Monte Carlo output, and
    # the first 600 draws of a 1000-draw ensemble are the 600-draw ensemble
    bear = g.posterior_update(g.prior_noninformative(bear_cap()),
                              bear_life_table())
    outputs = []
    for _ in range(2):
        ens = PosteriorEnsemble(bear, n_prec=600, master_seed=9)
        via = g.mc_viability_probability(bear, ensemble=ens)
        ext = g.mc_extinction_probability(bear, (2, 2, 2, 2, 10), ensemble=ens)
        tb = g.mc_time_bounds(bear, (2, 2, 2, 2, 10), ensemble=ens)
        re = g.mc_reintroduction(bear, ensemble=ens)
        outputs.append((via.value, ext.value, tb.t_minus, tb.t_plus,
                        tb.upper_curve.tobytes(), tb.lower_curve.tobytes(),
                        re.mean.tobytes(), re.histograms.tobytes()))
    large = PosteriorEnsemble(bear, n_prec=1000, master_seed=9)
    prefix = all(np.array_equal(ens.law(p), large.law(p)[:600]) for p in ens.pairs)
    for name in ("lambdas", "extinction_profiles"):
        prefix &= np.array_equal(getattr(ens, name), getattr(large, name)[:600])
    checks["f:bit-determinism"] = outputs[0] == outputs[1] and prefix

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 600
    detail = "; ".join(f"{k} {'ok' if v else 'FAILED'}" for k, v in checks.items())
    record_acceptance("9", ok, f"{detail}; {elapsed:.0f}s")
    assert ok, checks


@pytest.mark.parametrize("K", [2, 3, 4])
def test_multitype_upper_bound_dominates_exact_survival(K):
    # 9(e) for K >= 2 against an exact oracle: phi^(t)(0)_i is the
    # probability that the line of one type-i founder is extinct by t, so
    # 1 - prod_i phi^(t)(0)_i^N_i is the exact survival curve. Laws on
    # {0, 1, 2} with Dirichlet weights spread over orders of magnitude give
    # lopsided mean matrices, whose left and right Perron vectors differ.
    rng = np.random.default_rng(K)
    pairs = [(i, j) for i in range(1, K + 1) for j in range(1, K + 1)]
    n, horizon = 300, 200
    laws = {}
    for pair in pairs:
        d = np.stack([rng.dirichlet(a) for a in np.exp(rng.normal(0, 2, (n, 3)))])
        d[:, 1:] *= rng.uniform(0, 1.5 / K, (n, 1))
        d[:, 0] = 1 - d[:, 1:].sum(axis=1)
        laws[pair] = d.T
    sub = np.flatnonzero(_lambda_below(pair_means(laws), K, 1.0)[0])
    assert len(sub) >= 200
    N = np.zeros((n, K))
    N[np.arange(n), rng.integers(0, K, n)] = rng.integers(1, 6, n)  # one founder type
    q = np.zeros((n, K))
    exact = np.empty((n, horizon))
    for t in range(horizon):
        exact[:, t] = 1 - np.prod(q ** N, axis=1)
        q = dense_pgf(laws, q)
    cap = g.OffspringCap(K, {pair: 2 for pair in pairs})
    ts = np.arange(horizon)
    worst = -np.inf
    for r in sub:
        draw = g.ParameterDraw(cap, {pair: laws[pair][:, r] for pair in pairs})
        sb = g.survival_bounds(draw, N[r].astype(int))
        worst = max(worst, float(np.max(exact[r] - sb.upper(ts))))
        if r in sub[:10]:
            # the single-draw lower curve is this exact curve, bit for bit
            assert sb.lower(ts).tobytes() == exact[r].tobytes()
    assert worst <= 1e-12


def test_criterion_10_extensions():
    t0 = time.perf_counter()
    composed = g.convolve_survival_reproduction([0.6, 0.4],
                                                [0.8, 0.1, 0.05, 0.05])
    conv_ok = np.allclose(composed, [0.48, 0.38, 0.07, 0.05, 0.02],
                          rtol=0, atol=1e-12)
    # bisection oracle for s = exp(2(s-1))
    lo, hi = 0.0, 1.0 - 1e-13
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.exp(2.0 * (mid - 1.0)) - mid > 0:
            lo = mid
        else:
            hi = mid
    fp_ok = abs(g.poisson_extinction_fixed_point(2.0) - (lo + hi) / 2) <= 1e-9
    beta = g.sex_ratio_posterior(g.BetaParams(1.0, 1.0), 14, 10)
    sex_ok = (beta.a, beta.b) == (15.0, 11.0)
    elapsed = time.perf_counter() - t0
    ok = conv_ok and fp_ok and sex_ok and elapsed < 5.0
    record_acceptance("10", ok,
                      f"composed law = {np.round(composed, 4).tolist()} "
                      f"(to 1e-12); Poisson fixed point within 1e-9; "
                      f"sex-ratio update exact; {elapsed:.2f}s")
    assert ok
