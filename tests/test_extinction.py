import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwpva as g
from gwpva.datasets import synthetic_true_draw
from gwpva import extinction
from gwpva.extinction import _first_crossing, _mmatrix_solve, _upper_curve
from gwpva.sampling import SeedSpec

from conftest import dense_pgf, perron_markov_bound


def _k1_draw(p):
    p = np.asarray(p, dtype=float)
    return g.ParameterDraw(g.OffspringCap(1, {(1, 1): len(p) - 1}), {(1, 1): p})


def test_generating_function_quadratic():
    draw = _k1_draw([0.25, 0.0, 0.75])
    s = np.array([0.5])
    assert g.generating_function(draw, s) == pytest.approx([0.25 + 0.75 * 0.25])
    # K = 2 by hand: phi_1(s) = (.5 + .5 s_1)(.2 + .3 s_2 + .5 s_2^2),
    # phi_2(s) = .4 + .6 s_1
    cap = g.OffspringCap(2, {(1, 1): 1, (1, 2): 2, (2, 1): 1})
    draw = g.ParameterDraw(cap, {(1, 1): [0.5, 0.5], (1, 2): [0.2, 0.3, 0.5],
                                 (2, 1): [0.4, 0.6]})
    phi = g.generating_function(draw, [0.5, 0.25])
    assert phi == pytest.approx([0.75 * 0.30625, 0.7], rel=1e-15)
    # a categorical and a Poisson pair in one row; type 2 has no offspring
    cap = g.OffspringCap(2, {(1, 1): 2, (1, 2): 1})
    draw = g.ParameterDraw(cap, {(1, 1): [0.25, 0.0, 0.75], (1, 2): g.PoissonLaw(1.5)})
    phi = g.generating_function(draw, [0.5, 0.2])
    assert phi == pytest.approx([0.4375 * np.exp(1.5 * (0.2 - 1.0)), 1.0], rel=1e-15)
    with pytest.raises(ValueError, match="shape"):
        g.generating_function(draw, [0.5])


def test_minimal_fixed_point_quadratic_exact():
    # phi(s) = 1/4 + 3/4 s^2 has minimal root 1/3
    prof = g.minimal_fixed_point(_k1_draw([0.25, 0.0, 0.75]))
    assert prof.converged
    assert prof.s[0] == pytest.approx(1 / 3, abs=1e-12)


def test_minimal_fixed_point_subcritical_is_one():
    prof = g.minimal_fixed_point(synthetic_true_draw())
    assert prof.converged
    assert prof.s[0] == pytest.approx(1.0, abs=1e-9)


def test_minimal_fixed_point_nilpotent_draw_is_certain_extinction():
    # type 1 only begets type 2, which has no offspring: M is nilpotent
    draw = g.ParameterDraw(g.OffspringCap(2, {(1, 2): 2}),
                           {(1, 2): np.array([0.2, 0.3, 0.5])})
    prof = g.minimal_fixed_point(draw)
    assert prof.converged
    assert prof.s.tolist() == [1.0, 1.0]


def test_extinction_probability_founder_independence():
    prof = g.minimal_fixed_point(_k1_draw([0.25, 0.0, 0.75]))
    assert g.extinction_probability(prof, (3,)) == pytest.approx((1 / 3) ** 3, rel=1e-9)
    assert g.extinction_probability(prof, (0,)) == 1.0
    for bad in [(1, 1), (-3,), (np.nan,), (2.5,)]:
        with pytest.raises(ValueError):
            g.extinction_probability(prof, bad)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_k1_fixed_point_matches_bisection(weights):
    p = np.array(weights) / np.sum(weights)
    draw = _k1_draw(p)
    prof = g.minimal_fixed_point(draw)
    ks = np.arange(len(p))

    def f(s):
        return float(p @ s ** ks) - s

    m = float(ks @ p)
    if m <= 1:
        oracle = 1.0
    else:
        lo, hi = 0.0, 1.0 - 1e-13
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = (lo + hi) / 2
    assert abs(prof.s[0] - oracle) <= 1e-9


def test_survival_bounds_shapes_and_monotonicity():
    draw = synthetic_true_draw()
    sb = g.survival_bounds(draw, (22,))
    assert sb.means[(1, 1)] == pytest.approx([0.75])
    ts = np.arange(0, 50)
    U, L = sb.upper(ts), sb.lower(ts)
    assert ((U >= L - 1e-12).all())
    assert ((np.diff(U) <= 1e-12).all() and (np.diff(L) <= 1e-12).all())
    assert U.max() <= 1.0 and L.min() >= 0.0


def test_survival_bounds_requires_subcritical():
    draw = _k1_draw([0.1, 0.1, 0.8])  # mean 1.7
    with pytest.raises(ValueError, match="lambda < 1"):
        g.survival_bounds(draw, (5,))


@pytest.mark.parametrize("K", [2, 3, 4])
def test_single_draw_bounds_match_batch_of_one(K):
    # a primitive K-type pattern (cycle plus self-loops) with subcritical
    # posterior mass, so a one-draw ensemble has a subcritical draw
    caps = {(i, i % K + 1): 2 for i in range(1, K + 1)}
    caps.update({(i, i): 1 for i in range(1, K + 1)})
    alpha = {pair: np.array([6.0] + [1.0] * c) for pair, c in caps.items()}
    post = g.PosteriorParams(g.OffspringCap(K, caps), alpha)
    N = np.arange(1, K + 1)
    checked = 0
    for seed in range(20):
        draw = g.sample_parameter_draw(post, SeedSpec(seed, 0))
        M = g.mean_matrix(draw)
        tri = g.perron_triple(M)
        if tri.lam >= 1:
            continue
        tb = g.mc_time_bounds(post, N, n_prec=1, master_seed=seed)
        sb = g.survival_bounds(draw, N)
        single = g.extinction_time_bounds(sb, alpha=0.05)
        assert (tb.t_minus, tb.t_plus) == (single.t_minus, single.t_plus)
        # both paths run the same arithmetic on the same pair means and laws
        assert tb.upper_curve.tobytes() == sb.upper(tb.times).tobytes()
        assert tb.lower_curve.tobytes() == sb.lower(tb.times).tobytes()
        # the exact oracle: P(T <= t) by the dense pgf iterated from 0
        laws = {pair: np.asarray(p)[:, None] for pair, p in draw.p.items()}
        horizon = 2 * single.t_plus + 20
        q, cdf = np.zeros((1, K)), []
        while len(cdf) < horizon:
            cdf.append(float(np.prod(q ** N)))
            q = dense_pgf(laws, q)
        assert cdf[single.t_minus] <= 0.05
        assert single.t_minus == single.t_plus or cdf[single.t_minus + 1] > 0.05
        assert sb.upper([single.t_plus]) <= 0.05 < sb.upper([single.t_plus - 1])
        # at every t the bound N M^t 1 lies above the exact survival and
        # below the Perron form c_upper lam^t, u N / min u times lam^t
        ts = np.arange(horizon)
        upper = sb.upper(ts)
        assert np.all(upper >= 1 - np.array(cdf) - 1e-12)
        assert np.all(upper <= perron_markov_bound(M, N, ts) * (1 + 1e-12))
        # a single-time read has the bits of the batched one
        for t in range(0, horizon, 7):
            assert sb.upper([t]).tobytes() == upper[t:t + 1].tobytes()
        checked += 1
    assert checked >= 5


def test_survival_bounds_take_poisson_laws():
    # Poisson(0.5) offspring from 3 founders: q_{t+1} = exp(0.5 (q_t - 1))
    # from q_0 = 0 is the exact extinction CDF of one line, and the Markov
    # bound min(1, 3 * 0.5^t) lies above the survival 1 - q_t^3
    draw = g.ParameterDraw(g.OffspringCap(1, {(1, 1): 3}), {(1, 1): g.PoissonLaw(0.5)})
    sb = g.survival_bounds(draw, (3,))
    ts = np.arange(60)
    q, exact = 0.0, []
    for _ in ts:
        exact.append(1 - q ** 3)
        q = math.exp(0.5 * (q - 1))
    np.testing.assert_allclose(sb.lower(ts), exact, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sb.upper(ts), np.minimum(1, 3 * 0.5 ** ts), rtol=1e-13)
    # q_t stops one ulp below 1, so the exact survival floors near 3e-16
    assert (sb.upper(ts) >= sb.lower(ts) - 1e-12).all()
    with pytest.raises(ValueError, match="integer times"):
        sb.lower(np.array([1.5]))


def test_extinction_time_bounds_from_curves():
    upper = lambda t: np.minimum(1.0, 22.0 * 0.75 ** np.asarray(t, dtype=float))
    lower = lambda t: np.clip(0.9 * 0.75 ** np.asarray(t, dtype=float), 0, 1)
    # upper: 22*0.75^t <= 0.05 first at t = 22; lower: 0.9*0.75^t < 0.95 from t = 0
    assert _first_crossing(lambda ts: upper(ts) <= 0.05, 10 ** 6) == 22
    assert _first_crossing(lambda ts: lower(ts) < 0.95, 10 ** 6) == 0
    # the synthetic draw's bound is that upper curve: N m^t = 22 * 0.75^t
    sb = g.survival_bounds(synthetic_true_draw(), (22,))
    assert g.extinction_time_bounds(sb, alpha=0.05).t_plus == 22
    with pytest.raises(ValueError):
        g.extinction_time_bounds(sb, alpha=0.7)
    with pytest.raises(ValueError, match="horizon_cap"):
        g.extinction_time_bounds(sb, alpha=0.05, horizon_cap=-1)


def test_extinction_time_bounds_open_ended():
    assert _first_crossing(lambda ts: np.full(len(ts), 0.5) <= 0.05, 2000) is None
    sb = g.survival_bounds(synthetic_true_draw(), (22,))
    assert g.extinction_time_bounds(sb, alpha=0.05, horizon_cap=21).t_plus is None


def test_extinct_population_has_no_bracket():
    # T_ext = 0 for an extinct population, and no (t_minus, t_plus] holds it
    sb = g.survival_bounds(synthetic_true_draw(), (0,))
    with pytest.raises(ValueError, match="extinct"):
        g.extinction_time_bounds(sb, alpha=0.05)


def test_open_ended_scan_stops_once_lower_curve_drops(monkeypatch):
    # a mean matrix whose powers stay near 1 keeps the upper curve above
    # alpha at horizon_cap, so the bracket is open-ended; the upper curve's
    # search reads a few dozen times to learn so, and the walk stops where
    # the exact survival falls below 1 - alpha, far short of horizon_cap
    seen = []

    def upper(means, N, ts, *caches):
        seen.append(np.asarray(ts))
        return _upper_curve(means, N, ts, *caches)

    sb = g.survival_bounds(synthetic_true_draw(), (22,))
    closed = g.extinction_time_bounds(sb, alpha=0.05)
    slow = g.SurvivalBounds(means={(1, 1): np.array([1 - 1e-9])},
                            laws=sb.laws, population=sb.population)
    monkeypatch.setattr(extinction, "_upper_curve", upper)
    tb = g.extinction_time_bounds(slow, alpha=0.05, horizon_cap=10 ** 6)
    assert (tb.t_minus, tb.t_plus) == (closed.t_minus, None)
    assert 0 < tb.t_minus < 991
    assert sb.lower([tb.t_minus]) >= 0.95 > sb.lower([tb.t_minus + 1])
    read = np.concatenate(seen)
    # each time is read once, and none past horizon_cap
    assert len(read) <= 100 and len(np.unique(read)) == len(read)
    assert read.max() == 10 ** 6
    # a crossing past t = 991 is still found after the cap is read
    assert _first_crossing(lambda ts: np.asarray(ts) >= 1200, 10 ** 6) == 1200


@pytest.mark.parametrize("step, cap", [(50_000, 10 ** 5), (17_000, 20_000)])
def test_bracket_search_reads_each_time_once(step, cap):
    # the curve is uncrossed past t = 991, so the search reads the cap, and
    # it first crosses between the cap and the last gallop time: a later
    # gallop time is clamped to the cap, read already (at cap = 20 000
    # every time of that gallop is)
    seen = []

    def crossed(t):
        seen.append(np.asarray(t))
        return np.asarray(t) >= step

    assert _first_crossing(crossed, cap) == step
    read = np.concatenate(seen)
    assert len(np.unique(read)) == len(read) and read.max() == cap
    assert min(len(ts) for ts in seen) >= 1


@pytest.mark.parametrize("n", [1, 2, 7, 106, 1000, 9999])
def test_bound_curve_columns_keep_their_bits(n, monkeypatch):
    # the bracket search reads the upper curve at a few scattered times, one
    # included, and the full curve only at the times it did not read: a
    # time's column must have the same bits in every call, whatever the
    # caches of powers and products hold and whatever the block cap is.
    # A lone time is a case to pin, and at n = 106 (K = 5) a block holds 15
    # times and at n = 9999 (K = 1) one, so a wide call spans many blocks.
    K = {1: 3, 2: 3, 7: 2, 106: 5, 1000: 2, 9999: 1}[n]
    rng = np.random.default_rng(n)
    means = {(i, j): rng.uniform(0.0, 0.9 / K, n) for i in range(1, K + 1)
             for j in range(1, K + 1)}
    N = rng.integers(1, 30, K).astype(float)
    ref = _upper_curve(means, N, np.arange(512), [], {})
    assert ref[0] == 1.0 and 0.0 < ref[-1] < 0.1
    powers, states = [], {}
    for width in range(1, 65):
        t0 = 7 * width
        blocks = (np.arange(t0, t0 + width), np.sort(rng.choice(512, width, replace=False)))
        for ts in blocks:
            for caches in (([], {}), (powers, states)):
                got = _upper_curve(means, N, ts, *caches)
                assert got.tobytes() == ref[ts].tobytes(), (width, ts)
    for t in range(0, 512, 8):
        assert _upper_curve(means, N, [t], [], {}).tobytes() == ref[t:t + 1].tobytes(), t
    # in a call of more than 512 times too, whichever block a time lands in
    wide = _upper_curve(means, N, np.arange(1025), powers, states)
    back = _upper_curve(means, N, np.arange(1024, 511, -1), [], {})
    assert wide[:512].tobytes() == ref.tobytes()
    assert wide[512:].tobytes() == back[::-1].tobytes()
    # one time per block, or every time in one block
    ts = np.sort(rng.choice(1025, 64, replace=False))
    for cells in (1, 2 ** 24):
        monkeypatch.setattr(extinction, "_BLOCK_CELLS", cells)
        assert _upper_curve(means, N, ts, [], {}).tobytes() == wide[ts].tobytes(), cells


@pytest.mark.parametrize("K, n", [(1, 9), (2, 1000), (5, 131)])
def test_upper_curve_is_the_pairwise_mean_of_its_draws(K, n):
    # a value is np.sum / n over the draw axis of the draws' own n = 1 bounds
    rng = np.random.default_rng(7 * n + K)
    means = {(i, j): rng.uniform(0.0, 0.9 / K, n) for i in range(1, K + 1)
             for j in range(1, K + 1)}
    N = rng.integers(1, 30, K).astype(float)
    ts = np.sort(rng.choice(700, 40, replace=False))
    own = np.array([_upper_curve({p: m[r:r + 1] for p, m in means.items()}, N, ts, [], {})
                    for r in range(n)])
    want = np.sum(np.ascontiguousarray(own.T), axis=-1) / n
    assert _upper_curve(means, N, ts, [], {}).tobytes() == want.tobytes()


def _extinction_histogram(draw, N, runs, seed):
    """Monte Carlo P(T_ext <= t) from ``simulate_extinction_time`` runs."""
    times = [g.simulate_extinction_time(draw, g.PopulationState(N), SeedSpec(seed, r))
             for r in range(runs)]
    assert None not in times  # subcritical: every run dies out
    return lambda t: np.mean(np.array(times) <= t)


@pytest.mark.parametrize("draw, N, ts", [
    (synthetic_true_draw(), (10,), (2, 5, 8, 12, 20)),
    (g.ParameterDraw(g.OffspringCap(2, {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2}),
                     {(1, 1): [0.6, 0.4], (1, 2): [0.6, 0.3, 0.1],
                      (2, 1): [0.5, 0.5], (2, 2): [0.7, 0.2, 0.1]}),
     (2, 3), (2, 5, 10, 20, 40)),
])
def test_exact_cdf_matches_simulated_extinction_times(draw, N, ts):
    # 1 - lower(t) is P(T_ext <= t) exactly: it must agree with a histogram
    # of simulated extinction times within 4 binomial standard errors
    runs = 2000
    sb = g.survival_bounds(draw, N)
    cdf = 1 - sb.lower(np.array(ts))
    empirical = _extinction_histogram(draw, N, runs, seed=31)
    for t, p in zip(ts, cdf):
        se = math.sqrt(max(p * (1 - p), 1e-4) / runs)
        assert abs(empirical(t) - p) <= 4 * se, (t, p, empirical(t))
    # and the CDF moves through the tested times rather than sitting at 0 or 1
    assert cdf[0] < 0.5 < cdf[-1]


def _random_mmatrices(rng, n, K):
    """n nonsingular M-matrices c I - B on one random pattern of B >= 0
    (diagonal included), with c between 1.01 and 3 times rho(B)."""
    pattern = (rng.random((K, K)) < 0.6) | np.eye(K, dtype=bool)
    B = rng.uniform(0.1, 1.0, (n, K, K)) * pattern
    rho = np.abs(np.linalg.eigvals(B)).max(axis=1)
    c = rho * rng.uniform(1.01, 3.0, n)
    return c, B, pattern


def _entries(A, pattern):
    """A (n, K, K) stack coefficient-major, None off the pattern."""
    K = A.shape[-1]
    return [[A[:, i, j] if i == j or pattern[i, j] else None for j in range(K)]
            for i in range(K)]


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_mmatrix_solve_matches_lapack(K):
    rng = np.random.default_rng(40 + K)
    n = 300
    c, B, pattern = _random_mmatrices(rng, n, K)
    A = c[:, None, None] * np.eye(K) - B
    b = rng.uniform(0.1, 1.0, (n, K))
    x, solved = _mmatrix_solve(_entries(A, pattern), b.T)
    assert solved.all()
    want = np.linalg.solve(A, b[..., None])[..., 0]
    np.testing.assert_allclose(x.T, want, rtol=1e-12, atol=0)
    # a row c I - B with c < rho(B) is not an M-matrix: some pivot is <= 0,
    # and only that row is left unsolved, the others keeping their bits
    bad = A.copy()
    r = n // 2
    bad[r] = 0.9 * np.abs(np.linalg.eigvals(B[r])).max() * np.eye(K) - B[r]
    x_bad, solved_bad = _mmatrix_solve(_entries(bad, pattern), b.T)
    assert np.flatnonzero(~solved_bad).tolist() == [r]
    keep = np.arange(n) != r
    assert np.array_equal(x_bad[:, keep], x[:, keep])
