import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwpva as g
from gwpva.datasets import synthetic_true_draw
from gwpva.extinction import _mmatrix_solve
from gwpva.sampling import SeedSpec


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
    for bad in [(1, 1), (-3,), (np.nan,)]:
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
    assert sb.lam == pytest.approx(0.75)
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
        single = g.extinction_time_bounds(sb.upper, sb.lower, alpha=0.05)
        assert (tb.t_minus, tb.t_plus) == (single.t_minus, single.t_plus)
        np.testing.assert_allclose(tb.upper_curve, sb.upper(tb.times), rtol=0, atol=1e-12)
        np.testing.assert_allclose(tb.lower_curve, sb.lower(tb.times), rtol=0, atol=1e-12)
        checked += 1
    assert checked >= 5


def test_survival_bounds_rejects_poisson_law():
    draw = g.ParameterDraw(g.OffspringCap(1, {(1, 1): 3}), {(1, 1): g.PoissonLaw(0.5)})
    with pytest.raises(ValueError, match=r"pair \(1, 1\)"):
        g.survival_bounds(draw, (3,))


def test_extinction_time_bounds_from_curves():
    upper = lambda t: np.minimum(1.0, 22.0 * 0.75 ** np.asarray(t, dtype=float))
    lower = lambda t: np.clip(0.9 * 0.75 ** np.asarray(t, dtype=float), 0, 1)
    tb = g.extinction_time_bounds(upper, lower, alpha=0.05)
    # upper: 22*0.75^t <= 0.05 first at t = 22; lower: 0.9*0.75^t >= 0.95 never
    assert tb.t_plus == 22
    assert tb.t_minus == 0
    with pytest.raises(ValueError):
        g.extinction_time_bounds(upper, lower, alpha=0.7)
    with pytest.raises(ValueError, match="horizon_cap"):
        g.extinction_time_bounds(upper, lower, alpha=0.05, horizon_cap=-1)


def test_extinction_time_bounds_open_ended():
    upper = lambda t: np.full_like(np.asarray(t, dtype=float), 0.5)
    tb = g.extinction_time_bounds(upper, None, alpha=0.05, horizon_cap=2000)
    assert tb.t_plus is None


def test_open_ended_scan_stops_once_lower_curve_drops():
    # after its first 512-wide block (t = 480..991) the scan reads the 32
    # times ending at horizon_cap; upper > alpha there makes it open-ended,
    # and the scan goes on only to the end of the block where the lower
    # curve falls below 1 - alpha, which fixes t_minus
    seen = []

    def upper(t):
        seen.append(np.asarray(t))
        return np.full_like(np.asarray(t, dtype=float), 0.5)

    def lower(t):
        return np.where(np.asarray(t) < 1200, 1.0, 0.0)

    tb = g.extinction_time_bounds(upper, lower, alpha=0.05, horizon_cap=10 ** 6)
    assert (tb.t_minus, tb.t_plus) == (1199, None)
    read = np.unique(np.concatenate(seen))
    assert np.array_equal(read, np.r_[0:1504, 10 ** 6 - 31:10 ** 6 + 1])


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
