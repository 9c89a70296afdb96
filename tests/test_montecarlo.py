import pickle
import sys
import tracemalloc

import numpy as np
import pytest

import gwpva as g
from gwpva import extinction, montecarlo, spectral
from gwpva.datasets import synthetic_cap, synthetic_true_draw
from gwpva.extinction import (_fixed_point_rows, _lambda_below, _matvec, _survival_curve,
                              _upper_curve)
from gwpva.montecarlo import PosteriorEnsemble
from gwpva.sampling import SeedSpec

from conftest import dense_mean_matrices, dense_pgf, dense_pgf_jacobian


@pytest.fixture
def no_perron_solve(monkeypatch):
    """Fail the test on any Perron solve (``perron_roots`` or
    ``perron_triple``); ``undo()`` on the returned monkeypatch allows them
    again."""
    def refuse(*args):
        raise AssertionError("a Perron pair was solved")

    for name in ("perron_roots", "perron_triple"):
        monkeypatch.setattr(spectral, name, refuse)
    monkeypatch.setattr(montecarlo, "perron_roots", refuse)
    return monkeypatch


def _degenerate_posterior(weights):
    """A posterior so concentrated it is effectively a point mass."""
    cap = g.OffspringCap(1, {(1, 1): len(weights) - 1})
    big = 1e8 * np.asarray(weights, dtype=float) + 1e-8
    return g.PosteriorParams(cap, {(1, 1): big})


def test_error_bound_value():
    assert g.error_bound(2500) == pytest.approx(1 / 200)
    with pytest.raises(ValueError):
        g.error_bound(0)


def _tiny_alpha_posterior():
    """Two types, four pairs, every alpha entry 1e-3: Gamma variates of
    shape 1e-3 underflow to 0 often enough that some pairs of some
    replicates have a zero normalizer and must be redrawn."""
    cap = g.OffspringCap(2, {(1, 1): 3, (1, 2): 2, (2, 1): 1, (2, 2): 4})
    return g.PosteriorParams(cap, {p: np.full(k + 1, 1e-3) for p, k in cap.kappa.items()})


def _wide_posterior():
    """Two types whose pairs have kappa + 1 = 3, 7, 8 and 10 categories, so
    the ensemble's normalizers add fewer than 8 terms (left to right) and 8
    or more (pairwise), with alphas spanning four orders of magnitude."""
    rng = np.random.default_rng(17)
    cap = g.OffspringCap(2, {(1, 1): 6, (1, 2): 9, (2, 1): 2, (2, 2): 7})
    return g.PosteriorParams(cap, {p: 10.0 ** rng.uniform(-2, 2, k + 1)
                                   for p, k in cap.kappa.items()})


def _zero_normalizer_rows(post, seed, n):
    """Rows whose Gamma variates on the ensemble stream SeedSpec(seed, 0),
    one draw per pair per row, give some pair a zero sum."""
    rng = SeedSpec(seed, 0).rng()
    pairs = sorted(post.alpha)
    return [r for r in range(n)
            if min([rng.gamma(shape=post.alpha[p]).sum() for p in pairs]) == 0]


def _reference_rows(post, seed, n, replayed):
    """The ensemble contract as a plain loop: row r is the r-th consecutive
    draw on the one stream SeedSpec(seed, 0), except that each row in
    ``replayed`` takes one Gamma draw per pair there and is then replayed by
    sample_parameter_draw on its own stream SeedSpec(seed, r + 1)."""
    rng = SeedSpec(seed, 0).rng()
    rows = []
    for r in range(n):
        if r in replayed:
            for pair in sorted(post.alpha):
                rng.gamma(shape=post.alpha[pair])
            rows.append(g.sample_parameter_draw(post, SeedSpec(seed, r + 1)))
        else:
            rows.append(g.sample_parameter_draw(post, rng))
    return rows


@pytest.mark.filterwarnings("error")
def test_ensemble_matches_sample_parameter_draw(synthetic_posterior, bear_posterior):
    tiny = _tiny_alpha_posterior()
    cases = [(synthetic_posterior, 31, 20), (bear_posterior, 2024, 300),
             (bear_posterior, -3, 40), (bear_posterior, 2 ** 64 + 5, 40), (tiny, 5, 300),
             (_wide_posterior(), 7, 300)]
    for post, seed, n in cases:
        replayed = set(_zero_normalizer_rows(post, seed, n))
        assert bool(replayed) == (post is tiny)
        ens = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        for r, draw in enumerate(_reference_rows(post, seed, n, replayed)):
            for pair in ens.pairs:
                assert np.array_equal(draw.p[pair], ens.law(pair)[r]), (seed, r, pair)


def test_single_draw_is_ensemble_of_one(synthetic_posterior, bear_posterior):
    for post, seed in [(synthetic_posterior, 31), (bear_posterior, 2024),
                       (bear_posterior, 2 ** 64 + 5)]:
        ens = PosteriorEnsemble(post, n_prec=1, master_seed=seed)
        draw = g.sample_parameter_draw(post, SeedSpec(seed, 0))
        for pair in ens.pairs:
            assert np.array_equal(draw.p[pair], ens.law(pair)[0])
    # the single-draw mean matrix, pgf and fixed point are the law-stack
    # kernels at n = 1, so each equals its ensemble row bit for bit
    for post, seed in [(bear_posterior, 2024), (_tiny_alpha_posterior(), 5)]:
        ens = PosteriorEnsemble(post, n_prec=300, master_seed=seed)
        s = np.random.default_rng(0).random((ens.n_prec, ens.K))
        phi = dense_pgf(ens._laws, s)
        M = dense_mean_matrices(ens)
        for r in range(ens.n_prec):
            draw = g.ParameterDraw(post.cap, {p: ens.law(p)[r] for p in ens.pairs})
            assert np.array_equal(g.mean_matrix(draw), M[r])
            assert np.array_equal(g.generating_function(draw, s[r]), phi[r])
            prof = g.minimal_fixed_point(draw)
            assert prof.s.tobytes() == ens.extinction_profiles[r].tobytes()
            assert prof.converged == (not ens.fixed_point_failures[r])


def test_ensemble_underflow_cap_raises():
    cap = g.OffspringCap(1, {(1, 1): 1})
    post = g.PosteriorParams(cap, {(1, 1): np.array([1e-300, 1e-300])})
    with pytest.raises(RuntimeError, match="underflowed repeatedly"):
        PosteriorEnsemble(post, n_prec=3, master_seed=0)


def test_viability_boundary_is_strict():
    post = _degenerate_posterior([0.0, 1.0])  # lambda == 1 almost surely
    est = g.mc_viability_probability(post, n_prec=500, master_seed=1)
    assert est.value == 0.0


def test_extinction_probability_trivial_population():
    post = _degenerate_posterior([0.25, 0.0, 0.75])
    est = g.mc_extinction_probability(post, (0,), n_prec=200, master_seed=1)
    assert est.value == 1.0
    est1 = g.mc_extinction_probability(post, (1,), n_prec=200, master_seed=1)
    assert est1.value == pytest.approx(1 / 3, abs=1e-3)


def test_extinction_probability_monotone_in_population(synthetic_posterior):
    ens = PosteriorEnsemble(synthetic_posterior, n_prec=300, master_seed=8)
    vals = [g.mc_extinction_probability(synthetic_posterior, (n,), ensemble=ens).value
            for n in (1, 3, 10)]
    assert vals[0] >= vals[1] >= vals[2]


def test_short_time_abundance(synthetic_posterior):
    curve = g.mc_short_time_abundance(synthetic_posterior, (22,), horizon=3,
                                      n_prec=2000, master_seed=12)
    assert curve[0].value == pytest.approx([22.0])
    assert curve[0].std_error == pytest.approx([0.0])
    # E[N(1)] = 22 * E[M | data] = 22 * 242/315
    expected = 22 * 242 / 315
    assert abs(curve[1].value[0] - expected) <= 3 * curve[1].std_error[0]


def test_time_bounds_deterministic_collapse():
    post = _degenerate_posterior([1.0, 0.0])  # certain death, lambda ~ 0
    tb = g.mc_time_bounds(post, (5,), alpha=0.05, n_prec=200, master_seed=3)
    assert tb.t_plus is not None and tb.t_plus <= 2
    assert tb.upper_curve[tb.t_plus] <= 0.05


def test_time_bounds_requires_subcritical_mass():
    post = _degenerate_posterior([0.0, 0.0, 1.0])  # lambda ~ 2
    with pytest.raises(RuntimeError, match="no subcritical draws"):
        g.mc_time_bounds(post, (5,), n_prec=100, master_seed=3)


@pytest.mark.filterwarnings("error")
def test_time_bounds_average_reducible_draws():
    # the alpha = 1e-3 posterior puts mass on reducible mean matrices whose
    # right Perron vector has zero entries, and on draws whose Perron pair
    # fails its residual test; the expected abundance needs neither, so
    # every lambda < 1 draw is averaged
    post = _tiny_alpha_posterior()
    ens = PosteriorEnsemble(post, n_prec=3000, master_seed=5)
    M = dense_mean_matrices(ens)
    sub = _lambda_below(ens.pair_means, ens.K, 1.0)[0]
    zero_u = failed = 0
    for r in np.flatnonzero(sub):
        try:
            zero_u += spectral.perron_triple(M[r]).u.min() <= 0
        except ValueError:
            failed += 1
    assert zero_u > 0 and failed > 0
    tb = g.mc_time_bounds(post, (3, 2), ensemble=ens)
    assert np.isfinite(tb.upper_curve).all() and np.isfinite(tb.lower_curve).all()
    assert tb.warnings == {"supercritical-draws": 3000 - np.sum(sub),
                           "non-primitive-pattern": 0}
    # pinned: all 103 lambda < 1 draws are averaged
    assert (np.sum(sub), tb.n_used) == (103, 103)

    # the oracle: the mean over the lambda < 1 draws of min(1, N M^t 1),
    # with M^t from np.linalg.matrix_power
    def mean_upper(t):
        abundance = np.linalg.matrix_power(M[sub], t).sum(axis=2) @ np.array([3.0, 2.0])
        return np.sum(np.minimum(1.0, abundance)) / np.sum(sub)

    # open-ended: the search learns so from the curve at 10^6, and the
    # curve ends at t = 991, t_minus + 1 being earlier
    assert tb.t_plus is None
    assert mean_upper(10 ** 6) > 0.05 and tb.times[-1] == 991 > tb.t_minus + 1
    for t in (0, 1, 2, 7, 100, 991):
        assert np.isclose(tb.upper_curve[t], mean_upper(t), rtol=1e-12, atol=0), t


def _period_two_posterior():
    """The period-2 pattern {1, 2} -> 3 -> {1, 2}, whose mean matrices have
    eigenvalues lambda and -lambda."""
    cap = g.OffspringCap(3, {(1, 3): 2, (2, 3): 2, (3, 1): 2, (3, 2): 2})
    return g.PosteriorParams(cap, {p: np.array([3.0, 2.0, 1.0]) for p in cap.kappa})


def test_period_two_perron_pairs_converge(synthetic_posterior, bear_ensemble):
    # M has eigenvalues lambda and -lambda: the Perron root is the largest
    # eigenvalue modulus, every draw's pair passes its residual test, and
    # perron_triple returns the root of lambdas, bit for bit
    post = _period_two_posterior()
    ens = PosteriorEnsemble(post, n_prec=2000, master_seed=7)
    M = dense_mean_matrices(ens)
    lam = ens.lambdas
    for r in range(2000):
        assert g.perron_triple(M[r]).lam == lam[r], r
    # the time bounds average every lambda < 1 draw, and no answer counts
    # Perron failures
    sub = _lambda_below(ens.pair_means, ens.K, 1.0)[0]
    assert np.array_equal(sub, lam < 1.0)
    pop = (1, 1, 1)
    tb = g.mc_time_bounds(post, pop, ensemble=ens)
    assert (tb.n_used, tb.t_minus, tb.t_plus) == (1325, 0, 103) and tb.n_used == np.sum(sub)
    synthetic = PosteriorEnsemble(synthetic_posterior, n_prec=2000, master_seed=7)
    for ens, post, pop in [(ens, post, pop), (synthetic, synthetic_posterior, (22,)),
                           (bear_ensemble, bear_ensemble.params, (2, 2, 2, 2, 10))]:
        M = dense_mean_matrices(ens)
        for r in range(0, ens.n_prec, 37):
            assert g.perron_triple(M[r]).lam == ens.lambdas[r], r
        for est in (g.mc_time_bounds(post, pop, ensemble=ens),
                    g.mc_viability_probability(post, ensemble=ens),
                    g.mc_extinction_probability(post, pop, ensemble=ens)):
            assert "perron-failures" not in est.warnings
            assert "degenerate-eigenvector" not in est.warnings


def test_time_bounds_take_unlinked_types():
    # two unlinked types: every right Perron vector is (1, 0), so the Perron
    # form of the bound has no finite constant; the expected abundance is
    # N M^t 1 = 2 m_1^t + 2 m_2^t
    cap = g.OffspringCap(2, {(1, 1): 1, (2, 2): 1})
    big = {(1, 1): 1e8 * np.array([0.5, 0.5]) + 1e-8,
           (2, 2): 1e8 * np.array([0.7, 0.3]) + 1e-8}
    post = g.PosteriorParams(cap, big)
    ens = PosteriorEnsemble(post, n_prec=50, master_seed=3)
    tb = g.mc_time_bounds(post, (2, 2), ensemble=ens)
    assert tb.n_used == 50
    m1, m2 = ens.pair_means[(1, 1)], ens.pair_means[(2, 2)]

    def mean_upper(t):
        return np.sum(np.minimum(1.0, 2 * m1 ** t + 2 * m2 ** t)) / 50

    assert mean_upper(tb.t_plus) <= 0.05 < mean_upper(tb.t_plus - 1)
    np.testing.assert_allclose(tb.upper_curve, [mean_upper(t) for t in tb.times],
                               rtol=1e-13, atol=0)
    assert tb.t_minus < tb.t_plus


def test_time_bounds_refuse_an_extinct_population(synthetic_posterior, bear_ensemble):
    # T_ext = 0 for an extinct population, which the bracket (0, 0] that
    # the search and the walk read off it cannot hold
    synth = PosteriorEnsemble(synthetic_posterior, n_prec=200, master_seed=1)
    for pop, ens in (((0,), synth), ((0,) * 5, bear_ensemble)):
        with pytest.raises(ValueError, match="extinct"):
            g.mc_time_bounds(None, pop, ensemble=ens)


def _reference_bracket(tb, upper, alpha, horizon_cap):
    """The bracket from full curves: the upper curve on whole 512-step
    blocks, trimmed to horizon_cap + 1, and the exact survival of the
    estimate's draws by the dense pgf, step by step.

    t_plus is the first t with upper <= alpha; t_minus the last t <= t_plus
    (or <= horizon_cap) with survival >= 1 - alpha. The curves end at
    t_plus, or at t = max(991, t_minus + 1) capped at horizon_cap."""
    uppers = []
    for t0 in range(0, horizon_cap + 1, 512):
        uppers.append(upper(np.arange(t0, t0 + 512)))
        if np.any(uppers[-1] <= alpha):
            break
    full = np.concatenate(uppers)[:horizon_cap + 1]
    hit = np.flatnonzero(full <= alpha)
    t_plus = int(hit[0]) if len(hit) else None
    stop = horizon_cap if t_plus is None else t_plus
    laws = {p: d.T for p, d in tb.bounds.claws.items()}
    N = tb.bounds.population
    q = np.zeros((tb.n_used, len(N)))
    lower = []
    while len(lower) <= stop:
        lower.append(1 - np.sum(np.prod(q ** N, axis=1)) / tb.n_used)
        if lower[-1] < 1 - alpha:
            break
        q = dense_pgf(laws, q)
    ok = np.flatnonzero(np.array(lower) >= 1 - alpha)
    t_minus = int(ok[-1]) if len(ok) else 0
    end = 1 + (t_plus if t_plus is not None else min(horizon_cap, max(991, t_minus + 1)))
    return t_minus, t_plus, np.arange(end), full[:end]


def test_bracket_scan_matches_full_block_reference(monkeypatch, synthetic_posterior,
                                                   bear_ensemble):
    search = extinction._first_crossing
    reads, draws = [], []

    def spy(crossed, horizon_cap):
        def counted(ts):
            reads[-1].append(np.array(ts))
            return crossed(ts)
        reads.append([])
        return search(counted, horizon_cap)

    def constants(means, N, ts, *caches):
        draws[:] = [(means, N)]
        return _upper_curve(means, N, ts, *caches)

    monkeypatch.setattr(extinction, "_first_crossing", spy)
    monkeypatch.setattr(extinction, "_upper_curve", constants)
    synth = PosteriorEnsemble(synthetic_posterior, n_prec=10_000, master_seed=2024)
    cases = [((22,), synth, 0.05, 10 ** 6)]
    cases += [((2, 2, 2, 2, 10), bear_ensemble, a, 10 ** 6) for a in (0.05, 0.2)]
    cases += [(pop, ens, 0.05, cap) for pop, ens in
              (((22,), synth), ((2, 2, 2, 2, 10), bear_ensemble))
              for cap in (0, 31, 32, 95, 96, 511, 512, 513, 2000)]
    # criterion-6 replicates
    true = synthetic_true_draw()
    prior = g.prior_noninformative(synthetic_cap())
    n_replicates = 0
    for r in range(12):
        traj = g.simulate(true, g.PopulationState((100,)), 5, SeedSpec(2026, r))
        if traj.extinct_at is None and len(traj.states) == 6:
            post = g.posterior_update(prior, traj.table)
            cases.append(((traj.final.total,),
                          PosteriorEnsemble(post, n_prec=1000, master_seed=2026 * 1000 + r),
                          0.05, 10 ** 6))
            n_replicates += 1
    t_plus, t_minus = [], []
    for pop, ens, alpha, cap in cases:
        tb = g.mc_time_bounds(None, pop, alpha=alpha, horizon_cap=cap, ensemble=ens)
        means, N = draws.pop()
        tm, tp, times, upper = _reference_bracket(
            tb, lambda ts: _upper_curve(means, N, ts, [], {}), alpha, cap)
        assert (tb.t_minus, tb.t_plus) == (tm, tp)
        assert tb.times.tobytes() == times.tobytes()
        assert tb.upper_curve.tobytes() == upper.tobytes()
        t_plus.append(tp)
        t_minus.append(tm)
    # each search reads a time at most once, and none past horizon_cap
    for read, (*_, cap) in zip(reads, cases):
        read = np.concatenate(read)
        assert len(np.unique(read)) == len(read) and read.max() <= cap
    closed = [t for t in t_plus if t is not None]
    assert min(closed) < 32 and max(closed) > 512
    assert any(32 <= t < 512 for t in closed)
    assert t_plus.count(None) >= 10
    # the walk stops inside the bracket: bear at alpha = 0.05 reads
    # (35, 3600], synthetic (4, 30]
    assert (t_minus[0], t_plus[0]) == (4, 30) and (t_minus[1], t_plus[1]) == (35, 3600)
    # the search reads a few dozen columns: bear at alpha = 0.05 closes at
    # t = 3600, and a criterion-6 replicate near t = 30
    columns = [sum(len(ts) for ts in r) for r in reads]
    assert columns[1] <= 100
    assert np.mean(columns[-n_replicates:]) <= 32


def test_time_bounds_estimate_pickles_its_curves(synthetic_posterior):
    tb = g.mc_time_bounds(synthetic_posterior, (22,), n_prec=1000, master_seed=2024)
    unread = pickle.loads(pickle.dumps(tb))  # pickled before the curves are computed
    curves = {name: getattr(tb, name).tobytes()
              for name in ("times", "upper_curve", "lower_curve")}
    for got in (unread, pickle.loads(pickle.dumps(tb))):
        assert (got.t_minus, got.t_plus, got.n_used, got.warnings) \
            == (tb.t_minus, tb.t_plus, tb.n_used, tb.warnings)
        for name, want in curves.items():
            assert getattr(got, name).tobytes() == want, name
    assert len(tb.times) == tb.t_plus + 1


def test_curves_are_one_bound_curves_call_on_times_when_read(monkeypatch,
                                                             synthetic_posterior,
                                                             bear_ensemble):
    calls, exact = [], []

    def spy(means, N, ts, *caches):
        calls.append((np.array(ts), _upper_curve(means, N, ts, *caches)))
        return calls[-1][1]

    def exact_spy(claws, N, n_times):
        exact.append(n_times)
        return _survival_curve(claws, N, n_times)

    monkeypatch.setattr(extinction, "_upper_curve", spy)
    monkeypatch.setattr(extinction, "_survival_curve", exact_spy)
    synth = PosteriorEnsemble(synthetic_posterior, n_prec=2000, master_seed=7)
    cases = [((2, 2, 2, 2, 10), bear_ensemble, 0.05, 10 ** 6)]
    cases += [((22,), synth, alpha, cap) for alpha in (0.05, 0.01)
              for cap in (10 ** 6, 0, 1, 2, 31, 95, 2000)]
    for pop, ens, alpha, cap in cases:
        calls.clear()
        exact.clear()
        tb = g.mc_time_bounds(None, pop, alpha=alpha, horizon_cap=cap, ensemble=ens)
        search = list(calls)
        # the search reads each time at most once, and none past horizon_cap:
        # on synth at alpha = 0.01 it reads t = 43 once, not again beside 42
        searched = np.concatenate([ts for ts, _ in search])
        assert len(np.unique(searched)) == len(searched) and searched.max() <= cap
        # the curves take no call until one is read, then one each, on times
        tb.times
        assert len(calls) == len(search) and not exact
        upper, lower = tb.upper_curve, tb.lower_curve
        assert len(calls) == len(search) + 1 and exact == [tb.n_times]
        assert np.array_equal(calls[-1][0], tb.times)
        # they hold the bits the search read
        for ts, up in search:
            keep = ts < tb.n_times
            assert upper[ts[keep]].tobytes() == up[keep].tobytes()
        # and the walk stopped where the exact curve crosses 1 - alpha
        if lower[0] >= 1 - alpha:
            assert lower[tb.t_minus] >= 1 - alpha
        end = tb.t_plus if tb.t_plus is not None else cap
        assert tb.t_minus == end or lower[tb.t_minus + 1] < 1 - alpha


def _time_bounds_posteriors(synthetic_posterior, bear_ensemble):
    """(ensemble, population) of bear, synthetic, period-2 and alpha = 1e-3."""
    return [(bear_ensemble, (2, 2, 2, 2, 10)),
            (PosteriorEnsemble(synthetic_posterior, n_prec=10_000, master_seed=2024), (22,)),
            (PosteriorEnsemble(_period_two_posterior(), n_prec=2000, master_seed=7), (1, 1, 1)),
            (PosteriorEnsemble(_tiny_alpha_posterior(), n_prec=3000, master_seed=5), (3, 2))]


def test_exact_survival_lies_below_the_upper_curve(synthetic_posterior, bear_ensemble):
    # per draw the expected abundance bound lies above the exact survival,
    # so their averages over the same draws do too, up to rounding
    for ens, pop in _time_bounds_posteriors(synthetic_posterior, bear_ensemble):
        tb = g.mc_time_bounds(None, pop, ensemble=ens)
        assert np.max(tb.lower_curve - tb.upper_curve) <= 1e-12
        assert (np.diff(tb.lower_curve) <= 0).all() and tb.lower_curve[0] == 1.0


def test_survival_walk_stops_past_t_minus(monkeypatch, synthetic_posterior, bear_ensemble):
    # t_minus comes from a walk that steps the pgf once per time: it stops
    # at the first t past t_minus, so it takes at most t_minus + 2 steps,
    # and it never passes t_plus
    steps = []
    phi = extinction._phi

    def counted(claws, s):
        steps.append(1)
        return phi(claws, s)

    monkeypatch.setattr(extinction, "_phi", counted)
    cases = _time_bounds_posteriors(synthetic_posterior, bear_ensemble)
    for (ens, pop), cap in [(case, 10 ** 6) for case in cases] + [(cases[1], 3)]:
        steps.clear()
        tb = g.mc_time_bounds(None, pop, horizon_cap=cap, ensemble=ens)
        assert len(steps) <= tb.t_minus + 2
        assert len(steps) <= (cap if tb.t_plus is None else tb.t_plus)
    # at cap 3 synthetic's bracket is open-ended, and horizon_cap, not the
    # curve, stops the walk
    assert (tb.t_minus, tb.t_plus, len(steps)) == (3, None, 3)


def test_single_type_t_plus_is_the_pow_form_crossing():
    # at K = 1, N M^t 1 is N m^t: on the criterion-6 replicates t_plus is
    # the first t at which the mean over the lambda < 1 draws of
    # min(1, N m^t), with m^t by pow, is <= alpha
    true = synthetic_true_draw()
    prior = g.prior_noninformative(synthetic_cap())
    checked = 0
    for r in range(1000):
        traj = g.simulate(true, g.PopulationState((100,)), 5, SeedSpec(2026, r))
        if traj.extinct_at is not None or len(traj.states) < 6:
            continue
        post = g.posterior_update(prior, traj.table)
        N = traj.final.total
        tb = g.mc_time_bounds(post, (N,), n_prec=1000, master_seed=2026 * 1000 + r)
        m = tb.bounds.means[(1, 1)]
        ts = np.arange(tb.t_plus + 1)
        mean = np.sum(np.minimum(1.0, N * m[:, None] ** ts), axis=0) / len(m)
        assert np.flatnonzero(mean <= 0.05)[0] == tb.t_plus, r
        checked += 1
    assert checked == 1000


def test_conditioning_consistency(bear_posterior):
    ens = PosteriorEnsemble(bear_posterior, n_prec=800, master_seed=17)
    via = g.mc_viability_probability(bear_posterior, ensemble=ens)
    tb = g.mc_time_bounds(bear_posterior, (2, 2, 2, 2, 10), ensemble=ens)
    assert via.value + tb.n_used / tb.n_prec == pytest.approx(1.0, abs=1 / 800)


def test_reintroduction_point_mass():
    post = _degenerate_posterior([1.0, 0.0])  # certain extinction
    summary = g.mc_reintroduction(post, n_prec=150, master_seed=2)
    assert summary.mean == pytest.approx([1.0])
    assert summary.histograms[0, -1] == summary.n_used  # all mass in top bin
    quad = g.mc_reintroduction(_degenerate_posterior([0.25, 0.0, 0.75]),
                               n_prec=150, master_seed=2)
    assert quad.mean == pytest.approx([1 / 3], abs=1e-3)


def test_effective_population_size_edges():
    certain = _degenerate_posterior([1.0, 0.0])
    assert g.effective_population_size(certain, 1, 0.5, n_prec=100,
                                       master_seed=1, max_founders=1000) is None
    sup = _degenerate_posterior([0.0, 0.0, 1.0])
    assert g.effective_population_size(sup, 1, 0.999, n_prec=100, master_seed=1) == 1


def test_answers_reject_params_other_than_the_ensembles(synthetic_posterior,
                                                        bear_posterior):
    ens = PosteriorEnsemble(synthetic_posterior, n_prec=50, master_seed=1)
    answers = [lambda p: g.mc_viability_probability(p, ensemble=ens),
               lambda p: g.mc_extinction_probability(p, (3,), ensemble=ens),
               lambda p: g.mc_short_time_abundance(p, (3,), 2, ensemble=ens),
               lambda p: g.mc_time_bounds(p, (3,), ensemble=ens),
               lambda p: g.mc_reintroduction(p, ensemble=ens),
               lambda p: g.effective_population_size(p, 1, ensemble=ens)]
    for answer in answers:
        with pytest.raises(ValueError, match="ensemble"):
            answer(bear_posterior)
        answer(synthetic_posterior)
        answer(None)


def test_effective_population_size_tries_max_founders():
    # the answer 701 lies between the last doubling (512) and the next
    # (1024 > max_founders), so max_founders itself must be tried
    post = g.PosteriorParams(g.OffspringCap(1, {(1, 1): 2}),
                             {(1, 1): np.array([300.0, 390.0, 310.0])})
    ens = PosteriorEnsemble(post, n_prec=500, master_seed=1)
    assert not ens.fixed_point_failures.any()
    s = ens.extinction_profiles[:, 0]
    threshold = float(np.sum(s ** 700) / len(s))
    for cap, expected in [(10 ** 6, 701), (1000, 701), (701, 701), (700, None)]:
        assert g.effective_population_size(post, 1, threshold, max_founders=cap,
                                           ensemble=ens) == expected
    # the search finds the n of a plain scan of E[s^n] over 1..max_founders
    risk = [float(np.sum(s ** n) / len(s)) for n in range(1, 1001)]
    for threshold in (0.9, 0.5, 0.2, 0.05, risk[699], risk[999]):
        for cap in (1, 2, 3, 10, 64, 100, 1000):
            scan = next((n for n in range(1, cap + 1) if risk[n - 1] < threshold), None)
            assert g.effective_population_size(post, 1, threshold, max_founders=cap,
                                               ensemble=ens) == scan, (threshold, cap)
    # a cap below one founder is refused, not answered with one founder
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_founders must be >= 1"):
            g.effective_population_size(post, 1, 0.96, max_founders=cap, ensemble=ens)


def test_ensemble_rerun_and_prefix_invariance(bear_posterior):
    def outputs(ens):
        via = g.mc_viability_probability(bear_posterior, ensemble=ens)
        ext = g.mc_extinction_probability(bear_posterior, (1, 1, 1, 1, 1), ensemble=ens)
        tb = g.mc_time_bounds(bear_posterior, (1, 1, 1, 1, 1), ensemble=ens)
        return via.value, ext.value, tb.t_minus, tb.t_plus, tb.upper_curve.tobytes()

    # the bear posterior is mostly supercritical: at seed 5 the first
    # subcritical draw is row 219, and the time bounds need one
    small = PosteriorEnsemble(bear_posterior, n_prec=600, master_seed=5)
    assert np.sum(small.lambdas < 1) > 0
    again = PosteriorEnsemble(bear_posterior, n_prec=600, master_seed=5)
    assert outputs(small) == outputs(again)
    large = PosteriorEnsemble(bear_posterior, n_prec=1000, master_seed=5)
    for pair in small.pairs:
        assert np.array_equal(small.law(pair), large.law(pair)[:600])
    for name in ("lambdas", "extinction_profiles"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:600]), name


def test_rerun_with_new_seed_within_error_bound(synthetic_posterior):
    a = g.mc_viability_probability(synthetic_posterior, n_prec=400, master_seed=1)
    b = g.mc_viability_probability(synthetic_posterior, n_prec=400, master_seed=2)
    assert abs(a.value - b.value) <= 6 * g.error_bound(400)


def _near_critical_posterior(rng, K, concentration):
    """Random K-type posterior centred on a critical law (Perron root 1).

    The pattern holds the cycle i -> i+1 plus random extra pairs, caps are
    1..4, and a random supercritical base law is mixed with a point mass at
    zero so that its mean matrix has spectral radius one. A larger
    concentration puts more draws near lambda = 1."""
    pairs = {(i, i % K + 1) for i in range(1, K + 1)}
    pairs |= {(i, j) for i in range(1, K + 1) for j in range(1, K + 1)
              if rng.random() < 0.4}
    caps = {pair: int(rng.integers(1, 5)) for pair in sorted(pairs)}
    while True:
        base = {pair: rng.dirichlet(np.ones(c + 1)) for pair, c in caps.items()}
        M = np.zeros((K, K))
        for (i, j), p in base.items():
            M[i - 1, j - 1] = p @ np.arange(len(p))
        lam = float(np.abs(np.linalg.eigvals(M)).max())
        if lam > 1.0:
            break
    t = 1.0 - 1.0 / lam
    alpha = {}
    for pair, p in base.items():
        mixed = (1.0 - t) * p
        mixed[0] += t
        alpha[pair] = concentration * mixed + 1e-3
    return g.PosteriorParams(g.OffspringCap(K, caps), alpha)


def _oracle_fixed_points(laws, K):
    """Minimal pgf fixed point of each draw of a law stack, by a solver of
    its own: no ``_fixed_point_rows``, elimination rule or Perron pair.

    Draws with lambda < 1 (``np.linalg.eigvals``) get s = 1. The others take
    up to 5 000 plain steps s <- phi(s) from 0, until the stack's largest
    step is < 1e-14, then up to 60 damped Newton steps, each solved for the
    whole stack by ``np.linalg.solve`` (a finished draw solves against I).
    A step is halved up to 6 times; a draw accepts a trial point where its
    residual does not grow and phi(s) - s >= -1e-12, which keeps it below
    the minimal root. Returns the (n, K) fixed points and a mask of the
    draws whose residual is below 1e-9."""
    lam = np.abs(np.linalg.eigvals(spectral.mean_matrices(laws, K))).max(axis=1)
    live = np.flatnonzero(lam >= 1.0)
    live_laws = {pair: d[live] for pair, d in laws.items()}
    x = np.zeros((len(live), K))
    for _ in range(5000):
        x_new = dense_pgf(live_laws, x)
        step = np.abs(x_new - x).max(initial=0.0)
        x = x_new
        if step < 1e-14:
            break
    eye = np.eye(K)
    for _ in range(60):
        f = dense_pgf(live_laws, x) - x
        worst = np.abs(f).max(axis=1)
        pending = worst >= 1e-15
        if not pending.any():
            break
        A = np.where(pending[:, None, None], eye - dense_pgf_jacobian(live_laws, x), eye)
        delta = np.linalg.solve(A, np.where(pending[:, None], f, 0.0)[..., None])[..., 0]
        for _halving in range(6):
            x_try = np.clip(x + delta, 0.0, 1.0)
            f_try = dense_pgf(live_laws, x_try) - x_try
            ok = pending & (np.abs(f_try).max(axis=1) <= worst) \
                & (f_try.min(axis=1) >= -1e-12)
            x = np.where(ok[:, None], x_try, x)
            pending &= ~ok
            delta = delta * 0.5
    s = np.ones((len(lam), K))
    s[live] = np.clip(x, 0.0, 1.0)
    return s, np.abs(dense_pgf(laws, s) - s).max(axis=1) < 1e-9


@pytest.mark.parametrize("K", [2, 3, 4])
def test_batched_fixed_point_matches_single_draw_oracle(K):
    rng = np.random.default_rng(100 + K)
    n_near = 0
    for concentration in (30.0, 3000.0):
        post = _near_critical_posterior(rng, K, concentration)
        ens = PosteriorEnsemble(post, n_prec=60, master_seed=K)
        s, lam = ens.extinction_profiles, ens.lambdas
        assert not ens.fixed_point_failures.any()
        assert np.all(s[lam <= 1.0] == 1.0)
        n_near += int(np.sum(np.abs(lam - 1.0) < 1e-2))
        oracle, converged = _oracle_fixed_points(ens._laws, K)
        assert converged.all()
        np.testing.assert_allclose(s, oracle, rtol=0, atol=1e-9)
    assert n_near >= 10  # the near-critical regime is exercised


def test_extinction_profiles_independent_of_batch(bear_posterior):
    small = PosteriorEnsemble(bear_posterior, n_prec=37, master_seed=5)
    large = PosteriorEnsemble(bear_posterior, n_prec=1200, master_seed=5)
    assert np.array_equal(small.extinction_profiles, large.extinction_profiles[:37])


def test_rejected_draws_keep_their_own_bits():
    # on the alpha = 1e-3 posterior the line search accepts the steps of
    # some draws and rejects others in one halving (draw 2549, whose type 1
    # dies out surely and whose type 2 does not, is rejected outright); each
    # draw's profile and failure flag must not depend on the draws that
    # share its stack
    ens = PosteriorEnsemble(_tiny_alpha_posterior(), n_prec=3000, master_seed=5)
    s, failed = ens.extinction_profiles, ens.fixed_point_failures
    laws, means = ens._laws, ens.pair_means

    def alone(rows):
        sub = {p: m[rows] for p, m in means.items()}
        return _fixed_point_rows({p: d[rows] for p, d in laws.items()}, ens.K,
                                 _lambda_below(sub, ens.K, 1.0)[0],
                                 _lambda_below(sub, ens.K, 1.0 + 1e-12)[1])

    # both halves of a permuted stack
    for half in np.split(np.random.default_rng(5).permutation(ens.n_prec), 2):
        s_half, failed_half = alone(half)
        assert s_half.tobytes() == s[half].tobytes()
        assert np.array_equal(failed_half, failed[half])
    # a stack of one for every draw with some types surely extinct and some
    # not, where the rejected steps are
    mixed = np.flatnonzero(np.any(s == 1.0, axis=1) & ~np.all(s == 1.0, axis=1))
    assert 2549 in mixed and len(mixed) > 300
    for r in mixed:
        s_one, failed_one = alone([r])
        assert s_one.tobytes() == s[[r]].tobytes()
        assert failed_one[0] == failed[r]


def test_short_circuit_classifier_matches_perron_root(synthetic_posterior, bear_ensemble):
    # lambda <= 1 + 1e-12 and lambda < 1 are decided by elimination on
    # c I - M, with no Perron root; they must pick the same draws as the
    # Perron root, up to its round-off at lambda = 1
    c = 1.0 + 1e-12
    tiny = PosteriorEnsemble(_tiny_alpha_posterior(), n_prec=3000, master_seed=5)
    ensembles = [bear_ensemble,
                 PosteriorEnsemble(synthetic_posterior, n_prec=10_000, master_seed=2024),
                 PosteriorEnsemble(_period_two_posterior(), n_prec=2000, master_seed=7),
                 tiny]
    for ens in ensembles:
        lam = ens.lambdas
        assert np.array_equal(ens._not_supercritical, lam <= c)
        sub = _lambda_below(ens.pair_means, ens.K, 1.0)[0]
        if ens is tiny:
            assert np.all(np.abs(lam[sub != (lam < 1.0)] - 1.0) <= 1.2e-16)
        else:
            assert np.array_equal(sub, lam < 1.0)
        childless = dense_pgf(ens._laws, np.zeros((ens.n_prec, ens.K))).min(axis=1) > 0
        certain = sub | (childless & ens._not_supercritical)
        assert np.all(ens.extinction_profiles[certain] == 1.0)
    # at K = 1 the rule is the float comparison mean <= 1 + 1e-12
    assert g.poisson_extinction_fixed_point(1.0) == 1.0
    assert g.poisson_extinction_fixed_point(c) == 1.0
    assert g.poisson_extinction_fixed_point(np.nextafter(c, 2.0)) < 1.0


def test_extinction_profiles_solve_no_perron_pair(bear_posterior, no_perron_solve):
    ens = PosteriorEnsemble(bear_posterior, n_prec=500, master_seed=5)
    ens.extinction_profiles
    g.mc_reintroduction(bear_posterior, ensemble=ens)
    g.effective_population_size(bear_posterior, 5, ensemble=ens)
    assert "lambdas" not in ens.__dict__


def test_viability_solves_no_perron_pair(bear_posterior, no_perron_solve):
    # viability reads the lambda <= 1 + 1e-12 mask of the fixed point's rule
    ens = PosteriorEnsemble(bear_posterior, n_prec=500, master_seed=5)
    est = g.mc_viability_probability(bear_posterior, ensemble=ens)
    assert set(est.warnings) == {"non-primitive-pattern"}
    no_perron_solve.undo()
    assert est.value == np.sum(ens.lambdas > 1.0 + 1e-12) / ens.n_prec


def test_fixed_point_answers_solve_no_perron_pair(bear_posterior, no_perron_solve):
    # extinction probability and reintroduction read the fixed points alone
    ens = PosteriorEnsemble(bear_posterior, n_prec=500, master_seed=5)
    est = g.mc_extinction_probability(bear_posterior, (2, 2, 2, 2, 10), ensemble=ens)
    summary = g.mc_reintroduction(bear_posterior, ensemble=ens)
    assert set(est.warnings) == {"fixed-point-failures", "non-primitive-pattern"}
    assert set(summary.warnings) == {"fixed-point-failures"}


def test_usable_profiles_copy_only_when_a_draw_failed(bear_ensemble):
    good, warnings = montecarlo._usable_profiles(bear_ensemble)
    assert np.shares_memory(good, bear_ensemble.extinction_profiles)
    assert warnings == {"fixed-point-failures": 0}
    # three fixed-point solves of the alpha = 1e-3 posterior fail at seed 6
    ens = PosteriorEnsemble(_tiny_alpha_posterior(), n_prec=20_000, master_seed=6)
    failed = ens.fixed_point_failures
    good, warnings = montecarlo._usable_profiles(ens)
    assert warnings == {"fixed-point-failures": 3}
    assert good.shape == (19_997, 2)
    assert good.tobytes() == ens.extinction_profiles[~failed].tobytes()


def test_fixed_point_answers_keep_the_numpy_mean_and_se_bits(bear_posterior):
    # the oracle: np.sum / n and std(ddof=1) / sqrt(n) over the usable
    # draws, NaN at n = 1
    cases = [(bear_posterior, n, seed, (2, 2, 2, 2, 10))
             for n, seed in ((1, 2024), (2, 9157), (2000, 2024))]
    cases.append((_tiny_alpha_posterior(), 20_000, 6, (3, 2)))
    for post, n, seed, pop in cases:
        ens = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        s = ens.extinction_profiles[~ens.fixed_point_failures]
        per_draw = np.prod(s ** np.asarray(pop, dtype=float), axis=1)
        est = g.mc_extinction_probability(post, pop, ensemble=ens)
        summary = g.mc_reintroduction(post, ensemble=ens)
        assert est.value == np.sum(per_draw) / len(s)
        assert summary.mean.tobytes() == (np.sum(s, axis=0) / len(s)).tobytes()
        if len(s) == 1:
            assert np.isnan(est.std_error) and np.isnan(summary.std_error).all()
            continue
        assert est.std_error == per_draw.std(ddof=1) / np.sqrt(len(s))
        se = s.std(axis=0, ddof=1) / np.sqrt(len(s))
        assert summary.std_error.tobytes() == se.tobytes()


def test_time_bounds_solve_no_perron_pair(bear_ensemble, no_perron_solve):
    # the time bounds read the pair means and laws alone: a cold call solves
    # no Perron pair, nor does the single-draw path, and the answer has the
    # bits of one on an ensemble whose Perron roots were read; the horizon
    # cap keeps the alpha = 1e-3 scan, open-ended, to 10^4 steps
    cases = [(bear_ensemble.params, bear_ensemble.n_prec, bear_ensemble.master_seed,
              (2, 2, 2, 2, 10)),
             (_period_two_posterior(), 2000, 7, (1, 1, 1)),
             (_tiny_alpha_posterior(), 3000, 5, (3, 2))]
    results = []
    for post, n, seed, pop in cases:
        cold = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        results.append(g.mc_time_bounds(post, pop, horizon_cap=10 ** 4, ensemble=cold))
        row = int(np.flatnonzero(_lambda_below(cold.pair_means, cold.K, 1.0)[0])[0])
        draw = g.ParameterDraw(post.cap, {p: cold.law(p)[row] for p in cold.pairs})
        g.extinction_time_bounds(g.survival_bounds(draw, pop), alpha=0.05)
    no_perron_solve.undo()
    for (post, n, seed, pop), got in zip(cases, results):
        warm = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        warm.lambdas
        want = g.mc_time_bounds(post, pop, horizon_cap=10 ** 4, ensemble=warm)
        assert (got.t_minus, got.t_plus, got.n_used, got.warnings) \
            == (want.t_minus, want.t_plus, want.n_used, want.warnings)
        for name in ("times", "upper_curve", "lower_curve"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_answers_build_no_dense_stack_and_no_perron_memo(bear_posterior, monkeypatch,
                                                        no_perron_solve):
    # every answer but the time bounds reads the pair means alone; a cold
    # time-bounds answer builds one dense stack, of its lambda < 1 draws,
    # to square for the expected abundance, and no answer solves a Perron
    # pair
    built = []

    def spy(means, K, n):
        built.append((n, sys._getframe(1).f_code.co_name))
        return scatter(means, K, n)

    scatter = spectral._scatter
    for module in (spectral, montecarlo, extinction):
        monkeypatch.setattr(module, "_scatter", spy)
    ens = PosteriorEnsemble(bear_posterior, n_prec=2000, master_seed=2024)
    pop = (2, 2, 2, 2, 10)
    g.mc_viability_probability(bear_posterior, ensemble=ens)
    g.mc_extinction_probability(bear_posterior, pop, ensemble=ens)
    g.mc_reintroduction(bear_posterior, ensemble=ens)
    g.effective_population_size(bear_posterior, 5, ensemble=ens)
    g.mc_short_time_abundance(bear_posterior, pop, horizon=10, ensemble=ens)
    assert built == []
    tb = g.mc_time_bounds(bear_posterior, pop, ensemble=ens)
    n_sub = ens.n_prec - tb.warnings["supercritical-draws"]
    assert 0 < n_sub < ens.n_prec / 10
    assert built == [(n_sub, "_upper_curve")]
    assert "lambdas" not in ens.__dict__


def test_extinction_working_set(bear_posterior):
    # the bear answer at n_prec 10 000 holds the laws, their pair means and
    # the Newton working set of the fixed point, never a dense (n, K, K)
    # stack or a Perron memo (version 1.2.6, which held both, peaked at 9.27
    # MiB). NumPy reports its buffers to tracemalloc, so the peak is
    # deterministic
    g.mc_extinction_probability(bear_posterior, (2, 2, 2, 2, 10), n_prec=10,
                                master_seed=2024)
    tracemalloc.start()
    try:
        g.mc_extinction_probability(bear_posterior, (2, 2, 2, 2, 10), n_prec=10_000,
                                    master_seed=2024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2 ** 20, peak / 2 ** 20


def test_curves_working_set(bear_posterior):
    # a full --curves upper read on bear (3 601 times) holds one block of
    # states and products at a time beside the cached powers and states, and
    # a block's arrays stay at 64 KiB (version 1.5.3, whose blocks held
    # about 500 times, peaked at 12.76 MiB)
    tb = g.mc_time_bounds(bear_posterior, (2, 2, 2, 2, 10), n_prec=10_000,
                          master_seed=2024)
    tracemalloc.start()
    try:
        assert len(tb.upper_curve) == tb.n_times
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def _dense_random_posterior():
    """Three types with every pair present, caps 1..3 and random alphas."""
    rng = np.random.default_rng(31)
    cap = g.OffspringCap(3, {(i, j): int(rng.integers(1, 4))
                             for i in range(1, 4) for j in range(1, 4)})
    return g.PosteriorParams(cap, {p: rng.uniform(0.2, 5.0, k + 1)
                                   for p, k in cap.kappa.items()})


def test_abundance_path_keeps_dense_bits(bear_ensemble, synthetic_posterior):
    # the oracle is the dense formulation: N(t + 1) = einsum(N(t), M) per
    # draw, the mean np.sum / n and the standard error std(ddof=1) / sqrt(n)
    cases = [(bear_ensemble, (2, 2, 2, 2, 10)),
             (PosteriorEnsemble(synthetic_posterior, n_prec=10_000, master_seed=2024), (22,)),
             (PosteriorEnsemble(_tiny_alpha_posterior(), n_prec=3000, master_seed=5), (3, 2)),
             (PosteriorEnsemble(_dense_random_posterior(), n_prec=3000, master_seed=9),
              (4, 1, 7))]
    for ens, pop in cases:
        got = g.mc_short_time_abundance(ens.params, pop, horizon=10, ensemble=ens)
        x = np.broadcast_to(np.asarray(pop, dtype=float), (ens.n_prec, ens.K)).copy()
        M = dense_mean_matrices(ens)
        for t, est in enumerate(got):
            assert est.value.tobytes() == (np.sum(x, axis=0) / ens.n_prec).tobytes(), t
            se = x.std(axis=0, ddof=1) / np.sqrt(ens.n_prec)
            assert est.std_error.tobytes() == se.tobytes(), t
            x = np.einsum("ri,rij->rj", x, M)
    one = PosteriorEnsemble(_dense_random_posterior(), n_prec=1, master_seed=9)
    got = g.mc_short_time_abundance(one.params, (4, 1, 7), horizon=3, ensemble=one)
    x = np.array([[4.0, 1.0, 7.0]])
    for est in got:
        assert est.value.tobytes() == x[0].tobytes()
        assert np.isnan(est.std_error).all()
        x = np.einsum("ri,rij->rj", x, dense_mean_matrices(one))


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_mean_se_keeps_numpy_bits(order):
    # einsum adds a C-ordered array's rows in np.sum's order for K >= 2; a
    # single column (summed pairwise) and other layouts keep np.sum itself
    rng = np.random.default_rng(3)
    for K in range(1, 8):
        for n in (1, 2, 7, 8, 9, 1001):
            x = np.asarray(rng.standard_normal((n, K)) * 10.0 ** rng.uniform(-12, 12, (n, K)),
                           order=order)
            mean, se = montecarlo._column_mean_se(x)
            assert mean.tobytes() == (np.sum(x, axis=0) / n).tobytes(), (K, n)
            if n == 1:
                assert np.isnan(se).all() and se.shape == (K,)
            else:
                want = x.std(axis=0, ddof=1) / np.sqrt(n)
                assert se.tobytes() == want.tobytes(), (K, n)


def test_subcritical_degenerate_draws_are_certainly_extinct():
    # Draws 2161 and 4200 at seed 6 are near point masses with M close to
    # [[1, 2], [0, 1]] and lambda just below 1. A type-2 individual has one
    # type-2 child except with probability ~1e-12, when it has none, so
    # s_2 = 1 is the only fixed point of s_2 -> phi_2(s), and then s_1 = 1
    # too: extinction is certain. Iteration from 0 gains only ~1e-12 per
    # step, so every draw with lambda < 1 must be short-circuited to s = 1,
    # whether or not its types can all die childless.
    post = _tiny_alpha_posterior()
    for n, seed in ((3000, 5), (20_000, 6)):
        ens = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        sub = _lambda_below(ens.pair_means, ens.K, 1.0)[0]
        assert np.all(ens.extinction_profiles[sub] == 1.0)
        assert not ens.fixed_point_failures[sub].any()
    rows = [2161, 4200]
    assert sub[rows].all() and np.all(ens.lambdas[rows] < 1.0)
    for r in rows:
        draw = g.ParameterDraw(post.cap, {p: ens.law(p)[r] for p in ens.pairs})
        assert np.all(g.minimal_fixed_point(draw).s == 1.0)


def _mixed_law_stack(rng, K, n):
    """n draws of a K-type law stack on a fixed random pattern (the cycle
    i -> i+1 plus random extra pairs) whose pairs are categorical, with
    caps 1..3, or Poisson, at least one of each. Each draw is scaled to a
    random lambda in [0.3, 1.5]: its Poisson rates are multiplied by c and
    its categorical laws mixed with a point mass at zero, weight 1 - c."""
    pairs = sorted({(i, i % K + 1) for i in range(1, K + 1)}
                   | {(i, j) for i in range(1, K + 1) for j in range(1, K + 1)
                      if rng.random() < 0.5})
    poisson = set(pairs[::2])
    caps = {pair: 1 if pair in poisson else int(rng.integers(1, 4)) for pair in pairs}
    laws = {pair: np.zeros(n) if pair in poisson else np.zeros((n, caps[pair] + 1))
            for pair in pairs}
    for r in range(n):
        while True:
            base = {pair: rng.uniform(0.5, 3.0) if pair in poisson
                    else rng.dirichlet(np.ones(caps[pair] + 1)) for pair in pairs}
            M = np.zeros((K, K))
            for (i, j), d in base.items():
                M[i - 1, j - 1] = d if np.ndim(d) == 0 else d @ np.arange(len(d))
            lam = float(np.abs(np.linalg.eigvals(M)).max())
            if lam >= 1.5:
                break
        c = rng.uniform(0.3, 1.5) / lam
        for pair, d in base.items():
            laws[pair][r] = c * d
            if pair not in poisson:
                laws[pair][r, 0] += 1.0 - c
    return laws


@pytest.mark.parametrize("K", [2, 3])
def test_batched_fixed_point_on_mixed_law_stacks(K):
    # categorical and Poisson pairs in one stack, through the batched
    # kernel and the oracle
    laws = _mixed_law_stack(np.random.default_rng(200 + K), K, 200)
    means = spectral.pair_means(laws)
    s, bad = _fixed_point_rows(laws, K, _lambda_below(means, K, 1.0)[0],
                               _lambda_below(means, K, 1.0 + 1e-12)[1])
    assert not bad.any()
    assert (dense_pgf(laws, s) - s).min() >= -1e-12
    lam = spectral.perron_roots(spectral.mean_matrices(laws, K))
    assert lam.min() < 0.5 and lam.max() > 1.4
    oracle, converged = _oracle_fixed_points(laws, K)
    assert converged.all()
    np.testing.assert_allclose(s, oracle, rtol=0, atol=1e-9)


def test_shared_ensemble_runs_each_criticality_elimination_once(bear_posterior, monkeypatch):
    # the ensemble caches both masks of _lambda_below, and the fixed point
    # takes them from it: viability, extinction, reintroduction and the time
    # bracket on one ensemble eliminate once at c = 1 and once at 1 + 1e-12
    seen = []

    def spy(means, K, c):
        seen.append(c)
        return _lambda_below(means, K, c)

    monkeypatch.setattr(extinction, "_lambda_below", spy)
    monkeypatch.setattr(montecarlo, "_lambda_below", spy)
    ens = PosteriorEnsemble(bear_posterior, n_prec=10_000, master_seed=2024)
    pop = (2, 2, 2, 2, 10)
    g.mc_viability_probability(None, ensemble=ens)
    g.mc_extinction_probability(None, pop, ensemble=ens)
    g.mc_reintroduction(None, ensemble=ens)
    assert g.effective_population_size(None, 5, ensemble=ens) == 5
    tb = g.mc_time_bounds(None, pop, ensemble=ens)
    assert sorted(seen) == [1.0, 1.0 + 1e-12]
    assert tb.n_used == int(ens._subcritical.sum()) == 106


def test_bear_bracket_search_never_reads_horizon_cap(bear_posterior, monkeypatch):
    # horizon_cap is read only after a gallop call whose times all lie past
    # t = 991 has left them uncrossed; bear's curve crosses at 4 095 in the
    # call that reads 2 047 ... 16 383, so the search never forms the powers
    # M^(2^14) ... M^(2^19) that 10^6 needs
    calls, read = [], []

    def matvec(*args):
        calls.append(1)
        return _matvec(*args)

    def upper(means, N, ts, *caches):
        read.extend(np.ravel(ts).tolist())
        return _upper_curve(means, N, ts, *caches)

    monkeypatch.setattr(extinction, "_matvec", matvec)
    monkeypatch.setattr(extinction, "_upper_curve", upper)
    for seed, bracket, n_calls in ((2024, (35, 3600), 49), (9157, (35, 5817), 52)):
        calls.clear()
        read.clear()
        tb = g.mc_time_bounds(bear_posterior, (2, 2, 2, 2, 10), n_prec=10_000,
                              master_seed=seed)
        assert (tb.t_minus, tb.t_plus) == bracket
        assert len(calls) == n_calls and max(read) == 16_383
