import numpy as np
import pytest

import gwpva as g
from gwpva import montecarlo, spectral
from gwpva.datasets import synthetic_cap, synthetic_true_draw
from gwpva.extinction import _fixed_point_rows, _lambda_below, _pgf, _pgf_jacobian
from gwpva.montecarlo import PosteriorEnsemble
from gwpva.sampling import SeedSpec


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
             (bear_posterior, -3, 40), (bear_posterior, 2 ** 64 + 5, 40), (tiny, 5, 300)]
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
        phi = _pgf(ens._laws, s)
        for r in range(ens.n_prec):
            draw = g.ParameterDraw(post.cap, {p: ens.law(p)[r] for p in ens.pairs})
            assert np.array_equal(g.mean_matrix(draw), ens.mean_matrices[r])
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
def test_time_bounds_leave_out_degenerate_eigenvectors():
    # the alpha = 1e-3 posterior puts mass on reducible mean matrices whose
    # right vector has zero entries; their bound constants divide by zero
    post = _tiny_alpha_posterior()
    ens = PosteriorEnsemble(post, n_prec=3000, master_seed=5)
    lam, u, _ = spectral.perron_batch(ens.mean_matrices)
    u_min = u.min(axis=1)
    sub = _lambda_below(ens.pairs, ens.mean_matrices, 1.0)[0]
    assert np.sum(sub & (u_min <= 0)) > 0
    tb = g.mc_time_bounds(post, (3, 2), ensemble=ens)
    dropped = tb.warnings["degenerate-eigenvector"]
    assert dropped >= np.sum(sub & (u_min <= 0))
    assert tb.n_used == np.sum(sub) - dropped
    assert tb.warnings["supercritical-draws"] == 3000 - np.sum(sub)
    assert np.isfinite(tb.upper_curve).all() and np.isfinite(tb.lower_curve).all()
    # the used draws are those whose bound constants are finite; t_plus is
    # the first t <= horizon_cap at which the mean over them of
    # min(1, (u.N / min u) lam^t) is <= alpha, or None if there is none;
    # each term is nonincreasing in t, so two points decide it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xi, c_u, c_l = montecarlo._bound_constants(ens._laws, ens.mean_matrices, lam, u,
                                                   np.array([3.0, 2.0]))
        c_upper = (u @ np.array([3.0, 2.0])) / u_min
    use = sub & (u_min > 0) & np.isfinite(c_u) & np.isfinite(c_l)
    assert tb.n_used == np.sum(use)
    # draws 335 and 2638 hold near-point-mass laws, on which
    # sum_k k^2 p(k) - M^2 (1 - p(0)) cancels to 0
    assert (xi[[335, 2638]] > 0).all()
    assert tb.warnings["degenerate-xi"] == 0

    def mean_upper(t):
        return np.sum(np.minimum(1.0, c_upper[use] * lam[use] ** t)) / np.sum(use)

    if tb.t_plus is None:
        # the scan learns this from the curve at 10^6 and stops at the end of
        # its first 512-wide block, t = 991, the lower curve being below
        # 1 - alpha by then
        assert mean_upper(10 ** 6) > 0.05 and tb.times[-1] == 991
    else:
        assert mean_upper(tb.t_plus) <= 0.05
        assert tb.t_plus == 0 or mean_upper(tb.t_plus - 1) > 0.05
    assert np.isclose(tb.upper_curve[-1], mean_upper(tb.times[-1]), rtol=1e-12, atol=0)


def _period_two_posterior():
    """The period-2 pattern {1, 2} -> 3 -> {1, 2}: power iteration on the
    shifted matrix leaves some of its draws short of perron_triple's
    residual limit."""
    cap = g.OffspringCap(3, {(1, 3): 2, (2, 3): 2, (3, 1): 2, (3, 2): 2})
    return g.PosteriorParams(cap, {p: np.array([3.0, 2.0, 1.0]) for p in cap.kappa})


def test_perron_failures_are_reported(synthetic_posterior, bear_ensemble):
    post = _period_two_posterior()
    ens = PosteriorEnsemble(post, n_prec=2000, master_seed=7)
    M = ens.mean_matrices
    failed = ~spectral.perron_residual(M, *spectral.perron_batch(M))[1]
    assert failed.any()
    for r, M in enumerate(ens.mean_matrices):
        try:
            g.perron_triple(M)
        except ValueError:
            assert failed[r], r
        else:
            assert not failed[r], r
    pop = (1, 1, 1)
    # the time bounds solve only their lambda < 1 draws' pairs and count the
    # failures among those
    sub = _lambda_below(ens.pairs, ens.mean_matrices, 1.0)[0]
    count = g.mc_time_bounds(post, pop, ensemble=ens).warnings["perron-failures"]
    assert count == np.sum(failed & sub)
    assert 0 < count < np.sum(failed)
    # viability and the extinction probability solve no Perron pair, so
    # they count no Perron failure
    for est in (g.mc_viability_probability(post, ensemble=ens),
                g.mc_extinction_probability(post, pop, ensemble=ens)):
        assert "perron-failures" not in est.warnings
    synthetic = PosteriorEnsemble(synthetic_posterior, n_prec=2000, master_seed=7)
    for ens, post, pop in [(synthetic, synthetic_posterior, (22,)),
                           (bear_ensemble, bear_ensemble.params, (2, 2, 2, 2, 10))]:
        M = ens.mean_matrices
        assert spectral.perron_residual(M, *spectral.perron_batch(M))[1].all()
        assert g.mc_time_bounds(post, pop, ensemble=ens).warnings["perron-failures"] == 0
        for est in (g.mc_viability_probability(post, ensemble=ens),
                    g.mc_extinction_probability(post, pop, ensemble=ens)):
            assert "perron-failures" not in est.warnings


def _perron_full_squaring(M):
    """perron_batch as a plain loop of all 60 normalized squarings, with no
    per-draw exit."""
    K = M.shape[-1]
    A = M + 1e-12 * np.eye(K)
    B = A / np.abs(A).max(axis=(1, 2), keepdims=True)
    for _ in range(60):
        B = B @ B
        B /= np.abs(B).max(axis=(1, 2), keepdims=True)
    u = B.sum(axis=2)
    v = B.sum(axis=1)
    u /= u.sum(axis=1, keepdims=True)
    v /= v.sum(axis=1, keepdims=True)
    for _ in range(8):
        u = np.einsum("rij,rj->ri", A, u)
        v = np.einsum("ri,rij->rj", v, A)
        u /= u.sum(axis=1, keepdims=True)
        v /= v.sum(axis=1, keepdims=True)
    Au = np.einsum("rij,rj->ri", A, u)
    lam = np.einsum("ri,ri->r", u, Au) / np.einsum("ri,ri->r", u, u) - 1e-12
    return np.maximum(lam, 0.0), u, v


def test_perron_batch_matches_full_squaring_reference(bear_ensemble):
    rng = np.random.default_rng(11)
    stacks = [bear_ensemble.mean_matrices,
              PosteriorEnsemble(_tiny_alpha_posterior(), n_prec=3000,
                                master_seed=5).mean_matrices,
              PosteriorEnsemble(_period_two_posterior(), n_prec=2000,
                                master_seed=7).mean_matrices]
    for K in range(2, 6):
        sparse = rng.uniform(size=(400, K, K)) < 0.5
        stacks.append(rng.uniform(0.0, 2.0, size=(400, K, K)) * sparse)
    for M in stacks:
        got = spectral.perron_batch(M)
        want = _perron_full_squaring(M)
        for x, y in zip(got, want):
            assert np.abs(x - y).max() <= 1e-14
        for x, y in zip(got[1:], want[1:]):
            assert np.array_equal(x == 0, y == 0)
        assert np.array_equal(got[0] < 1, want[0] < 1)
        assert np.array_equal(spectral.perron_residual(M, *got)[1],
                              spectral.perron_residual(M, *want)[1])
        # a permuted half of the stack gives the same rows, bit for bit
        part = rng.permutation(len(M))[:len(M) // 2]
        for x, y in zip(spectral.perron_batch(M[part]), got):
            assert np.array_equal(x, y[part])


def test_time_bounds_require_a_usable_draw():
    # two unlinked types: every right vector is (1, 0)
    cap = g.OffspringCap(2, {(1, 1): 1, (2, 2): 1})
    big = {(1, 1): 1e8 * np.array([0.5, 0.5]) + 1e-8,
           (2, 2): 1e8 * np.array([0.7, 0.3]) + 1e-8}
    with pytest.raises(RuntimeError, match="usable right eigenvector"):
        g.mc_time_bounds(g.PosteriorParams(cap, big), (2, 2), n_prec=50, master_seed=3)


def _reference_scan(curves, alpha, horizon_cap):
    """The bracket scan on full 512-step blocks, trimmed to horizon_cap + 1.

    An open-ended scan past t = 991, where ``_bracket_scan``'s first 512-wide
    block ends, stops at the first of its block ends 991, 1503, 2015, ... at
    or after the first t with lower < 1 - alpha."""
    uppers, lowers = [], []
    for t0 in range(0, horizon_cap + 1, 512):
        u, lo = curves(np.arange(t0, t0 + 512))
        uppers.append(u)
        lowers.append(lo)
        if np.any(u <= alpha):
            break
    upper = np.concatenate(uppers)[:horizon_cap + 1]
    lower = np.concatenate(lowers)[:horizon_cap + 1]
    hit = np.flatnonzero(upper <= alpha)
    t_plus = int(hit[0]) if len(hit) else None
    end = len(upper) if t_plus is None else t_plus + 1
    drop = np.flatnonzero(lower < 1 - alpha)
    if t_plus is None and horizon_cap > 991 and len(drop):
        end = min(end, 992 + 512 * -(-max(drop[0] - 991, 0) // 512))
    ok = np.flatnonzero(lower[:end] >= 1 - alpha)
    return (int(ok[-1]) if len(ok) else 0, t_plus, np.arange(end),
            upper[:end], lower[:end])


def test_bracket_scan_matches_full_block_reference(monkeypatch, synthetic_posterior,
                                                   bear_ensemble):
    scan = montecarlo._bracket_scan
    widths, expected = [], []

    def spy(curves, alpha, horizon_cap):
        def counted(ts):
            widths.append(len(ts))
            return curves(ts)
        expected.append(_reference_scan(curves, alpha, horizon_cap))
        return scan(counted, alpha, horizon_cap)

    monkeypatch.setattr(montecarlo, "_bracket_scan", spy)
    synth = PosteriorEnsemble(synthetic_posterior, n_prec=10_000, master_seed=2024)
    cases = [((22,), synth, 0.05, 10 ** 6)]
    cases += [((2, 2, 2, 2, 10), bear_ensemble, a, 10 ** 6) for a in (0.05, 0.2)]
    cases += [(pop, ens, 0.05, cap) for pop, ens in
              (((22,), synth), ((2, 2, 2, 2, 10), bear_ensemble))
              for cap in (0, 31, 32, 95, 96, 511, 512, 513, 2000)]
    # criterion-6 replicates
    true = synthetic_true_draw()
    prior = g.prior_noninformative(synthetic_cap())
    for r in range(12):
        traj = g.simulate(true, g.PopulationState((100,)), 5, SeedSpec(2026, r))
        if traj.extinct_at is None and len(traj.states) == 6:
            post = g.posterior_update(prior, traj.table)
            cases.append(((traj.final.total,),
                          PosteriorEnsemble(post, n_prec=1000, master_seed=2026 * 1000 + r),
                          0.05, 10 ** 6))
    t_plus = []
    for pop, ens, alpha, cap in cases:
        tb = g.mc_time_bounds(None, pop, alpha=alpha, horizon_cap=cap, ensemble=ens)
        t_minus, tp, times, upper, lower = expected.pop()
        assert not expected
        assert (tb.t_minus, tb.t_plus) == (t_minus, tp)
        assert tb.times.tobytes() == times.tobytes()
        assert tb.upper_curve.tobytes() == upper.tobytes()
        assert tb.lower_curve.tobytes() == lower.tobytes()
        t_plus.append(tp)
    assert min(widths) >= 32
    closed = [t for t in t_plus if t is not None]
    assert min(closed) < 32 and max(closed) > 512
    assert any(32 <= t < 512 for t in closed)
    assert t_plus.count(None) >= 10


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
    assert np.array_equal(spectral.perron_batch(small.mean_matrices)[2],
                          spectral.perron_batch(large.mean_matrices)[2][:600])


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
        x_new = _pgf(live_laws, x)
        step = np.abs(x_new - x).max(initial=0.0)
        x = x_new
        if step < 1e-14:
            break
    eye = np.eye(K)
    for _ in range(60):
        f = _pgf(live_laws, x) - x
        worst = np.abs(f).max(axis=1)
        pending = worst >= 1e-15
        if not pending.any():
            break
        A = np.where(pending[:, None, None], eye - _pgf_jacobian(live_laws, x), eye)
        delta = np.linalg.solve(A, np.where(pending[:, None], f, 0.0)[..., None])[..., 0]
        for _halving in range(6):
            x_try = np.clip(x + delta, 0.0, 1.0)
            f_try = _pgf(live_laws, x_try) - x_try
            ok = pending & (np.abs(f_try).max(axis=1) <= worst) \
                & (f_try.min(axis=1) >= -1e-12)
            x = np.where(ok[:, None], x_try, x)
            pending &= ~ok
            delta = delta * 0.5
    s = np.ones((len(lam), K))
    s[live] = np.clip(x, 0.0, 1.0)
    return s, np.abs(_pgf(laws, s) - s).max(axis=1) < 1e-9


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
    laws, M = ens._laws, ens.mean_matrices

    def alone(rows):
        return _fixed_point_rows({p: d[rows] for p, d in laws.items()}, ens.K, M[rows])

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
        sub = _lambda_below(ens.pairs, ens.mean_matrices, 1.0)[0]
        if ens is tiny:
            assert np.all(np.abs(lam[sub != (lam < 1.0)] - 1.0) <= 1.2e-16)
        else:
            assert np.array_equal(sub, lam < 1.0)
        childless = _pgf(ens._laws, np.zeros((ens.n_prec, ens.K))).min(axis=1) > 0
        certain = sub | (childless & ens._not_supercritical)
        assert np.all(ens.extinction_profiles[certain] == 1.0)
    # at K = 1 the rule is the float comparison mean <= 1 + 1e-12
    assert g.poisson_extinction_fixed_point(1.0) == 1.0
    assert g.poisson_extinction_fixed_point(c) == 1.0
    assert g.poisson_extinction_fixed_point(np.nextafter(c, 2.0)) < 1.0


def test_extinction_profiles_solve_no_perron_pair(bear_posterior):
    ens = PosteriorEnsemble(bear_posterior, n_prec=500, master_seed=5)
    ens.extinction_profiles
    g.mc_reintroduction(bear_posterior, ensemble=ens)
    g.effective_population_size(bear_posterior, 5, ensemble=ens)
    assert not ens._perron_solved.any()


def test_viability_solves_no_perron_pair(bear_posterior):
    # viability reads the lambda <= 1 + 1e-12 mask of the fixed point's rule
    ens = PosteriorEnsemble(bear_posterior, n_prec=500, master_seed=5)
    est = g.mc_viability_probability(bear_posterior, ensemble=ens)
    assert not ens._perron_solved.any()
    assert set(est.warnings) == {"non-primitive-pattern"}
    assert est.value == np.sum(ens.lambdas > 1.0 + 1e-12) / ens.n_prec


def test_fixed_point_answers_solve_no_perron_pair(bear_posterior):
    # extinction probability and reintroduction read the fixed points alone
    ens = PosteriorEnsemble(bear_posterior, n_prec=500, master_seed=5)
    est = g.mc_extinction_probability(bear_posterior, (2, 2, 2, 2, 10), ensemble=ens)
    summary = g.mc_reintroduction(bear_posterior, ensemble=ens)
    assert not ens._perron_solved.any()
    assert set(est.warnings) == {"fixed-point-failures", "non-primitive-pattern"}
    assert set(summary.warnings) == {"fixed-point-failures"}


def test_time_bounds_solve_only_subcritical_perron_pairs(bear_ensemble):
    # a cold time-bounds call solves the Perron pairs of its lambda < 1 rows
    # alone, and gives the same bits as one that finds every pair solved; the
    # horizon cap keeps the alpha = 1e-3 scan, open-ended, to 10^4 steps
    cases = [(bear_ensemble.params, bear_ensemble.n_prec, bear_ensemble.master_seed,
              (2, 2, 2, 2, 10)),
             (_period_two_posterior(), 2000, 7, (1, 1, 1)),
             (_tiny_alpha_posterior(), 3000, 5, (3, 2))]
    for post, n, seed, pop in cases:
        cold = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        got = g.mc_time_bounds(post, pop, horizon_cap=10 ** 4, ensemble=cold)
        sub = _lambda_below(cold.pairs, cold.mean_matrices, 1.0)[0]
        assert np.array_equal(cold._perron_solved, sub)
        warm = PosteriorEnsemble(post, n_prec=n, master_seed=seed)
        warm.lambdas
        want = g.mc_time_bounds(post, pop, horizon_cap=10 ** 4, ensemble=warm)
        assert (got.t_minus, got.t_plus, got.n_used, got.warnings) \
            == (want.t_minus, want.t_plus, want.n_used, want.warnings)
        for name in ("times", "upper_curve", "lower_curve"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(cold.lambdas, spectral.perron_batch(cold.mean_matrices)[0])


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
        sub = _lambda_below(ens.pairs, ens.mean_matrices, 1.0)[0]
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
    s, bad = _fixed_point_rows(laws, K, spectral.mean_matrices(laws, K))
    assert not bad.any()
    assert (_pgf(laws, s) - s).min() >= -1e-12
    lam = spectral.perron_batch(spectral.mean_matrices(laws, K))[0]
    assert lam.min() < 0.5 and lam.max() > 1.4
    oracle, converged = _oracle_fixed_points(laws, K)
    assert converged.all()
    np.testing.assert_allclose(s, oracle, rtol=0, atol=1e-9)
