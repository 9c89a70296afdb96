import numpy as np
import pytest

import gwpva as g
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


def test_ensemble_matches_sample_parameter_draw(synthetic_posterior):
    ens = PosteriorEnsemble(synthetic_posterior, n_prec=20, master_seed=31)
    for r in (0, 7, 19):
        draw = g.sample_parameter_draw(synthetic_posterior, SeedSpec(31, r))
        assert np.array_equal(draw.p[(1, 1)], ens.law((1, 1))[r])


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


def test_ensemble_rerun_and_prefix_invariance(bear_posterior):
    def outputs(ens):
        via = g.mc_viability_probability(bear_posterior, ensemble=ens)
        ext = g.mc_extinction_probability(bear_posterior, (1, 1, 1, 1, 1), ensemble=ens)
        tb = g.mc_time_bounds(bear_posterior, (1, 1, 1, 1, 1), ensemble=ens)
        return via.value, ext.value, tb.t_minus, tb.t_plus, tb.upper_curve.tobytes()

    small = PosteriorEnsemble(bear_posterior, n_prec=96, master_seed=5)
    again = PosteriorEnsemble(bear_posterior, n_prec=96, master_seed=5)
    assert outputs(small) == outputs(again)
    large = PosteriorEnsemble(bear_posterior, n_prec=160, master_seed=5)
    for pair in small.pairs:
        assert np.array_equal(small.law(pair), large.law(pair)[:96])
    for name in ("lambdas", "left_vectors", "extinction_profiles"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:96]), name


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
        for r in range(ens.n_prec):
            draw = g.sample_parameter_draw(post, SeedSpec(K, r))
            oracle = g.minimal_fixed_point(draw)
            assert oracle.converged
            np.testing.assert_allclose(s[r], oracle.s, rtol=0, atol=1e-9)
    assert n_near >= 10  # the near-critical regime is exercised


def test_extinction_profiles_independent_of_batch(bear_posterior):
    small = PosteriorEnsemble(bear_posterior, n_prec=37, master_seed=5)
    large = PosteriorEnsemble(bear_posterior, n_prec=1200, master_seed=5)
    assert np.array_equal(small.extinction_profiles, large.extinction_profiles[:37])
