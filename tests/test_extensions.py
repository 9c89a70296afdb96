import math

import numpy as np
import pytest

import gwpva as g
from gwpva.extinction import _pgf_jacobian
from gwpva.model import _law_stack
from gwpva.sampling import SeedSpec


def test_sex_ratio_posterior():
    post = g.sex_ratio_posterior(g.BetaParams(1.0, 1.0), females=14, males=10)
    assert (post.a, post.b) == (15.0, 11.0)
    assert post.mean == pytest.approx(15 / 26)
    lo, hi = post.credible_interval(0.90)
    assert 0 < lo < post.mean < hi < 1
    with pytest.raises(ValueError):
        g.sex_ratio_posterior(g.BetaParams(1.0, 1.0), -1, 0)


def test_beta_and_gamma_credible_intervals_match_scipy_stats_bit_for_bit():
    from scipy import stats

    shapes = (0.05, 0.5, 1.0, 2.5, 17.0, 140.5, 4000.0)
    for x in shapes:
        for y in shapes:
            beta = stats.beta(x, y)
            gamma = stats.gamma(x, scale=1.0 / y)
            for level in (0.5, 0.8, 0.9, 0.95, 0.99):
                lo = (1 - level) / 2
                assert g.BetaParams(x, y).credible_interval(level) == (
                    beta.ppf(lo), beta.ppf(1 - lo))
                assert g.GammaParams(x, y).credible_interval(level) == (
                    gamma.ppf(lo), gamma.ppf(1 - lo))


def test_thinned_offspring_law_edges():
    law = np.array([0.2, 0.5, 0.3])
    assert g.thinned_offspring_law(law, 1.0) == pytest.approx(law)
    assert g.thinned_offspring_law(law, 0.0) == pytest.approx([1.0, 0.0, 0.0])
    # Binomial(2, 1/2) thinning of a point mass at k=2
    out = g.thinned_offspring_law([0.0, 0.0, 1.0], 0.5)
    assert out == pytest.approx([0.25, 0.5, 0.25])
    assert g.thinned_offspring_law(law, 0.5).sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        g.thinned_offspring_law(law, 1.5)
    with pytest.raises(ValueError):
        g.thinned_offspring_law([0.5, 0.6], 0.5)


def test_poisson_posterior():
    post = g.poisson_posterior(g.GammaParams(1.0, 1.0), [2, 0, 1])
    assert (post.shape, post.rate) == (4.0, 4.0)
    assert post.mean == pytest.approx(1.0)
    assert g.poisson_posterior(post, []) == post
    with pytest.raises(ValueError):
        g.poisson_posterior(post, [-1])


def _poisson_bisection(mean):
    # bisection oracle for the minimal root of s = exp(mean (s - 1))
    if mean <= 1:
        return 1.0
    lo, hi = 0.0, 1.0 - 1e-13
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.exp(mean * (mid - 1.0)) - mid > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_poisson_extinction_fixed_point():
    assert g.poisson_extinction_fixed_point(0.5) == 1.0
    assert g.poisson_extinction_fixed_point(1.0) == 1.0
    s = g.poisson_extinction_fixed_point(2.0)
    assert abs(s - _poisson_bisection(2.0)) <= 1e-9
    assert s == pytest.approx(0.2032, abs=5e-4)
    with pytest.raises(ValueError):
        g.poisson_extinction_fixed_point(-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            g.poisson_extinction_fixed_point(bad)


@pytest.mark.parametrize("mean", [0.5, 1.0, 1.00001, 1.00005, 1.5, 2, 5, 20, 50])
def test_poisson_extinction_fixed_point_matches_bisection(mean):
    # just above criticality the root sits within 1e-4 of 1, where a
    # bracket test at 1 - 1e-12 sees no sign change
    s = g.poisson_extinction_fixed_point(mean)
    if mean <= 1:
        assert s == 1.0
    assert abs(s - _poisson_bisection(mean)) <= 1e-9


def test_poisson_law_interface():
    # the law keeps only its rate and its sampler; its mean, pgf and pgf
    # derivative are the Poisson branch of the law-stack kernels
    law = g.PoissonLaw(2.0)
    draw = g.ParameterDraw(g.OffspringCap(1, {(1, 1): 1}), {(1, 1): law})
    assert g.mean_matrix(draw)[0, 0] == 2.0
    assert g.generating_function(draw, [1.0]) == pytest.approx([1.0])
    assert g.generating_function(draw, [0.5]) == pytest.approx([math.exp(-1.0)], rel=1e-15)
    J = _pgf_jacobian(_law_stack(draw), np.array([[1.0], [0.5]]))
    assert J[:, 0, 0] == pytest.approx([2.0, 2.0 * math.exp(-1.0)], rel=1e-15)
    counts = law.sample_counts(SeedSpec(4, 0).rng(), 500)
    assert sum(counts.values()) == 500
    mean = sum(k * n for k, n in counts.items()) / 500
    assert mean == pytest.approx(2.0, abs=0.2)


def test_nonfinite_parameters_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            g.GammaParams(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            g.GammaParams(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            g.BetaParams(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            g.BetaParams(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            g.PoissonLaw(bad)


def test_poisson_law_in_draw_and_simulation():
    cap = g.OffspringCap(1, {(1, 1): 3})
    draw = g.ParameterDraw(cap, {(1, 1): g.PoissonLaw(0.5)})
    assert g.mean_matrix(draw) == pytest.approx(np.array([[0.5]]))
    prof = g.minimal_fixed_point(draw)
    assert prof.s[0] == pytest.approx(1.0, abs=1e-9)
    traj = g.simulate(draw, g.PopulationState((30,)), 10, SeedSpec(6, 0))
    assert traj.extinct_at is not None or traj.final.total >= 0
    # supercritical: both n = 1 views of the batched solver agree with each
    # other and with bisection
    draw = g.ParameterDraw(cap, {(1, 1): g.PoissonLaw(2.0)})
    assert g.mean_matrix(draw) == pytest.approx(np.array([[2.0]]))
    prof = g.minimal_fixed_point(draw)
    assert prof.converged
    assert abs(prof.s[0] - g.poisson_extinction_fixed_point(2.0)) <= 1e-12
    assert abs(prof.s[0] - _poisson_bisection(2.0)) <= 1e-9
    traj = g.simulate(draw, g.PopulationState((3,)), 5, SeedSpec(6, 0))
    # the first generation records one offspring count per founder
    assert sum(n for (_, _, _, t), n in traj.table.counts.items() if t == 0) == 3


def test_convolve_survival_reproduction_exact():
    out = g.convolve_survival_reproduction([0.6, 0.4], [0.8, 0.1, 0.05, 0.05])
    assert out == pytest.approx([0.48, 0.38, 0.07, 0.05, 0.02])
    assert out.sum() == pytest.approx(1.0)
    # mass is conserved and means add: mean(out) = pS(1) + mean(pR)
    mean = np.arange(5) @ out
    assert mean == pytest.approx(0.4 + (0.1 + 2 * 0.05 + 3 * 0.05))
    with pytest.raises(ValueError):
        g.convolve_survival_reproduction([0.4, 0.5, 0.1], [1.0])
    with pytest.raises(ValueError):
        g.convolve_survival_reproduction([0.4, 0.7], [1.0])
