import math

import numpy as np
import pytest

import gwpva as g
from gwpva import extensions
from gwpva.extensions import _beta_quantile, _gamma_quantile
from gwpva.sampling import SeedSpec
from gwpva.spectral import _law_stack

from conftest import dense_pgf_jacobian
from quantile_references import (BETA_QUANTILES, GAMMA_QUANTILE_POINTS, GAMMA_QUANTILES,
                                 QUANTILE_LEVELS, QUANTILE_QS, QUANTILE_SHAPES, beta_reference)


def test_sex_ratio_posterior():
    post = g.sex_ratio_posterior(g.BetaParams(1.0, 1.0), females=14, males=10)
    assert (post.a, post.b) == (15.0, 11.0)
    assert post.mean == pytest.approx(15 / 26)
    lo, hi = post.credible_interval(0.90)
    assert 0 < lo < post.mean < hi < 1
    with pytest.raises(ValueError):
        g.sex_ratio_posterior(g.BetaParams(1.0, 1.0), -1, 0)


def _bound(*shapes):
    # SciPy's own worst error on this grid is about 1.1e-14 for the Beta and
    # 2.4e-14 for the Gamma quantiles, at shape 0.05; only the Gamma
    # quantiles of shape 4 000 are held to 1e-13
    return 1e-13 if shapes == (4000.0,) else 1e-14


def test_beta_quantile_matches_reference_quantiles():
    # x and 1 - x each to full relative precision, the short side down to
    # 1.4e-50
    for (a, b), refs in BETA_QUANTILES.items():
        for q, ref in zip(QUANTILE_QS, refs, strict=True):
            assert _beta_quantile(a, b, q) == pytest.approx(beta_reference(ref),
                                                            rel=_bound(a, b), abs=0)


def test_beta_and_gamma_credible_intervals_match_reference_quantiles():
    from scipy import stats

    for x in QUANTILE_SHAPES:
        gamma = dict(zip(QUANTILE_QS, GAMMA_QUANTILES[x], strict=True))
        for y in QUANTILE_SHAPES:
            beta = dict(zip(QUANTILE_QS, BETA_QUANTILES[(x, y)], strict=True))
            for level in QUANTILE_LEVELS:
                ends = ((1 - level) / 2, 1 - (1 - level) / 2)
                lo, hi = g.BetaParams(x, y).credible_interval(level)
                assert (lo, hi) == pytest.approx([beta_reference(beta[q])[0] for q in ends],
                                                 rel=_bound(x, y), abs=0)
                assert (lo, hi) == pytest.approx(stats.beta(x, y).ppf(ends), rel=1e-13, abs=0)
                lo, hi = g.GammaParams(x, y).credible_interval(level)
                assert (lo, hi) == pytest.approx([float(gamma[q]) / y for q in ends],
                                                 rel=_bound(x), abs=0)
                assert (lo, hi) == pytest.approx(stats.gamma(x, scale=1 / y).ppf(ends),
                                                 rel=1e-13, abs=0)


def test_gamma_quantiles_below_shape_005():
    # log Gamma(1 + a) from its Taylor series: math.log(math.gamma(1 + a))
    # put the point below off by 3.7e-14 and the row's four quantiles at
    # q >= 0.9 by up to 5.8e-15. Below its mean a Gamma(a) quantile is about
    # (q Gamma(1 + a))^(1/a), so it carries the rounding of the double
    # P(a, x) near q, one or two units of 1.1e-16, times 1/a: up to 2.2e-14
    # at a = 0.01, hence the row's bound
    bound = 2.5e-14
    refs = dict(zip(QUANTILE_QS, GAMMA_QUANTILES[0.01], strict=True))
    for q, ref in refs.items():
        assert _gamma_quantile(0.01, q) == pytest.approx(float(ref), rel=bound, abs=0)
        if q >= 0.9:
            assert _gamma_quantile(0.01, q) == pytest.approx(float(ref), rel=1e-15, abs=0)
    for y in QUANTILE_SHAPES:
        for level in QUANTILE_LEVELS:
            ends = ((1 - level) / 2, 1 - (1 - level) / 2)
            assert g.GammaParams(0.01, y).credible_interval(level) == pytest.approx(
                [float(refs[q]) / y for q in ends], rel=bound, abs=0)
    for (a, q), ref in GAMMA_QUANTILE_POINTS.items():
        assert _gamma_quantile(a, q) == pytest.approx(float(ref), rel=1e-14, abs=0)


def test_quantiles_at_the_ends_of_their_range():
    # a level within an ulp of 1 puts the upper end at q = 1
    assert _beta_quantile(2.0, 3.0, 0.0) == (0.0, 1.0)
    assert _beta_quantile(2.0, 3.0, 1.0) == (1.0, 0.0)
    assert _gamma_quantile(2.0, 0.0) == 0.0
    assert _gamma_quantile(2.0, 1.0) == math.inf
    level = math.nextafter(1.0, 0.0)
    assert g.BetaParams(2, 3).credible_interval(level)[1] == 1.0
    assert g.GammaParams(2, 3).credible_interval(level)[1] == math.inf


def test_beta_and_gamma_credible_intervals_check_the_level():
    # the (0,1) check of inference.credible_interval; 1.5 gave (nan, nan)
    # and -1 an interval (inf, 0.0) before
    for level in (0, 1, 1.5, -1):
        for params in (g.BetaParams(2, 3), g.GammaParams(2, 3)):
            with pytest.raises(ValueError, match=r"level must be in \(0,1\)"):
                params.credible_interval(level)


def test_thinned_offspring_law_edges():
    law = np.array([0.2, 0.5, 0.3])
    assert g.thinned_offspring_law(law, 1.0) == pytest.approx(law)
    assert g.thinned_offspring_law(law, 0.0) == pytest.approx([1.0, 0.0, 0.0])
    # Binomial(2, 1/2) thinning of a point mass at k=2
    out = g.thinned_offspring_law([0.0, 0.0, 1.0], 0.5)
    assert out == pytest.approx([0.25, 0.5, 0.25])
    assert math.fsum(g.thinned_offspring_law(law, 0.5)) == pytest.approx(1.0)
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
    with pytest.raises(ValueError, match="one parent count per offspring count"):
        g.poisson_posterior(post, [1, 2], [1])


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
    J = dense_pgf_jacobian(_law_stack(draw), np.array([[1.0], [0.5]]))
    assert J[:, 0, 0] == pytest.approx([2.0, 2.0 * math.exp(-1.0)], rel=1e-15)
    counts = law.sample_counts(SeedSpec(4, 0).rng(), 500)
    assert sum(counts.values()) == 500
    mean = sum(k * n for k, n in counts.items()) / 500
    assert mean == pytest.approx(2.0, abs=0.2)
    # the histogram is drawn one binomial per offspring count, so its cost
    # does not grow with the number of parents
    counts = law.sample_counts(SeedSpec(5, 0).rng(), 10 ** 12)
    assert sum(counts.values()) == 10 ** 12
    assert list(counts) == sorted(counts) and all(counts.values())
    # at n = 10^6 it follows the Poisson pmf: mean and variance within 5
    # standard errors, and a chi-square test with pooled tails
    from scipy import stats

    n = 10 ** 6
    for rate in (0.8, 2.5, 7.0):
        counts = g.PoissonLaw(rate).sample_counts(SeedSpec(5, 1).rng(), n)
        k, m = np.array(list(counts)), np.array(list(counts.values()))
        mean = (k * m).sum() / n
        assert abs(mean - rate) <= 5 * math.sqrt(rate / n)
        assert abs((k * k * m).sum() / n - mean ** 2 - rate) <= 5 * math.sqrt(
            (rate + 2 * rate ** 2) / n)
        lo, hi = int(stats.poisson.ppf(1e-3, rate)), int(stats.poisson.isf(1e-3, rate))
        ks = np.arange(lo, hi + 1)
        observed = np.array([m[k < lo].sum(), *(counts.get(int(j), 0) for j in ks),
                             m[k > hi].sum()])
        expected = n * np.array([stats.poisson.cdf(lo - 1, rate),
                                 *stats.poisson.pmf(ks, rate), stats.poisson.sf(hi, rate)])
        keep = expected > 0
        chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        assert stats.chi2.sf(chi2, keep.sum() - 1) > 1e-3, (rate, chi2)


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
    # a supercritical Poisson path stops at the overflow cap before the horizon
    traj = g.simulate(draw, g.PopulationState((100,)), 60, SeedSpec(1, 0))
    assert traj.truncated and traj.extinct_at is None
    assert traj.final.total > 10 ** 12 and traj.final.time < 60


def test_poisson_law_ratios_are_computed_once(monkeypatch):
    # each generation draws n_k ~ Binomial(parents left, P(X = k) / P(X >= k))
    # for k = 0, 1, ...; a ratio costs a _gamma_tail call whose cost grows
    # with the rate, so each (rate, k) is computed once however many
    # generations draw from the law, and the path keeps the bits of ratios
    # computed afresh
    draw = g.ParameterDraw(g.OffspringCap(1, {(1, 1): 3}), {(1, 1): g.PoissonLaw(30.0)})
    extensions._poisson_ratio.cache_clear()
    calls, tail = [], extensions._gamma_tail
    monkeypatch.setattr(extensions, "_gamma_tail",
                        lambda a, x, lower: calls.append(a) or tail(a, x, lower))
    traj = g.simulate(draw, g.PopulationState((2,)), 5, SeedSpec(3, 0))
    assert traj.final.time == 5 and traj.final.total > 10 ** 5
    assert calls and len(calls) == len(set(calls)), sorted(calls)
    monkeypatch.setattr(extensions, "_poisson_ratio", extensions._poisson_ratio.__wrapped__)
    again = g.simulate(draw, g.PopulationState((2,)), 5, SeedSpec(3, 0))
    assert again.states == traj.states and again.table.counts == traj.table.counts
    assert len(calls) > 2 * len(set(calls))  # uncached, every generation pays again


def test_convolve_survival_reproduction_exact():
    out = g.convolve_survival_reproduction([0.6, 0.4], [0.8, 0.1, 0.05, 0.05])
    assert out == pytest.approx([0.48, 0.38, 0.07, 0.05, 0.02])
    assert math.fsum(out) == pytest.approx(1.0)
    # mass is conserved and means add: mean(out) = pS(1) + mean(pR)
    mean = np.arange(5) @ out
    assert mean == pytest.approx(0.4 + (0.1 + 2 * 0.05 + 3 * 0.05))
    with pytest.raises(ValueError):
        g.convolve_survival_reproduction([0.4, 0.5, 0.1], [1.0])
    with pytest.raises(ValueError):
        g.convolve_survival_reproduction([0.4, 0.7], [1.0])


def test_beta_median_of_large_equal_shapes():
    # Beta(a, a) is symmetric about 1/2. Formed from log B(a, a), the
    # density factor K lost the digits that its large terms cancel, which
    # put the median off by 2.0e-14 at a = 4 000 and 1.8e-13 at 8e4
    for a in (4000.0, 2e4, 8e4):
        x, y = _beta_quantile(a, a, 0.5)
        assert abs(x - 0.5) <= 4.4e-16 and abs(y - 0.5) <= 4.4e-16, a
