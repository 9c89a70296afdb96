from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gwpva as g
from gwpva.datasets import synthetic_cap, synthetic_life_table


def test_flat_prior_synthetic_posterior(synthetic_posterior):
    assert np.array_equal(synthetic_posterior.alpha[(1, 1)],
                          np.array([145.0, 128.0, 20.0, 14.0, 8.0]))


def test_posterior_mean_matrix_exact(synthetic_posterior):
    M = g.posterior_mean_matrix(synthetic_posterior)
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(float(Fraction(242, 315)), abs=1e-15)


def test_prior_noninformative_shapes():
    cap = g.OffspringCap(2, {(1, 1): 3, (2, 1): 1})
    prior = g.prior_noninformative(cap)
    assert np.array_equal(prior.alpha[(1, 1)], np.ones(4))
    assert np.array_equal(prior.alpha[(2, 1)], np.ones(2))
    assert (1, 2) not in prior.alpha


def test_prior_from_moments_rule_and_fallback():
    a = g.prior_from_moments([0.4, 0.6], [0.1, 0.1])
    assert a == pytest.approx([(1 - 0.1) * 0.4 / 0.1, (1 - 0.1) * 0.6 / 0.1])
    # variance >= 1 carries no information: flat fallback per category
    a = g.prior_from_moments([0.4, 0.6], [1.5, 0.5])
    assert a == pytest.approx([1.0, 0.5 * 0.6 / 0.5])
    with pytest.raises(ValueError):
        g.prior_from_moments([0.0, 1.0], [0.1, 0.1])
    with pytest.raises(ValueError):
        g.prior_from_moments([0.4, 0.6], [0.0, 0.1])


def test_prior_expert_weights_guess():
    a = g.prior_expert(8.0, [0.5, 0.25, 0.25])
    assert a == pytest.approx([4.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        g.prior_expert(-1.0, [0.5, 0.5])
    with pytest.raises(ValueError):
        g.prior_expert(1.0, [0.7, 0.7])


def test_informative_bear_cub_prior_update():
    # externally elicited infant-survival prior, then the observed cub counts
    cap = g.OffspringCap(5, {(1, 2): 1})
    prior = g.HyperParams(cap, {(1, 2): np.array([1.2417, 0.7855])})
    table = g.LifeTable(5, 0, {(1, 2, 0, 0): 3, (1, 2, 1, 0): 17})
    post = g.posterior_update(prior, table)
    assert post.alpha[(1, 2)] == pytest.approx([4.2417, 17.7855])


def test_posterior_update_rejects_bad_counts():
    prior = g.prior_noninformative(g.OffspringCap(1, {(1, 1): 2}))
    with pytest.raises(ValueError, match="exceeds cap"):
        g.posterior_update(prior, g.LifeTable(1, 0, {(1, 1, 3, 0): 1}))
    with pytest.raises(ValueError, match="negative"):
        g.posterior_update(prior, g.LifeTable(1, 0, {(1, 1, 0, 0): -2}))


def test_posterior_update_judges_each_record_before_summing():
    # -1 and 2 parents at k = 0 sum to a positive count over time, but the
    # -1 record is still a negative count
    prior = g.prior_noninformative(g.OffspringCap(1, {(1, 1): 2}))
    table = g.LifeTable(1, 1, {(1, 1, 0, 0): -1, (1, 1, 0, 1): 2, (1, 1, 1, 0): 1})
    with pytest.raises(ValueError, match=r"^invalid life table: negative-count at "
                                         r"\(1, 1, 0, 0\): count -1 < 0$"):
        g.posterior_update(prior, table)
    assert [v.kind for v in g.validate_life_table(table, prior.cap)] == ["negative-count"]


def test_posterior_update_rejects_what_validate_rejects_per_record():
    cap = g.OffspringCap(2, {(1, 2): 1})
    prior = g.prior_noninformative(cap)
    # a zero count is still a record: k > 0 on a forbidden pair is refused
    table = g.LifeTable(2, 0, {(1, 2, 1, 0): 4, (2, 1, 1, 0): 0})
    with pytest.raises(ValueError, match=r"forbidden-pair at \(2, 1, 1, 0\)"):
        g.posterior_update(prior, table)
    # so is a table with another number of types than the cap
    with pytest.raises(ValueError, match="type-mismatch at \\(\\): table K=3, cap K=2"):
        g.posterior_update(prior, g.LifeTable(3, 0, {(1, 2, 1, 0): 4}))
    # row consistency is not a per-record rule: the update does not judge it
    table = g.LifeTable(2, 0, {(1, 2, 1, 0): 4, (1, 1, 0, 0): 3})
    assert [v.kind for v in g.validate_life_table(table, cap)] == ["row-inconsistent"]
    assert g.posterior_update(prior, table).alpha[(1, 2)] == pytest.approx([1.0, 5.0])


def test_hyperparams_reject_nonfinite_alpha():
    # NaN and Infinity parse from JSON; neither is a Dirichlet concentration
    cap = g.OffspringCap(1, {(1, 1): 2})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"alpha for \(1, 1\) must be finite"):
            g.HyperParams(cap, {(1, 1): np.array([1.0, bad, 1.0])})


def test_posterior_update_ignores_zero_rows_outside_support():
    # a k=0 record on a forbidden pair is vacuous and must not raise
    cap = g.OffspringCap(2, {(1, 2): 1})
    prior = g.prior_noninformative(cap)
    table = g.LifeTable(2, 0, {(1, 2, 1, 0): 4, (2, 1, 0, 0): 4})
    post = g.posterior_update(prior, table)
    assert post.alpha[(1, 2)] == pytest.approx([1.0, 5.0])


def test_credible_interval_closed_form():
    # Beta(a, 1) has cdf x^a, so the equal-tailed interval is analytic
    lo, hi = g.credible_interval(np.array([17.0, 1.0]), 0, level=0.90)
    assert lo == pytest.approx(0.05 ** (1 / 17))
    assert hi == pytest.approx(0.95 ** (1 / 17))
    with pytest.raises(ValueError):
        g.credible_interval(np.array([1.0, 1.0]), 5)


def test_marginal_mean():
    assert g.marginal_mean(np.array([18.0, 4.0]), 0) == pytest.approx(18 / 22)


def test_scenario_draws_quantiles(bear_posterior):
    scenarios = g.scenario_draws(bear_posterior, [0.05, 0.5, 0.95])
    assert [s.label for s in scenarios] == ["q05", "q50", "q95"]
    # cub-survival scenario values before renormalization: 0.67 / 0.83 / 0.93
    raw = [stats.beta(18, 4).ppf(q) for q in (0.05, 0.5, 0.95)]
    assert raw == pytest.approx([0.67, 0.83, 0.93], abs=0.005)
    for sc in scenarios:
        for pair, law in sc.draw.p.items():
            assert law.sum() == pytest.approx(1.0)
            assert (law > 0).all()
    # the median scenario is the renormalized vector of marginal medians
    med = scenarios[1].draw.p[(1, 2)]
    raw_med = np.array([stats.beta(4, 18).ppf(0.5), stats.beta(18, 4).ppf(0.5)])
    assert med == pytest.approx(raw_med / raw_med.sum())
    with pytest.raises(ValueError):
        g.scenario_draws(bear_posterior, [0.0])


# shapes and levels on which the quantiles are pinned to scipy.stats, which
# is a test-only oracle: the package calls the scipy.special functions that
# scipy.stats calls, and must get the same bits
QUANTILE_SHAPES = (0.05, 0.5, 1.0, 2.5, 17.0, 140.5, 4000.0)
QUANTILE_LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99)


def test_credible_interval_matches_scipy_stats_bit_for_bit():
    for a0 in QUANTILE_SHAPES:
        for a1 in QUANTILE_SHAPES:
            alpha = np.array([a0, a1, 3.0])
            for level in QUANTILE_LEVELS:
                lo = (1 - level) / 2
                for k in range(3):
                    d = stats.beta(alpha[k], alpha.sum() - alpha[k])
                    assert g.credible_interval(alpha, k, level) == (d.ppf(lo), d.ppf(1 - lo))


def test_scenario_draws_match_scipy_stats_bit_for_bit(bear_posterior, synthetic_posterior):
    from scipy import special

    grid = g.HyperParams(g.OffspringCap(1, {(1, 1): len(QUANTILE_SHAPES) - 1}),
                         {(1, 1): np.array(QUANTILE_SHAPES)})
    quantiles = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
    for params in (grid, bear_posterior, synthetic_posterior):
        for sc in g.scenario_draws(params, quantiles):
            for pair, a in params.alpha.items():
                raw = np.array([stats.beta(ak, a.sum() - ak).ppf(sc.quantile) for ak in a])
                # one vectorized call gives each category the bits of its own call
                assert np.array_equal(special.betaincinv(a, a.sum() - a, sc.quantile), raw)
                assert np.array_equal(sc.draw.p[pair], raw / raw.sum())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 30)),
                min_size=0, max_size=15),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 30)),
                min_size=0, max_size=15))
def test_conjugacy_chain_rule(entries1, entries2):
    # updating with two tables in sequence equals one update with both
    prior = g.prior_noninformative(g.OffspringCap(1, {(1, 1): 3}))

    def table(entries):
        counts = {}
        for k, t, n in entries:
            counts[(1, 1, k, t)] = counts.get((1, 1, k, t), 0) + n
        return g.LifeTable(1, 2, counts)

    t1, t2 = table(entries1), table(entries2)
    chained = g.posterior_update(g.posterior_update(prior, t1), t2)
    joint = g.posterior_update(prior, t1.concat(t2))
    assert np.array_equal(chained.alpha[(1, 1)], joint.alpha[(1, 1)])
