import numpy as np
import pytest

import gwpva as g
from gwpva.datasets import synthetic_cap, synthetic_true_draw
from gwpva.sampling import SeedSpec


def test_seedspec_streams_are_deterministic_and_distinct():
    a = g.sample_dirichlet(np.ones(4), SeedSpec(42, 0))
    b = g.sample_dirichlet(np.ones(4), SeedSpec(42, 0))
    c = g.sample_dirichlet(np.ones(4), SeedSpec(42, 1))
    d = g.sample_dirichlet(np.ones(4), SeedSpec(43, 0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        SeedSpec(1, -1)


def test_seedspec_key_wraps_modulo_2_64():
    # replicate r of master seed m is Philox keyed on (m mod 2^64) * 2^64 + r
    for m in (0, 2024, -3, 2 ** 64 + 5):
        for r in (0, 9, 2 ** 40):
            key = (m % 2 ** 64) * 2 ** 64 + r
            ref = np.random.Generator(np.random.Philox(key=key)).random(3)
            assert np.array_equal(SeedSpec(m, r).rng().random(3), ref)
    assert np.array_equal(SeedSpec(-3, 1).rng().random(3),
                          SeedSpec(2 ** 64 - 3, 1).rng().random(3))


def test_sample_dirichlet_is_a_probability_vector():
    for r in range(50):
        v = g.sample_dirichlet(np.array([0.5, 2.0, 10.0]), SeedSpec(7, r))
        assert v.sum() == pytest.approx(1.0)
        assert (v >= 0).all()
    with pytest.raises(ValueError):
        g.sample_dirichlet(np.array([1.0, 0.0]), SeedSpec(7, 0))


def test_sample_dirichlet_mean_matches_alpha():
    alpha = np.array([145.0, 128.0, 20.0, 14.0, 8.0])
    draws = np.stack([g.sample_dirichlet(alpha, SeedSpec(3, r)) for r in range(4000)])
    assert draws.mean(axis=0) == pytest.approx(alpha / alpha.sum(), abs=5e-3)


def test_sample_parameter_draw_matches_posterior_support(synthetic_posterior):
    draw = g.sample_parameter_draw(synthetic_posterior, SeedSpec(11, 0))
    assert set(draw.p) == {(1, 1)}
    assert len(draw.p[(1, 1)]) == 5


def test_simulate_roundtrip_abundances():
    traj = g.simulate(synthetic_true_draw(), g.PopulationState((100,)), 5, SeedSpec(1, 0))
    if traj.extinct_at is None:
        recovered = g.abundances_from_table(traj.table)
        assert [s.N for s in recovered] == [s.N for s in traj.states]


def test_simulate_deterministic_death():
    draw = g.ParameterDraw(g.OffspringCap(1, {(1, 1): 1}),
                           {(1, 1): np.array([1.0, 0.0])})
    traj = g.simulate(draw, g.PopulationState((9,)), 10, SeedSpec(0, 0))
    assert traj.extinct_at == 1
    assert traj.final.extinct
    assert traj.table.count(1, 1, 0, 0) == 9


def test_simulate_seed_reproducibility():
    draw = synthetic_true_draw()
    a = g.simulate(draw, g.PopulationState((50,)), 8, SeedSpec(99, 4))
    b = g.simulate(draw, g.PopulationState((50,)), 8, SeedSpec(99, 4))
    assert [s.N for s in a.states] == [s.N for s in b.states]
    assert a.table.counts == b.table.counts


def test_simulate_conditional_mean():
    # one-step conditional mean is N0 @ M; check at 3 sigma over 4000 runs
    draw = synthetic_true_draw()
    n0 = 40
    finals = np.array([g.simulate(draw, g.PopulationState((n0,)), 1,
                                  SeedSpec(5, r)).final.total
                       for r in range(4000)])
    expected = n0 * 0.75
    p = np.asarray(draw.p[(1, 1)])
    var1 = float((np.arange(5) ** 2) @ p - 0.75 ** 2)
    se = np.sqrt(n0 * var1 / len(finals))
    assert abs(finals.mean() - expected) <= 3 * se


def test_simulate_extinction_time_censoring():
    sub = synthetic_true_draw()
    t = g.simulate_extinction_time(sub, g.PopulationState((5,)), SeedSpec(2, 0))
    assert t is not None and t >= 1
    sup = g.ParameterDraw(g.OffspringCap(1, {(1, 1): 2}),
                          {(1, 1): np.array([0.0, 0.0, 1.0])})
    assert g.simulate_extinction_time(sup, g.PopulationState((4,)), SeedSpec(2, 1),
                                      max_time=50) is None


def test_simulate_validates_inputs():
    with pytest.raises(ValueError):
        g.simulate(synthetic_true_draw(), g.PopulationState((1, 1)), 3, SeedSpec(0, 0))
    with pytest.raises(ValueError):
        g.simulate(synthetic_true_draw(), g.PopulationState((1,)), -1, SeedSpec(0, 0))
    with pytest.raises(TypeError):
        g.sample_dirichlet(np.ones(2), 1234)
