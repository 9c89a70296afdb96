import numpy as np
import pytest

import gwpva as g
from gwpva.datasets import synthetic_abundances


def test_log_growth_moments_on_reference_series():
    gm = g.log_growth_moments(synthetic_abundances())
    assert gm.n_ratios == 5
    assert gm.r_d == pytest.approx(-0.3028, abs=5e-4)
    assert gm.v_r == pytest.approx(0.0041, abs=5e-4)


def test_log_growth_moments_edge_cases():
    gm = g.log_growth_moments([10.0, 5.0])
    assert gm.r_d == pytest.approx(np.log(0.5))
    assert np.isnan(gm.v_r)
    with pytest.raises(ValueError):
        g.log_growth_moments([10.0])
    with pytest.raises(ValueError):
        g.log_growth_moments([10.0, 0.0, 5.0])


def test_regression_interval_declining_series():
    lo, hi = g.regression_extinction_interval(synthetic_abundances(), level=0.90)
    assert 0 <= lo <= hi
    # tighter band at a lower level nests inside the 90% window
    lo2, hi2 = g.regression_extinction_interval(synthetic_abundances(), level=0.50)
    assert lo <= lo2 <= hi2 <= hi


def test_regression_interval_exact_geometric_decay():
    # noise-free N(t) = 100 * 0.5^t: zero residual variance, so both band
    # edges cross log N = 0 at t = log2(100); offsets from t_last = 4
    N = 100.0 * 0.5 ** np.arange(5)
    lo, hi = g.regression_extinction_interval(N)
    star = np.log2(100.0) - 4.0
    assert lo == int(np.floor(star))
    assert hi == int(np.ceil(star))


def test_regression_interval_rejects_growth():
    with pytest.raises(ValueError, match="nonnegative"):
        g.regression_extinction_interval([10.0, 20.0, 40.0])
    with pytest.raises(ValueError):
        g.regression_extinction_interval([10.0, 5.0])
    with pytest.raises(ValueError):
        g.regression_extinction_interval([10.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        g.regression_extinction_interval(synthetic_abundances(), level=1.5)


def test_regression_interval_custom_times():
    N = 100.0 * 0.5 ** np.arange(5)
    a = g.regression_extinction_interval(N)
    b = g.regression_extinction_interval(N, times=[10, 11, 12, 13, 14])
    assert a == b


def test_regression_t_critical_value_matches_scipy_stats(monkeypatch):
    from scipy import special, stats

    seen = []
    stdtrit = special.stdtrit

    def recording(df, q):
        seen.append((df, q, stdtrit(df, q)))
        return seen[-1][2]

    monkeypatch.setattr(special, "stdtrit", recording)
    series = [synthetic_abundances(), 100.0 * 0.7 ** np.arange(4),
              80.0 * 0.9 ** np.arange(30) * (1 + 0.1 * np.sin(np.arange(30)))]
    for N in series:
        for level in (0.5, 0.8, 0.9, 0.95, 0.99):
            g.regression_extinction_interval(N, level=level)
            df, q, t_crit = seen.pop()
            assert (df, q) == (len(N) - 2, (1 + level) / 2)
            assert t_crit == stats.t.ppf(q, df)
