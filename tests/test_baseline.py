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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_log_growth_moments_rejects_nonfinite_abundances(bad):
    with pytest.raises(ValueError, match="abundances must be finite"):
        g.log_growth_moments([1.0, bad])


def test_regression_interval_declining_series():
    lo, hi = g.regression_extinction_interval(synthetic_abundances(), level=0.90)
    assert (lo, hi) == (9, 12)
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_regression_interval_rejects_nonfinite_abundances(bad):
    with pytest.raises(ValueError, match="abundances must be finite"):
        g.regression_extinction_interval([100.0, 50.0, bad, 10.0])


@pytest.mark.parametrize("times", [
    [1, 1, 1, 1],            # a slope fitted on one time point
    [0, 1, 3, 2],            # the window would count from t = 2
    [0, 1, np.nan, 3],       # no line is fitted through a NaN time
    [0, 1, 2, np.inf],
])
def test_regression_interval_rejects_bad_times(times):
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        g.regression_extinction_interval([100.0, 60.0, 35.0, 20.0], times=times)


def test_regression_interval_band_that_never_closes():
    # one residual degree of freedom: at 99% the upper edge's half-width grows
    # faster than the fitted line falls
    N = [100.0, 70.0, 50.0]
    assert g.regression_extinction_interval(N, level=0.90) == _brentq_window(N, 0.90)
    with pytest.raises(ValueError, match=r"the 0\.99 confidence band does not reach "
                       r"log N = 0 within 10\^6 steps after the last observation"):
        g.regression_extinction_interval(N, level=0.99)


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


def _brentq_window(abundances, level=0.90, times=None):
    """The regression window by bracketed root finding on each band edge
    (the closed form's reference); ValueError where no window exists."""
    from scipy import optimize, special

    y = np.log(np.asarray(abundances, dtype=float))
    n = len(y)
    t = np.arange(n, dtype=float) if times is None else np.asarray(times, dtype=float)
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0:
        raise ValueError("no decline")
    resid = y - (intercept + slope * t)
    s2 = float(resid @ resid) / (n - 2)
    t_crit = float(special.stdtrit(n - 2, (1 + level) / 2))
    t_bar, t_last = float(t.mean()), float(t[-1])
    sxx = float(((t - t_bar) ** 2).sum())

    def crossing(sign):
        def f(x):
            return intercept + slope * x + sign * t_crit * np.sqrt(
                s2 * (1.0 / n + (x - t_bar) ** 2 / sxx))
        if f(t_last) <= 0:
            return t_last
        return optimize.brentq(f, t_last, t_last + 10 ** 6)

    return int(np.floor(crossing(-1.0) - t_last)), int(np.ceil(crossing(+1.0) - t_last))


def _window_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


def test_regression_interval_matches_brentq_oracle():
    # declining, flat and growing series with lognormal noise, unit and uneven
    # steps, across levels: the same integer window, or ValueError from both
    rng = np.random.default_rng(20240)
    windows = errors = 0
    for _ in range(2400):
        n = int(rng.integers(3, 30))
        N = (rng.uniform(5, 2000) * rng.uniform(0.5, 1.05) ** np.arange(n)
             * np.exp(rng.normal(0, rng.uniform(0, 0.5), n)))
        times = None if rng.random() < 0.7 else np.cumsum(rng.uniform(0.2, 3, n))
        level = rng.uniform(0.5, 0.99)
        want = _window_or_error(_brentq_window, N, level, times)
        assert _window_or_error(g.regression_extinction_interval, N, level, times) == want
        windows += want != "ValueError"
        errors += want == "ValueError"
    assert windows > 1500 and errors > 300


def test_regression_interval_degenerate_cases_match_brentq_oracle():
    from scipy import special, stats

    # a perfect geometric decline: zero residuals (s^2 = 0), so both edges cross where
    # the line does, log2(48) - 3 = 2.58 steps after the last observation
    N = [48.0, 24.0, 12.0, 6.0]
    y, dt = np.log(N), np.arange(4) - 1.5
    b = dt @ (y - y.mean()) / (dt @ dt)
    assert (y - (y.mean() + b * dt) == 0).all()
    assert g.regression_extinction_interval(N) == _brentq_window(N) == (2, 3)

    # the lower edge already at or below log N = 0 at the last observation
    N = [20.0, 8.0, 3.0, 1.5, 1.0]
    assert g.regression_extinction_interval(N) == _brentq_window(N) == (0, 1)

    # near-degenerate quadratic: the level at which b^2 = k^2 / Sxx, where the
    # upper edge's far crossing runs to infinity
    N = np.array(synthetic_abundances(), dtype=float)
    n = len(N)
    t = np.arange(n)
    slope, intercept = np.polyfit(t, np.log(N), 1)
    resid = np.log(N) - (intercept + slope * t)
    s2 = resid @ resid / (n - 2)
    sxx = ((t - t.mean()) ** 2).sum()
    level0 = 2 * stats.t.cdf(-slope * np.sqrt(sxx / s2), n - 2) - 1
    for eps in (-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9):
        level = level0 + eps
        t_crit = special.stdtrit(n - 2, (1 + level) / 2)
        assert abs(slope ** 2 - t_crit ** 2 * s2 / sxx) < 0.1
        assert (_window_or_error(g.regression_extinction_interval, N, level)
                == _window_or_error(_brentq_window, N, level))
    assert g.regression_extinction_interval(N, level=level0 - 1e-9)[1] > 10 ** 5
