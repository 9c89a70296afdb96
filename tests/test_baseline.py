import timeit

import numpy as np
import pytest

import gwpva as g
from gwpva import baseline
from gwpva.baseline import _t_critical
from gwpva.datasets import synthetic_abundances
from gwpva.extensions import _beta_quantile


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


def test_nonpositive_abundance_is_named_with_its_position():
    # a zero followed by a positive count is not an extinction, so dropping
    # trailing zeros is advised only where the rest are zeros
    for fit in (g.log_growth_moments, g.regression_extinction_interval):
        with pytest.raises(ValueError, match=r"^abundances must be positive, got N = 0 at "
                                             r"position 2 \(from 0\)$"):
            fit([100, 75, 0, 30, 0])
        with pytest.raises(ValueError, match=r"^abundances must be positive, got N = 0 at "
                                             r"position 3 \(from 0\); drop post-extinction "
                                             r"zeros$"):
            fit([100, 75, 30, 0, 0])
        with pytest.raises(ValueError, match=r"got N = -4 at position 1 \(from 0\)$"):
            fit([100, -4, 30, 0])


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


# The t with P(|T| <= t) = level at q = (1 + level)/2 taken in double
# precision, as _t_critical takes it, to 20 digits; made with mpmath 1.3.0:
#
#   import mpmath as mp
#   mp.mp.dps = 40
#   p = 2 * (1 - mp.mpf((1 + level) / 2))  # P(|T| > t) at the double q
#   lo, hi = mp.mpf(0), mp.pi / 2  # bisect on theta = atan(t / sqrt(nu))
#   for _ in range(150):
#       th = (lo + hi) / 2
#       if mp.betainc(mp.mpf(nu) / 2, 0.5, 0, mp.cos(th) ** 2, regularized=True) > p:
#           lo = th
#       else:
#           hi = th
#   t = mp.nstr(mp.sqrt(nu) * mp.tan(lo), 20)
#
# At nu = 100 000 betainc stops at its term limit (NoConvergence), so there
# the bisection tests 1 - I_y(1/2, nu/2) > p, y = sin(th)^2, with
# I_y(1/2, nu/2) = mp.sqrt(y) * mp.hyp2f1(0.5, 1 - mp.mpf(nu) / 2, 1.5, y,
# maxterms=10 ** 6) / (0.5 * mp.beta(0.5, mp.mpf(nu) / 2)); at nu = 3 000 and
# 10 000 that form gives the same 20 digits as betainc.
_T_LEVELS = (0.05, 0.29, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999876247936337, 1 - 1e-6)
_T_QUANTILES = {
    1: ("0.078701706824618518252", "0.48989494502247712191", "1.0", "1.376381920471173942",
         "3.0776835371752541331", "6.3137515146750373979", "12.706204736174693314",
         "63.656741162871524447", "636.61924876878972983", "51443.164133400301306",
         "636619.77227807232679"),
    2: ("0.070799232540478932309", "0.42853763274065507082", "0.81649658092772603273",
         "1.0606601717798215319", "1.8856180831641270225", "2.9199855803537241703",
         "4.3026527297494617894", "9.9248432009182886403", "31.599054576445363413",
         "284.26261321658918506", "999.99924992995471405"),
    3: ("0.06808752267626954614", "0.40897857833618199637", "0.76489232840434528066",
         "0.97847231236330465242", "1.6377443536962103222", "2.353363434801822899",
         "3.1824463052837084359", "5.8409093097333554113", "12.923978636687964322",
         "56.252454421207165323", "130.15458955229284372"),
    4: ("0.06672849470075703252", "0.39940777940161910615", "0.74069708411268263298",
         "0.94096457723518136434", "1.5332062740589440989", "2.1318467863266495285",
         "2.7764451051977934898", "4.6040948713499920459", "8.6103015813795227571",
         "26.32437433149378134", "49.458636755203972958"),
    5: ("0.065914855393024594587", "0.39374507928213109894", "0.72668684380042265302",
         "0.91954378024082621301", "1.4758840488244812516", "2.0150483733330235417",
         "2.5705818356363147828", "4.0321429835552271793", "6.8688266258812751318",
         "17.139899543242949485", "28.47847346218387279"),
    7: ("0.064988741962488617298", "0.38735708136465102937", "0.71114177808178630563",
         "0.89602964431376513247", "1.4149239276505086353", "1.8945786050900067854",
         "2.3646242515927847379", "3.4994832973504932609", "5.4078825208618280539",
         "10.861747244611865788", "15.767009437159882089"),
    10: ("0.064298146144283065514", "0.38263139152314377734", "0.69981206131243162734",
         "0.87905782855058886168", "1.3721836411103357746", "1.8124611228116758693",
         "2.2281388519862742245", "3.1692726726169507118", "4.5868938587027077385",
         "7.9546846633125126212", "10.516489956755801042"),
    28: ("0.063271301418079116799", "0.37566100941320078065", "0.68335284298850582594",
         "0.85464748558222258313", "1.3125267815926667534", "1.7011309342659311608",
         "2.0484071417952447346", "2.7632624554614442325", "3.6739064007013183245",
         "5.2953262095220782129", "6.225413445421939161"),
    60: ("0.062969627990818125844", "0.37362539202607968737", "0.67860072064813578161",
         "0.84765300635661493963", "1.2958210935157309149", "1.6706488649046360675",
         "2.0002978220142601041", "2.660283028855036852", "3.4602004691963915876",
         "4.765543237345567645", "5.4489478322488691278"),
    100: ("0.062864358946213203309", "0.37291632155615712058", "0.67695104301147147794",
         "0.84523042449101624117", "1.2900747613465160976", "1.660234326085339115",
         "1.9839715185235518946", "2.625890521438017607", "3.3904913111642636132",
         "4.6005989292742127058", "5.2137275741970978678"),
    300: ("0.062759261207992778754", "0.37220904674249303175", "0.6753084163073658209",
         "0.84282101116139387987", "1.2843798675790131941", "1.6499486739376336158",
         "1.9679030112610866462", "2.5923164108477921856", "3.3232515129742195179",
         "4.4451905354468102217", "4.995118833315705439"),
    1000: ("0.062722518278950547732", "0.37196192873778281981", "0.67473516460700943738",
         "0.84198082216242871548", "1.282398721460924564", "1.646378817285464284",
         "1.9623390808264081039", "2.5807546980659507706", "3.3002826484239441558",
         "4.3929367154179957742", "4.9222895234015771401"),
    3000: ("0.062712024277908226403", "0.37189136460379653157", "0.67457153733683735585",
         "0.84174106361987805213", "1.2818338239088423646", "1.6453617078374077695",
         "1.9607550553224580733", "2.5774691348386079816", "3.2937728806855012288",
         "4.3782043548759188953", "4.9018185083079712856"),
    10000: ("0.062708351796963053302", "0.37186667147106243411", "0.67451428448359243359",
         "0.84165717914165297158", "1.2816362297304776706", "1.6450060180692425337",
         "1.9602012398906258778", "2.5763210466685285853", "3.2914999659416356914",
         "4.3730685252275874211", "4.8946886162880501171"),
    100000: ("0.06270693532678834325", "0.37185714757517005066", "0.67449220355329220583",
         "0.84162482799690100547", "1.2815600314493611406", "1.6448688647849693034",
         "1.9599877075346092587", "2.5758784699083749963", "3.2906240314119136577",
         "4.3710903933306668067", "4.8919433406876003196"),
}


def test_t_critical_matches_reference_quantiles():
    for nu, quantiles in _T_QUANTILES.items():
        bound = 1e-14 if nu <= 100 else 1e-13
        for level, want in zip(_T_LEVELS, quantiles, strict=True):
            assert _t_critical(level, nu) == pytest.approx(float(want), rel=bound, abs=0)


def test_t_critical_cost_does_not_grow_with_nu():
    # a 100 000-observation series: the continued fraction takes steps that
    # depend on t, not on nu; timed past the memo
    for level in (0.6, 0.9):
        best = min(timeit.repeat(lambda: _t_critical.__wrapped__(level, 10 ** 5), number=1,
                                 repeat=5))
        assert best < 0.02


def test_t_critical_is_memoised(monkeypatch):
    # a repeated (level, nu) solves its Beta quantile once and returns the same float
    calls = []

    def spy(*args):
        calls.append(args)
        return _beta_quantile(*args)

    monkeypatch.setattr(baseline, "_beta_quantile", spy)
    _t_critical.cache_clear()
    try:
        first = _t_critical(0.9, 4)
        assert _t_critical(0.9, 4) is first and len(calls) == 1
        assert first == _t_critical.__wrapped__(0.9, 4) and len(calls) == 2
    finally:
        _t_critical.cache_clear()


def test_t_critical_matches_scipy_stats():
    from scipy import stats

    for nu in range(1, 101):
        for level in _T_LEVELS:
            want = stats.t.ppf((1 + level) / 2, nu)
            assert _t_critical(level, nu) == pytest.approx(want, rel=2e-14, abs=0)


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


def test_regression_interval_matches_brentq_oracle_on_long_series():
    # 30 to 300 observations, t_crit at up to 298 degrees of freedom, and one
    # series of 10 000
    rng = np.random.default_rng(20241)
    windows = errors = 0
    for _ in range(300):
        n = int(rng.integers(30, 301))
        N = (rng.uniform(5, 2000) * rng.uniform(0.9, 1.01) ** np.arange(n)
             * np.exp(rng.normal(0, rng.uniform(0, 0.5), n)))
        times = None if rng.random() < 0.7 else np.cumsum(rng.uniform(0.2, 3, n))
        level = rng.uniform(0.5, 0.99)
        want = _window_or_error(_brentq_window, N, level, times)
        assert _window_or_error(g.regression_extinction_interval, N, level, times) == want
        windows += want != "ValueError"
        errors += want == "ValueError"
    assert windows > 200 and errors > 15
    N = 5000 * 0.9995 ** np.arange(10_000) * np.exp(rng.normal(0, 0.3, 10_000))
    assert g.regression_extinction_interval(N) == _brentq_window(N)


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
