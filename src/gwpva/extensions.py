"""Model extensions beyond the bounded categorical offspring law.

Covers: (a) unobserved offspring sex with a conjugate Beta sex ratio and
the induced binomially-thinned female offspring law; (b) unbounded Poisson
offspring (``PoissonLaw``, defined with the other law kind in ``model``)
with a conjugate Gamma prior on the rate; (c) composition of a survival
step with a reproduction step into one offspring law. It also holds the
Beta and Gamma quantiles of every credible interval, scenario and
regression-window t value the package reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .model import OffspringCap, ParameterDraw, PoissonLaw, _floats, _total

__all__ = [
    "BetaParams",
    "GammaParams",
    "PoissonLaw",
    "sex_ratio_posterior",
    "thinned_offspring_law",
    "poisson_posterior",
    "poisson_extinction_fixed_point",
    "convolve_survival_reproduction",
]

# Stirling's series (A&S 6.1.41) to 1/(1188 z^9): lgamma(z) less
# (z - 1/2) log z - z + log(2 pi)/2, within 3e-15 at z >= 12
_STIRLING = ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5), (-1 / 1680, 7), (1 / 1188, 9))


def _stirling_tail(z: float) -> float:
    return _total(c * z ** -k for c, k in _STIRLING)


# Euler's gamma and the coefficients (-1)^k zeta(k) / k, k = 2..16, of the
# series of log Gamma(1 + s), from zeta(k) to 20 digits
_EULER = 0.57721566490153286061
_LGAMMA1_SERIES = tuple((-1) ** k * z / k for k, z in enumerate((
    1.6449340668482264365, 1.2020569031595942854, 1.0823232337111381915,
    1.0369277551433699263, 1.0173430619844491397, 1.0083492773819228268,
    1.0040773561979443394, 1.0020083928260822144, 1.0009945751278180853,
    1.0004941886041194646, 1.0002460865533080483, 1.0001227133475784891,
    1.0000612481350587048, 1.0000305882363070205, 1.0000152822594086519), 2))


def _lgamma1(s: float) -> float:
    """log Gamma(1 + s). Below s = 0.05 by its Taylor series
    -gamma s + sum_k>=2 (-1)^k zeta(k) s^k / k to k = 16, by Horner's rule,
    within about 1.1e-16 s; below 12 through math.gamma, whose log is about
    twice as close as math.lgamma's there (mean absolute errors 1.4e-16
    and 2.5e-16 below s = 1). A quantile of shape s carries this error
    divided by s."""
    if s < 0.05:
        acc = 0.0
        for c in reversed(_LGAMMA1_SERIES):
            acc = acc * s + c
        return s * (acc * s - _EULER)
    return math.log(math.gamma(1 + s)) if s < 12 else math.lgamma(1 + s)


def _log_sbeta(a: float, b: float) -> float:
    """log(s B(a, b)) for s = min(a, b). s B(a, b) = Gamma(1 + s) Gamma(l) /
    Gamma(s + l), l = max(a, b), stays near 1 for small s, where log B is
    near -log s and would carry its rounding. lgamma(l) - lgamma(s + l) is
    taken by Stirling's series at l + n >= 12, where the large terms of the
    two lgammas cancel before rounding, and brought down to l by the small
    terms log(1 + s/(l + k)) of Gamma(z + 1) = z Gamma(z)."""
    s, l = sorted((a, b))
    n = max(0, math.ceil(12 - l))
    m = l + n
    return (_lgamma1(s) + math.fsum(math.log1p(s / (l + k)) for k in range(n))
            - (m - 0.5) * math.log1p(s / m) - s * math.log(s + m) + s
            + _stirling_tail(m) - _stirling_tail(s + m))


def _betacf(a: float, b: float, x: float, x1: float) -> float:
    """G = 1 + d_1/(1 + d_2/(1 + ...)) in I_x(a, b) = x^a x1^b / (a B(a, b) G),
    x1 = 1 - x, the regularized incomplete beta function (Numerical Recipes,
    3rd ed., 6.4); it converges fast where x < (a + 1)/(a + b + 2). Each step
    takes d_2m and e = 1 + d_2m+1 as a pair, and forms e from x1 near x = 1,
    where d_2m+1 nears -1 for large a, so that no step cancels digits."""
    def e(m: int) -> float:
        p, q = (a + m) * (a + b + m), (a + 2 * m) * (a + 2 * m + 1)
        return (q - p * x if x < x1 else a * (2 * m + 1 - b) + m * (3 * m + 2 - b) + p * x1) / q

    r = g = e(0)  # r, s: ratios of successive numerators, denominators
    s = 1.0
    for m in range(1, 10_000):
        al, em = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)), e(m)
        step = (em + al / r) / (em + al / s)
        r, s, g = (em * r + al) / (r + al), (em * s + al) / (s + al), g * step
        if abs(step - 1) <= 2.3e-16:
            break
    return g


def _upper_series(a: float, lead: float, ratio: Callable[[int], float]) -> float:
    """1 - e^lead (1 + a S), S = sum over n >= 1 of t_n / (a + n), t_0 = 1,
    t_n = t_(n-1) ratio(n): the upper tail of I_x(a, b) = x^a (1 + a S) /
    (a B(a, b)), t_n = (1 - b)_n x^n / n!, and of P(a, x) = x^a (1 + a S) /
    Gamma(1 + a), t_n = (-x)^n / n! (DLMF 8.17.7, 8.7.1). For a < 1 it is
    found from -expm1(lead) and the O(a) term, where 1 less the lower tail
    would cancel the digits of an upper quantile."""
    S, t, n = 0.0, 1.0, 0
    while True:
        n += 1
        t *= ratio(n)
        S += t / (a + n)
        if abs(t) <= 2.3e-16 * abs(S):
            return -math.expm1(lead) - math.exp(lead) * a * S


def _beta_tail(a: float, b: float, r: float, lsb: float, lower: bool) -> tuple[float, float]:
    """(p, K) at x = r/(1 + r): p = I_x(a, b) if ``lower`` else 1 - I_x(a, b),
    to full relative precision, and K = x^a (1 - x)^b / B(a, b), the
    derivative of I_x(a, b) in log r; lsb = _log_sbeta(a, b)."""
    x, y, lx, ly = r / (1 + r), 1 / (1 + r), -math.log1p(1 / r), -math.log1p(r)
    if x >= (a + 1) / (a + b + 2):  # I_y(b, a) = 1 - I_x(a, b) converges fast there
        a, b, x, y, lx, ly, lower = b, a, y, x, ly, lx, not lower
    s = min(a, b)
    # K = s x^a y^b / (s B): pow rounds the power of a shape below 1 once,
    # where exp of s log v would carry the |log v| ulps of log v into v
    if s >= 1:
        K = s * math.exp(a * lx + b * ly - lsb)
    elif s == a:
        K = s * math.pow(x, a) * math.exp(b * ly - lsb)
    else:
        K = s * math.pow(y, b) * math.exp(a * lx - lsb)
    if lower or a >= 1:
        p = K / (a * _betacf(a, b, x, y))
        return (p if lower else 1 - p), K
    return _upper_series(a, a * lx - lsb - math.log(a / s), lambda n: (n - b) * x / n), K


def _gamma_tail(a: float, x: float, lower: bool) -> tuple[float, float]:
    """(p, K): p = P(a, x) if ``lower`` else Q(a, x) = 1 - P(a, x), the
    regularized incomplete gamma function, to full relative precision, and
    K = x^a e^-x / Gamma(a), the derivative of P(a, x) in log x. P comes
    from its series below x = a + 1 and Q from its continued fraction above
    (Numerical Recipes, 3rd ed., 6.2)."""
    if a >= 12:  # a log x - x - lgamma(a) by Stirling's series, whose large terms cancel
        d = (x - a) / a
        lx = math.log1p(d) if d > -0.5 else math.log(x / a)
        K = math.exp(a * (lx - d) + math.log(a / (2 * math.pi)) / 2 - _stirling_tail(a))
    else:
        K = a * math.pow(x, a) * math.exp(-x - _lgamma1(a))
    if x < a + 1:
        if lower or a >= 1:
            S = t = 1.0
            n = 0
            while t > 2.3e-16 * S:
                n += 1
                t *= x / (a + n)
                S += t
            return (K / a * S if lower else 1 - K / a * S), K
        return _upper_series(a, a * math.log(x) - _lgamma1(a), lambda n: -x / n), K
    # Q = K / (x + 1 - a - 1 (1 - a)/(x + 3 - a - 2 (2 - a)/(x + 5 - a - ...))), modified Lentz
    c, d = math.inf, 1 / (x + 1 - a)
    f = d
    for i in range(1, 10_000):
        an, bn = -i * (i - a), x + 1 - a + 2 * i
        d = 1 / (an * d + bn)
        c = bn + an / c
        f *= d * c
        if abs(d * c - 1) <= 2.3e-16:
            break
    return (1 - K * f if lower else K * f), K


@lru_cache(maxsize=2 ** 14)  # every k a rate-10^4 law draws
def _poisson_ratio(rate: float, k: int) -> float:
    """P(X = k) / P(X >= k) for X ~ Poisson(rate), computed once per (rate,
    k): P(X >= k) = P(k, rate), and P(X = k) = dP/dlog(rate) / k."""
    if k == 0:
        return math.exp(-rate)
    tail, dtail = _gamma_tail(k, rate, lower=True)
    return min(1.0, dtail / k / tail) if tail else 1.0


def _tail_root(tail: Callable[[float, bool], tuple[float, float]], q: float, v: float) -> float:
    """The v > 0 at which a distribution function F of log v takes the value
    q in (0, 1), from the start v; tail(v, lower) gives (F(v) if lower else
    1 - F(v), dF/d log v). Newton steps on log v against the log of the
    smaller tail, nearly linear in both tails, stay inside the bracket that
    the signs seen so far give. For the Beta and Gamma laws the log of
    either tail is concave in log v (in log r for the odds r of a Beta
    variable, whose log density a log x + b log(1 - x) is concave in log r),
    so after the first step Newton's iterates close in from one side."""
    lower = q <= 0.5
    target = q if lower else 1 - q
    lo, hi = 0.0, math.inf
    for _ in range(200):
        p, K = tail(v, lower)
        h = math.log(p / target) if p else -math.inf
        if (h > 0) == lower:
            hi = v
        else:
            lo = v
        d = (-h if lower else h) * p / K if K else math.nan
        nxt = v * math.exp(min(d, 700.0))
        if abs(d) <= 1e-10:
            return nxt
        v = (nxt if lo < nxt < hi else lo * 1024 if hi == math.inf
             else math.sqrt(lo) * math.sqrt(hi) if lo else hi / 1024)
        if v == 0 or v == math.inf:  # the root lies beyond the range of doubles
            return v
    return v


def _normal_start(q: float) -> float:
    """About -Phi^-1(q), within 3e-3 (A&S 26.2.22): the start of both quantiles."""
    t = math.sqrt(-2 * math.log(min(q, 1 - q)))
    z = t - (2.30753 + t * 0.27061) / (1 + t * (0.99229 + t * 0.04481))
    return z if q < 0.5 else -z


def _beta_quantile(a: float, b: float, q: float) -> tuple[float, float]:
    """(x, 1 - x) with I_x(a, b) = q in (0, 1), the q-quantile of Beta(a, b),
    each to full relative precision: ``_tail_root`` solves for the odds
    x/(1 - x), from which both come without cancellation. It starts from
    Numerical Recipes' (3rd ed., 6.4) approximations."""
    if q == 0 or q == 1:
        return q, 1 - q
    if a >= 1 and b >= 1:  # A&S 26.5.22
        z = _normal_start(q)
        al, h = (z * z - 3) / 6, 2 / (1 / (2 * a - 1) + 1 / (2 * b - 1))
        w = z * math.sqrt(al + h) / h - (1 / (2 * b - 1) - 1 / (2 * a - 1)) * (al + 5 / 6 - 2 / (3 * h))
        r = a / b * math.exp(min(max(-2 * w, -690.0), 690.0))
    else:
        t, u = (a / (a + b)) ** a / a, (b / (a + b)) ** b / b
        if q < t / (t + u):
            x = (a * (t + u) * q) ** (1 / a)
            r = x / (1 - x)
        else:
            y = (b * (t + u) * (1 - q)) ** (1 / b)
            r = (1 - y) / y if y else math.inf
    lsb = _log_sbeta(a, b)
    r = _tail_root(lambda r, lower: _beta_tail(a, b, r, lsb, lower), q, min(max(r, 1e-300), 1e300))
    return (r / (1 + r), 1 / (1 + r)) if r < math.inf else (1.0, 0.0)


def _gamma_quantile(a: float, q: float) -> float:
    """The x with P(a, x) = q in (0, 1), the q-quantile of Gamma(a, 1), to
    full relative precision, by ``_tail_root`` from Numerical Recipes' (3rd
    ed., 6.2) start: Wilson-Hilferty above a = 1."""
    if q == 0 or q == 1:
        return 0.0 if q == 0 else math.inf
    if a > 1:
        x = max(1e-3, a * (1 - 1 / (9 * a) - _normal_start(q) / (3 * math.sqrt(a))) ** 3)
    else:
        t = 1 - a * (0.253 + a * 0.12)
        x = (q / t) ** (1 / a) if q < t else 1 - math.log1p(-(q - t) / (1 - t))
    return _tail_root(lambda x, lower: _gamma_tail(a, x, lower), q, max(x, 1e-300))


def _equal_tailed(quantile, level: float) -> tuple[float, float]:
    """Equal-tailed interval (quantile(lo), quantile(1 - lo)), lo = (1 - level) / 2."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0,1)")
    lo = (1 - level) / 2
    return float(quantile(lo)), float(quantile(1 - lo))


@dataclass(frozen=True)
class BetaParams:
    """Beta(a, b) prior/posterior, e.g. for the probability a newborn is female."""

    a: float
    b: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b))) or min(self.a, self.b) <= 0:
            raise ValueError(f"Beta parameters must be finite and positive: {self}")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def credible_interval(self, level: float = 0.90) -> tuple[float, float]:
        return _equal_tailed(lambda q: _beta_quantile(self.a, self.b, q)[0], level)


@dataclass(frozen=True)
class GammaParams:
    """Gamma(shape, rate) prior/posterior for a Poisson offspring rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.shape, self.rate))) or min(self.shape, self.rate) <= 0:
            raise ValueError(f"Gamma parameters must be finite and positive: {self}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def credible_interval(self, level: float = 0.90) -> tuple[float, float]:
        return _equal_tailed(lambda q: _gamma_quantile(self.shape, q) / self.rate, level)


def sex_ratio_posterior(prior: BetaParams, females: int, males: int) -> BetaParams:
    """Conjugate update of the female-birth probability from sexed newborns."""
    if females < 0 or males < 0:
        raise ValueError("counts must be nonnegative")
    return BetaParams(prior.a + females, prior.b + males)


def thinned_offspring_law(law: Sequence[float], p_female: float) -> tuple[float, ...]:
    """Female-only offspring law from a total-offspring law.

    Each of k total offspring is independently female with probability
    p_female, so the female count given k is Binomial(k, p_female) and the
    marginal is the binomial thinning of ``law``."""
    q = _floats(law, "law")
    if not 0 <= p_female <= 1:
        raise ValueError("p_female must be in [0,1]")
    if any(x < 0 for x in q) or abs(_total(q) - 1.0) > 1e-9:
        raise ValueError("law must be a probability vector")
    out = [0.0] * len(q)
    for k, qk in enumerate(q):
        # the Binomial(k, p_female) pmf; 0.0 ** 0 = 1 keeps p_female = 0 and 1 exact
        for j in range(k + 1):
            out[j] += qk * math.comb(k, j) * p_female ** j * (1 - p_female) ** (k - j)
    return tuple(out)


def poisson_posterior(prior: GammaParams, offspring_counts: Sequence[int],
                      parents: Sequence[int] | None = None) -> GammaParams:
    """Conjugate Gamma update of a Poisson offspring rate.

    ``offspring_counts[r]`` is the number of offspring of each of
    ``parents[r]`` observed parents (default one entry per parent); the
    posterior is Gamma(shape + sum of offspring, rate + #parents)."""
    c = _floats(offspring_counts, "offspring_counts")
    w = (1.0,) * len(c) if parents is None else _floats(parents, "parents")
    if len(w) != len(c) or any(x < 0 for x in c + w):
        raise ValueError("counts must be nonnegative, one parent count per offspring count")
    return GammaParams(prior.shape + _total(x * y for x, y in zip(c, w)), prior.rate + _total(w))


def poisson_extinction_fixed_point(mean: float) -> float:
    """Minimal root of s = exp(mean * (s - 1)) in [0, 1], exactly 1 for
    mean <= 1 + 1e-12: ``extinction.minimal_fixed_point`` of the one-type
    draw with this Poisson law, whose pair mean is the rate itself."""
    if not math.isfinite(mean) or mean < 0:
        raise ValueError(f"mean must be finite and nonnegative, got {mean!r}")
    from .extinction import minimal_fixed_point  # NumPy, loaded on first use
    profile = minimal_fixed_point(ParameterDraw(OffspringCap(1, {(1, 1): 1}),
                                                {(1, 1): PoissonLaw(float(mean))}))
    if not profile.converged:
        raise RuntimeError(f"fixed-point solve did not converge for mean {mean!r}")
    return float(profile.s[0])


def convolve_survival_reproduction(p_survival: Sequence[float],
                                   p_reproduction: Sequence[float]) -> tuple[float, ...]:
    """One-period offspring law from independent survival and reproduction.

    ``p_survival`` = (P(die), P(survive)). Every individual leaves a brood
    drawn from ``p_reproduction`` and additionally contributes itself when
    it survives, so p(k) = pS(1) pR(k-1) + pS(0) pR(k): the convolution of
    the survival indicator with the brood law."""
    ps, pr = _floats(p_survival, "p_survival"), _floats(p_reproduction, "p_reproduction")
    if len(ps) != 2:
        raise ValueError("p_survival must be (P(die), P(survive))")
    for v in (ps, pr):
        if any(x < 0 for x in v) or abs(_total(v) - 1.0) > 1e-9:
            raise ValueError("inputs must be probability vectors")
    return tuple(ps[1] * a + ps[0] * b for a, b in zip((0.0, *pr), (*pr, 0.0)))
