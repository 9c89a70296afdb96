"""Classical count-based PVA diagnostics, for comparison with the model.

These are the standard log-growth-rate summaries and the naive
regression-based extinction window. The regression interval ignores
demographic stochasticity and parameter uncertainty and is known to
under-cover; it is provided as the comparison baseline, not as advice.
Nothing here loads SciPy: the window's Student-t critical value comes from
the finite series that the t distribution has at integer degrees of
freedom (``_t_critical``), and its band edges are closed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["GrowthMoments", "log_growth_moments", "regression_extinction_interval"]


@dataclass(frozen=True)
class GrowthMoments:
    """Mean and variance of the realized log growth rate log(N(t+1)/N(t))."""

    r_d: float
    v_r: float
    n_ratios: int


def _log_abundances(abundances: Sequence[float], least: int) -> np.ndarray:
    """log N of a one-dimensional series of at least ``least`` finite,
    positive abundances; ValueError otherwise."""
    N = np.asarray(abundances, dtype=float)
    if N.ndim != 1 or len(N) < least:
        raise ValueError(f"need at least {least} abundances")
    if not np.isfinite(N).all():
        raise ValueError("abundances must be finite")
    bad = np.flatnonzero(N <= 0)
    if len(bad):
        i = bad[0]
        drop = "; drop post-extinction zeros" if (N[i:] == 0).all() else ""
        raise ValueError(f"abundances must be positive, got N = {N[i]:g} at position {i} "
                         f"(from 0){drop}")
    return np.log(N)


def log_growth_moments(abundances: Sequence[float]) -> GrowthMoments:
    """Sample moments of log(N(t+1) / N(t)) over consecutive observations.

    Variance is the unbiased sample variance (NaN with a single ratio).
    All abundances must be finite and positive: a zero has no log growth rate."""
    r = np.diff(_log_abundances(abundances, 2))
    v = float(r.var(ddof=1)) if len(r) > 1 else float("nan")
    return GrowthMoments(r_d=float(r.mean()), v_r=v, n_ratios=len(r))


def _t_critical(level: float, nu: int) -> float:
    """The Student-t quantile at q = (1 + level)/2 for an integer nu >= 1
    degrees of freedom, the t with P(|T| <= t) = level, to within a few
    units in the 15th digit.

    With x = cos^2 theta = nu/(nu + t^2) and theta = atan(t/sqrt(nu))
    (Abramowitz & Stegun 26.7.3-4),

        P(|T| <= t) = sin theta sum_{k < nu/2} c_k x^k              (nu even)
                    = 2/pi (theta + sin theta cos theta
                            sum_{k < (nu-1)/2} c_k x^k)            (nu odd)

    where c_0 = 1 and c_{k+1}/c_k is (2k+1)/(2k+2) (even) or (2k+2)/(2k+3)
    (odd). Over all k the series sums to 1, so P(|T| > t) is the same
    expression over the remaining k, a convergent sum of positive terms.
    Of the two probabilities the smaller is solved for, 2(1 - q) above
    q = 0.75 and 2q - 1 up to it, so neither is found by cancellation.
    Each term is the last one times (1 - y) c_{k+1}/c_k, y = t^2/(nu + t^2),
    so a rounding of x near 1 is not repeated from term to term, and the
    terms are added exactly (``math.fsum``).

    Newton steps act on log t and the log of that probability, which is
    nearly linear in log t in both tails, and stay inside the bracket that
    the signs seen so far give. They start from Hill's approximation (Comm.
    ACM 13, 1970, Algorithm 396) with a normal quantile from A&S 26.2.23
    and two Newton steps on ``math.erfc``, and one or two steps suffice.
    Each step sums nu/2 terms up to q = 0.75 and about 40/y above it, so
    the work grows with nu (per call on a 2-vCPU VM: 47 us at nu = 4 and
    level 0.9; 5 ms at nu = 1000 and 0.6 s at nu = 10^5)."""
    q = (1 + level) / 2
    P = 2 * (1 - q)  # P(|T| > t), exact since q >= 1/2
    tail = P < 0.5
    target = P if tail else 2 * q - 1
    if target == 0:
        return math.inf if tail else 0.0
    odd, m = nu % 2, nu // 2
    c_m = 1.0
    for k in range(m):
        c_m *= (2 * k + 1 + odd) / (2 * k + 2 + odd)
    # the density of |T| at t is dens * x^((nu + 1)/2)
    dens = (2 * math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2))
            / math.sqrt(nu * math.pi))

    def prob(t: float) -> tuple[float, float]:
        """The probability solved for at t, and its derivative in log t."""
        d = nu + t * t
        y = t * t / d
        lx = -math.log1p(t * t / nu)
        base = 2 / math.pi * t * math.sqrt(nu) / d if odd else t / math.sqrt(d)
        k, term, total, terms = (m, c_m * math.exp(m * lx), 0.0, []) if tail else (0, 1.0, 0.0, [])
        # the tail's terms fall by at least x each, so its rest is below term/y
        while term > 1e-17 * y * total if tail else k < m:
            terms.append(term)
            total += term
            a = term * (2 * k + 1 + odd) / (2 * k + 2 + odd)
            term = a - a * y
            k += 1
        p = base * math.fsum(terms)
        if odd and not tail:
            p += 2 / math.pi * math.atan(t / math.sqrt(nu))
        slope = dens * t * math.exp((nu + 1) / 2 * lx) / p
        return p, -slope if tail else slope

    if nu <= 2:
        t = 1 / math.tan(P * math.pi / 2) if nu == 1 else math.sqrt(2 / (P * (2 - P)) - 2)
    else:
        a = 1 / (nu - 0.5)
        b = 48 / (a * a)
        c = ((20700 * a / b - 98) * a - 16) * a + 96.36
        d = ((94.5 / (b + c) - 3) / b + 1) * math.sqrt(a * math.pi / 2) * nu
        y = (d * P) ** (2 / nu)
        if y > 0.05 + a:
            w = math.sqrt(-2 * math.log(P / 2))
            z = w - ((2.515517 + w * (0.802853 + w * 0.010328))
                     / (1 + w * (1.432788 + w * (0.189269 + w * 0.001308))))
            for _ in range(2):
                g = math.erfc(z / math.sqrt(2)) - P
                z += g * math.sqrt(math.pi / 2) * math.exp(z * z / 2)
            x = -z
            if nu < 5:
                c += 0.3 * (nu - 4.5) * (x + 0.6)
            c = (((0.05 * d * x - 5) * x - 7) * x - 2) * x + b + c
            y = (((((0.4 * x * x + 6.3) * x * x + 36) * x * x + 94.5) / c
                  - x * x - 3) / b + 1) * x
            y = math.expm1(a * y * y)
        else:
            y = (((1 / (((nu + 6) / (nu * y) - 0.089 * d - 0.822) * (nu + 2) * 3)
                   + 0.5 / (nu + 4)) * y - 1) * (nu + 1) / (nu + 2) + 1 / y)
        t = math.sqrt(nu * y)
    t = max(t, 1e-300)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        p, slope = prob(t)
        h = math.log(p / target)
        if (h > 0) == tail:
            lo = t
        else:
            hi = t
        nxt = t * math.exp(-h / slope) if slope else math.nan
        if abs(nxt - t) <= 1e-10 * t:
            return nxt
        t = nxt if lo < nxt < hi else 2 * lo if hi == math.inf else (lo + hi) / 2
    return t


def regression_extinction_interval(abundances: Sequence[float], level: float = 0.90,
                                   times: Sequence[float] | None = None) -> tuple[int, int]:
    """Naive extinction window from a linear fit of log N(t) on t.

    Fits OLS, builds the ``level`` confidence band for the mean response,
    and reports the (floor, ceil) of the times, counted from the last
    observation, where the band's lower and upper edges cross log N = 0.

    With y = t - mean(t), the fitted line L = mean(log N) + b y,
    t_crit the Student-t quantile at (1 + level)/2 with n - 2 degrees of
    freedom (``_t_critical``, within a few units in the 15th digit) and
    k = t_crit * sqrt(s^2), an edge L -/+ k sqrt(1/n + y^2/Sxx) meets
    log N = 0 at a root of the quadratic a y^2 + 2 h y + c = 0 with

        a = b^2 - k^2/Sxx,   h = mean(log N) b,   c = mean(log N)^2 - k^2/n,

    whose roots are those of both edges (L <= 0 where the upper edge
    crosses, L >= 0 where the lower does). The roots are taken in the
    cancellation-free form q/a and c/q, q = -(h + sign(h) sqrt(h^2 - ac)).
    An edge at or below 0 at the last observation crosses there. Otherwise
    it must reach 0 within 10^6 steps after it, and then exactly one root
    lies in that bracket: the upper edge is convex, and the lower edge is
    concave and decreasing after mean(t), so each changes sign there once.

    ValueError unless abundances are finite and positive and ``times``
    (default 0, 1, ...) finite and strictly increasing; for a fit that does
    not decline; and for a band that does not reach log N = 0 within 10^6
    steps after the last observation."""
    logn = _log_abundances(abundances, 3)
    if not 0 < level < 1:
        raise ValueError("level must be in (0,1)")
    n = len(logn)
    t = np.arange(n, dtype=float) if times is None else np.asarray(times, dtype=float)
    if t.shape != logn.shape:
        raise ValueError("times and abundances must align")
    if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
        raise ValueError("times must be finite and strictly increasing")
    t_bar, logn_bar = float(t.mean()), float(logn.mean())
    dt = t - t_bar
    sxx = float(dt @ dt)
    b = float(dt @ (logn - logn_bar)) / sxx
    if b >= 0:
        raise ValueError(f"fitted slope {b:.4g} is nonnegative; no predicted decline")
    resid = logn - (logn_bar + b * dt)
    s2 = float(resid @ resid) / (n - 2)
    t_crit = _t_critical(level, n - 2)
    k2 = t_crit * t_crit * s2
    a, h, c = b * b - k2 / sxx, logn_bar * b, logn_bar * logn_bar - k2 / n
    q = -(h + math.copysign(math.sqrt(max(h * h - a * c, 0.0)), h))
    # a = 0 leaves the one root c/q; q = 0 needs h = 0 and ac = 0, leaving y = 0 at most
    roots = [t_bar + r for r in ([c / q] if q else [0.0]) + ([q / a] if a and q else [])]
    t_last = float(t[-1])
    t_end = t_last + 10 ** 6

    def crossing(sign: float) -> float:
        def f(x: float) -> float:
            y = x - t_bar
            return logn_bar + b * y + sign * math.sqrt(k2 * (1 / n + y * y / sxx))

        if f(t_last) <= 0:
            return t_last
        if f(t_end) > 0:
            raise ValueError(f"the {level:g} confidence band does not reach log N = 0 "
                             "within 10^6 steps after the last observation")
        # the root on this edge (sign of L), then the one in the bracket; clipping
        # undoes the round-off of a crossing next to either end
        x = min(roots, key=lambda x: (sign * (logn_bar + b * (x - t_bar)) > 0,
                                      max(t_last - x, x - t_end, 0.0)))
        return min(max(x, t_last), t_end)

    return math.floor(crossing(-1.0) - t_last), math.ceil(crossing(+1.0) - t_last)
