"""Classical count-based PVA diagnostics, for comparison with the model.

These are the standard log-growth-rate summaries and the naive
regression-based extinction window. The regression interval ignores
demographic stochasticity and parameter uncertainty and is known to
under-cover; it is provided as the comparison baseline, not as advice.
Nothing here loads SciPy: ``_t_critical`` takes the window's Student-t
critical value from the package's Beta quantile, and the band edges are
closed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .extensions import _beta_quantile

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


@lru_cache(maxsize=16)
def _t_critical(level: float, nu: int) -> float:
    """The Student-t quantile at q = (1 + level)/2 for nu >= 1 degrees of
    freedom, the t with P(|T| <= t) = level, to about 1e-14.

    With x = nu/(nu + t^2), P(|T| > t) = I_x(nu/2, 1/2) (Abramowitz & Stegun
    26.5.27), so t = sqrt(nu (1 - x)/x) for the Beta quantile x at P(|T| > t),
    or for the complement 1 - x of the Beta(1/2, nu/2) quantile at level.
    ``_beta_quantile`` gives both x and 1 - x to full relative precision,
    from the smaller of the two probabilities, in continued-fraction steps
    that depend on t, not on nu. Memoised, as a pure function of (level, nu)."""
    q = (1 + level) / 2
    P = 2 * (1 - q)  # P(|T| > t), exact since q >= 1/2
    x, y = _beta_quantile(nu / 2, 0.5, P) if P < 0.5 else _beta_quantile(0.5, nu / 2, 2 * q - 1)[::-1]
    return math.sqrt(nu * y / x) if x else math.inf


def regression_extinction_interval(abundances: Sequence[float], level: float = 0.90,
                                   times: Sequence[float] | None = None) -> tuple[int, int]:
    """Naive extinction window from a linear fit of log N(t) on t.

    Fits OLS, builds the ``level`` confidence band for the mean response,
    and reports the (floor, ceil) of the times, counted from the last
    observation, where the band's lower and upper edges cross log N = 0.

    With y = t - mean(t), the fitted line L = mean(log N) + b y,
    t_crit the Student-t quantile at (1 + level)/2 with n - 2 degrees of
    freedom (``_t_critical``, to about 1e-14 relative) and
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
