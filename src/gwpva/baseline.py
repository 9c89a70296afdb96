"""Classical count-based PVA diagnostics, for comparison with the model.

These are the standard log-growth-rate summaries and the naive
regression-based extinction window. The regression interval ignores
demographic stochasticity and parameter uncertainty and is known to
under-cover; it is provided as the comparison baseline, not as advice.
"""

from __future__ import annotations

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


def log_growth_moments(abundances: Sequence[float]) -> GrowthMoments:
    """Sample moments of log(N(t+1) / N(t)) over consecutive observations.

    Variance is the unbiased sample variance (NaN with a single ratio).
    All abundances must be positive: a zero has no log growth rate."""
    N = np.asarray(abundances, dtype=float)
    if N.ndim != 1 or len(N) < 2:
        raise ValueError("need at least two abundances")
    if (N <= 0).any():
        raise ValueError("abundances must be positive (drop post-extinction zeros)")
    r = np.diff(np.log(N))
    v = float(r.var(ddof=1)) if len(r) > 1 else float("nan")
    return GrowthMoments(r_d=float(r.mean()), v_r=v, n_ratios=len(r))


def regression_extinction_interval(abundances: Sequence[float], level: float = 0.90,
                                   times: Sequence[float] | None = None) -> tuple[int, int]:
    """Naive extinction window from a linear fit of log N(t) on t.

    Fits OLS, builds the ``level`` confidence band for the mean response,
    and reports the (floor, ceil) of the times, counted from the last
    observation, where the band's lower and upper edges cross log N = 0
    (searched up to 10^6 past it). Requires a declining fit; ValueError otherwise."""
    from scipy import optimize, special

    N = np.asarray(abundances, dtype=float)
    if N.ndim != 1 or len(N) < 3:
        raise ValueError("need at least three abundances")
    if (N <= 0).any():
        raise ValueError("abundances must be positive")
    if not 0 < level < 1:
        raise ValueError("level must be in (0,1)")
    t = np.arange(len(N), dtype=float) if times is None else np.asarray(times, dtype=float)
    if t.shape != N.shape:
        raise ValueError("times and abundances must align")
    y = np.log(N)
    n = len(y)
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0:
        raise ValueError(f"fitted slope {slope:.4g} is nonnegative; no predicted decline")
    resid = y - (intercept + slope * t)
    s2 = float(resid @ resid) / (n - 2)
    t_crit = float(special.stdtrit(n - 2, (1 + level) / 2))
    t_bar = float(t.mean())
    sxx = float(((t - t_bar) ** 2).sum())

    def band(x: float) -> float:
        return t_crit * np.sqrt(s2 * (1.0 / n + (x - t_bar) ** 2 / sxx))

    t_last = float(t[-1])

    def crossing(sign: float) -> float:
        f = lambda x: intercept + slope * x + sign * band(x)
        if f(t_last) <= 0:
            return t_last
        return float(optimize.brentq(f, t_last, t_last + 10 ** 6))

    lo = crossing(-1.0)
    hi = crossing(+1.0)
    return int(np.floor(lo - t_last)), int(np.ceil(hi - t_last))
