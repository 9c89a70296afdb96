"""Extinction probabilities, survival bounds and extinction-time bounds.

For a fixed parameterization the extinction probability starting from one
type-i individual is the i-th coordinate of the minimal fixed point of the
offspring generating function phi in [0, 1]^K; independence across founders
turns a population into the product of per-founder coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ParameterDraw, PopulationState, _is_categorical
from .spectral import SpectralTriple, mean_matrix, perron_batch

__all__ = [
    "ExtinctionProfile",
    "SurvivalBounds",
    "TimeBounds",
    "generating_function",
    "minimal_fixed_point",
    "extinction_probability",
    "survival_bounds",
    "extinction_time_bounds",
]


@dataclass(frozen=True)
class ExtinctionProfile:
    """Per-type extinction probabilities s with solver diagnostics."""

    s: np.ndarray
    converged: bool
    iterations: int
    residual: float


@dataclass(frozen=True)
class SurvivalBounds:
    """Pointwise bounds on P(population alive at time t) for a subcritical draw.

    ``upper(t)`` is the Markov bound lambda^t sum_j v_j N_j / min(v);
    ``lower(t)`` the second-moment bound
    (max v / min v)^2 * ((1 - lambda) / xi) * lambda^(t+1) * sum_j v_j N_j,
    with xi = sum_j (v_j^2 / min v) * sup_i sum_{k>=1} (k^2 - M_ij^2) p_ij(k).
    Both are clamped to [0, 1]. ``lower_exact(t)`` is the sharper
    non-asymptotic bound available in the single-type case.
    """

    lam: float
    xi: float
    weighted_size: float
    upper: Callable[[np.ndarray], np.ndarray]
    lower: Callable[[np.ndarray], np.ndarray]
    lower_exact: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class TimeBounds:
    """Extinction-time bracket: P(T_ext <= t_minus) <= alpha and
    P(T_ext > t_plus) <= alpha, so T_ext lies in (t_minus, t_plus] with
    probability at least 1 - 2*alpha. ``t_plus`` is None when the upper
    survival bound never falls below alpha within the search horizon."""

    t_minus: int
    t_plus: int | None
    alpha: float


def generating_function(draw: ParameterDraw, s) -> np.ndarray:
    """Multi-type offspring pgf phi_i(s) = prod_j sum_k p_ij(k) s_j^k."""
    s = np.asarray(s, dtype=float)
    if s.shape != (draw.K,):
        raise ValueError(f"s must have shape ({draw.K},)")
    out = np.ones(draw.K)
    for (i, j), law in draw.p.items():
        if _is_categorical(law):
            v = np.asarray(law, dtype=float)
            out[i - 1] *= float(np.polynomial.polynomial.polyval(s[j - 1], v))
        else:
            out[i - 1] *= float(law.pgf(s[j - 1]))
    return out


def _pgf_jacobian(draw: ParameterDraw, s: np.ndarray) -> np.ndarray:
    """d phi_i / d s_j, using phi_i(s) = prod_j g_ij(s_j)."""
    K = draw.K
    g = np.ones((K, K))
    dg = np.zeros((K, K))
    for (i, j), law in draw.p.items():
        if _is_categorical(law):
            v = np.asarray(law, dtype=float)
            g[i - 1, j - 1] = np.polynomial.polynomial.polyval(s[j - 1], v)
            if len(v) > 1:
                dv = v[1:] * np.arange(1, len(v))
                dg[i - 1, j - 1] = np.polynomial.polynomial.polyval(s[j - 1], dv)
        else:
            g[i - 1, j - 1] = law.pgf(s[j - 1])
            dg[i - 1, j - 1] = law.pgf_derivative(s[j - 1])
    J = np.zeros((K, K))
    for i in range(K):
        row = g[i]
        for j in range(K):
            others = np.prod(np.delete(row, j))
            J[i, j] = dg[i, j] * others
    return J


def minimal_fixed_point(draw: ParameterDraw, tol: float = 1e-14,
                        max_iter: int = 5000) -> ExtinctionProfile:
    """Minimal fixed point of phi in [0, 1]^K.

    Subcritical and critical draws where every type can die childless are
    certainly extinct, so s = 1 is returned exactly (the iterative scheme
    converges only at rate O(1/t) at criticality). Otherwise monotone
    iteration from 0 converges to the minimal root from below; near-critical
    draws are polished with a damped Newton step accepted only while
    phi(s) - s stays nonnegative, which pins the iterate below the minimal
    root and prevents jumping to the trivial root at 1. Non-convergence is
    reported in the profile, never raised.

    This scalar solver is kept as the independent oracle that the tests
    check the batched solver of ``PosteriorEnsemble`` against.
    """
    K = draw.K
    if float(generating_function(draw, np.zeros(K)).min()) > 0.0:
        lam = perron_batch(mean_matrix(draw)[None])[0][0]
        if lam <= 1.0 + 1e-12:
            ones = np.ones(K)
            residual = float(np.abs(generating_function(draw, ones) - ones).max())
            return ExtinctionProfile(s=ones, converged=True, iterations=0,
                                     residual=residual)
    s = np.zeros(K)
    it = 0
    for it in range(1, max_iter + 1):
        s_new = generating_function(draw, s)
        step = float(np.abs(s_new - s).max())
        s = s_new
        if step < tol:
            break
    for _ in range(60):
        f = generating_function(draw, s) - s
        if np.abs(f).max() < 1e-15:
            break
        J = _pgf_jacobian(draw, s) - np.eye(K)
        try:
            delta = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            break
        moved = False
        for _halving in range(6):
            s_try = np.clip(s + delta, 0.0, 1.0)
            f_try = generating_function(draw, s_try) - s_try
            if np.abs(f_try).max() <= np.abs(f).max() and f_try.min() >= -1e-12:
                s = s_try
                moved = True
                break
            delta = delta * 0.5
        if not moved:
            break
    residual = float(np.abs(generating_function(draw, s) - s).max())
    return ExtinctionProfile(s=np.clip(s, 0.0, 1.0), converged=residual < 1e-9,
                             iterations=it, residual=residual)


def extinction_probability(profile: ExtinctionProfile | np.ndarray,
                           population: PopulationState | Sequence[int]) -> float:
    """P(eventual extinction) = prod_i s_i^{N_i} by founder independence."""
    s = profile.s if isinstance(profile, ExtinctionProfile) else np.asarray(profile, float)
    N = np.asarray(population.N if isinstance(population, PopulationState) else population)
    if N.shape != s.shape:
        raise ValueError("population and profile dimension mismatch")
    return float(np.prod(s ** N))


def _bound_constants(laws: dict, M: np.ndarray, lam: np.ndarray, v: np.ndarray,
                     N: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw xi (see ``SurvivalBounds``) and the constants of
    upper(t) = min(1, cU lam^t) and lower(t) = clip(cL lam^t lam, 0, 1).

    The n draws are given by ``laws`` (each pair's (n, kappa+1) categorical
    law rows), their mean matrices M (n, K, K), Perron roots lam (n,) and
    left eigenvectors v (n, K), at any positive scale; N is the (K,)
    population. cL is 0 where xi <= 0.
    """
    n, K = v.shape
    col_sup = np.zeros((n, K))
    seen = np.zeros((n, K), dtype=bool)
    for (i, j), d in laws.items():
        ks = np.arange(d.shape[1], dtype=float)
        val = d[:, 1:] @ (ks[1:] ** 2) - M[:, i - 1, j - 1] ** 2 * (1 - d[:, 0])
        col = j - 1
        col_sup[:, col] = np.where(seen[:, col], np.maximum(col_sup[:, col], val), val)
        seen[:, col] = True
    vmin = v.min(axis=1)
    vmax = v.max(axis=1)
    xi = np.sum(np.where(seen, (v ** 2 / vmin[:, None]) * col_sup, 0.0), axis=1)
    w = v @ N
    pos = xi > 0
    cU = w / vmin
    cL = np.where(pos, (vmax / vmin) ** 2 * (1 - lam) / np.where(pos, xi, 1.0) * w, 0.0)
    return xi, cU, cL


def survival_bounds(draw: ParameterDraw, triple: SpectralTriple,
                    population: PopulationState | Sequence[int]) -> SurvivalBounds:
    """Upper and lower bounds on the survival curve of a subcritical draw.

    The constants come from ``_bound_constants`` on the draw alone. Only
    categorical laws are supported: a draw holding any other law (such as
    a ``PoissonLaw``) raises ValueError naming its pair.
    """
    if triple.lam >= 1:
        raise ValueError(f"survival bounds require lambda < 1, got {triple.lam}")
    laws = {}
    for pair, law in draw.p.items():
        if not _is_categorical(law):
            raise ValueError(f"survival bounds need categorical laws; pair {pair} "
                             f"holds a {type(law).__name__}")
        laws[pair] = np.asarray(law, dtype=float)[None]
    N = np.asarray(population.N if isinstance(population, PopulationState) else population,
                   dtype=float)
    v = triple.v
    vmin, vmax = float(v.min()), float(v.max())
    if vmin <= 0:
        raise ValueError("left eigenvector must be strictly positive (irreducible M)")
    lam = triple.lam
    xi, cU, cL = (float(x[0]) for x in
                  _bound_constants(laws, mean_matrix(draw)[None], np.array([lam]), v[None], N))
    w = float(v @ N)

    def upper(t):
        t = np.asarray(t, dtype=float)
        return np.minimum(1.0, cU * lam ** t)

    lower = lower_exact = None
    if xi > 0:
        r2 = (vmax / vmin) ** 2

        def lower(t):
            t = np.asarray(t, dtype=float)
            return np.clip(cL * lam ** t * lam, 0.0, 1.0)

        def lower_exact(t):
            # non-asymptotic second-moment (Paley-Zygmund style) bound whose
            # large-t limit is the geometric lower() curve
            t = np.asarray(t, dtype=float)
            num = lam ** (2 * t) * w ** 2
            den = xi * lam ** (t - 1) * (1 - lam ** t) / (1 - lam) * w + num
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(den > 0, r2 * num / den, 1.0)
            return np.clip(out, 0.0, 1.0)

    return SurvivalBounds(lam=lam, xi=xi, weighted_size=w,
                          upper=upper, lower=lower, lower_exact=lower_exact)


_SCAN_MIN_BLOCK = 32
_SCAN_MAX_BLOCK = 512


def _bracket_scan(curves: Callable, alpha: float, horizon_cap: int):
    """The bracket scan of ``extinction_time_bounds`` and ``mc_time_bounds``.

    ``curves(ts)`` returns the (upper, lower) curves at the times ts. It is
    called on consecutive blocks from t = 0 whose widths start at 32 and
    double up to 512 (32, 64, 128, 256, 512, 512, ...), and the scan stops
    at the first block where upper <= alpha, so a bracket that closes early
    costs little. No block is narrower than 32 columns, not even the last
    one before ``horizon_cap``: that block is evaluated at full width and
    trimmed, so ``curves`` may be called at times up to 31 steps past
    ``horizon_cap``. The minimum exists because ``mc_time_bounds`` averages
    draws with NumPy's axis-0 sum, which gives each column the same bits
    whatever the block width, except for a one-column block, which it sums
    in a different order.

    Returns (t_minus, t_plus, times, upper_curve, lower_curve), the curves
    ending at t_plus (or at ``horizon_cap`` when t_plus is None).
    """
    parts = []
    t_plus = None
    t0, width = 0, _SCAN_MIN_BLOCK
    while t0 <= horizon_cap and t_plus is None:
        keep = min(width, horizon_cap + 1 - t0)
        ts = np.arange(t0, t0 + max(keep, _SCAN_MIN_BLOCK))
        upper, lower = curves(ts)
        hit = np.flatnonzero(upper[:keep] <= alpha)
        if len(hit):
            t_plus, keep = int(ts[hit[0]]), hit[0] + 1
        parts.append((ts[:keep], upper[:keep], lower[:keep]))
        t0, width = t0 + keep, min(2 * width, _SCAN_MAX_BLOCK)
    times, upper_curve, lower_curve = (np.concatenate(x) for x in zip(*parts))
    ok = np.flatnonzero(lower_curve >= 1 - alpha)
    t_minus = int(times[ok[-1]]) if len(ok) else 0
    return t_minus, t_plus, times, upper_curve, lower_curve


def extinction_time_bounds(upper: Callable, lower: Callable | None, alpha: float,
                           horizon_cap: int = 10 ** 6) -> TimeBounds:
    """Bracket the extinction time from survival-bound curves.

    ``t_plus`` is the smallest t with upper(t) <= alpha (None if not reached
    within ``horizon_cap``); ``t_minus`` the largest t <= t_plus with
    lower(t) >= 1 - alpha (0 if none or if ``lower`` is None), guaranteeing
    P(T_ext <= t_minus) <= alpha. Both curves must be nonincreasing in t.
    """
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")

    def curves(ts):
        u = np.asarray(upper(ts), dtype=float)
        lo = np.zeros_like(u) if lower is None else np.asarray(lower(ts), dtype=float)
        return u, lo

    t_minus, t_plus, *_ = _bracket_scan(curves, alpha, horizon_cap)
    return TimeBounds(t_minus=t_minus, t_plus=t_plus, alpha=alpha)
