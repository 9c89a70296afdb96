"""Extinction probabilities, survival bounds and extinction-time bounds.

For a fixed parameterization the extinction probability starting from one
type-i individual is the i-th coordinate of the minimal fixed point of the
offspring generating function phi in [0, 1]^K; independence across founders
turns a population into the product of per-founder coordinates.

The per-draw kernels ``_pgf``, ``_pgf_jacobian`` and ``_fixed_point_rows``
live here (the mean matrix is ``spectral.mean_matrices``). Each takes a law
stack, pair -> (n, kappa+1) categorical rows or (n,) Poisson rates; the
single-draw functions call them at n = 1 (``model._law_stack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ParameterDraw, PopulationState, _as_abundance, _law_stack
from .spectral import SpectralTriple, mean_matrices, perron_batch

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


_FP_WARMUP = 32
_FP_NEWTON_ITERS = 60
_FP_RESIDUAL_OK = 1e-9


def _pair_pgf(d: np.ndarray, x: np.ndarray, derivative: bool = False):
    """One pair's pgf g(x) row-wise and, if asked, its derivative: Horner's
    rule for (n, kappa+1) categorical rows d, e^{d (x - 1)} for (n,) Poisson
    rates d. Only elementwise arithmetic is used, so each row's value is
    bit-identical whatever the other rows are."""
    if d.ndim == 1:
        p = np.exp(d * (x - 1.0))
        return p, d * p
    p = d[:, -1].copy()
    dp = np.zeros_like(x)
    for k in range(d.shape[1] - 2, -1, -1):
        if derivative:
            dp = dp * x + p
        p = p * x + d[:, k]
    return p, dp


def _pgf(laws: dict, s: np.ndarray) -> np.ndarray:
    """phi applied draw-wise: s is (n, K) in [0,1]^K and ``laws`` is the law
    stack of those n draws."""
    out = np.ones_like(s)
    for (i, j), d in laws.items():
        out[:, i - 1] *= _pair_pgf(d, s[:, j - 1])[0]
    return out


def _pgf_jacobian(laws: dict, s: np.ndarray) -> np.ndarray:
    """d phi_i / d s_j draw-wise, using phi_i(s) = prod_j g_ij(s_j)."""
    n, K = s.shape
    g = {(i, j): _pair_pgf(d, s[:, j - 1], derivative=True)
         for (i, j), d in laws.items()}
    J = np.zeros((n, K, K))
    for (i, j), (_, dg) in g.items():
        col = dg.copy()
        for (i2, j2), (g2, _) in g.items():
            if i2 == i and j2 != j:
                col *= g2
        J[:, i - 1, j - 1] = col
    return J


def _solve_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A[r] x[r] = b[r] per row, plus a mask of the rows solved.

    A singular row leaves only itself unsolved (its x is NaN), so the other
    rows get the same answer as in a batch without it."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.full_like(b, np.nan)
    solved = np.zeros(len(b), dtype=bool)
    for r in range(len(b)):
        try:
            x[r] = np.linalg.solve(A[r:r + 1], b[r:r + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            continue
        solved[r] = True
    return x, solved


def _fixed_point_rows(laws: dict, K: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal pgf fixed point of each draw of a law stack, plus a per-draw
    failure mask; ``lam`` holds the draws' Perron roots.

    Each draw is solved on its own, in three stages, so its answer does
    not depend on which other draws share the stack:

    1. Short-circuit: a draw whose types can all die childless
       (min phi(0) > 0) and whose lambda <= 1 + 1e-12 is certainly
       extinct, so s = 1 exactly (the rule of ``minimal_fixed_point``).
    2. Warm-up: ``_FP_WARMUP`` monotone steps s <- phi(s) from 0 on the
       remaining draws. The iterates stay below the minimal root with
       phi(s) - s >= 0.
    3. Newton: damped Newton steps on an active set of draws. A step is
       accepted only if the residual does not increase and
       phi(s) - s >= -1e-12 stays true, which pins the iterate below the
       minimal root, so the solve cannot jump to the trivial root 1
       (Esparza, Kiefer & Luttenberger, SIAM J. Comput. 2010). A draw
       leaves the set when its residual falls below 1e-15, when its
       Jacobian is singular, or when every damping of its step is
       rejected; at most ``_FP_NEWTON_ITERS`` steps are taken.

    A draw whose final residual exceeds ``_FP_RESIDUAL_OK`` is flagged as
    failed."""
    s = np.zeros((len(lam), K))
    certain = (_pgf(laws, s).min(axis=1) > 0.0) & (lam <= 1.0 + 1e-12)
    s[certain] = 1.0
    rows = np.flatnonzero(~certain)
    live_laws = {pair: d[rows] for pair, d in laws.items()}
    x = s[rows]
    for _ in range(_FP_WARMUP):
        x = _pgf(live_laws, x)
    f = _pgf(live_laws, x) - x
    live = np.abs(f).max(axis=1) >= 1e-15
    eye = np.eye(K)
    for _ in range(_FP_NEWTON_ITERS):
        if not live.all():
            s[rows[~live]] = x[~live]
            rows, x, f = rows[live], x[live], f[live]
            live_laws = {pair: d[live] for pair, d in live_laws.items()}
        if not len(rows):
            break
        worst = np.abs(f).max(axis=1)
        delta, solved = _solve_rows(_pgf_jacobian(live_laws, x) - eye, -f)
        accepted = np.zeros(len(rows), dtype=bool)
        pend = np.flatnonzero(solved)
        for _halving in range(6):
            if not len(pend):
                break
            x_try = np.clip(x[pend] + delta[pend], 0.0, 1.0)
            f_try = _pgf({pair: d[pend] for pair, d in live_laws.items()}, x_try) - x_try
            ok = (np.abs(f_try).max(axis=1) <= worst[pend]) \
                & (f_try.min(axis=1) >= -1e-12)
            x[pend[ok]] = x_try[ok]
            f[pend[ok]] = f_try[ok]
            accepted[pend[ok]] = True
            pend = pend[~ok]
            delta[pend] *= 0.5
        live = accepted & (np.abs(f).max(axis=1) >= 1e-15)
    s[rows] = x
    residual = np.abs(_pgf(laws, s) - s).max(axis=1)
    return np.clip(s, 0.0, 1.0), residual > _FP_RESIDUAL_OK


def generating_function(draw: ParameterDraw, s) -> np.ndarray:
    """Multi-type offspring pgf phi_i(s) = prod_j g_ij(s_j) of one draw:
    ``_pgf`` on the draw's law stack at n = 1."""
    s = np.asarray(s, dtype=float)
    if s.shape != (draw.K,):
        raise ValueError(f"s must have shape ({draw.K},)")
    return _pgf(_law_stack(draw), s[None])[0]


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

    This is the oracle the tests check ``_fixed_point_rows`` against: its
    iteration and Newton polish are its own; phi and its Jacobian are the
    law-stack kernels ``_pgf`` and ``_pgf_jacobian`` at n = 1.
    """
    K = draw.K
    laws = _law_stack(draw)

    def phi(s):
        return _pgf(laws, s[None])[0]

    if float(phi(np.zeros(K)).min()) > 0.0:
        lam = perron_batch(mean_matrices(laws, K))[0][0]
        if lam <= 1.0 + 1e-12:
            ones = np.ones(K)
            residual = float(np.abs(phi(ones) - ones).max())
            return ExtinctionProfile(s=ones, converged=True, iterations=0,
                                     residual=residual)
    s = np.zeros(K)
    it = 0
    for it in range(1, max_iter + 1):
        s_new = phi(s)
        step = float(np.abs(s_new - s).max())
        s = s_new
        if step < tol:
            break
    for _ in range(60):
        f = phi(s) - s
        if np.abs(f).max() < 1e-15:
            break
        J = _pgf_jacobian(laws, s[None])[0] - np.eye(K)
        try:
            delta = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            break
        moved = False
        for _halving in range(6):
            s_try = np.clip(s + delta, 0.0, 1.0)
            f_try = phi(s_try) - s_try
            if np.abs(f_try).max() <= np.abs(f).max() and f_try.min() >= -1e-12:
                s = s_try
                moved = True
                break
            delta = delta * 0.5
        if not moved:
            break
    residual = float(np.abs(phi(s) - s).max())
    return ExtinctionProfile(s=np.clip(s, 0.0, 1.0), converged=residual < 1e-9,
                             iterations=it, residual=residual)


def extinction_probability(profile: ExtinctionProfile | np.ndarray,
                           population: PopulationState | Sequence[int]) -> float:
    """P(eventual extinction) = prod_i s_i^{N_i} by founder independence."""
    s = profile.s if isinstance(profile, ExtinctionProfile) else np.asarray(profile, float)
    N = _as_abundance(population, len(s))
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
        # summed term by term: sum_k k^2 p(k) - M^2 (1 - p(0)) cancels to 0
        # on near-point-mass laws
        ks = np.arange(1, d.shape[1], dtype=float)
        val = np.sum((ks ** 2 - M[:, i - 1, j - 1, None] ** 2) * d[:, 1:], axis=1)
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
    laws = _law_stack(draw)
    for pair, d in laws.items():
        if d.ndim == 1:
            raise ValueError(f"survival bounds need categorical laws; pair {pair} "
                             "holds a PoissonLaw")
    N = _as_abundance(population, draw.K)
    v = triple.v
    vmin, vmax = float(v.min()), float(v.max())
    if vmin <= 0:
        raise ValueError("left eigenvector must be strictly positive (irreducible M)")
    lam = triple.lam
    xi, cU, cL = (float(x[0]) for x in
                  _bound_constants(laws, mean_matrices(laws, draw.K), np.array([lam]),
                                   v[None], N))
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
    lower(t) >= 1 - alpha (0 if none or if ``lower`` is None), so
    P(T_ext <= t_minus) <= alpha only if ``lower`` truly bounds survival
    from below, which the second-moment curve of ``survival_bounds`` does
    not always do (ROADMAP open item 1). Both curves must be nonincreasing
    in t.
    """
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")

    def curves(ts):
        u = np.asarray(upper(ts), dtype=float)
        lo = np.zeros_like(u) if lower is None else np.asarray(lower(ts), dtype=float)
        return u, lo

    t_minus, t_plus, *_ = _bracket_scan(curves, alpha, horizon_cap)
    return TimeBounds(t_minus=t_minus, t_plus=t_plus, alpha=alpha)
