"""Extinction probabilities, survival bounds and extinction-time bounds.

For a fixed parameterization the extinction probability starting from one
type-i individual is the i-th coordinate of the minimal fixed point of the
offspring generating function phi in [0, 1]^K; independence across founders
turns a population into the product of per-founder coordinates.

The per-draw kernels live here (the mean matrix is
``spectral.mean_matrices``). They take a law stack, pair -> (n, kappa+1)
categorical rows or (n,) Poisson rates, and the single-draw functions call
them at n = 1 (``model._law_stack``). The pgf ``_phi`` and its Jacobian
``_jacobian_entries`` work coefficient-major, draws along the last axis
(``_coefficient_major``); ``_pgf`` and ``_pgf_jacobian`` are their dense
(n, ...) views. ``_fixed_point_rows`` does its linear algebra with one
row-batched M-matrix elimination, ``_mmatrix_lu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ParameterDraw, PopulationState, _as_abundance, _law_stack
from .spectral import mean_matrices, perron_triple

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
    """Per-type extinction probabilities s of one draw; ``converged`` is False
    where ``_fixed_point_rows`` flags the draw as failed."""

    s: np.ndarray
    converged: bool


@dataclass(frozen=True)
class SurvivalBounds:
    """Pointwise bounds on P(population alive at time t) for a subcritical draw.

    Both weight the population by the right Perron vector u (M u = lambda
    u), because N(t) u / lambda^t is a martingale under E[N(t)] = N(0) M^t.
    ``upper(t)`` is the Markov bound lambda^t sum_j u_j N_j / min(u);
    ``lower(t)`` the second-moment curve
    (max u / min u)^2 * ((1 - lambda) / xi) * lambda^(t+1) * sum_j u_j N_j,
    with xi = sum_j (u_j^2 / min u) * sup_i sum_{k>=1} (k^2 - M_ij^2) p_ij(k),
    and 0 where xi <= 0. Both are clamped to [0, 1].
    """

    lam: float
    xi: float
    weighted_size: float
    upper: Callable[[np.ndarray], np.ndarray]
    lower: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TimeBounds:
    """Extinction-time bracket of ``extinction_time_bounds``: P(T_ext >
    t_plus) <= alpha when the upper curve bounds survival, P(T_ext <=
    t_minus) <= alpha only when the lower one does too. ``t_plus`` is None
    when the upper curve never reaches alpha within the search horizon."""

    t_minus: int
    t_plus: int | None
    alpha: float


_FP_WARMUP = 32
_FP_NEWTON_ITERS = 60
_FP_RESIDUAL_OK = 1e-9


def _coefficient_major(laws: dict) -> dict:
    """A law stack with each categorical pair's (n, kappa+1) rows as a
    (kappa+1, n) array, coefficient k of every draw in row k (a transposed
    view); Poisson rates stay (n,). The pgf kernels take this layout."""
    return {pair: d if d.ndim == 1 else d.T for pair, d in laws.items()}


def _pair_pgf(d: np.ndarray, x: np.ndarray, derivative: bool = False):
    """One pair's pgf g(x) draw-wise and, if asked, its derivative: Horner's
    rule for coefficient-major (kappa+1, n) categorical coefficients d,
    e^{d (x - 1)} for (n,) Poisson rates d. Only elementwise arithmetic is
    used, so each draw's value is bit-identical whatever the other draws
    are. Either result may be a view of d, so callers never write into
    them."""
    if d.ndim == 1:
        p = np.exp(d * (x - 1.0))
        return p, d * p
    p = d[-1]
    dp = None
    for k in range(len(d) - 2, -1, -1):
        if derivative:
            # Horner's first step 0 * x + p is p for finite x
            dp = p if dp is None else dp * x + p
        p = p * x + d[k]
    if derivative and dp is None:
        dp = np.zeros_like(x)
    return p, dp


def _phi(claws: dict, s: np.ndarray) -> np.ndarray:
    """phi applied draw-wise, coefficient-major: s is (K, n) in [0,1]^K, row
    j holding s_j of every draw, and ``claws`` is the ``_coefficient_major``
    law stack of those n draws; the result is (K, n) too. A row's first
    pair factor is assigned rather than multiplied into 1, which gives the
    same bits; a type with no pair has phi_i = 1."""
    out = np.empty_like(s)
    started = np.zeros(len(s), dtype=bool)
    for (i, j), d in claws.items():
        g = _pair_pgf(d, s[j - 1])[0]
        if started[i - 1]:
            out[i - 1] *= g
        else:
            out[i - 1] = g
            started[i - 1] = True
    out[~started] = 1.0
    return out


def _pgf(laws: dict, s: np.ndarray) -> np.ndarray:
    """phi applied draw-wise to an (n, K) s, ``laws`` being the law stack of
    those n draws: the dense view of ``_phi``."""
    return _phi(_coefficient_major(laws), s.T).T


def _jacobian_entries(claws: dict, s: np.ndarray) -> dict:
    """d phi_i / d s_j draw-wise for each pair (i, j) of a coefficient-major
    law stack at a (K, n) s, an (n,) vector: g_ij'(s_j) times the other
    g_ij2(s_j2) of row i, using phi_i(s) = prod_j g_ij(s_j). Entries of
    pairs outside the stack are 0."""
    g = {(i, j): _pair_pgf(d, s[j - 1], derivative=True)
         for (i, j), d in claws.items()}
    out = {}
    for (i, j), (_, dg) in g.items():
        col = dg
        for (i2, j2), (g2, _) in g.items():
            if i2 == i and j2 != j:
                col = col * g2
        out[(i, j)] = col
    return out


def _pgf_jacobian(laws: dict, s: np.ndarray) -> np.ndarray:
    """d phi_i / d s_j draw-wise at an (n, K) s as a dense (n, K, K) stack:
    the entries of ``_jacobian_entries`` put in place."""
    n, K = s.shape
    J = np.zeros((n, K, K))
    for (i, j), col in _jacobian_entries(_coefficient_major(laws), s.T).items():
        J[:, i - 1, j - 1] = col
    return J


def _shifted_negation(c: float, entries: dict, K: int, n: int) -> list:
    """c I - A coefficient-major, for a nonnegative A given by its (n,)
    entries per pair (i, j): entry [i][j] is an (n,) vector, or None where
    A has no pair, off the diagonal."""
    B = [[None] * K for _ in range(K)]
    for (i, j), a in entries.items():
        B[i - 1][j - 1] = c - a if i == j else -a
    for i in range(K):
        if B[i][i] is None:
            B[i][i] = np.full(n, c)
    return B


def _mmatrix_lu(A: list) -> tuple[list, np.ndarray]:
    """Gaussian elimination without pivoting of a row-batched Z-matrix.

    A is coefficient-major: A[i][j] is an (n,) vector holding entry (i, j)
    of each of n K x K matrices, or None where every matrix has a 0 there;
    the diagonal is never None. Returns the factors in the same layout (L
    below the diagonal with an implicit unit diagonal, U on and above it;
    fill-in replaces a None) and a mask of the rows whose pivots are all
    > 0, except the last, which may be 0.

    A Z-matrix is a nonsingular M-matrix exactly when all its pivots are
    positive, and an M-matrix, possibly singular, when the first K - 1 are
    positive and the last is >= 0 (Berman & Plemmons, *Nonnegative Matrices
    in the Mathematical Sciences*, 1979, ch. 6). On an M-matrix elimination
    without pivoting is stable. For M >= 0, c I - M so decides lambda(M) < c
    exactly but only suffices for lambda(M) <= c: a singular, reducible
    M-matrix can have a zero pivot before the last. M = [[1, 1], [0, 0]] has
    lambda = 1 but a first pivot 0 at c = 1, as have 176 of 3 000 two-type
    alpha = 1e-3 draws; at c = 1 + 1e-12 the mask matches the Perron root.
    Only elementwise arithmetic is used, so each row's factors are
    bit-identical whatever the other rows are; a row with a nonpositive
    pivot gets meaningless factors, which touch no other row.
    """
    K = len(A)
    F = [row[:] for row in A]
    ok = np.ones(len(F[0][0]), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(K):
            piv = F[k][k]
            ok &= (piv > 0.0) if k < K - 1 else (piv >= 0.0)
            for i in range(k + 1, K):
                if F[i][k] is None:
                    continue
                lik = F[i][k] = F[i][k] / piv
                for j in range(k + 1, K):
                    if F[k][j] is None:
                        continue
                    F[i][j] = -(lik * F[k][j]) if F[i][j] is None \
                        else F[i][j] - lik * F[k][j]
    return F, ok


def _lambda_below(pairs, M: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks lambda(M) < c and lambda(M) <= c of an (n, K, K) stack M, 0
    outside ``pairs``, by one ``_mmatrix_lu`` of c I - M: the one criticality
    rule, read at c = 1 for lambda < 1 and at 1 + 1e-12 for lambda <= 1."""
    means = {(i, j): M[:, i - 1, j - 1] for (i, j) in pairs}
    F, at_most = _mmatrix_lu(_shifted_negation(c, means, M.shape[-1], len(M)))
    return at_most & (F[-1][-1] > 0.0), at_most


def _mmatrix_solve(A: list, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A[r] x[r] = b[r] per draw r by ``_mmatrix_lu``, plus a mask of
    the draws solved: those whose pivots are all > 0, the last one included.

    b and x are coefficient-major (K, n). A draw not solved leaves only
    itself unsolved (its x is meaningless, possibly not finite), and every
    other draw's x is bit-identical to its x in a stack without it."""
    F, ok = _mmatrix_lu(A)
    K = len(F)
    ok &= F[K - 1][K - 1] > 0.0
    y = list(b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(1, K):
            for k in range(i):
                if F[i][k] is not None:
                    y[i] = y[i] - F[i][k] * y[k]
        for i in range(K - 1, -1, -1):
            for j in range(i + 1, K):
                if F[i][j] is not None:
                    y[i] = y[i] - F[i][j] * y[j]
            y[i] = y[i] / F[i][i]
    return np.stack(y), ok


def _fixed_point_rows(laws: dict, K: int, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal pgf fixed point of each draw of a law stack, plus a per-draw
    failure mask; M holds the draws' (n, K, K) mean matrices.

    Each draw is solved on its own, in three stages, so its answer does
    not depend on which other draws share the stack:

    1. Short-circuit: a draw with lambda < 1, or with lambda <= 1 + 1e-12
       and types that can all die childless (min phi(0) > 0), is certainly
       extinct, so s = 1 exactly; iteration from 0 would converge only as
       O(1/t) at criticality. ``_lambda_below`` decides both without the
       Perron root; at K = 1 they are M < 1 and M <= 1 + 1e-12 exactly.
    2. Warm-up: ``_FP_WARMUP`` monotone steps s <- phi(s) from 0 on the
       remaining draws. The iterates stay below the minimal root with
       phi(s) - s >= 0.
    3. Newton: damped Newton steps on an active set of draws. Below the
       minimal root q, phi'(s) <= phi'(q) and rho(phi'(q)) < 1 (Athreya &
       Ney, *Branching Processes*, 1972, ch. V), so I - phi'(s) is a
       nonsingular M-matrix and each step is solved by ``_mmatrix_solve``.
       One line search serves every draw: it halves the steps of a mask of
       pending draws up to six times, evaluating each trial point on every
       active draw (a draw whose step was not solved steps by 0), and
       accepts a step only where the draw is pending, the residual does
       not increase and phi(s) - s >= -1e-12 stays true. The last test
       pins the iterate below the minimal root, so rounding in a step
       cannot carry it to the trivial root 1
       (Esparza, Kiefer & Luttenberger, SIAM J. Comput. 2010). A draw
       leaves the set when its residual falls below 1e-15, when I - phi'(s)
       has a nonpositive pivot, or when every damping of its step is
       rejected; at most ``_FP_NEWTON_ITERS`` steps are taken.

    The solve runs coefficient-major, on (K, n) iterates (``_phi``). A draw
    whose final residual exceeds ``_FP_RESIDUAL_OK`` is flagged as failed.

    Data moves along the draw axis by index, never by boolean mask: the
    active set is compacted with ``take`` on the indices of the draws that
    stay, and a line-search halving swaps in the trial arrays when every
    draw accepts and merges them with ``np.where`` only when some draw is
    rejected. Every step is elementwise per draw, so a gather, a swap or a
    merge moves a draw's values unchanged; steps are halved for every draw,
    but the trial point of a draw no longer pending is never accepted.
    Each draw's iterates therefore have the same bits as under masked
    assignment."""
    n = len(M)
    claws = _coefficient_major(laws)
    s = np.zeros((K, n))
    certain = _lambda_below(laws, M, 1.0)[0] | ((_phi(claws, s).min(axis=0) > 0.0)
                                                & _lambda_below(laws, M, 1.0 + 1e-12)[1])
    s[:, certain] = 1.0
    rows = np.flatnonzero(~certain)
    live_laws = {pair: d.take(rows, axis=-1) for pair, d in claws.items()}
    x = s.take(rows, axis=1)
    for _ in range(_FP_WARMUP):
        x = _phi(live_laws, x)
    f = _phi(live_laws, x) - x
    live = np.abs(f).max(axis=0) >= 1e-15
    for _ in range(_FP_NEWTON_ITERS):
        if not live.all():
            done = np.flatnonzero(~live)
            s[:, rows.take(done)] = x.take(done, axis=1)
            keep = np.flatnonzero(live)
            rows, x, f = rows.take(keep), x.take(keep, axis=1), f.take(keep, axis=1)
            live_laws = {pair: d.take(keep, axis=-1) for pair, d in live_laws.items()}
        if not len(rows):
            break
        worst = np.abs(f).max(axis=0)
        A = _shifted_negation(1.0, _jacobian_entries(live_laws, x), K, len(rows))
        delta, pend = _mmatrix_solve(A, f)
        if not pend.all():
            delta = np.where(pend, delta, 0.0)
        accepted = np.zeros(len(rows), dtype=bool)
        for _halving in range(6):
            if not pend.any():
                break
            x_try = np.clip(x + delta, 0.0, 1.0)
            f_try = _phi(live_laws, x_try) - x_try
            ok = pend & (np.abs(f_try).max(axis=0) <= worst) \
                & (f_try.min(axis=0) >= -1e-12)
            if ok.all():
                x, f = x_try, f_try
            else:
                x, f = np.where(ok, x_try, x), np.where(ok, f_try, f)
            accepted |= ok
            pend &= ~ok
            delta *= 0.5
        live = accepted & (np.abs(f).max(axis=0) >= 1e-15)
    s[:, rows] = x
    residual = np.abs(_phi(claws, s) - s).max(axis=0)
    return np.ascontiguousarray(np.clip(s, 0.0, 1.0).T), residual > _FP_RESIDUAL_OK


def generating_function(draw: ParameterDraw, s) -> np.ndarray:
    """Multi-type offspring pgf phi_i(s) = prod_j g_ij(s_j) of one draw:
    ``_pgf`` on the draw's law stack at n = 1."""
    s = np.asarray(s, dtype=float)
    if s.shape != (draw.K,):
        raise ValueError(f"s must have shape ({draw.K},)")
    return _pgf(_law_stack(draw), s[None])[0]


def minimal_fixed_point(draw: ParameterDraw) -> ExtinctionProfile:
    """Minimal fixed point of phi in [0, 1]^K: ``_fixed_point_rows`` on the
    draw's law stack at n = 1, so s equals the ensemble's row for this draw
    bit for bit. Non-convergence is reported in the profile, never raised."""
    laws = _law_stack(draw)
    s, failed = _fixed_point_rows(laws, draw.K, mean_matrices(laws, draw.K))
    return ExtinctionProfile(s=s[0], converged=not failed[0])


def extinction_probability(profile: ExtinctionProfile | np.ndarray,
                           population: PopulationState | Sequence[int]) -> float:
    """P(eventual extinction) = prod_i s_i^{N_i} by founder independence."""
    s = profile.s if isinstance(profile, ExtinctionProfile) else np.asarray(profile, float)
    N = _as_abundance(population, len(s))
    return float(np.prod(s ** N))


def _bound_constants(laws: dict, M: np.ndarray, lam: np.ndarray, u: np.ndarray,
                     N: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw xi (see ``SurvivalBounds``) and the constants of
    upper(t) = min(1, cU lam^t) and lower(t) = clip(cL lam^t lam, 0, 1).

    The n draws are given by ``laws`` (each pair's (n, kappa+1) categorical
    law rows), their mean matrices M (n, K, K), Perron roots lam (n,) and
    right eigenvectors u (n, K), at any positive scale; N is the (K,)
    population. cL is 0 where xi <= 0.
    """
    n, K = u.shape
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
    umin = u.min(axis=1)
    umax = u.max(axis=1)
    xi = np.sum(np.where(seen, (u ** 2 / umin[:, None]) * col_sup, 0.0), axis=1)
    w = u @ N
    pos = xi > 0
    cU = w / umin
    cL = np.where(pos, (umax / umin) ** 2 * (1 - lam) / np.where(pos, xi, 1.0) * w, 0.0)
    return xi, cU, cL


def _bound_curves(lam: np.ndarray, cU: np.ndarray, cL: np.ndarray, ts):
    """Draw-averaged survival-bound curves at the times ts: the means over n
    draws of upper(t) = min(1, cU lam^t) and lower(t) = clip(cL lam^t lam,
    0, 1), from the (n,) arrays of ``_bound_constants``. The mean is NumPy's
    axis-0 sum divided by n, so at n = 1 it is the draw's own curve bit for
    bit. ts may have any shape."""
    ts = np.asarray(ts, dtype=float)
    lam, cU, cL = (np.reshape(a, (-1,) + (1,) * ts.ndim) for a in (lam, cU, cL))
    pw = lam ** ts
    upper = np.sum(np.minimum(1.0, cU * pw), axis=0) / len(pw)
    lower = np.sum(np.clip(cL * pw * lam, 0.0, 1.0), axis=0) / len(pw)
    return upper, lower


def survival_bounds(draw: ParameterDraw,
                    population: PopulationState | Sequence[int]) -> SurvivalBounds:
    """Upper and lower bounds on the survival curve of a subcritical draw.

    The n = 1 view of ``mc_time_bounds``: lambda < 1 is decided by
    ``_lambda_below``, the Perron pair is ``perron_triple`` of the draw's
    mean matrix, the constants come from ``_bound_constants`` on the draw
    alone and the curves are ``_bound_curves`` of that one draw. Only
    categorical laws are supported: a draw holding any other law (such as
    a ``PoissonLaw``) raises ValueError naming its pair.
    """
    laws = _law_stack(draw)
    M = mean_matrices(laws, draw.K)
    if not _lambda_below(laws, M, 1.0)[0][0]:
        raise ValueError("survival bounds require lambda < 1")
    for pair, d in laws.items():
        if d.ndim == 1:
            raise ValueError(f"survival bounds need categorical laws; pair {pair} "
                             "holds a PoissonLaw")
    N = _as_abundance(population, draw.K)
    triple = perron_triple(M[0])
    u = triple.u
    if u.min() <= 0:
        raise ValueError("right eigenvector must be strictly positive (irreducible M)")
    lam = np.array([triple.lam])
    xi, cU, cL = _bound_constants(laws, M, lam, u[None], N)
    return SurvivalBounds(lam=triple.lam, xi=float(xi[0]), weighted_size=float(u @ N),
                          upper=lambda t: _bound_curves(lam, cU, cL, t)[0],
                          lower=lambda t: _bound_curves(lam, cU, cL, t)[1])


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

    An open-ended bracket is found without scanning to ``horizon_cap``.
    After the first 512-wide block that does not close, the 32 columns
    ending at ``horizon_cap`` are evaluated once, with the same bits the
    scan would give them. If upper(horizon_cap) > alpha, no t <= horizon_cap
    has upper <= alpha, because the curve is nonincreasing, so t_plus is
    None; the scan then stops at the end of the first block that shows
    lower < 1 - alpha, and t_minus, the last t with lower >= 1 - alpha, is
    the one a scan to ``horizon_cap`` would find.

    Returns (t_minus, t_plus, times, upper_curve, lower_curve), the curves
    ending at t_plus, or, when t_plus is None, where the scan stopped (at
    ``horizon_cap`` at the latest). ValueError unless 0 < alpha < 0.5 and
    horizon_cap >= 0.
    """
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    if horizon_cap < 0:
        raise ValueError("horizon_cap must be >= 0")
    parts = []
    t_plus = None
    open_ended, dropped = None, False  # open_ended: None until probed
    t0, width = 0, _SCAN_MIN_BLOCK
    while t0 <= horizon_cap and t_plus is None:
        keep = min(width, horizon_cap + 1 - t0)
        ts = np.arange(t0, t0 + max(keep, _SCAN_MIN_BLOCK))
        upper, lower = curves(ts)
        hit = np.flatnonzero(upper[:keep] <= alpha)
        if len(hit):
            t_plus, keep = int(ts[hit[0]]), hit[0] + 1
        parts.append((ts[:keep], upper[:keep], lower[:keep]))
        dropped = dropped or bool(np.any(lower[:keep] < 1 - alpha))
        t0 = t0 + keep
        if open_ended is None and width == _SCAN_MAX_BLOCK and t0 <= horizon_cap:
            end = np.arange(horizon_cap + 1 - _SCAN_MIN_BLOCK, horizon_cap + 1)
            open_ended = bool(curves(end)[0][-1] > alpha)
        if open_ended and dropped:
            break
        width = min(2 * width, _SCAN_MAX_BLOCK)
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

    def curves(ts):
        u = np.asarray(upper(ts), dtype=float)
        lo = np.zeros_like(u) if lower is None else np.asarray(lower(ts), dtype=float)
        return u, lo

    t_minus, t_plus, *_ = _bracket_scan(curves, alpha, horizon_cap)
    return TimeBounds(t_minus=t_minus, t_plus=t_plus, alpha=alpha)
