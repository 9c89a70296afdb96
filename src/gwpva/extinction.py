"""Extinction probabilities, survival curves and extinction-time bounds.

For a fixed parameterization the extinction probability starting from one
type-i individual is the i-th coordinate of the minimal fixed point of the
offspring generating function phi in [0, 1]^K; independence across founders
turns a population into the product of per-founder coordinates.

The per-draw kernels take a law stack of n draws and its pair means
(``spectral.pair_means``); the single-draw functions call them at n = 1
(``spectral._law_stack``). A law stack maps each pair to a (kappa+1, n)
array of categorical laws, coefficient k of every draw in row k, or to the
(n,) Poisson rates. Draws run along the last axis of every per-draw array:
laws, rates, means, pgf iterates and fixed points (K, n) and Jacobian
entries (n,). A mean over draws adds them pairwise, ``np.add.reduce`` over
that axis, divided by n.

The survival curve of n draws is averaged two ways: exactly, by iterating
``_phi`` from 0 (``_extinction_cdf``), and from above, by Markov's
inequality on the expected abundance N M^t 1 (``_upper_curve``).
``SurvivalBounds`` holds both, and ``extinction_time_bounds`` reads the
bracket (``TimeBounds``) off them, at n = 1 for ``survival_bounds`` and
over the ensemble for ``mc_time_bounds``. No answer solves a Perron pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import ParameterDraw, PopulationState
from .spectral import _law_stack, _n_draws, _scatter, pair_means

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
class TimeBounds:
    """Extinction-time bracket (t_minus, t_plus] of ``extinction_time_bounds``.

    t_plus is a t <= horizon_cap at which the mean expected abundance bound
    is <= alpha while at t_plus - 1 it is not, so P(T_ext > t_plus) <=
    alpha; None if the search finds none. Where the bound is nonincreasing,
    as at K = 1, t_plus is its first crossing. t_minus
    is the last t <= t_plus (or <= horizon_cap when t_plus is None) at which
    the mean exact survival is >= 1 - alpha, 0 if there is none, so
    P(T_ext <= t_minus) <= alpha exactly. The bracket holds T_ext with
    probability >= 1 - 2 alpha under the averaged draws."""

    t_minus: int
    t_plus: int | None
    alpha: float


def _as_abundance(population, K: int) -> np.ndarray:
    """Abundances of a PopulationState or a plain sequence of K counts, as floats."""
    N = population.N if isinstance(population, PopulationState) else population
    N = np.asarray(N, dtype=float)
    if N.shape != (K,):
        raise ValueError(f"population must have {K} types")
    return np.asarray(PopulationState(tuple(N)).N, dtype=float)


_FP_WARMUP = 32
_FP_NEWTON_ITERS = 60
_FP_RESIDUAL_OK = 1e-9


def _pgf_into(d: np.ndarray, x: np.ndarray, out: np.ndarray,
              dout: np.ndarray | None = None) -> None:
    """Write one pair's pgf g(x) draw-wise into the (n,) row ``out``, and its
    derivative g'(x) into ``dout`` when it is given: Horner's rule for
    categorical coefficients d, with kappa >= 1 (``OffspringCap.pairs``
    leaves out cap-0 pairs), the derivative advancing as g' <- g' x + g
    before g does, and e^{d (x - 1)} and d e^{d (x - 1)} for Poisson rates
    d. Only elementwise arithmetic is used, so each draw's value is
    bit-identical whatever the other draws are."""
    if d.ndim == 1:
        np.exp(d * (x - 1.0), out=out)
        if dout is not None:
            np.multiply(d, out, out=dout)
        return
    if dout is not None:
        np.copyto(dout, d[-1])
    np.multiply(d[-1], x, out=out)
    out += d[-2]
    for k in range(len(d) - 3, -1, -1):
        if dout is not None:
            dout *= x
            dout += out
        out *= x
        out += d[k]


def _phi(laws: dict, s: np.ndarray) -> np.ndarray:
    """phi applied draw-wise at a (K, n) s in [0,1]^K, for the law stack of
    those n draws. A row's first pair factor is written into it, a later one
    into a scratch row multiplied in (``_pgf_into``); a type with no pair
    keeps phi_i = 1."""
    out = np.ones_like(s)
    scratch = np.empty(s.shape[1:])
    started = set()
    for (i, j), d in laws.items():
        if i in started:
            _pgf_into(d, s[j - 1], scratch)
            out[i - 1] *= scratch
        else:
            _pgf_into(d, s[j - 1], out[i - 1])
            started.add(i)
    return out


def _jacobian_entries(laws: dict, s: np.ndarray) -> dict:
    """d phi_i / d s_j draw-wise for each pair (i, j) of a law stack at a
    (K, n) s, an (n,) vector: g_ij'(s_j) times the other g_ij2(s_j2) of row
    i, using phi_i(s) = prod_j g_ij(s_j). Entries of pairs outside the stack
    are 0."""
    g = {}
    for (i, j), d in laws.items():
        g[(i, j)] = np.empty(s.shape[1:]), np.empty(s.shape[1:])
        _pgf_into(d, s[j - 1], *g[(i, j)])
    out = {}
    for (i, j), (_, dg) in g.items():
        col = dg
        for (i2, j2), (g2, _) in g.items():
            if i2 == i and j2 != j:
                col = col * g2
        out[(i, j)] = col
    return out


def _shifted_negation(c: float, entries: dict, K: int, n: int) -> list:
    """c I - A, for a nonnegative A given by its (n,) entries per pair
    (i, j): entry [i][j] is an (n,) vector, or None where A has no pair,
    off the diagonal."""
    B = [[None] * K for _ in range(K)]
    for (i, j), a in entries.items():
        B[i - 1][j - 1] = c - a if i == j else -a
    for i in range(K):
        if B[i][i] is None:
            B[i][i] = np.full(n, c)
    return B


def _mmatrix_lu(A: list) -> tuple[list, np.ndarray]:
    """Gaussian elimination without pivoting of a row-batched Z-matrix.

    A is a K x K list: A[i][j] is an (n,) vector holding entry (i, j)
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
    M-matrix can have a zero pivot before the last: M = [[1, 1], [0, 0]] has
    lambda = 1 but a first pivot 0 at c = 1. Only elementwise arithmetic is
    used, so each row's factors are bit-identical whatever the other rows
    are; a row with a nonpositive pivot gets meaningless factors, which
    touch no other row.
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


def _lambda_below(means: dict, K: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks lambda(M) < c and lambda(M) <= c of the K x K mean matrices M
    given by their pair means, pair -> (n,), 0 outside those pairs, by one
    ``_mmatrix_lu`` of c I - M: the one criticality rule, read at c = 1 for
    lambda < 1 and at 1 + 1e-12 for lambda <= 1."""
    F, at_most = _mmatrix_lu(_shifted_negation(c, means, K, _n_draws(means)))
    return at_most & (F[-1][-1] > 0.0), at_most


def _mmatrix_solve(A: list, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A[r] x[r] = b[r] per draw r by ``_mmatrix_lu``, plus a mask of
    the draws solved: those whose pivots are all > 0, the last one included.

    b and x are (K, n). A draw not solved leaves only itself unsolved (its
    x is meaningless, possibly not finite), and every other draw's x is
    bit-identical to its x in a stack without it."""
    F, ok = _mmatrix_lu(A)
    K = len(F)
    ok &= F[K - 1][K - 1] > 0.0
    y = b.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(1, K):
            for k in range(i):
                if F[i][k] is not None:
                    y[i] -= F[i][k] * y[k]
        for i in range(K - 1, -1, -1):
            for j in range(i + 1, K):
                if F[i][j] is not None:
                    y[i] -= F[i][j] * y[j]
            y[i] /= F[i][i]
    return y, ok


def _fixed_point_rows(laws: dict, K: int, subcritical: np.ndarray,
                      not_supercritical: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal pgf fixed points (K, n) of the draws of a law stack, plus a
    per-draw failure mask, given the draws' masks lambda < 1 and
    lambda <= 1 + 1e-12 (``_lambda_below`` at c = 1 and 1 + 1e-12). Each
    draw is solved on its own, in three stages, so its answer does not
    depend on the other draws:

    1. Short-circuit: a draw with lambda < 1, or with lambda <= 1 + 1e-12
       and types that can all die childless (min phi(0) > 0), is certainly
       extinct, so s = 1 exactly; iteration from 0 would converge only as
       O(1/t) at criticality. At K = 1 the masks are M < 1 and
       M <= 1 + 1e-12 exactly.
    2. Warm-up: ``_FP_WARMUP`` monotone steps s <- phi(s) from 0 on the
       remaining draws. The iterates stay below the minimal root with
       phi(s) - s >= 0.
    3. Newton: damped Newton steps (``_newton_step``) on an active set of
       draws. A draw leaves the set when its residual falls below 1e-15,
       when I - phi'(s) has a nonpositive pivot, or when every damping of
       its step is rejected; at most ``_FP_NEWTON_ITERS`` steps are taken.

    A draw whose final residual exceeds ``_FP_RESIDUAL_OK`` is flagged as
    failed.
    The active set is compacted by ``take`` on indices, one pair's laws at
    a time, so the old and the compacted laws are never both held; every
    step is elementwise per draw, so compaction moves a draw's bits
    unchanged."""
    n = _n_draws(laws)
    s = np.zeros((K, n))
    certain = subcritical | ((_phi(laws, s).min(axis=0) > 0.0) & not_supercritical)
    s[:, certain] = 1.0
    rows = np.flatnonzero(~certain)
    live_laws = {pair: d.take(rows, axis=-1) for pair, d in laws.items()}
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
            for pair in live_laws:
                live_laws[pair] = live_laws[pair].take(keep, axis=-1)
        if not len(rows):
            break
        x, f, live = _newton_step(live_laws, x, f)
    s[:, rows] = x
    residual = np.abs(_phi(laws, s) - s).max(axis=0)
    return np.clip(s, 0.0, 1.0, out=s), residual > _FP_RESIDUAL_OK


def _newton_step(laws: dict, x: np.ndarray, f: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One damped Newton step of ``_fixed_point_rows`` on every draw of a
    law stack, at (K, n) iterates x with residuals f =
    phi(x) - x. Returns the new x and f and a mask of the draws that stay
    live: those that accepted a step and whose residual is still >= 1e-15.

    Below the minimal root q, phi'(s) <= phi'(q) and rho(phi'(q)) < 1
    (Athreya & Ney, *Branching Processes*, 1972, ch. V), so I - phi'(x) is
    a nonsingular M-matrix and the step is solved by ``_mmatrix_solve``.
    One line search serves every draw: it halves the steps of a mask of
    pending draws up to six times, evaluating each trial point on every
    draw (a draw whose step was not solved steps by 0), and accepts a step
    only where the draw is pending, the residual does not increase and
    phi(x) - x >= -1e-12 stays true. The last test pins the iterate below
    the minimal root, so rounding in a step cannot carry it to the trivial
    root 1 (Esparza, Kiefer & Luttenberger, SIAM J. Comput. 2010). Steps
    are halved for every draw, but a draw no longer pending never accepts a
    trial point. No Jacobian, step or trial array outlives the call."""
    K, n = x.shape
    worst = np.abs(f).max(axis=0)
    delta, pend = _mmatrix_solve(
        _shifted_negation(1.0, _jacobian_entries(laws, x), K, n), f)
    if not pend.all():
        delta = np.where(pend, delta, 0.0)
    accepted = np.zeros(n, dtype=bool)
    for _halving in range(6):
        if not pend.any():
            break
        x_try = np.clip(x + delta, 0.0, 1.0)
        f_try = _phi(laws, x_try) - x_try
        ok = pend & (np.abs(f_try).max(axis=0) <= worst) \
            & (f_try.min(axis=0) >= -1e-12)
        if ok.all():
            x, f = x_try, f_try
        else:
            x, f = np.where(ok, x_try, x), np.where(ok, f_try, f)
        accepted |= ok
        pend &= ~ok
        delta *= 0.5
    return x, f, accepted & (np.abs(f).max(axis=0) >= 1e-15)


def generating_function(draw: ParameterDraw, s) -> np.ndarray:
    """Multi-type offspring pgf phi_i(s) = prod_j g_ij(s_j) of one draw:
    ``_phi`` on the draw's law stack at n = 1."""
    s = np.asarray(s, dtype=float)
    if s.shape != (draw.K,):
        raise ValueError(f"s must have shape ({draw.K},)")
    return _phi(_law_stack(draw), s[:, None])[:, 0]


def minimal_fixed_point(draw: ParameterDraw) -> ExtinctionProfile:
    """Minimal fixed point of phi in [0, 1]^K: ``_fixed_point_rows`` on the
    draw's law stack at n = 1, so s equals the ensemble's column for this
    draw bit for bit. Non-convergence is reported in the profile, never
    raised."""
    laws = _law_stack(draw)
    means = pair_means(laws)
    s, failed = _fixed_point_rows(laws, draw.K, _lambda_below(means, draw.K, 1.0)[0],
                                  _lambda_below(means, draw.K, 1.0 + 1e-12)[1])
    return ExtinctionProfile(s=s[:, 0], converged=not failed[0])


def extinction_probability(profile: ExtinctionProfile | np.ndarray,
                           population: PopulationState | Sequence[int]) -> float:
    """P(eventual extinction) = prod_i s_i^{N_i} by founder independence."""
    s = profile.s if isinstance(profile, ExtinctionProfile) else np.asarray(profile, float)
    N = _as_abundance(population, len(s))
    return float(np.prod(s ** N))


_CURVE_CELLS = 2 ** 18  # (time, type, draw) cells of v(t) that ``_upper_curve`` caches
# (time, type, draw) cells per block of ``_upper_curve``: glibc keeps a freed
# array of 64 KiB for reuse, but hands one of 128 KiB (its default mmap and
# trim threshold) back to the OS, so the next block would fault its pages in
_BLOCK_CELLS = 2 ** 13


def _times(ts) -> np.ndarray:
    """ts as an integer array; ValueError unless every t is an integer >= 0."""
    ts = np.asarray(ts)
    if not np.issubdtype(ts.dtype, np.integer) or (ts < 0).any():
        raise ValueError("the survival curves take integer times t >= 0")
    return ts


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x[r] draw-wise for (R, K, n) vectors x, M given column-major: A[j]
    is the (K, n) column j of n draws' matrices. The K products of an entry
    are added in order of j, elementwise, so each draw's result has the same
    bits whatever the other draws and vectors are."""
    y = A[0] * x[:, :1]
    for j in range(1, len(A)):
        y += A[j] * x[:, j:j + 1]
    return y


def _upper_curve(means: dict, N: np.ndarray, ts, powers: list, states: dict) -> np.ndarray:
    """The mean over n draws of min(1, N M^t 1) at the integer times ts (any
    shape), from their pair means (mean matrices M) and the (K,) population
    N: E N(t) = N M^t, so P(T_ext > t) = P(N(t) != 0) <= N M^t 1 by Markov's
    inequality (Athreya & Ney, *Branching Processes*, 1972, ch. V), and at
    K >= 2 the curve may rise at some t. v(t) = M^t 1 is read low bit first,
    in an order set by t alone: v(0) = 1, and v(r) = M^(2^b) v(r - 2^b) for
    b the highest bit of r. ``powers`` (M, M^2, M^4, ... column-major) and
    ``states`` (the v(r) read so far, up to ``_CURVE_CELLS`` cells) start
    empty. Times are read in blocks of ``_BLOCK_CELLS`` cells, each
    computing the v(r) it lacks once, a batch per power. A time's value has
    the same bits whatever other times share the call and whatever the
    caches hold; at n = 1 it is the draw's own bound."""
    ts = _times(ts)
    flat = [int(t) for t in ts.ravel()]
    K, n = len(N), _n_draws(means)
    if not powers:
        powers.append(np.ascontiguousarray(_scatter(means, K, n).T))
        states[0] = np.ones((K, n))
    width = max(1, _BLOCK_CELLS // (K * n))
    out = np.empty(len(flat))
    for i in range(0, len(flat), width):
        block, parent, steps = flat[i:i + width], {}, {}
        for r in block:
            while r not in states and r not in parent:
                b = r.bit_length() - 1
                parent[r] = r ^ (1 << b)
                steps.setdefault(b, []).append(r)
                r = parent[r]
        known = states if (len(states) + len(parent)) * K * n <= _CURVE_CELLS else dict(states)
        for b in sorted(steps):
            while len(powers) <= b:
                powers.append(_matvec(powers[-1], powers[-1]))
            x = np.array([known[parent[r]] for r in steps[b]])
            known.update(zip(steps[b], _matvec(powers[b], x)))
        v = np.array([known[t] for t in block])
        total = _matvec(np.reshape(N, (-1, 1, 1)), v)[:, 0]  # N v(t), terms in order
        np.minimum(total, 1.0, out=total)
        out[i:i + len(block)] = np.add.reduce(total, axis=1)
    return out.reshape(ts.shape) / n


def _extinction_cdf(laws: dict, N: np.ndarray) -> Iterator[float]:
    """The mean over n draws of P(T_ext <= t | draw) for t = 0, 1, 2, ...,
    one value per ``next``; the value at t has cost t steps of ``_phi``.

    ``laws`` is the law stack of the n draws and N the (K,) population.
    q_t = phi^(t)(0) holds the probabilities that the line of one founder
    of each type is extinct by t (Harris, *The Theory of Branching
    Processes*, 1963), so by founder independence P(T_ext <= t | draw) =
    prod_i q_t,i^N_i, for categorical and Poisson laws alike. Each draw's
    value has the same bits whatever the other draws are."""
    n = _n_draws(laws)
    q = np.zeros((len(N), n))
    exponent = np.reshape(N, (-1, 1))
    while True:
        yield float(np.add.reduce(np.prod(q ** exponent, axis=0), axis=-1) / n)
        q = _phi(laws, q)


def _survival_curve(laws: dict, N: np.ndarray, n_times: int) -> np.ndarray:
    """The mean exact survival 1 - F(t) at t = 0 .. n_times - 1, with F the
    mean CDF of ``_extinction_cdf``."""
    return 1.0 - np.fromiter(islice(_extinction_cdf(laws, N), n_times), float, n_times)


@dataclass(frozen=True)
class SurvivalBounds:
    """The survival curve P(population alive at t) averaged over n
    subcritical draws, and a bound above it: ``means`` holds the draws'
    pair means, ``laws`` their law stack and ``population`` the (K,)
    abundance N. ``upper(t)`` is the mean bound
    min(1, N M^t 1) (``_upper_curve``, whose caches the object keeps) and
    ``lower(t)`` the mean exact survival 1 - prod_i q_t,i^N_i with
    q_t = phi^(t)(0) (``_survival_curve``). Both raise ValueError unless
    every t is an integer >= 0."""

    means: dict
    laws: dict
    population: np.ndarray
    _powers: list = field(default_factory=list, init=False, repr=False, compare=False)
    _states: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def upper(self, ts) -> np.ndarray:
        return _upper_curve(self.means, self.population, ts, self._powers, self._states)

    def lower(self, ts) -> np.ndarray:
        ts = _times(ts)
        return _survival_curve(self.laws, self.population, int(ts.max(initial=-1)) + 1)[ts]


def survival_bounds(draw: ParameterDraw,
                    population: PopulationState | Sequence[int]) -> SurvivalBounds:
    """The survival bounds of one subcritical draw: the n = 1 view of
    ``mc_time_bounds``, so its curves and ``extinction_time_bounds`` have
    the bits of the estimate's at n_prec = 1. lambda < 1 is decided by
    ``_lambda_below`` on the draw's pair means; ValueError otherwise.
    Categorical and Poisson laws and reducible mean matrices are all taken.
    """
    laws = _law_stack(draw)
    means = pair_means(laws)
    if not _lambda_below(means, draw.K, 1.0)[0][0]:
        raise ValueError("survival bounds require lambda < 1")
    return SurvivalBounds(means=means, laws=laws,
                          population=_as_abundance(population, draw.K))


_GALLOP_FIRST = 7  # the first call reads t = 0, 1, 3, ..., 63
_GALLOP_STEP = 4   # each later gallop call reads the next four t = 2^k - 1
_REFINE = 15       # times read inside the bracket per call
_OPEN_END = 991    # see ``_first_crossing`` and ``mc_time_bounds``


def _first_crossing(crossed: Callable, horizon_cap: int) -> int | None:
    """The first t <= horizon_cap at which a monotone curve has crossed its
    level, or None if it has not crossed by horizon_cap.

    ``crossed(ts)`` takes sorted times ts, one or more, and returns one
    boolean per time: False before the crossing and True from it on. The
    crossing lies in a bracket (lo, hi] that every reading narrows, and each
    call reads only times inside it, so no time twice and none past
    horizon_cap. While no crossing is bracketed the search gallops over
    t = 2^k - 1, seven times in its first call and four in each later one,
    and reads horizon_cap once a gallop call, all past t = 991, has left
    its times uncrossed: a far cap needs every binary power of M up to its
    bit length, so a crossing found by then never pays for it. Once a
    gallop time has crossed, each call reads up to 15 evenly spaced times
    inside the bracket. On a curve that is not monotone the t returned has
    crossed and t - 1, read too, has not. ValueError unless horizon_cap >= 0.
    """
    if horizon_cap < 0:
        raise ValueError("horizon_cap must be >= 0")
    lo, hi = -1, horizon_cap + 1
    k, g_first, g_last = 0, -1, -1
    while hi - lo > 1:
        if hi > g_last:  # no gallop time read so far has crossed
            n = _GALLOP_FIRST if k == 0 else _GALLOP_STEP
            ts = [min(2 ** j - 1, horizon_cap) for j in range(k, k + n)]
            if g_first > _OPEN_END:
                ts.append(horizon_cap)
            k, g_first, g_last = k + n, ts[0], ts[n - 1]
        elif hi - lo - 1 <= _REFINE:  # every time inside the bracket
            ts = range(lo + 1, hi)
        else:
            ts = [lo + (hi - lo) * j // (_REFINE + 1) for j in range(1, _REFINE + 1)]
        ts = sorted({t for t in ts if lo < t < hi})
        if ts:
            for t, c in zip(ts, crossed(np.array(ts))):
                if c:
                    hi = min(hi, t)
                else:
                    lo = max(lo, t)
    return hi if hi <= horizon_cap else None


def extinction_time_bounds(bounds: SurvivalBounds, alpha: float,
                           horizon_cap: int = 10 ** 6) -> TimeBounds:
    """The extinction-time bracket of ``TimeBounds`` from survival bounds.

    t_plus is found by ``_first_crossing`` on ``bounds.upper``, which reads
    the bound at a few dozen times, each once and none past horizon_cap.
    t_minus is found by a walk forward from t = 0 over the exact CDF
    (``_extinction_cdf``) that stops at the first t past it: at most
    t_minus + 1 steps of the pgf, and never more than t_plus. ValueError
    unless 0 < alpha < 0.5 and horizon_cap >= 0, and for an extinct
    population (every abundance 0): T_ext = 0 then, which no bracket
    (t_minus, t_plus] holds.
    """
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    if not bounds.population.any():
        raise ValueError("the population is extinct (every abundance is 0); "
                         "no extinction-time bracket holds T_ext = 0")
    t_plus = _first_crossing(lambda ts: bounds.upper(ts) <= alpha, horizon_cap)
    stop = horizon_cap if t_plus is None else t_plus
    t_minus = 0
    for t, F in enumerate(islice(_extinction_cdf(bounds.laws, bounds.population), stop + 1)):
        if 1.0 - F < 1 - alpha:
            break
        t_minus = t
    return TimeBounds(t_minus=t_minus, t_plus=t_plus, alpha=alpha)
