"""Perron-Frobenius analysis of the mean offspring matrix.

The mean matrix M[i, j] of an offspring parameterization drives first-order
population dynamics: E[N(t)] = N(0) M^t. Its dominant eigenvalue lambda
governs growth and viability; the right eigenvector u (M u = lambda u) holds
the reproductive values and the left eigenvector v the stable type
distribution, with sum_i u_i = 1 and sum_i u_i v_i = 1. No answer solves a
Perron pair; ``perron_triple`` serves callers who want one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterDraw, PoissonLaw

__all__ = ["SpectralTriple", "mean_matrix", "mean_matrices", "pair_means",
           "perron_batch", "perron_residual", "perron_triple", "is_primitive"]

_SHIFT = 1.0


@dataclass(frozen=True)
class SpectralTriple:
    """Dominant eigenvalue with normalized right (u) and left (v) eigenvectors.

    ``primitive_warning`` is set when the nonnegative pattern of M is not
    primitive, in which case the dominant eigenvalue may not be simple;
    results should be read with care.
    """

    lam: float
    u: np.ndarray
    v: np.ndarray
    primitive_warning: bool = False
    residual: float = 0.0


def _n_draws(stack: dict) -> int:
    """Number of draws of a law stack or of its pair means, draws along the
    first axis; an empty stack is one draw with no pairs."""
    return max((len(d) for d in stack.values()), default=1)


def _law_stack(draw: ParameterDraw) -> dict:
    """The draw as a law stack of one: pair -> (1, kappa+1) categorical row
    or (1,) Poisson rate, in sorted pair order as in an ensemble."""
    return {pair: np.array([law.rate], dtype=float) if isinstance(law, PoissonLaw)
            else np.asarray(law, dtype=float)[None] for pair, law in sorted(draw.p.items())}


def pair_means(laws: dict) -> dict:
    """Mean offspring number of each pair of a law stack: pair -> (n,) means.

    ``laws`` maps each pair to its (n, kappa+1) categorical rows, with mean
    sum_k k p(k), or to its (n,) Poisson rates, their own means (returned
    as they are, so callers never write into them). The categorical sum is
    taken term by term in order of k, from 0, with elementwise arithmetic
    only, so each row's mean is bit-identical whatever the other rows are.
    These means are the one mean kernel: the answers read them by pair, and
    only the powers of the time bounds and a Perron solve need them as dense
    matrices (``_scatter``).
    """
    out = {}
    for pair, d in laws.items():
        if d.ndim == 1:
            out[pair] = d
        else:
            m = out[pair] = np.zeros(len(d))
            for k in range(1, d.shape[1]):
                m += k * d[:, k]
    return out


def _scatter(means: dict, K: int, n: int) -> np.ndarray:
    """The (n, K, K) dense stack of pair means, 0 outside their pairs."""
    M = np.zeros((n, K, K))
    for (i, j), m in means.items():
        M[:, i - 1, j - 1] = m
    return M


def mean_matrices(laws: dict, K: int) -> np.ndarray:
    """Mean offspring matrix of each draw of a law stack, (n, K, K): the
    ``pair_means`` of ``laws`` scattered into a dense stack, 0 outside the
    stack's pairs. An empty stack is one draw with no pairs. Each entry has
    the bits of its pair mean.
    """
    return _scatter(pair_means(laws), K, _n_draws(laws))


def mean_matrix(draw: ParameterDraw) -> np.ndarray:
    """Mean offspring matrix M[i, j] of one draw: ``mean_matrices`` at n = 1."""
    return mean_matrices(_law_stack(draw), draw.K)[0]


def is_primitive(M: np.ndarray) -> bool:
    """Primitivity of the nonnegative pattern of M.

    Uses the Wielandt bound: M is primitive iff the boolean pattern of
    M^(K^2 - 2K + 2) is strictly positive.
    """
    A = (np.asarray(M) > 0)
    K = A.shape[0]
    if K == 1:
        return bool(A[0, 0])
    target = K * K - 2 * K + 2
    P = np.eye(K, dtype=bool)
    B = A.copy()
    e = target
    while e:
        if e & 1:
            P = (P.astype(np.int64) @ B.astype(np.int64)) > 0
        B = (B.astype(np.int64) @ B.astype(np.int64)) > 0
        e >>= 1
    return bool(P.all())


def perron_batch(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenvalue, right and left eigenvectors of each matrix in M.

    M is a stack (n, K, K) of nonnegative matrices. Shifted power iteration
    on A = M + I, accelerated by normalized repeated squaring B <- B @ B /
    max(B @ B), then up to 8 plain power steps against A to wash out
    round-off, fewer once a step leaves every u and v unchanged to the bit
    (a row holding NaN never does).
    Returns lam (n,), u (n, K) and v (n, K) with each u and v summing to 1.

    Each matrix stops squaring once its iterate B is rank one to round-off.
    A rank-one B = u v^T satisfies B @ B = tr(B) B exactly, so B is finished
    when |B @ B - tr(B) B| <= 4 K eps tr(B) B in every entry, eps being the
    machine epsilon. The test is entrywise and relative, so an entry of B
    that is 0 must square to exactly 0, and an entry still decaying towards
    0 (a reducible pattern) fails it until it underflows to exactly 0, so
    u and v keep the exact zeros that 60 squarings give them. The shift
    breaks periodicity: every eigenvalue mu != lambda of M has
    |1 + mu| < 1 + lambda, so A has one dominant eigenvalue even where M
    has several of modulus lambda. At most 60 squarings are made
    (A^(2^60)); a matrix that never passes, such as a nilpotent one, takes
    all 60. Each matrix's answer, including when it stops, is computed on
    its own, whichever other matrices share the stack.
    """
    K = M.shape[-1]
    A = M + _SHIFT * np.eye(K)
    B = A / np.abs(A).max(axis=(1, 2), keepdims=True)
    tol = 4 * K * np.finfo(float).eps
    out = np.empty_like(B)
    rows = np.arange(len(B))
    for _ in range(60):
        if not len(rows):
            break
        B2 = B @ B
        # B is spent once squared: it becomes tr(B) B, then the bound, in
        # place, so the test adds only err to the arrays held
        B *= np.trace(B, axis1=1, axis2=2)[:, None, None]
        err = B2 - B
        np.abs(err, out=err)
        B *= tol
        done = (err <= B).all(axis=(1, 2))
        B = B2
        B /= np.abs(B).max(axis=(1, 2), keepdims=True)
        if done.any():
            out[rows[done]] = B[done]
            rows, B = rows[~done], B[~done]
    out[rows] = B
    u = out.sum(axis=2)
    v = out.sum(axis=1)
    u /= u.sum(axis=1, keepdims=True)
    v /= v.sum(axis=1, keepdims=True)
    for _ in range(8):
        u_next = np.einsum("rij,rj->ri", A, u)
        v_next = np.einsum("ri,rij->rj", v, A)
        u_next /= u_next.sum(axis=1, keepdims=True)
        v_next /= v_next.sum(axis=1, keepdims=True)
        # a step is a function of each row's own (u, v): once it leaves every
        # row as it was, the steps left would repeat the same bits
        repeat = np.array_equal(u_next, u) and np.array_equal(v_next, v)
        u, v = u_next, v_next
        if repeat:
            break
    Au = np.einsum("rij,rj->ri", A, u)
    lam = np.einsum("ri,ri->r", u, Au) / np.einsum("ri,ri->r", u, u) - _SHIFT
    return np.maximum(lam, 0.0), u, v


def perron_triple(M: np.ndarray) -> SpectralTriple:
    """Dominant eigen-triple of one nonnegative matrix.

    ``perron_batch`` on a stack of one, with v rescaled so that
    sum_i u_i v_i = 1. Raises ValueError for the zero matrix and when the
    residual max(|M u - lam u|, |v M - lam v|) exceeds 1e-9 times the
    largest row sum of M, as for nilpotent patterns, where power iteration
    does not converge. A non-primitive pattern whose iteration converges,
    periodic ones included, only sets ``primitive_warning``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if (M < 0).any():
        raise ValueError("M must be nonnegative")
    if not M.any():
        raise ValueError("mean matrix is identically zero; no dominant eigenvalue")
    lam, u, v = perron_batch(M[None])
    scale = float(u[0] @ v[0])
    if scale <= 0:
        raise ValueError("degenerate eigenvectors; matrix may be reducible")
    residual, ok = perron_residual(M[None], lam, u, v)
    if not ok[0]:
        raise ValueError(f"power iteration did not converge (residual {residual[0]:.3g}, "
                         f"largest row sum {M.sum(axis=1).max():.3g}); "
                         "M may be nilpotent")
    return SpectralTriple(lam=float(lam[0]), u=u[0], v=v[0] / scale,
                          primitive_warning=not is_primitive(M), residual=float(residual[0]))


def perron_residual(M: np.ndarray, lam: np.ndarray, u: np.ndarray,
                    v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual of each Perron pair from ``perron_batch`` and a mask of the
    pairs that converged.

    The residual is max(|M u - lam u|, |v M - lam v|) with v rescaled so
    that sum_i u_i v_i = 1; a pair has converged when its residual is at
    most 1e-9 times the largest row sum of its M.
    """
    # a degenerate pair (u.v = 0) gets a NaN or inf residual: not converged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = v / (u[:, None, :] @ v[:, :, None])[:, :, 0]
        Mu = (M @ u[:, :, None])[:, :, 0]
        vM = (v[:, None, :] @ M)[:, 0, :]
        residual = np.maximum(np.abs(Mu - lam[:, None] * u).max(axis=1),
                              np.abs(vM - lam[:, None] * v).max(axis=1))
    return residual, residual <= 1e-9 * M.sum(axis=2).max(axis=1)
