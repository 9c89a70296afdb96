"""Perron-Frobenius analysis of the mean offspring matrix.

The mean matrix M[i, j] of an offspring parameterization drives first-order
population dynamics: E[N(t)] = N(0) M^t. Its dominant eigenvalue lambda
governs growth and viability; the right eigenvector u (M u = lambda u) holds
the reproductive values and the left eigenvector v the stable type
distribution. No answer solves a Perron pair; ``perron_roots`` and
``perron_triple`` solve one with LAPACK for callers who want it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterDraw, PoissonLaw

__all__ = ["SpectralTriple", "mean_matrix", "mean_matrices", "pair_means",
           "perron_roots", "perron_triple", "is_primitive"]


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


def perron_roots(M: np.ndarray) -> np.ndarray:
    """Perron root of each matrix of an (n, K, K) nonnegative stack: its
    spectral radius, the largest eigenvalue modulus from LAPACK
    (``np.linalg.eigvals``), each matrix solved on its own, so a row's bits
    do not depend on the other rows. At K = 1 it is the entry itself, the
    bits LAPACK returns, read off without LAPACK's per-matrix cost."""
    if M.shape[-1] == 1:
        return np.abs(M[:, 0, 0])
    return np.abs(np.linalg.eigvals(M)).max(axis=-1)


def perron_triple(M: np.ndarray) -> SpectralTriple:
    """Dominant eigen-triple of one nonnegative matrix.

    One ``np.linalg.eig`` each of M and M^T: lam is the largest eigenvalue
    modulus of M (the bits of ``perron_roots``: LAPACK's eigenvalues of a
    small matrix do not depend on whether vectors are asked for), u and v
    the magnitudes of the eigenvectors at the eigenvalue nearest lam, with
    sum_i u_i = 1 and sum_i u_i v_i = 1. Raises ValueError for the zero
    matrix and when the residual max(|M u - lam u|, |v M - lam v|) is not
    at most 1e-9 times the largest row sum, as for a nilpotent or defective
    pattern, whose u and v are orthogonal. A non-primitive pattern,
    periodic ones included, only sets ``primitive_warning``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if (M < 0).any():
        raise ValueError("M must be nonnegative")
    if not M.any():
        raise ValueError("mean matrix is identically zero; no dominant eigenvalue")
    w, R = np.linalg.eig(M)
    wt, L = np.linalg.eig(M.T)
    lam = float(np.abs(w).max())
    u = np.abs(R[:, np.argmin(np.abs(w - lam))])
    v = np.abs(L[:, np.argmin(np.abs(wt - lam))])
    u /= u.sum()
    # u.v = 0 gives v, and so the residual, a NaN or inf: not converged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v /= u @ v
        residual = float(np.max(np.abs(np.concatenate([M @ u - lam * u, v @ M - lam * v]))))
    if not residual <= 1e-9 * M.sum(axis=1).max():
        raise ValueError(f"Perron pair did not converge (residual {residual:.3g}, "
                         f"largest row sum {M.sum(axis=1).max():.3g}); "
                         "M may be nilpotent or defective")
    return SpectralTriple(lam=lam, u=u, v=v, primitive_warning=not is_primitive(M),
                          residual=residual)
