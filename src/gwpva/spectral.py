"""Perron-Frobenius analysis of the mean offspring matrix.

The mean matrix M[i, j] of an offspring parameterization drives first-order
population dynamics: E[N(t)] = N(0) M^t. Its dominant eigenvalue lambda,
right eigenvector u (reproductive value, as a row-space object) and left
eigenvector v govern growth, viability, and the survival bounds.
Normalization: sum_i u_i = 1 and sum_i u_i v_i = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterDraw, _law_stack

__all__ = ["SpectralTriple", "mean_matrix", "mean_matrices", "perron_batch",
           "perron_residual", "perron_triple", "is_primitive"]

_SHIFT = 1e-12


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


def mean_matrices(laws: dict, K: int) -> np.ndarray:
    """Mean offspring matrix of each draw of a law stack, (n, K, K).

    ``laws`` maps each pair to its (n, kappa+1) categorical rows, with mean
    sum_k k p(k), or to its (n,) Poisson rates, their own means. An empty
    stack is one draw with no pairs.
    """
    n = max((len(d) for d in laws.values()), default=1)
    M = np.zeros((n, K, K))
    for (i, j), d in laws.items():
        if d.ndim == 1:
            M[:, i - 1, j - 1] = d
        else:
            # NumPy takes a one-row product as a dot product, which sums in another
            # order than the matrix-vector product of a stack: double a lone row
            rows = d if len(d) > 1 else np.repeat(d, 2, axis=0)
            M[:, i - 1, j - 1] = (rows @ np.arange(d.shape[1], dtype=float))[:len(d)]
    return M


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
    on A = M + eps*I (eps = 1e-12, to break periodicity), accelerated by
    normalized repeated squaring B <- B @ B / max(B @ B), then a few plain
    power steps against A to wash out round-off. Returns lam (n,), u (n, K)
    and v (n, K) with each u and v summing to 1.

    Each matrix stops squaring once its iterate B is rank one to round-off.
    A rank-one B = u v^T satisfies B @ B = tr(B) B exactly, so B is finished
    when |B @ B - tr(B) B| <= 4 K eps tr(B) B in every entry, eps being the
    machine epsilon. The test is entrywise and relative, so an entry of B
    that is 0 must square to exactly 0, and an entry still decaying towards
    0 (a reducible pattern) fails it until it underflows to exactly 0, so
    u and v keep the exact zeros that 60 squarings give them. A periodic
    pattern whose shift has not yet acted has an iterate near a matrix of
    higher rank, such as I for period 2, where B @ B and tr(B) B differ by
    a factor of K, so it keeps squaring. At most 60 squarings are made
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
        u = np.einsum("rij,rj->ri", A, u)
        v = np.einsum("ri,rij->rj", v, A)
        u /= u.sum(axis=1, keepdims=True)
        v /= v.sum(axis=1, keepdims=True)
    Au = np.einsum("rij,rj->ri", A, u)
    lam = np.einsum("ri,ri->r", u, Au) / np.einsum("ri,ri->r", u, u) - _SHIFT
    return np.maximum(lam, 0.0), u, v


def perron_triple(M: np.ndarray) -> SpectralTriple:
    """Dominant eigen-triple of one nonnegative matrix.

    ``perron_batch`` on a stack of one, with v rescaled so that
    sum_i u_i v_i = 1. Raises ValueError for the zero matrix and when the
    residual max(|M u - lam u|, |v M - lam v|) exceeds 1e-9 times the
    largest row sum of M, as for nilpotent or some periodic patterns where
    power iteration does not converge. A non-primitive pattern whose
    iteration still converges only sets ``primitive_warning``.
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
                         "M may be nilpotent or periodic")
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
