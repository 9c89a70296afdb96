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

from .model import ParameterDraw, _is_categorical

__all__ = ["SpectralTriple", "mean_matrix", "perron_batch", "perron_triple",
           "is_primitive"]

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


def mean_matrix(draw: ParameterDraw) -> np.ndarray:
    """Mean offspring matrix M[i, j] = sum_k k p[i, j](k)."""
    K = draw.K
    M = np.zeros((K, K))
    for (i, j), law in draw.p.items():
        if _is_categorical(law):
            v = np.asarray(law, dtype=float)
            M[i - 1, j - 1] = float(np.arange(len(v)) @ v)
        else:
            M[i - 1, j - 1] = float(law.mean())
    return M


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
    normalized repeated squaring (A^(2^60) collapses every matrix onto its
    dominant eigenspace at once), then a few plain power steps against A
    to wash out round-off. Returns lam (n,), u (n, K) and v (n, K) with
    each u and v summing to 1. Each matrix's answer is computed on its
    own, whichever other matrices share the stack.
    """
    K = M.shape[-1]
    A = M + _SHIFT * np.eye(K)
    B = A / np.abs(A).max(axis=(1, 2), keepdims=True)
    for _ in range(60):
        B = B @ B
        B /= np.abs(B).max(axis=(1, 2), keepdims=True)
    u = B.sum(axis=2)
    v = B.sum(axis=1)
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
    lam, u, v = (x[0] for x in perron_batch(M[None]))
    lam = float(lam)
    scale = float(u @ v)
    if scale <= 0:
        raise ValueError("degenerate eigenvectors; matrix may be reducible")
    v = v / scale
    residual = max(float(np.abs(M @ u - lam * u).max()),
                   float(np.abs(v @ M - lam * v).max()))
    norm = float(M.sum(axis=1).max())
    if not residual <= 1e-9 * norm:
        raise ValueError(f"power iteration did not converge (residual {residual:.3g}, "
                         f"largest row sum {norm:.3g}); M may be nilpotent or periodic")
    return SpectralTriple(lam=lam, u=u, v=v, primitive_warning=not is_primitive(M),
                          residual=residual)
