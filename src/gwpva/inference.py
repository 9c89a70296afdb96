"""Conjugate Bayesian inference for bounded offspring laws.

Each non-forbidden pair (i, j) carries an independent Dirichlet prior over
the categorical offspring law p[i, j](0..kappa). Observed life-table counts
update it in closed form: alpha'(k) = alpha(k) + sum_t n[i, j](k, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .extensions import BetaParams
from .model import (LifeTable, OffspringCap, Pair, ParameterDraw, aggregate_counts,
                    record_violations)

__all__ = [
    "HyperParams",
    "PosteriorParams",
    "Scenario",
    "prior_noninformative",
    "prior_from_moments",
    "prior_expert",
    "posterior_update",
    "posterior_mean_matrix",
    "credible_interval",
    "marginal_mean",
    "scenario_draws",
]


@dataclass(frozen=True)
class HyperParams:
    """Dirichlet concentration vectors alpha[i, j] (length kappa[i, j] + 1)."""

    cap: OffspringCap
    alpha: Mapping[Pair, np.ndarray]

    def __post_init__(self):
        for pair in self.cap.pairs():
            if pair not in self.alpha:
                raise ValueError(f"missing hyperparameters for pair {pair}")
        for pair, a in self.alpha.items():
            if self.cap.is_forbidden(*pair):
                raise ValueError(f"hyperparameters on forbidden pair {pair}")
            a = np.asarray(a, dtype=float)
            if a.ndim != 1 or len(a) != self.cap.cap_of(*pair) + 1:
                raise ValueError(f"alpha for {pair} has wrong length")
            if not np.isfinite(a).all() or (a <= 0).any():
                raise ValueError(f"alpha for {pair} must be finite and strictly positive")

    @property
    def K(self) -> int:
        return self.cap.K


class PosteriorParams(HyperParams):
    """Posterior Dirichlet parameters; same shape as the prior by conjugacy."""


def prior_noninformative(cap: OffspringCap) -> HyperParams:
    """Flat prior: alpha[i, j](k) = 1 for every admissible count."""
    return HyperParams(cap, {p: np.ones(cap.cap_of(*p) + 1) for p in cap.pairs()})


def prior_from_moments(means: Sequence[float], variances: Sequence[float]) -> np.ndarray:
    """Concentration vector matching elicited per-category moments.

    Category k gets alpha(k) = (1 - var_k) * mean_k / var_k when var_k < 1;
    a category with var_k >= 1 carries no elicited information and falls
    back to the flat value 1.
    """
    m = np.asarray(means, dtype=float)
    v = np.asarray(variances, dtype=float)
    if m.shape != v.shape or m.ndim != 1:
        raise ValueError("means and variances must be 1-d arrays of equal length")
    if (m <= 0).any() or (m >= 1).any():
        raise ValueError("elicited means must lie in (0,1)")
    if (v <= 0).any():
        raise ValueError("elicited variances must be positive")
    return np.where(v < 1, (1 - v) * m / np.where(v < 1, v, 1.0), 1.0)


def prior_expert(weight: float, guess: Sequence[float]) -> np.ndarray:
    """Prior worth ``weight`` pseudo-observations of the guessed law."""
    q = np.asarray(guess, dtype=float)
    if weight <= 0:
        raise ValueError("weight must be positive")
    if (q <= 0).any() or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("guess must be a strictly positive probability vector")
    return weight * q


def posterior_update(prior: HyperParams, table: LifeTable) -> PosteriorParams:
    """Exact conjugate update from observed transition counts.

    ValueError naming the first of the table's ``record_violations``
    against the prior's cap, before any count is summed."""
    bad = record_violations(table, prior.cap)
    if bad:
        raise ValueError(f"invalid life table: {bad[0]}")
    post = {pair: np.asarray(a, dtype=float).copy() for pair, a in prior.alpha.items()}
    for (i, j, k), n in aggregate_counts(table).items():
        if (i, j) in post:  # a forbidden pair's records all have k = 0
            post[(i, j)][k] += n
    return PosteriorParams(prior.cap, post)


def posterior_mean_matrix(params: HyperParams) -> np.ndarray:
    """Posterior-mean offspring means M[i, j] = sum_k k alpha'(k) / sum_k alpha'(k)."""
    K = params.K
    M = np.zeros((K, K))
    for (i, j), a in params.alpha.items():
        ks = np.arange(len(a), dtype=float)
        M[i - 1, j - 1] = float(ks @ a) / float(a.sum())
    return M


def credible_interval(alpha: np.ndarray, k: int, level: float = 0.90) -> tuple[float, float]:
    """Equal-tailed credible interval for the k-th category probability.

    The Dirichlet marginal is Beta(alpha_k, sum - alpha_k); the interval is
    its (1-level)/2 and (1+level)/2 quantiles.
    """
    a = np.asarray(alpha, dtype=float)
    if not 0 <= k < len(a):
        raise ValueError(f"category {k} outside 0..{len(a) - 1}")
    return BetaParams(a[k], a.sum() - a[k]).credible_interval(level)


def marginal_mean(alpha: np.ndarray, k: int) -> float:
    """Posterior mean of the k-th category probability, alpha_k / sum."""
    a = np.asarray(alpha, dtype=float)
    return float(a[k] / a.sum())


@dataclass(frozen=True)
class Scenario:
    """A deterministic what-if parameter set tied to a posterior quantile."""

    label: str
    quantile: float
    draw: ParameterDraw


def scenario_draws(params: HyperParams, quantiles: Sequence[float]) -> list[Scenario]:
    """Quantile scenarios: per-category marginal quantiles, renormalized.

    For each requested quantile q, every category probability is set to the
    q-th quantile of its Beta marginal and the vector is renormalized to a
    proper law. Low q yields pessimistic laws (mass shifted toward small
    categories is *not* guaranteed; these are marginal, not joint, quantiles
    and are intended for sensitivity display, not inference).
    """
    from scipy import special

    out = []
    for q in quantiles:
        if not 0 < q < 1:
            raise ValueError(f"quantile {q} outside (0,1)")
        laws = {}
        for pair, a in params.alpha.items():
            a = np.asarray(a, dtype=float)
            v = special.betaincinv(a, a.sum() - a, q)
            if v.sum() <= 0:
                raise ValueError(f"degenerate scenario at q={q} for pair {pair}")
            laws[pair] = v / v.sum()
        out.append(Scenario(label=f"q{int(round(q * 100)):02d}", quantile=q,
                            draw=ParameterDraw(params.cap, laws)))
    return out
