"""Conjugate Bayesian inference for bounded offspring laws.

Each non-forbidden pair (i, j) carries an independent Dirichlet prior over
the categorical offspring law p[i, j](0..kappa). Observed life-table counts
update it in closed form: alpha'(k) = alpha(k) + sum_t n[i, j](k, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .extensions import BetaParams, _beta_quantile
from .model import (LifeTable, OffspringCap, Pair, ParameterDraw, _floats, _total,
                    aggregate_counts, record_violations)

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

DEFAULT_N_PREC = 2500  # Monte Carlo draws of an ensemble unless n_prec is given


@dataclass(frozen=True)
class HyperParams:
    """Dirichlet concentration vectors alpha[i, j] (length kappa[i, j] + 1), as float tuples."""

    cap: OffspringCap
    alpha: Mapping[Pair, tuple[float, ...]]

    def __post_init__(self):
        for pair in self.cap.pairs():
            if pair not in self.alpha:
                raise ValueError(f"missing hyperparameters for pair {pair}")
        alpha = {}
        for pair, a in self.alpha.items():
            if self.cap.is_forbidden(*pair):
                raise ValueError(f"hyperparameters on forbidden pair {pair}")
            a = alpha[pair] = _floats(a, f"alpha for {pair}")
            if len(a) != self.cap.cap_of(*pair) + 1:
                raise ValueError(f"alpha for {pair} has wrong length")
            if not all(math.isfinite(x) and x > 0 for x in a):
                raise ValueError(f"alpha for {pair} must be finite and strictly positive")
        object.__setattr__(self, "alpha", alpha)

    @property
    def K(self) -> int:
        return self.cap.K


class PosteriorParams(HyperParams):
    """Posterior Dirichlet parameters; same shape as the prior by conjugacy."""


def prior_noninformative(cap: OffspringCap) -> HyperParams:
    """Flat prior: alpha[i, j](k) = 1 for every admissible count."""
    return HyperParams(cap, {p: (1.0,) * (cap.cap_of(*p) + 1) for p in cap.pairs()})


def prior_from_moments(means: Sequence[float], variances: Sequence[float]) -> tuple[float, ...]:
    """Concentration vector matching elicited per-category moments.

    Category k gets alpha(k) = (1 - var_k) * mean_k / var_k when var_k < 1;
    a category with var_k >= 1 carries no elicited information and falls
    back to the flat value 1.
    """
    m, v = _floats(means, "means"), _floats(variances, "variances")
    if len(m) != len(v):
        raise ValueError("means and variances must be sequences of equal length")
    if not all(0 < x < 1 for x in m):
        raise ValueError("elicited means must lie in (0,1)")
    if not all(x > 0 for x in v):
        raise ValueError("elicited variances must be positive")
    return tuple((1 - vk) * mk / vk if vk < 1 else 1.0 for mk, vk in zip(m, v))


def prior_expert(weight: float, guess: Sequence[float]) -> tuple[float, ...]:
    """Prior worth ``weight`` pseudo-observations of the guessed law."""
    q = _floats(guess, "guess")
    if weight <= 0:
        raise ValueError("weight must be positive")
    if not all(x > 0 for x in q) or abs(_total(q) - 1.0) > 1e-9:
        raise ValueError("guess must be a strictly positive probability vector")
    return tuple(weight * x for x in q)


def posterior_update(prior: HyperParams, table: LifeTable) -> PosteriorParams:
    """Exact conjugate update from observed transition counts.

    ValueError naming the first of the table's ``record_violations``
    against the prior's cap, before any count is summed."""
    bad = record_violations(table, prior.cap)
    if bad:
        raise ValueError(f"invalid life table: {bad[0]}")
    post = {pair: list(a) for pair, a in prior.alpha.items()}
    for (i, j, k), n in aggregate_counts(table).items():
        if (i, j) in post:  # a forbidden pair's records all have k = 0
            post[(i, j)][k] += n
    return PosteriorParams(prior.cap, post)


def posterior_mean_matrix(params: HyperParams) -> tuple[tuple[float, ...], ...]:
    """Posterior-mean offspring means M[i][j] = sum_k k alpha'(k) / sum_k alpha'(k),
    K rows of K floats."""
    M = [[0.0] * params.K for _ in range(params.K)]
    for (i, j), a in params.alpha.items():
        M[i - 1][j - 1] = _total(k * x for k, x in enumerate(a)) / _total(a)
    return tuple(map(tuple, M))


def credible_interval(alpha: Sequence[float], k: int, level: float = 0.90) -> tuple[float, float]:
    """Equal-tailed credible interval for the k-th category probability.

    The Dirichlet marginal is Beta(alpha_k, sum - alpha_k); the interval is
    its (1-level)/2 and (1+level)/2 quantiles.
    """
    a = _floats(alpha, "alpha")
    if not 0 <= k < len(a):
        raise ValueError(f"category {k} outside 0..{len(a) - 1}")
    return BetaParams(a[k], _total(a) - a[k]).credible_interval(level)


def marginal_mean(alpha: Sequence[float], k: int) -> float:
    """Posterior mean of the k-th category probability, alpha_k / sum."""
    a = _floats(alpha, "alpha")
    return a[k] / _total(a)


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
    out = []
    for q in quantiles:
        if not 0 < q < 1:
            raise ValueError(f"quantile {q} outside (0,1)")
        laws = {}
        for pair, a in params.alpha.items():
            tot = _total(a)
            v = [_beta_quantile(ak, tot - ak, q)[0] for ak in a]
            total = _total(v)
            if total <= 0:
                raise ValueError(f"degenerate scenario at q={q} for pair {pair}")
            laws[pair] = tuple(x / total for x in v)
        out.append(Scenario(label=f"q{int(round(q * 100)):02d}", quantile=q,
                            draw=ParameterDraw(params.cap, laws)))
    return out
