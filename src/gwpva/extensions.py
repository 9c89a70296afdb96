"""Model extensions beyond the bounded categorical offspring law.

Covers: (a) unobserved offspring sex with a conjugate Beta sex ratio and
the induced binomially-thinned female offspring law; (b) unbounded Poisson
offspring (``PoissonLaw``, defined with the other law kind in ``model``)
with a conjugate Gamma prior on the rate; (c) composition of a survival
step with a reproduction step into one offspring law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .extinction import _fixed_point_rows
from .model import PoissonLaw

__all__ = [
    "BetaParams",
    "GammaParams",
    "PoissonLaw",
    "sex_ratio_posterior",
    "thinned_offspring_law",
    "poisson_posterior",
    "poisson_extinction_fixed_point",
    "convolve_survival_reproduction",
]


def _equal_tailed(quantile, level: float) -> tuple[float, float]:
    """Equal-tailed interval (quantile(lo), quantile(1 - lo)), lo = (1 - level) / 2."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0,1)")
    lo = (1 - level) / 2
    return float(quantile(lo)), float(quantile(1 - lo))


@dataclass(frozen=True)
class BetaParams:
    """Beta(a, b) prior/posterior, e.g. for the probability a newborn is female."""

    a: float
    b: float

    def __post_init__(self):
        if not np.isfinite([self.a, self.b]).all() or min(self.a, self.b) <= 0:
            raise ValueError(f"Beta parameters must be finite and positive: {self}")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def credible_interval(self, level: float = 0.90) -> tuple[float, float]:
        from scipy import special

        return _equal_tailed(lambda q: special.betaincinv(self.a, self.b, q), level)


@dataclass(frozen=True)
class GammaParams:
    """Gamma(shape, rate) prior/posterior for a Poisson offspring rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if not np.isfinite([self.shape, self.rate]).all() or min(self.shape, self.rate) <= 0:
            raise ValueError(f"Gamma parameters must be finite and positive: {self}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def credible_interval(self, level: float = 0.90) -> tuple[float, float]:
        from scipy import special

        # multiply by the scale, as scipy.stats does: dividing by the rate
        # differs in the last bit
        scale = 1.0 / self.rate
        return _equal_tailed(lambda q: special.gammaincinv(self.shape, q) * scale, level)


def sex_ratio_posterior(prior: BetaParams, females: int, males: int) -> BetaParams:
    """Conjugate update of the female-birth probability from sexed newborns."""
    if females < 0 or males < 0:
        raise ValueError("counts must be nonnegative")
    return BetaParams(prior.a + females, prior.b + males)


def thinned_offspring_law(law: Sequence[float], p_female: float) -> np.ndarray:
    """Female-only offspring law from a total-offspring law.

    Each of k total offspring is independently female with probability
    p_female, so the female count given k is Binomial(k, p_female) and the
    marginal is the binomial thinning of ``law``."""
    from scipy import stats

    q = np.asarray(law, dtype=float)
    if not 0 <= p_female <= 1:
        raise ValueError("p_female must be in [0,1]")
    if (q < 0).any() or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("law must be a probability vector")
    kap = len(q) - 1
    out = np.zeros(kap + 1)
    for k in range(kap + 1):
        if q[k] == 0:
            continue
        out[: k + 1] += q[k] * stats.binom.pmf(np.arange(k + 1), k, p_female)
    return out


def poisson_posterior(prior: GammaParams, offspring_counts: Sequence[int],
                      parents: Sequence[int] | None = None) -> GammaParams:
    """Conjugate Gamma update of a Poisson offspring rate.

    ``offspring_counts[r]`` is the number of offspring of each of
    ``parents[r]`` observed parents (default one entry per parent); the
    posterior is Gamma(shape + sum of offspring, rate + #parents)."""
    # in floats, which are exact up to 2^53 and cannot wrap around as int64 can
    c = np.asarray(offspring_counts, dtype=float)
    w = np.ones(len(c)) if parents is None else np.asarray(parents, dtype=float)
    if (c < 0).any() or (w < 0).any():
        raise ValueError("offspring and parent counts must be nonnegative")
    return GammaParams(prior.shape + float(c @ w), prior.rate + float(w.sum()))


def poisson_extinction_fixed_point(mean: float) -> float:
    """Minimal root of s = exp(mean * (s - 1)) in [0, 1]: exactly 1 for
    mean <= 1 + 1e-12 (certain extinction; the float comparison, as at
    K = 1 the short-circuit of ``_fixed_point_rows`` is). The batched
    ``_fixed_point_rows`` on a Poisson law stack of one draw, with K = 1
    and mean matrix the mean itself."""
    if not np.isfinite(mean) or mean < 0:
        raise ValueError(f"mean must be finite and nonnegative, got {mean!r}")
    rate = np.array([float(mean)])
    s, failed = _fixed_point_rows({(1, 1): rate}, 1, rate[:, None, None])
    if failed[0]:
        raise RuntimeError(f"fixed-point solve did not converge for mean {mean!r}")
    return float(s[0, 0])


def convolve_survival_reproduction(p_survival: Sequence[float],
                                   p_reproduction: Sequence[float]) -> np.ndarray:
    """One-period offspring law from independent survival and reproduction.

    ``p_survival`` = (P(die), P(survive)). Every individual leaves a brood
    drawn from ``p_reproduction`` and additionally contributes itself when
    it survives, so p(k) = pS(1) pR(k-1) + pS(0) pR(k): the convolution of
    the survival indicator with the brood law."""
    ps = np.asarray(p_survival, dtype=float)
    pr = np.asarray(p_reproduction, dtype=float)
    if ps.shape != (2,):
        raise ValueError("p_survival must be (P(die), P(survive))")
    for v in (ps, pr):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError("inputs must be probability vectors")
    return np.convolve(ps, pr)
