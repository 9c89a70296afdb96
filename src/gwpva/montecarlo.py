"""Monte Carlo engine over the posterior parameter ensemble.

All population-level answers (viability, extinction probability,
extinction-time bounds, reintroduction summaries) are posterior
expectations of per-draw functionals. One shared ensemble of parameter
draws serves every estimate, so the quantities reported together are
consistent with each other.

Determinism: an ensemble draws its rows in order from the one stream
SeedSpec(master_seed, 0), replaying a zero-normalizer row r on its own
stream SeedSpec(master_seed, r + 1), so row r depends only on the rows
before it: the first n rows do not depend on how many follow, but one row
cannot be reproduced in isolation. Per-draw quantities come from the
law-stack kernels of ``spectral`` and ``extinction``, row by row, and
reductions are fixed-order numpy sums, so a rerun is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .extinction import _bound_constants, _bracket_scan, _fixed_point_rows
from .inference import HyperParams
from .model import _as_abundance
from .sampling import _dirichlet_rows
from .spectral import is_primitive, mean_matrices, perron_batch, perron_residual

__all__ = [
    "MCEstimate",
    "PosteriorEnsemble",
    "TimeBoundsEstimate",
    "ReintroductionSummary",
    "error_bound",
    "mc_viability_probability",
    "mc_extinction_probability",
    "mc_short_time_abundance",
    "mc_time_bounds",
    "mc_reintroduction",
    "effective_population_size",
]

DEFAULT_N_PREC = 2500


def error_bound(n_prec: int) -> float:
    """Worst-case Monte Carlo error for probability estimates, (4 sqrt(n))^-1."""
    if n_prec < 1:
        raise ValueError("n_prec must be >= 1")
    return 1.0 / (4.0 * np.sqrt(n_prec))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo answer with its precision and provenance."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_prec: int
    n_used: int
    master_seed: int
    error_bound: float | None = None
    warnings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TimeBoundsEstimate:
    """Averaged survival-bound curves and the extinction-time bracket.

    Under the averaged (lambda < 1 conditioned) posterior, t_plus is the
    first t at which the mean upper curve is <= alpha and t_minus the last
    t at which the mean lower curve is >= 1 - alpha. Only t_plus rests on a
    bound: the lower curve is the asymptotic second-moment curve, which can
    lie above the exact survival probability, so P(T_ext <= t_minus) <=
    alpha is not guaranteed and (t_minus, t_plus] is not a proven 1 -
    2*alpha interval (ROADMAP open item 1)."""

    t_minus: int
    t_plus: int | None
    alpha: float
    times: np.ndarray
    upper_curve: np.ndarray
    lower_curve: np.ndarray
    n_prec: int
    n_used: int
    master_seed: int
    warnings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReintroductionSummary:
    """Posterior distribution of per-founder extinction probabilities s_i."""

    mean: np.ndarray
    std_error: np.ndarray
    bin_edges: np.ndarray
    histograms: np.ndarray  # (K, bins) counts of s_i over draws
    n_prec: int
    n_used: int
    master_seed: int
    warnings: dict = field(default_factory=dict)


class PosteriorEnsemble:
    """A reproducible batch of posterior parameter draws and derived arrays.

    Draw r is the r-th consecutive sample_parameter_draw on the one stream
    SeedSpec(master_seed, 0).rng(), or a replay on SeedSpec(master_seed,
    r + 1) if its Dirichlet normalizer is zero (``sampling._dirichlet_rows``):
    the first n draws are the same for any ensemble size, draw 0 is
    sample_parameter_draw(params, SeedSpec(master_seed, 0)), and draw r > 0
    cannot be reproduced without the draws before it. Derived per-draw
    arrays (mean matrices, dominant eigenpairs, pgf fixed points) are cached
    properties that call the law-stack kernels on the whole batch.
    """

    def __init__(self, params: HyperParams, n_prec: int = DEFAULT_N_PREC,
                 master_seed: int = 0):
        if n_prec < 1:
            raise ValueError("n_prec must be >= 1")
        self.params = params
        self.n_prec = int(n_prec)
        self.master_seed = int(master_seed)
        self.pairs = sorted(params.alpha)
        self.K = params.K
        self._laws = _dirichlet_rows(params, self.master_seed, self.n_prec)

    def law(self, pair) -> np.ndarray:
        """(n_prec, kappa+1) array of sampled laws for one pair."""
        return self._laws[pair]

    # ---- derived batch quantities ---------------------------------------

    @cached_property
    def mean_matrices(self) -> np.ndarray:
        return mean_matrices(self._laws, self.K)

    @cached_property
    def primitive_warning(self) -> bool:
        # Dirichlet draws are a.s. positive wherever the cap allows, so the
        # nonnegative pattern is the cap pattern, shared by every draw
        pattern = np.zeros((self.K, self.K))
        for (i, j) in self.pairs:
            pattern[i - 1, j - 1] = 1.0
        return not is_primitive(pattern)

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dominant eigenvalue, right and left eigenvectors per draw."""
        return perron_batch(self.mean_matrices)

    @property
    def lambdas(self) -> np.ndarray:
        return self._eigen[0]

    @property
    def left_vectors(self) -> np.ndarray:
        return self._eigen[2]

    @cached_property
    def perron_failures(self) -> np.ndarray:
        """Draws whose Perron pair misses ``perron_triple``'s residual limit.

        The estimates keep these draws and count them under the
        ``perron-failures`` warning."""
        return ~perron_residual(self.mean_matrices, *self._eigen)[1]

    @cached_property
    def _fixed_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimal pgf fixed point and failure flag per draw."""
        return _fixed_point_rows(self._laws, self.K, self.lambdas)

    @property
    def extinction_profiles(self) -> np.ndarray:
        return self._fixed_point[0]

    @property
    def fixed_point_failures(self) -> np.ndarray:
        return self._fixed_point[1]


def mc_viability_probability(params: HyperParams, n_prec: int = DEFAULT_N_PREC,
                             master_seed: int = 0,
                             ensemble: PosteriorEnsemble | None = None) -> MCEstimate:
    """Posterior probability that the population is viable (lambda > 1)."""
    ens = ensemble or PosteriorEnsemble(params, n_prec, master_seed)
    hits = (ens.lambdas > 1.0).astype(float)
    p = float(np.sum(hits) / ens.n_prec)
    se = float(np.sqrt(max(p * (1 - p), 0.0) / ens.n_prec))
    warnings = {"non-primitive-pattern": int(ens.primitive_warning) * ens.n_prec,
                "perron-failures": int(np.sum(ens.perron_failures))}
    return MCEstimate(value=p, std_error=se, n_prec=ens.n_prec, n_used=ens.n_prec,
                      master_seed=ens.master_seed, error_bound=error_bound(ens.n_prec),
                      warnings=warnings)


def mc_extinction_probability(params: HyperParams, population,
                              n_prec: int = DEFAULT_N_PREC, master_seed: int = 0,
                              ensemble: PosteriorEnsemble | None = None) -> MCEstimate:
    """Posterior mean of P(eventual extinction | parameters) for a population."""
    ens = ensemble or PosteriorEnsemble(params, n_prec, master_seed)
    N = _as_abundance(population, ens.K)
    s = ens.extinction_profiles
    bad = ens.fixed_point_failures
    per_draw = np.prod(s ** N[None, :], axis=1)
    per_draw = np.where(bad, 0.0, per_draw)
    n_used = int(ens.n_prec - np.sum(bad))
    if n_used == 0:
        raise RuntimeError("all fixed-point solves failed")
    p = float(np.sum(per_draw) / n_used)
    good_vals = per_draw[~bad]
    se = float(good_vals.std(ddof=1) / np.sqrt(n_used)) if n_used > 1 else float("nan")
    warnings = {"fixed-point-failures": int(np.sum(bad)),
                "non-primitive-pattern": int(ens.primitive_warning) * ens.n_prec,
                "perron-failures": int(np.sum(ens.perron_failures))}
    if np.sum(bad) > 0.01 * ens.n_prec:
        warnings["data-quality"] = 1
    return MCEstimate(value=p, std_error=se, n_prec=ens.n_prec, n_used=n_used,
                      master_seed=ens.master_seed, error_bound=error_bound(n_used),
                      warnings=warnings)


def mc_short_time_abundance(params: HyperParams, initial, horizon: int,
                            n_prec: int = DEFAULT_N_PREC, master_seed: int = 0,
                            ensemble: PosteriorEnsemble | None = None) -> list[MCEstimate]:
    """Posterior-mean abundance path E[N(t)] for t = 0..horizon.

    Per draw the conditional expectation N(0) M^t is exact; averaging over
    draws integrates out parameter uncertainty. Demographic noise around
    the conditional mean is not included."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    ens = ensemble or PosteriorEnsemble(params, n_prec, master_seed)
    N0 = _as_abundance(initial, ens.K)
    x = np.broadcast_to(N0, (ens.n_prec, ens.K)).copy()
    out = []
    for t in range(horizon + 1):
        mean = np.sum(x, axis=0) / ens.n_prec
        se = x.std(axis=0, ddof=1) / np.sqrt(ens.n_prec) if ens.n_prec > 1 \
            else np.full(ens.K, np.nan)
        out.append(MCEstimate(value=mean, std_error=se, n_prec=ens.n_prec,
                              n_used=ens.n_prec, master_seed=ens.master_seed))
        if t < horizon:
            x = np.einsum("ri,rij->rj", x, ens.mean_matrices)
    return out


def mc_time_bounds(params: HyperParams, population, alpha: float = 0.05,
                   n_prec: int = DEFAULT_N_PREC, master_seed: int = 0,
                   horizon_cap: int = 10 ** 6,
                   ensemble: PosteriorEnsemble | None = None) -> TimeBoundsEstimate:
    """Extinction-time bracket from posterior-averaged survival bounds.

    Per subcritical draw the survival curve is bracketed by the spectral
    upper bound and the second-moment lower bound (both clamped to [0, 1]);
    curves are averaged over draws with lambda < 1 and the bracket read off
    at level alpha: t_plus = first t with mean upper <= alpha, t_minus =
    last t with mean lower >= 1 - alpha. The lower curve is asymptotic, not
    a bound, so t_minus carries no guarantee (see ``TimeBoundsEstimate``).

    The bounds divide by the smallest left-eigenvector entry, so a
    subcritical draw whose left vector has an entry <= 0 (a reducible mean
    matrix), or whose entries are so lopsided that a bound constant is not
    finite, is left out of the average and counted under the
    ``degenerate-eigenvector`` warning. ``n_used`` is the number of draws
    averaged; RuntimeError is raised if none is left."""
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    ens = ensemble or PosteriorEnsemble(params, n_prec, master_seed)
    N = _as_abundance(population, ens.K)
    lam = ens.lambdas
    sub = lam < 1.0
    n_sub = int(np.sum(sub))
    if n_sub == 0:
        raise RuntimeError("no subcritical draws; time bounds require lambda < 1")
    # degenerate rows may divide by zero or overflow; they are left out below
    v = ens.left_vectors
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xi, cU, cL = _bound_constants(ens._laws, ens.mean_matrices, lam, v, N)
    use = sub & (v.min(axis=1) > 0) & np.isfinite(cU) & np.isfinite(cL)
    n_used = int(np.sum(use))
    if n_used == 0:
        raise RuntimeError("no subcritical draw has a usable left eigenvector; "
                           "time bounds are undefined")
    lam_s, cU, cL = lam[use], cU[use], cL[use]

    def curves(ts):
        pw = lam_s[:, None] ** ts[None, :]
        ubar = np.sum(np.minimum(1.0, cU[:, None] * pw), axis=0) / n_used
        lbar = np.sum(np.clip(cL[:, None] * pw * lam_s[:, None], 0.0, 1.0), axis=0) / n_used
        return ubar, lbar

    t_minus, t_plus, times, upper_curve, lower_curve = _bracket_scan(curves, alpha,
                                                                     horizon_cap)
    warnings = {"supercritical-draws": int(ens.n_prec - n_sub),
                "degenerate-eigenvector": int(n_sub - n_used),
                "degenerate-xi": int(np.sum(~(xi[use] > 0))),
                "non-primitive-pattern": int(ens.primitive_warning) * ens.n_prec,
                "perron-failures": int(np.sum(ens.perron_failures))}
    return TimeBoundsEstimate(t_minus=t_minus, t_plus=t_plus, alpha=alpha,
                              times=times, upper_curve=upper_curve,
                              lower_curve=lower_curve, n_prec=ens.n_prec,
                              n_used=n_used, master_seed=ens.master_seed,
                              warnings=warnings)


def mc_reintroduction(params: HyperParams, n_prec: int = DEFAULT_N_PREC,
                      master_seed: int = 0, bins: int = 100,
                      ensemble: PosteriorEnsemble | None = None) -> ReintroductionSummary:
    """Posterior distribution of per-founder extinction probabilities.

    s_i is the probability that the line of one type-i founder dies out;
    its posterior spread tells a planner which founder types make a
    reintroduction robust."""
    ens = ensemble or PosteriorEnsemble(params, n_prec, master_seed)
    s = ens.extinction_profiles
    bad = ens.fixed_point_failures
    good = s[~bad]
    n_used = good.shape[0]
    if n_used == 0:
        raise RuntimeError("all fixed-point solves failed")
    mean = np.sum(good, axis=0) / n_used
    se = good.std(axis=0, ddof=1) / np.sqrt(n_used) if n_used > 1 \
        else np.full(ens.K, np.nan)
    edges = np.linspace(0.0, 1.0, bins + 1)
    hists = np.stack([np.histogram(good[:, i], bins=edges)[0] for i in range(ens.K)])
    warnings = {"fixed-point-failures": int(np.sum(bad))}
    if np.sum(bad) > 0.01 * ens.n_prec:
        warnings["data-quality"] = 1
    return ReintroductionSummary(mean=mean, std_error=se, bin_edges=edges,
                                 histograms=hists, n_prec=ens.n_prec, n_used=n_used,
                                 master_seed=ens.master_seed, warnings=warnings)


def effective_population_size(params: HyperParams, type_index: int,
                              threshold: float = 0.05,
                              n_prec: int = DEFAULT_N_PREC, master_seed: int = 0,
                              max_founders: int = 10 ** 6,
                              ensemble: PosteriorEnsemble | None = None) -> int | None:
    """Smallest number n of type-``type_index`` founders with posterior
    extinction probability E[s_i^n] below ``threshold`` (None if even
    ``max_founders`` founders do not reach it)."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0,1)")
    ens = ensemble or PosteriorEnsemble(params, n_prec, master_seed)
    if not 1 <= type_index <= ens.K:
        raise ValueError(f"type_index outside 1..{ens.K}")
    s = ens.extinction_profiles[:, type_index - 1]
    bad = ens.fixed_point_failures
    good = s[~bad]
    n_used = good.shape[0]
    if n_used == 0:
        raise RuntimeError("all fixed-point solves failed")

    def pext(n: int) -> float:
        return float(np.sum(good ** n) / n_used)

    # E[s^n] is nonincreasing in n: gallop then bisect
    if pext(1) < threshold:
        return 1
    lo, hi = 1, 2
    while pext(hi) >= threshold:
        lo = hi
        hi *= 2
        if hi > max_founders:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pext(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return hi
