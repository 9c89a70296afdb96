"""Monte Carlo engine over the posterior parameter ensemble.

All population-level answers (viability, extinction probability,
extinction-time bounds, reintroduction summaries) are posterior
expectations of per-draw functionals. One shared ensemble of parameter
draws serves every estimate, so the quantities reported together are
consistent with each other.

Each answer computes only the per-draw arrays it reads, and none solves a
Perron pair. Viability, the time bounds and the fixed point decide on which
side of 1 lambda lies by the ensemble's two cached criticality masks
(``extinction._lambda_below`` on the pair means). Extinction probability,
reintroduction and effective population size read the pgf fixed points
alone, through ``_usable_profiles``. An answer builds its ensemble from
(params, n_prec, master_seed), or reads the one passed as ``ensemble=``
and ignores n_prec and master_seed; params must then be None or
``ensemble.params`` itself.

Determinism: an ensemble's draws are those of ``sampling._dirichlet_rows``.
Per-draw quantities come from the law-stack kernels of ``spectral`` and
``extinction``, draw by draw, with the draws on the last axis of every
per-draw array. Every mean over draws is one pairwise ``np.add.reduce``
over that axis, divided by n, and a standard error sums its squared
deviations the same way (``_draw_mean_se``); viability is an exact count
/ n. A rerun is therefore bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .extinction import (_OPEN_END, SurvivalBounds, _as_abundance, _first_crossing,
                         _fixed_point_rows, _lambda_below, extinction_time_bounds)
from .inference import DEFAULT_N_PREC, HyperParams
from .sampling import _dirichlet_rows
from .spectral import _scatter, is_primitive, pair_means, perron_roots

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
    """The extinction-time bracket (``extinction.TimeBounds``) under the
    averaged (lambda < 1 conditioned) posterior, with the ``SurvivalBounds``
    of the averaged draws it was read from. ``times`` is 0 .. n_times - 1;
    ``upper_curve`` and ``lower_curve`` are ``bounds.upper`` and
    ``bounds.lower`` on ``times``, computed on first read. A value's bits
    depend only on the draws and on t, so the curves hold the values the
    bracket was read from."""

    t_minus: int
    t_plus: int | None
    alpha: float
    n_times: int
    bounds: SurvivalBounds = field(repr=False, compare=False)
    n_prec: int
    n_used: int
    master_seed: int
    warnings: dict = field(default_factory=dict)

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.n_times)

    @cached_property
    def upper_curve(self) -> np.ndarray:
        return self.bounds.upper(self.times)

    @cached_property
    def lower_curve(self) -> np.ndarray:
        return self.bounds.lower(self.times)


@dataclass(frozen=True)
class ReintroductionSummary:
    """Posterior distribution of per-founder extinction probabilities s_i."""

    mean: np.ndarray
    std_error: np.ndarray
    bin_edges: np.ndarray
    histograms: np.ndarray  # (K, 100) counts of s_i over equal bins of [0, 1]
    n_prec: int
    n_used: int
    master_seed: int
    warnings: dict = field(default_factory=dict)


class PosteriorEnsemble:
    """A reproducible batch of posterior parameter draws and derived arrays.

    Draw r is replicate r of ``sampling._dirichlet_rows``. The pair means, the two
    criticality masks, the pgf fixed points and the Perron roots
    (``lambdas``, which no answer reads) are cached properties that call the
    law-stack kernels on the whole batch, each on first use.
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
        """(n_prec, kappa+1) view of the sampled laws of one pair."""
        return self._laws[pair].T

    # ---- derived batch quantities ---------------------------------------

    @cached_property
    def pair_means(self) -> dict:
        """pair -> (n_prec,) mean offspring numbers of the draws."""
        return pair_means(self._laws)

    @cached_property
    def primitive_warning(self) -> bool:
        # Dirichlet draws are a.s. positive wherever the cap allows, so the
        # nonnegative pattern is the cap pattern, shared by every draw
        pattern = np.zeros((self.K, self.K))
        for (i, j) in self.pairs:
            pattern[i - 1, j - 1] = 1.0
        return not is_primitive(pattern)

    @cached_property
    def _subcritical(self) -> np.ndarray:
        """Draws with lambda < 1, by ``extinction._lambda_below``."""
        return _lambda_below(self.pair_means, self.K, 1.0)[0]

    @cached_property
    def _not_supercritical(self) -> np.ndarray:
        """Draws with lambda <= 1 + 1e-12, by ``extinction._lambda_below``."""
        return _lambda_below(self.pair_means, self.K, 1.0 + 1e-12)[1]

    @cached_property
    def lambdas(self) -> np.ndarray:
        """(n_prec,) Perron roots from LAPACK (``spectral.perron_roots``)."""
        return perron_roots(_scatter(self.pair_means, self.K, self.n_prec))

    @cached_property
    def _fixed_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimal pgf fixed point and failure flag per draw, by the cached masks."""
        return _fixed_point_rows(self._laws, self.K, self._subcritical, self._not_supercritical)

    @property
    def extinction_profiles(self) -> np.ndarray:
        """(n_prec, K) view of the draws' minimal pgf fixed points."""
        return self._fixed_point[0].T

    @property
    def fixed_point_failures(self) -> np.ndarray:
        return self._fixed_point[1]


def _ensemble(params: HyperParams | None, n_prec: int, master_seed: int,
              ensemble: PosteriorEnsemble | None) -> PosteriorEnsemble:
    """The ensemble an answer reads, by the rule of the module docstring."""
    if ensemble is None:
        return PosteriorEnsemble(params, n_prec, master_seed)
    if params is not None and params is not ensemble.params:
        raise ValueError("params is not ensemble.params; pass that or None")
    return ensemble


def _usable_profiles(ens: PosteriorEnsemble) -> tuple[np.ndarray, dict]:
    """The (K, n_used) extinction profiles of the draws whose fixed-point
    solve converged, and the warnings that count the others:
    ``fixed-point-failures``, plus ``data-quality`` when more than 1 % of
    the draws failed. RuntimeError if no draw is left. When no draw failed
    the profiles are the ensemble's own array, not a copy; either way they
    are C-contiguous, so a mean over draws is summed pairwise."""
    s, bad = ens._fixed_point
    good = s.compress(~bad, axis=-1) if bad.any() else s
    if not good.shape[-1]:
        raise RuntimeError("all fixed-point solves failed")
    warnings = {"fixed-point-failures": int(np.sum(bad))}
    if np.sum(bad) > 0.01 * ens.n_prec:
        warnings["data-quality"] = 1
    return good, warnings


def mc_viability_probability(params: HyperParams, n_prec: int = DEFAULT_N_PREC,
                             master_seed: int = 0,
                             ensemble: PosteriorEnsemble | None = None) -> MCEstimate:
    """Posterior probability that the population is viable (lambda > 1 + 1e-12)."""
    ens = _ensemble(params, n_prec, master_seed, ensemble)
    p = float(np.sum(~ens._not_supercritical) / ens.n_prec)
    se = float(np.sqrt(max(p * (1 - p), 0.0) / ens.n_prec))
    warnings = {"non-primitive-pattern": int(ens.primitive_warning) * ens.n_prec}
    return MCEstimate(value=p, std_error=se, n_prec=ens.n_prec, n_used=ens.n_prec,
                      master_seed=ens.master_seed, error_bound=error_bound(ens.n_prec),
                      warnings=warnings)


def mc_extinction_probability(params: HyperParams, population,
                              n_prec: int = DEFAULT_N_PREC, master_seed: int = 0,
                              ensemble: PosteriorEnsemble | None = None) -> MCEstimate:
    """Posterior mean of P(eventual extinction | parameters) for a population."""
    ens = _ensemble(params, n_prec, master_seed, ensemble)
    N = _as_abundance(population, ens.K)
    s, warnings = _usable_profiles(ens)
    n_used = s.shape[-1]
    p, se = map(float, _draw_mean_se(np.prod(s ** N[:, None], axis=0)))
    warnings["non-primitive-pattern"] = int(ens.primitive_warning) * ens.n_prec
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
    ens = _ensemble(params, n_prec, master_seed, ensemble)
    n = ens.n_prec
    N0 = _as_abundance(initial, ens.K)
    x = np.broadcast_to(N0[:, None], (ens.K, n)).copy()
    out = []
    for t in range(horizon + 1):
        mean, se = _draw_mean_se(x)
        out.append(MCEstimate(value=mean, std_error=se, n_prec=n, n_used=n,
                              master_seed=ens.master_seed))
        if t < horizon:
            step = np.zeros_like(x)
            for (i, j), m in ens.pair_means.items():
                step[j - 1] += x[i - 1] * m
            x = step
    return out


def _draw_mean_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of x over its last (draw) axis and their standard errors
    std(ddof=1) / sqrt(n), NaN at n = 1, with the bits of
    ``np.sum(x, axis=-1) / n`` and ``x.std(axis=-1, ddof=1) / sqrt(n)``."""
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / n
    if n == 1:
        return mean[..., 0], np.full(x.shape[:-1], np.nan)
    dev = x - mean
    np.square(dev, out=dev)
    return mean[..., 0], np.sqrt(np.add.reduce(dev, axis=-1) / (n - 1)) / np.sqrt(n)


def mc_time_bounds(params: HyperParams, population, alpha: float = 0.05,
                   n_prec: int = DEFAULT_N_PREC, master_seed: int = 0,
                   horizon_cap: int = 10 ** 6,
                   ensemble: PosteriorEnsemble | None = None) -> TimeBoundsEstimate:
    """Extinction-time bracket under the posterior conditioned on lambda < 1:
    ``extinction.extinction_time_bounds`` on the ``SurvivalBounds`` of every
    lambda < 1 draw (``extinction._lambda_below``), so ``n_used`` counts
    them; RuntimeError is raised if there is none. The curves end at t_plus
    or, when t_plus is None, at t = 991 or t_minus + 1, whichever is later,
    and never past horizon_cap."""
    ens = _ensemble(params, n_prec, master_seed, ensemble)
    N = _as_abundance(population, ens.K)
    rows = np.flatnonzero(ens._subcritical)
    if not len(rows):
        raise RuntimeError("no subcritical draws; time bounds require lambda < 1")
    bounds = SurvivalBounds(
        means={p: m.take(rows) for p, m in ens.pair_means.items()},
        laws={p: d.take(rows, axis=-1) for p, d in ens._laws.items()},
        population=N)
    tb = extinction_time_bounds(bounds, alpha, horizon_cap)
    n_times = 1 + (tb.t_plus if tb.t_plus is not None
                   else min(horizon_cap, max(_OPEN_END, tb.t_minus + 1)))
    warnings = {"supercritical-draws": int(ens.n_prec - len(rows)),
                "non-primitive-pattern": int(ens.primitive_warning) * ens.n_prec}
    return TimeBoundsEstimate(t_minus=tb.t_minus, t_plus=tb.t_plus, alpha=alpha,
                              n_times=n_times, bounds=bounds, n_prec=ens.n_prec,
                              n_used=len(rows), master_seed=ens.master_seed,
                              warnings=warnings)


def mc_reintroduction(params: HyperParams, n_prec: int = DEFAULT_N_PREC,
                      master_seed: int = 0,
                      ensemble: PosteriorEnsemble | None = None) -> ReintroductionSummary:
    """Posterior distribution of per-founder extinction probabilities.

    s_i is the probability that the line of one type-i founder dies out;
    its posterior spread tells a planner which founder types make a
    reintroduction robust."""
    ens = _ensemble(params, n_prec, master_seed, ensemble)
    good, warnings = _usable_profiles(ens)
    n_used = good.shape[-1]
    mean, se = _draw_mean_se(good)
    edges = np.linspace(0.0, 1.0, 101)
    hists = np.stack([np.histogram(row, bins=edges)[0] for row in good])
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
    ``max_founders`` founders do not reach it), a crossing of the nonincreasing
    E[s_i^n]. ValueError unless 0 < threshold < 1 and max_founders >= 1."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0,1)")
    if max_founders < 1:
        raise ValueError("max_founders must be >= 1")
    ens = _ensemble(params, n_prec, master_seed, ensemble)
    if not 1 <= type_index <= ens.K:
        raise ValueError(f"type_index outside 1..{ens.K}")
    good = _usable_profiles(ens)[0][type_index - 1]
    return _first_crossing(lambda ns: [np.add.reduce(good ** int(n), axis=-1) / len(good)
                                       < threshold for n in ns], max_founders)
