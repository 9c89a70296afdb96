"""Seeded sampling: posterior draws and forward simulation.

Reproducibility contract: every stochastic routine takes a SeedSpec built
from a user-visible master seed and a replicate index. Streams use the
counter-based Philox generator keyed on (master_seed, replicate_index), so
a stream is identical no matter how many others run or in what order. A
posterior ensemble (``_dirichlet_rows``) draws all its rows, in order, from
the one stream (master_seed, 0), replaying a zero-normalizer row r on
(master_seed, r + 1); its first n rows are the same whatever the ensemble
size, but a single row cannot be reproduced without the rows before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inference import HyperParams
from .model import LifeTable, OffspringCap, ParameterDraw, PoissonLaw, PopulationState

__all__ = [
    "SeedSpec",
    "Trajectory",
    "sample_dirichlet",
    "sample_parameter_draw",
    "simulate",
    "simulate_extinction_time",
]


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream identity: (master_seed, replicate_index)."""

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be >= 0")

    def rng(self) -> np.random.Generator:
        """Philox keyed (replicate_index mod 2**64, master_seed mod 2**64)."""
        key = np.array([self.replicate_index % (1 << 64), self.master_seed % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.rng()
    raise TypeError(f"expected SeedSpec or Generator, got {type(seed).__name__}")


def _dirichlet(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(a) draw from normalized Gamma variates, with a > 0.

    Gamma draws are taken in category order from ``rng``, which pins the
    exact output for a given stream. A zero normalizer (possible only by
    extreme underflow) is redrawn, at most 100 times. The batched
    ``_dirichlet_rows`` replays a row through it when a normalizer is zero.
    """
    for _ in range(100):
        g = rng.gamma(shape=a)
        s = g.sum()
        if s > 0:
            return g / s
    raise RuntimeError("Dirichlet sampling underflowed repeatedly")


def _dirichlet_rows(params: HyperParams, master_seed: int, n: int) -> dict:
    """Laws of replicates 0..n-1: pair -> (n, kappa+1) array.

    The whole ensemble draws from one stream, ``SeedSpec(master_seed, 0)``:
    one ``standard_gamma`` call fills an (n, sum(kappa+1)) array with every
    pair's alphas in sorted-pair, category order, and each pair's column
    block is normalized for all rows at once. Variates are consumed in C
    order, so row r is the r-th consecutive ``sample_parameter_draw`` on
    that generator (while no normalizer is zero), row 0 is
    ``sample_parameter_draw(params, SeedSpec(master_seed, 0))``, and the
    first rows do not depend on n. A row with a zero normalizer cannot be
    redrawn on the shared stream without shifting the rows after it, so it
    is replayed through ``_dirichlet`` (with its redraw cap) on the stream
    ``SeedSpec(master_seed, r + 1)``, a pure function of (master_seed, r).
    A single row cannot be reproduced without drawing the rows before it.
    """
    pairs = sorted(params.alpha)
    alphas = [np.asarray(params.alpha[pair], dtype=float) for pair in pairs]
    ends = np.cumsum([0] + [len(a) for a in alphas])
    a_all = np.concatenate(alphas)
    rng = SeedSpec(master_seed, 0).rng()
    gam = rng.standard_gamma(np.broadcast_to(a_all, (n, len(a_all))))
    laws = {}
    replay = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pair, lo, hi in zip(pairs, ends[:-1], ends[1:]):
            block = gam[:, lo:hi]
            total = block.sum(axis=1)
            replay |= ~(total > 0)
            laws[pair] = block / total[:, None]
    for r in np.flatnonzero(replay):
        rng_r = SeedSpec(master_seed, int(r) + 1).rng()
        for pair, a in zip(pairs, alphas):
            laws[pair][r] = _dirichlet(a, rng_r)
    return laws


def sample_dirichlet(alpha: np.ndarray, seed) -> np.ndarray:
    """One Dirichlet draw via normalized Gamma variates (see ``_dirichlet``)."""
    a = np.asarray(alpha, dtype=float)
    if (a <= 0).any():
        raise ValueError("alpha must be strictly positive")
    return _dirichlet(a, _as_rng(seed))


def sample_parameter_draw(params: HyperParams, seed) -> ParameterDraw:
    """Draw all offspring laws from independent Dirichlet posteriors.

    Pairs are visited in sorted (i, j) order on one stream, so the draw is
    a pure function of (params, seed). Row r of a posterior ensemble is the
    r-th consecutive draw on ``SeedSpec(master_seed, 0).rng()`` (see
    ``_dirichlet_rows``), and its row 0 is this function at that seed.
    """
    rng = _as_rng(seed)
    laws = {}
    for pair in sorted(params.alpha):
        laws[pair] = sample_dirichlet(params.alpha[pair], rng)
    return ParameterDraw(params.cap, laws)


@dataclass(frozen=True)
class Trajectory:
    """A simulated population path with its induced life table.

    ``extinct_at`` is the first time the population is empty (None if it
    survives to the horizon); ``truncated`` is set when the total size
    exceeded the overflow cap and the run stopped early.
    """

    states: list[PopulationState]
    table: LifeTable
    extinct_at: int | None
    truncated: bool = False

    @property
    def final(self) -> PopulationState:
        return self.states[-1]


def _step(draw: ParameterDraw, N: tuple[int, ...], t: int, rng: np.random.Generator,
          counts: dict) -> tuple[int, ...]:
    """One generation; records n[i, j](k, t) for all nonzero counts."""
    K = draw.K
    new = [0] * K
    for (i, j) in sorted(draw.p):
        n_parents = N[i - 1]
        if n_parents == 0:
            continue
        law = draw.p[(i, j)]
        if isinstance(law, PoissonLaw):
            ks = sorted(law.sample_counts(rng, n_parents).items())
        else:
            v = np.asarray(law, dtype=float)
            ks = enumerate(rng.multinomial(n_parents, v / v.sum()))
        for k, n in ks:
            if n:
                counts[(i, j, k, t)] = int(n)
                new[j - 1] += k * int(n)
    return tuple(new)


def simulate(draw: ParameterDraw, initial: PopulationState, horizon: int, seed,
             overflow_cap: int = 10 ** 12) -> Trajectory:
    """Simulate the branching process for ``horizon`` steps.

    Offspring are realized pair-by-pair with multinomial draws over parent
    counts, which is distributionally identical to summing independent
    per-individual offspring. Stops early at extinction or overflow.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if initial.K != draw.K:
        raise ValueError("initial state dimension mismatch")
    rng = _as_rng(seed)
    states = [PopulationState(initial.N, time=0)]
    counts: dict = {}
    extinct_at = None
    truncated = False
    N = initial.N
    last_t = -1
    for t in range(horizon):
        if sum(N) == 0:
            extinct_at = t
            break
        if sum(N) > overflow_cap:
            truncated = True
            break
        N = _step(draw, N, t, rng, counts)
        last_t = t
        states.append(PopulationState(N, time=t + 1))
    else:
        if sum(N) == 0:
            extinct_at = horizon
    table = LifeTable(draw.K, max(last_t, 0), counts)
    return Trajectory(states=states, table=table, extinct_at=extinct_at,
                      truncated=truncated)


def simulate_extinction_time(draw: ParameterDraw, initial: PopulationState, seed,
                             max_time: int = 10 ** 6,
                             overflow_cap: int = 10 ** 12) -> int | None:
    """First time the population is empty; None if censored at max_time
    or stopped by the overflow cap (an exploding path)."""
    rng = _as_rng(seed)
    N = initial.N
    for t in range(1, max_time + 1):
        if sum(N) > overflow_cap:
            return None
        N = _step(draw, N, t - 1, rng, {})
        if sum(N) == 0:
            return t
    return None
