"""Seeded sampling: posterior draws and forward simulation.

Reproducibility contract: every stochastic routine takes a SeedSpec built
from a user-visible master seed and a replicate index. Streams use the
counter-based Philox generator keyed on (master_seed, replicate_index), so
a stream is identical no matter how many others run or in what order. A
posterior ensemble's rows come from one stream (``_dirichlet_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .inference import HyperParams
from .model import LifeTable, ParameterDraw, PoissonLaw, PopulationState

__all__ = [
    "SeedSpec",
    "Trajectory",
    "sample_dirichlet",
    "sample_parameter_draw",
    "simulate",
    "simulate_extinction_time",
]

_OVERFLOW_CAP = 10 ** 12  # simulations stop once a population exceeds it


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
    pair's alphas in sorted-pair, category order, consumed in C order, so
    row r is the r-th consecutive ``sample_parameter_draw`` on that
    generator (while no normalizer is zero), row 0 is
    ``sample_parameter_draw(params, SeedSpec(master_seed, 0))``, and the
    first rows do not depend on n. The array's transpose is copied once,
    coefficient-major, and each pair's block of rows is divided in place by
    the pair's normalizers; the laws are (n, kappa+1) views of that block.
    A normalizer is NumPy's sum of the pair's gammas in a row, which adds
    fewer than 8 terms left to right, as ``np.add.reduce`` adds the block's
    rows in one call, and 8 or more pairwise, from ``gam`` row by row. A row
    with a zero normalizer cannot be redrawn on the shared stream without
    shifting the rows after it, so it is replayed through ``_dirichlet``
    (with its redraw cap) on the stream ``SeedSpec(master_seed, r + 1)``, a
    pure function of (master_seed, r). A single row cannot be reproduced
    without drawing the rows before it.
    """
    pairs = sorted(params.alpha)
    alphas = [np.asarray(params.alpha[pair], dtype=float) for pair in pairs]
    ends = np.cumsum([0] + [len(a) for a in alphas])
    a_all = np.concatenate(alphas)
    rng = SeedSpec(master_seed, 0).rng()
    gam = rng.standard_gamma(np.broadcast_to(a_all, (n, len(a_all))))
    block = np.ascontiguousarray(gam.T)
    laws = {}
    replay = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pair, lo, hi in zip(pairs, ends[:-1], ends[1:]):
            total = (np.add.reduce(block[lo:hi], axis=0) if hi - lo < 8
                     else gam[:, lo:hi].sum(axis=1))
            replay |= ~(total > 0)
            block[lo:hi] /= total
            laws[pair] = block[lo:hi].T
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
    r-th consecutive draw on its one stream (``_dirichlet_rows``).
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
          counts: dict | None) -> tuple[int, ...]:
    """One generation from N(t); records n[i, j](k, t) > 0 in ``counts`` unless it is None."""
    K = draw.K
    new = [0] * K
    for (i, j) in sorted(draw.p):
        n_parents = N[i - 1]
        if n_parents == 0:
            continue
        law = draw.p[(i, j)]
        if isinstance(law, PoissonLaw):
            ks = law.sample_counts(rng, n_parents).items()
        else:
            v = np.asarray(law, dtype=float)
            ks = enumerate(rng.multinomial(n_parents, v / v.sum()))
        for k, n in ks:
            if n:
                if counts is not None:
                    counts[(i, j, k, t)] = int(n)
                new[j - 1] += k * int(n)
    return tuple(new)


def _generations(draw: ParameterDraw, N: tuple[int, ...], rng: np.random.Generator,
                 counts: dict | None = None):
    """Yield N(1), N(2), ... from N(0) = N by ``_step``, stopping once the
    last state is empty or its total exceeds ``_OVERFLOW_CAP``."""
    t = 0
    while 0 < sum(N) <= _OVERFLOW_CAP:
        N = _step(draw, N, t, rng, counts)
        t += 1
        yield N


def simulate(draw: ParameterDraw, initial: PopulationState, horizon: int, seed) -> Trajectory:
    """Simulate the branching process for ``horizon`` steps.

    Offspring are realized pair-by-pair with multinomial draws over parent
    counts, which is distributionally identical to summing independent
    per-individual offspring. Stops early at extinction or overflow (``_OVERFLOW_CAP``).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if initial.K != draw.K:
        raise ValueError("initial state dimension mismatch")
    counts: dict = {}
    states = [PopulationState(initial.N, time=0)]
    path = _generations(draw, initial.N, _as_rng(seed), counts)
    for t, N in enumerate(islice(path, horizon), start=1):
        states.append(PopulationState(N, time=t))
    last = states[-1]
    return Trajectory(states=states, table=LifeTable(draw.K, max(last.time - 1, 0), counts),
                      extinct_at=last.time if last.extinct else None,
                      truncated=last.total > _OVERFLOW_CAP and last.time < horizon)


def simulate_extinction_time(draw: ParameterDraw, initial: PopulationState, seed,
                             max_time: int = 10 ** 6) -> int | None:
    """First time the population is empty (0 for an extinct start, as
    ``simulate``'s ``extinct_at``); None if censored at max_time or stopped
    by ``_OVERFLOW_CAP`` (an exploding path)."""
    if initial.K != draw.K:
        raise ValueError("initial state dimension mismatch")
    if initial.extinct:
        return 0
    path = islice(_generations(draw, initial.N, _as_rng(seed)), max_time)
    return next((t for t, N in enumerate(path, start=1) if not any(N)), None)
