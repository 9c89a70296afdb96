"""Seeded sampling: posterior draws and forward simulation.

Reproducibility contract: every stochastic routine takes a SeedSpec built
from a user-visible master seed and a replicate index. Streams use the
counter-based Philox generator keyed on (master_seed, replicate_index), so
replicate r's stream is identical no matter how many replicates run or in
what order. A posterior ensemble (``_dirichlet_rows``) resets one Philox to
each replicate's key in turn, which gives the same streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inference import HyperParams
from .model import LifeTable, OffspringCap, ParameterDraw, PopulationState, _is_categorical

__all__ = [
    "SeedSpec",
    "Trajectory",
    "sample_dirichlet",
    "sample_parameter_draw",
    "simulate",
    "simulate_extinction_time",
]

_KEY_MOD = 1 << 64


def _key_words(master_seed: int, replicate_index: int) -> tuple[int, int]:
    """Philox key words (low, high) of the stream (master_seed, replicate_index)."""
    return replicate_index % _KEY_MOD, master_seed % _KEY_MOD


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream identity: (master_seed, replicate_index)."""

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be >= 0")

    def rng(self) -> np.random.Generator:
        key = np.array(_key_words(self.master_seed, self.replicate_index), dtype=np.uint64)
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
    extreme underflow) is redrawn, at most 100 times. This is the reference
    the batched ``_dirichlet_rows`` is tested against, and the path it
    replays a replicate through when a normalizer is zero.
    """
    for _ in range(100):
        g = rng.gamma(shape=a)
        s = g.sum()
        if s > 0:
            return g / s
    raise RuntimeError("Dirichlet sampling underflowed repeatedly")


def _dirichlet_rows(params: HyperParams, master_seed: int, n: int) -> dict:
    """Laws of replicates 0..n-1: pair -> (n, kappa+1) array whose row r
    equals ``sample_parameter_draw(params, SeedSpec(master_seed, r))``.

    One Philox is reset to replicate r's key (counter 0, empty buffer)
    before its row, and one ``standard_gamma`` call draws every pair's
    variates in sorted-pair, category order, as the per-pair loop does.
    Each pair's block is then normalized for all rows at once. A row with
    a zero normalizer is replayed through ``_dirichlet`` on a fresh stream,
    keeping its redraws and their cap.
    """
    pairs = sorted(params.alpha)
    alphas = [np.asarray(params.alpha[pair], dtype=float) for pair in pairs]
    ends = np.cumsum([0] + [len(a) for a in alphas])
    a_all = np.concatenate(alphas)
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    # a new Philox's state (counter 0, empty buffer) with only the key
    # rewritten is the state SeedSpec(master_seed, r).rng() starts from
    state = bitgen.state
    key = state["state"]["key"]
    gam = np.empty((n, len(a_all)))
    for r in range(n):
        key[:] = _key_words(master_seed, r)
        bitgen.state = state
        gam[r] = rng.standard_gamma(a_all)
    laws = {}
    replay = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pair, lo, hi in zip(pairs, ends[:-1], ends[1:]):
            block = gam[:, lo:hi]
            total = block.sum(axis=1)
            replay |= ~(total > 0)
            laws[pair] = block / total[:, None]
    for r in np.flatnonzero(replay):
        rng_r = SeedSpec(master_seed, int(r)).rng()
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
    a pure function of (params, seed). With ``_dirichlet`` this is the
    reference the batched ensemble sampler ``_dirichlet_rows`` is tested
    against row by row; that sampler falls back to ``_dirichlet`` on a row
    with a zero normalizer.
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
        if _is_categorical(law):
            v = np.asarray(law, dtype=float)
            c = rng.multinomial(n_parents, v / v.sum())
            for k, n in enumerate(c):
                if n:
                    counts[(i, j, k, t)] = int(n)
                    new[j - 1] += k * int(n)
        else:
            ks = law.sample_counts(rng, n_parents)
            for k, n in sorted(ks.items()):
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
