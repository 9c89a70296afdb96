"""Domain types for multi-type branching populations and life-table data.

Types are 1-based: an individual of type ``i`` (1..K) produces, per unit
time and independently for each child type ``j``, a random number of
type-``j`` offspring bounded by a structural cap ``kappa[i, j]``.
``kappa == 0`` marks a transition as structurally impossible; such pairs
carry no estimated parameters (all mass on zero offspring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

Pair = tuple[int, int]

__all__ = [
    "OffspringCap",
    "LifeTable",
    "PopulationState",
    "ParameterDraw",
    "PoissonLaw",
    "Violation",
    "record_violations",
    "row_violations",
    "validate_life_table",
    "aggregate_counts",
    "abundances_from_table",
]


@dataclass(frozen=True)
class OffspringCap:
    """Structural offspring caps kappa[i, j] for a K-type population.

    Pairs absent from ``kappa`` (or mapped to 0) are forbidden transitions.
    """

    K: int
    kappa: Mapping[Pair, int]

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        for (i, j), cap in self.kappa.items():
            if not (1 <= i <= self.K and 1 <= j <= self.K):
                raise ValueError(f"pair ({i},{j}) outside 1..{self.K}")
            if cap < 0:
                raise ValueError(f"kappa[{i},{j}] = {cap} is negative")

    @classmethod
    def full(cls, K: int, cap: int) -> "OffspringCap":
        """Every transition allowed with the same cap."""
        return cls(K, {(i, j): cap for i in range(1, K + 1) for j in range(1, K + 1)})

    def cap_of(self, i: int, j: int) -> int:
        return self.kappa.get((i, j), 0)

    def is_forbidden(self, i: int, j: int) -> bool:
        return self.cap_of(i, j) == 0

    def pairs(self) -> list[Pair]:
        """Non-forbidden pairs in deterministic (row-major) order."""
        return sorted(p for p, c in self.kappa.items() if c > 0)


@dataclass(frozen=True)
class LifeTable:
    """Observed transition counts n[i, j](k, t).

    ``counts`` maps (i, j, k, t) to the number of type-i individuals that
    produced exactly k type-j offspring between times t and t+1. Entries
    are exact integers; absent keys mean zero. ``horizon`` is the last
    observation time T (transitions cover t = 0..T).
    """

    K: int
    horizon: int
    counts: Mapping[tuple[int, int, int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        for (i, j, k, t) in self.counts:
            if not (1 <= i <= self.K and 1 <= j <= self.K):
                raise ValueError(f"type pair ({i},{j}) outside 1..{self.K}")
            if k < 0 or t < 0 or t > self.horizon:
                raise ValueError(f"bad key (i={i}, j={j}, k={k}, t={t})")

    def count(self, i: int, j: int, k: int, t: int) -> int:
        return self.counts.get((i, j, k, t), 0)

    def concat(self, other: "LifeTable") -> "LifeTable":
        """Append another table after this one on the time axis."""
        if other.K != self.K:
            raise ValueError("type counts differ")
        merged = dict(self.counts)
        offset = self.horizon + 1
        for (i, j, k, t), n in other.counts.items():
            merged[(i, j, k, t + offset)] = merged.get((i, j, k, t + offset), 0) + n
        return LifeTable(self.K, self.horizon + other.horizon + 1, merged)


@dataclass(frozen=True)
class PopulationState:
    """Abundance per type at a given time; extinct iff all zero."""

    N: tuple[int, ...]
    time: int = 0

    def __post_init__(self):
        if not all(n >= 0 and float(n).is_integer() for n in self.N):
            raise ValueError("abundances must be nonnegative integers")
        object.__setattr__(self, "N", tuple(int(n) for n in self.N))

    @property
    def K(self) -> int:
        return len(self.N)

    @property
    def total(self) -> int:
        return sum(self.N)

    @property
    def extinct(self) -> bool:
        return self.total == 0


def _as_abundance(population, K: int) -> np.ndarray:
    """Abundances of a PopulationState or a plain sequence of K counts, as floats."""
    N = population.N if isinstance(population, PopulationState) else population
    N = np.asarray(N, dtype=float)
    if N.shape != (K,):
        raise ValueError(f"population must have {K} types")
    return np.asarray(PopulationState(tuple(N)).N, dtype=float)


@dataclass(frozen=True)
class PoissonLaw:
    """Unbounded Poisson offspring law; its pgf and mean are the Poisson
    branch of the law-stack kernels (``extinction._pgf``, ``mean_matrices``)."""

    rate: float

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate!r}")

    def sample_counts(self, rng: np.random.Generator, n_parents: int) -> dict[int, int]:
        """Histogram {k: #parents with k offspring} for n_parents parents."""
        draws = rng.poisson(self.rate, size=n_parents)
        ks, ns = np.unique(draws, return_counts=True)
        return {int(k): int(n) for k, n in zip(ks, ns)}


@dataclass(frozen=True)
class ParameterDraw:
    """One realization of all offspring laws p[i, j].

    A law is either a probability vector of length kappa[i, j] + 1 over
    offspring counts 0..kappa or a ``PoissonLaw`` (unbounded offspring);
    anything else is rejected. Forbidden pairs are omitted (point mass at
    zero).
    """

    cap: OffspringCap
    p: Mapping[Pair, np.ndarray | PoissonLaw]

    def __post_init__(self):
        for pair in self.cap.pairs():
            if pair not in self.p:
                raise ValueError(f"missing law for pair {pair}")
        for pair, law in self.p.items():
            if self.cap.is_forbidden(*pair):
                raise ValueError(f"law supplied for forbidden pair {pair}")
            if isinstance(law, PoissonLaw):
                continue
            if not isinstance(law, (np.ndarray, list, tuple)):
                raise ValueError(f"law for {pair} must be a probability vector or a "
                                 f"PoissonLaw, not a {type(law).__name__}")
            v = np.asarray(law, dtype=float)
            if v.ndim != 1 or len(v) != self.cap.cap_of(*pair) + 1:
                raise ValueError(f"law for {pair} has wrong length")
            if (v < -1e-15).any() or (v > 1 + 1e-12).any():
                raise ValueError(f"law for {pair} has entries outside [0,1]")
            if abs(v.sum() - 1.0) > 1e-12:
                raise ValueError(f"law for {pair} sums to {v.sum()!r}, not 1")

    @property
    def K(self) -> int:
        return self.cap.K


def _law_stack(draw: ParameterDraw) -> dict:
    """The draw as a law stack of one: pair -> (1, kappa+1) categorical row
    or (1,) Poisson rate, in sorted pair order as in an ensemble."""
    return {pair: np.array([law.rate], dtype=float) if isinstance(law, PoissonLaw)
            else np.asarray(law, dtype=float)[None] for pair, law in sorted(draw.p.items())}


@dataclass(frozen=True)
class Violation:
    kind: str
    location: tuple
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.location}: {self.message}"


def _parent_totals(table: LifeTable) -> dict[tuple[int, int], dict[int, int]]:
    """Parents classified per row: (i, t) -> {j: sum_k n[i, j](k, t)}."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j, k, t), n in table.counts.items():
        row = rows.setdefault((i, t), {})
        row[j] = row.get(j, 0) + n
    return rows


def record_violations(table: LifeTable, cap: OffspringCap) -> list[Violation]:
    """Per-record violations in key order: a negative count, and k above the
    cap (``forbidden-pair`` where it is 0), whatever the count; k = 0 is
    always allowed. Only a ``type-mismatch`` if table and cap K differ."""
    if cap.K != table.K:
        return [Violation("type-mismatch", (), f"table K={table.K}, cap K={cap.K}")]
    out: list[Violation] = []
    for (i, j, k, t), n in sorted(table.counts.items()):
        if n < 0:
            out.append(Violation("negative-count", (i, j, k, t), f"count {n} < 0"))
        kappa = cap.cap_of(i, j)
        if k > kappa:
            kind = "forbidden-pair" if kappa == 0 else "offspring-exceeds-cap"
            out.append(Violation(kind, (i, j, k, t), f"k={k} exceeds cap kappa={kappa}"))
    return out


def row_violations(table: LifeTable) -> list[Violation]:
    """Row-consistency: for fixed i and t the number of classified parents
    must agree across the child types observed."""
    return [Violation("row-inconsistent", (i, t), "parent totals differ across "
                      f"child types: { {j: row[j] for j in sorted(row)} }")
            for (i, t), row in sorted(_parent_totals(table).items())
            if len(set(row.values())) > 1]


def validate_life_table(table: LifeTable, cap: OffspringCap) -> list[Violation]:
    """Every structural violation, as data (an empty list means valid): the
    ``record_violations``, then, if the K match, the ``row_violations``."""
    out = record_violations(table, cap)
    return out if cap.K != table.K else out + row_violations(table)


def aggregate_counts(table: LifeTable) -> dict[tuple[int, int, int], int]:
    """Sum counts over time: (i, j, k) -> sum_t n[i, j](k, t). Exact."""
    agg: dict[tuple[int, int, int], int] = {}
    for (i, j, k, _), n in table.counts.items():
        agg[(i, j, k)] = agg.get((i, j, k), 0) + n
    return agg


def abundances_from_table(table: LifeTable) -> list[PopulationState]:
    """Recover abundances N(t) for t = 0..T+1 from a complete table.

    N_i(t) is the parent total of type i at time t (identical across
    observed child types: ValueError naming the first of the
    ``row_violations`` otherwise); otherwise, and at T+1, N_j(t) is the
    offspring total sum_i sum_k k * n[i, j](k, t-1).
    """
    bad = row_violations(table)
    if bad:
        raise ValueError(f"invalid life table: {bad[0]}")
    N = [[0] * table.K for _ in range(table.horizon + 2)]
    for (i, j, k, t), n in table.counts.items():
        N[t + 1][j - 1] += k * n
    for (i, t), row in _parent_totals(table).items():
        N[t][i - 1] = next(iter(row.values()))
    return [PopulationState(tuple(row), time=t) for t, row in enumerate(N)]
