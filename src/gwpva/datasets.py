"""Bundled example datasets used in the documentation and tests.

Two populations: a single-type synthetic decline with a known generating
law, and the central-Pyrenees brown-bear female population (five age
classes, time-aggregated monitoring totals).
"""

from __future__ import annotations

import numpy as np

from .model import LifeTable, OffspringCap, ParameterDraw, PopulationState

__all__ = [
    "synthetic_cap",
    "synthetic_true_law",
    "synthetic_true_draw",
    "synthetic_life_table",
    "synthetic_abundances",
    "bear_cap",
    "bear_life_table",
    "bear_population_2016",
]

# ---- synthetic single-type decline ---------------------------------------

# per-individual one-period law: survive w.p. 0.4, brood law (0.8,0.1,0.05,0.05),
# composed into P(0..4 successors) for one individual
_SYNTH_TRUE_LAW = (0.48, 0.38, 0.07, 0.05, 0.02)

# observed transition counts n[1,1](k, t), k = 0..4 (rows), t = 0..4 (columns)
_SYNTH_COUNTS = (
    (47, 30, 29, 20, 18),
    (39, 37, 23, 17, 11),
    (8, 4, 2, 3, 2),
    (4, 2, 4, 2, 1),
    (2, 2, 1, 1, 1),
)

_SYNTH_ABUNDANCES = (100, 75, 59, 43, 33, 22)


def synthetic_cap() -> OffspringCap:
    """Single type, at most four successors per individual per period."""
    return OffspringCap(1, {(1, 1): 4})


def synthetic_true_law() -> np.ndarray:
    """The law that generated the synthetic dataset (mean 0.75, subcritical)."""
    return np.array(_SYNTH_TRUE_LAW)


def synthetic_true_draw() -> ParameterDraw:
    return ParameterDraw(synthetic_cap(), {(1, 1): synthetic_true_law()})


def synthetic_life_table() -> LifeTable:
    """Five observed transitions (t = 0..4) of the declining population."""
    counts = {(1, 1, k, t): n
              for k, row in enumerate(_SYNTH_COUNTS)
              for t, n in enumerate(row)}
    return LifeTable(K=1, horizon=4, counts=counts)


def synthetic_abundances() -> tuple[int, ...]:
    """N(0..5) implied by the table: (100, 75, 59, 43, 33, 22)."""
    return _SYNTH_ABUNDANCES


# ---- central-Pyrenees brown-bear females ----------------------------------

# Five female age classes: 1..4 are ages 0..3 (survive-or-die, advancing one
# class), class 5 is adult (survives in place and may produce 0..3 female
# cubs per year). Counts are 2005-2016 monitoring totals; only the
# time-aggregated sums are published, so everything is keyed at t = 0.
# Survival and reproduction of adults are recorded as separate experiments,
# so the (5,5) and (5,1) parent totals legitimately differ.
_BEAR_COUNTS = {
    (1, 2): (3, 17),        # cub deaths, cub survivals
    (2, 3): (0, 16),
    (3, 4): (2, 12),
    (4, 5): (0, 12),
    (5, 5): (3, 72),        # adult deaths, adult survivals
    (5, 1): (70, 8, 6, 0),  # adult-years with 0..3 female cubs
}


def bear_cap() -> OffspringCap:
    return OffspringCap(5, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1,
                            (5, 5): 1, (5, 1): 3})


def bear_life_table() -> LifeTable:
    """Time-aggregated bear transitions (all entries at t = 0)."""
    counts = {(i, j, k, 0): n
              for (i, j), row in _BEAR_COUNTS.items()
              for k, n in enumerate(row) if n > 0}
    return LifeTable(K=5, horizon=0, counts=counts)


def bear_population_2016() -> PopulationState:
    """Approximate 2016 female composition used in the worked examples:
    a small cohort in each juvenile class and ten adults."""
    return PopulationState((2, 2, 2, 2, 10), time=0)
