import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwpva as g
from gwpva.datasets import (bear_cap, bear_life_table, synthetic_cap,
                            synthetic_life_table)


def test_aggregate_counts_synthetic_table():
    agg = g.aggregate_counts(synthetic_life_table())
    assert agg == {(1, 1, 0): 144, (1, 1, 1): 127, (1, 1, 2): 19,
                   (1, 1, 3): 13, (1, 1, 4): 7}


def test_abundances_from_synthetic_table():
    states = g.abundances_from_table(synthetic_life_table())
    assert [s.N for s in states] == [(100,), (75,), (59,), (43,), (33,), (22,)]
    assert [s.time for s in states] == list(range(6))


def test_abundances_rejects_row_inconsistent_table():
    # two child types observed for the same parents with different totals
    t = g.LifeTable(2, 0, {(1, 1, 0, 0): 5, (1, 2, 0, 0): 4})
    with pytest.raises(ValueError, match="row-inconsistent"):
        g.abundances_from_table(t)


def test_validate_flags_negative_cap_and_forbidden():
    cap = g.OffspringCap(2, {(1, 1): 2, (1, 2): 1})
    t = g.LifeTable(2, 1, {(1, 1, 3, 0): 2,      # beyond cap
                           (2, 1, 1, 0): 1,      # forbidden pair
                           (1, 2, 0, 1): -4})    # negative
    kinds = {v.kind for v in g.validate_life_table(t, cap)}
    assert {"offspring-exceeds-cap", "forbidden-pair", "negative-count"} <= kinds


def test_validate_is_record_then_row_violations():
    cap = g.OffspringCap(2, {(1, 1): 2, (1, 2): 1})
    t = g.LifeTable(2, 0, {(1, 2, 0, 0): 5, (1, 1, 0, 0): 4, (1, 1, 3, 0): 0,
                           (2, 2, 1, 0): 0, (2, 1, 0, 0): 0})
    records = g.record_violations(t, cap)
    # judged whatever the count, in key order; k = 0 on a forbidden pair is fine
    assert [(v.kind, v.location) for v in records] == [
        ("offspring-exceeds-cap", (1, 1, 3, 0)), ("forbidden-pair", (2, 2, 1, 0))]
    assert str(records[0]) == "offspring-exceeds-cap at (1, 1, 3, 0): k=3 exceeds cap kappa=2"
    rows = g.row_violations(t)
    assert [(v.kind, v.location) for v in rows] == [("row-inconsistent", (1, 0))]
    assert g.validate_life_table(t, cap) == records + rows
    # another K: one type-mismatch, and nothing else is judged
    other = g.OffspringCap(3, {(1, 1): 2})
    assert [v.kind for v in g.validate_life_table(t, other)] == ["type-mismatch"]


def test_validate_accepts_bundled_tables():
    ok = [v for v in g.validate_life_table(synthetic_life_table(), synthetic_cap())]
    assert ok == []
    # adult survival and adult fertility are separate experiments, so the
    # aggregated bear table is (knowingly) row-inconsistent but nothing else
    kinds = {v.kind for v in g.validate_life_table(bear_life_table(), bear_cap())}
    assert kinds <= {"row-inconsistent"}


def test_offspring_cap_basics():
    cap = bear_cap()
    assert cap.cap_of(5, 1) == 3
    assert cap.is_forbidden(1, 1)
    assert cap.pairs() == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 5)]
    with pytest.raises(ValueError):
        g.OffspringCap(2, {(3, 1): 1})
    with pytest.raises(ValueError):
        g.OffspringCap(2, {(1, 1): -1})


def test_population_state():
    s = g.PopulationState((0, 0, 3))
    assert s.K == 3 and s.total == 3 and not s.extinct
    assert g.PopulationState((0, 0)).extinct
    with pytest.raises(ValueError):
        g.PopulationState((-1, 2))
    # one abundance rule: nonnegative integers, whatever their Python type
    for bad in (2.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="abundances must be nonnegative integers"):
            g.PopulationState((1, bad))
    s = g.PopulationState((np.int64(3), 22.0))
    assert s.N == (3, 22)
    assert [type(n) for n in s.N] == [int, int]


def test_parameter_draw_validation():
    cap = g.OffspringCap(1, {(1, 1): 2})
    g.ParameterDraw(cap, {(1, 1): np.array([0.5, 0.25, 0.25])})
    with pytest.raises(ValueError, match="missing law"):
        g.ParameterDraw(cap, {})
    with pytest.raises(ValueError, match="sums to"):
        g.ParameterDraw(cap, {(1, 1): np.array([0.5, 0.2, 0.2])})
    with pytest.raises(ValueError, match="wrong length"):
        g.ParameterDraw(cap, {(1, 1): np.array([0.5, 0.5])})
    with pytest.raises(ValueError, match="forbidden"):
        g.ParameterDraw(g.OffspringCap(2, {(1, 2): 1}),
                        {(1, 2): np.array([1.0, 0.0]), (2, 1): np.array([1.0])})
    # a law is a probability vector or a PoissonLaw, nothing else
    g.ParameterDraw(cap, {(1, 1): g.PoissonLaw(1.5)})
    with pytest.raises(ValueError, match="PoissonLaw"):
        g.ParameterDraw(cap, {(1, 1): 1.5})


def test_life_table_concat_offsets_times():
    a = g.LifeTable(1, 0, {(1, 1, 0, 0): 3})
    b = g.LifeTable(1, 1, {(1, 1, 1, 0): 2, (1, 1, 0, 1): 1})
    c = a.concat(b)
    assert c.horizon == 2
    assert c.counts == {(1, 1, 0, 0): 3, (1, 1, 1, 1): 2, (1, 1, 0, 2): 1}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 50)),
                min_size=1, max_size=20))
def test_aggregate_is_additive_over_concat(entries):
    counts = {}
    for k, t, n in entries:
        counts[(1, 1, k, t)] = counts.get((1, 1, k, t), 0) + n
    table = g.LifeTable(1, 3, counts)
    combined = g.aggregate_counts(table.concat(table))
    single = g.aggregate_counts(table)
    assert combined == {key: 2 * n for key, n in single.items()}
