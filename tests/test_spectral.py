import numpy as np
import pytest

import gwpva as g
from gwpva.datasets import synthetic_true_draw


def test_mean_matrix_of_draw():
    M = g.mean_matrix(synthetic_true_draw())
    assert M == pytest.approx(np.array([[0.75]]))


def test_perron_triple_diagonal():
    tri = g.perron_triple(np.diag([0.3, 2.0, 0.7]))
    assert tri.lam == pytest.approx(2.0, abs=1e-9)
    assert tri.primitive_warning  # diagonal pattern is reducible


def test_perron_triple_known_2x2():
    # M = [[0,2],[0.5,0]] has lambda = 1 with u proportional to (2, 1)
    M = np.array([[0.0, 2.0], [0.5, 0.0]])
    tri = g.perron_triple(M)
    assert tri.lam == pytest.approx(1.0, abs=1e-9)
    assert tri.u == pytest.approx([2 / 3, 1 / 3], abs=1e-8)
    assert tri.primitive_warning  # pure 2-cycle is irreducible but periodic


def test_perron_normalization_and_residual():
    rng = np.random.default_rng(5)
    M = rng.uniform(0.1, 1.0, size=(4, 4))
    tri = g.perron_triple(M)
    assert tri.u.sum() == pytest.approx(1.0)
    assert float(tri.u @ tri.v) == pytest.approx(1.0)
    norm = np.abs(M).sum(axis=1).max()
    assert tri.residual <= 1e-10 * norm
    assert not tri.primitive_warning
    # lambda lies between the min and max row sums
    rows = M.sum(axis=1)
    assert rows.min() - 1e-9 <= tri.lam <= rows.max() + 1e-9


def test_perron_triple_errors():
    with pytest.raises(ValueError, match="zero"):
        g.perron_triple(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        g.perron_triple(np.array([[1.0, -0.1], [0.2, 0.3]]))
    with pytest.raises(ValueError, match="square"):
        g.perron_triple(np.ones((2, 3)))
    # power iteration leaves these with residuals of 0.5, 1e29 and 3e-6:
    # two nilpotent patterns and a period-2 one
    for M in ([[0.0, 1.0], [0.0, 0.0]],
              [[0.0, 0.5, 0.0], [0.0, 0.0, 0.7], [0.0, 0.0, 0.0]],
              [[0.0, 0.0, 0.9225], [0.0, 0.0, 0.0618], [0.533, 0.6949, 0.0]]):
        with pytest.raises(ValueError, match="did not converge"):
            g.perron_triple(np.array(M))


def test_is_primitive():
    assert g.is_primitive(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert not g.is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))  # 2-cycle
    assert g.is_primitive(np.array([[0.5]]))
    assert not g.is_primitive(np.array([[0.0]]))


def test_bear_perron_root_solves_characteristic_polynomial(bear_posterior):
    M = g.posterior_mean_matrix(bear_posterior)
    tri = g.perron_triple(M)
    lam = tri.lam
    p55 = 73 / 77
    fertility = 26 / 88
    survivals = (18 / 22) * (17 / 18) * (13 / 16) * (13 / 14)
    residual = -lam ** 5 + lam ** 4 * p55 + fertility * survivals
    assert abs(residual) <= 1e-9
    assert lam > 1  # posterior-mean dynamics are supercritical
    assert not tri.primitive_warning
