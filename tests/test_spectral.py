import numpy as np
import pytest

import gwpva as g
from gwpva import spectral
from gwpva.datasets import synthetic_true_draw

from conftest import dense_mean_matrices


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
    # two nilpotent patterns and a defective Perron root (a Jordan block):
    # u and v are orthogonal, so v, and with it the residual, is not finite
    for M in ([[0.0, 1.0], [0.0, 0.0]],
              [[0.0, 0.5, 0.0], [0.0, 0.0, 0.7], [0.0, 0.0, 0.0]],
              [[1.0, 1.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="did not converge"):
            g.perron_triple(np.array(M))


def test_perron_triple_takes_a_tiny_matrix():
    # a root of 1e-300 is a root, not a nilpotent pattern
    tri = g.perron_triple(np.diag([1e-300, 1e-300]))
    assert tri.lam == pytest.approx(1e-300, rel=1e-15, abs=0)
    assert tri.u.sum() == 1.0 and float(tri.u @ tri.v) == 1.0


def test_perron_triple_takes_a_periodic_matrix():
    # eigenvalues lambda, -lambda and 0: the root is the largest modulus,
    # and the pair that of +lambda
    M = np.array([[0.0, 0.0, 0.9225], [0.0, 0.0, 0.0618], [0.533, 0.6949, 0.0]])
    tri = g.perron_triple(M)
    assert tri.lam == pytest.approx(np.abs(np.linalg.eigvals(M)).max(), rel=1e-14)
    assert tri.lam == pytest.approx(0.7311889769409821, rel=1e-14)
    assert tri.primitive_warning and tri.residual <= 1e-9


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


def test_mean_matrices_prefix_invariant_for_wide_laws():
    # a law with 10 categories: a BLAS matrix-vector product may sum a row in
    # an order that depends on the row's place in the stack
    from gwpva.montecarlo import PosteriorEnsemble

    prior = g.prior_noninformative(g.OffspringCap(1, {(1, 1): 9}))
    full = dense_mean_matrices(PosteriorEnsemble(prior, n_prec=1200, master_seed=5))
    for n in range(1, 60):
        part = dense_mean_matrices(PosteriorEnsemble(prior, n_prec=n, master_seed=5))
        assert np.array_equal(part, full[:n]), n


def test_pair_means_equal_a_per_pair_loop(bear_posterior, synthetic_posterior):
    # the oracle sums each pair's mean draw by draw, term by term in k, in
    # Python floats; mean_matrices holds those bits at (i, j) and 0 elsewhere
    from gwpva.montecarlo import PosteriorEnsemble

    cap = g.OffspringCap(2, {(1, 1): 3, (1, 2): 2, (2, 1): 1, (2, 2): 4})
    tiny = g.PosteriorParams(cap, {p: np.full(k + 1, 1e-3) for p, k in cap.kappa.items()})
    stacks = [PosteriorEnsemble(post, n_prec=2000, master_seed=seed)._laws
              for post, seed in ((bear_posterior, 2024), (synthetic_posterior, 7), (tiny, 5))]
    rng = np.random.default_rng(3)
    stacks.append({(1, 1): rng.uniform(0.0, 3.0, 50),
                   (2, 1): rng.dirichlet(np.ones(4), 50)})  # a Poisson and a categorical pair
    for laws in stacks:
        K = max(max(pair) for pair in laws)
        means = spectral.pair_means(laws)
        M = spectral.mean_matrices(laws, K)
        assert list(means) == list(laws)
        present = np.zeros((K, K), dtype=bool)
        for (i, j), d in laws.items():
            if d.ndim == 1:
                want = [float(rate) for rate in d]
            else:
                want = []
                for row in d:
                    acc = 0.0
                    for k in range(1, len(row)):
                        acc = acc + k * float(row[k])
                    want.append(acc)
            want = np.array(want)
            assert means[(i, j)].tobytes() == want.tobytes(), (i, j)
            assert M[:, i - 1, j - 1].tobytes() == want.tobytes(), (i, j)
            present[i - 1, j - 1] = True
        assert not M[:, ~present].any()


def _scipy_perron(M):
    """Perron root and pair of M from SciPy's eigensolver with left vectors,
    at the eigenvalue of largest real part, which for a nonnegative matrix
    is the spectral radius: u sums to 1 and u.v = 1. None for a nilpotent
    M, which has no Perron pair."""
    from scipy import linalg

    w, left, right = linalg.eig(M, left=True)
    k = np.argmax(w.real)
    if w[k].real <= 1e-12 * M.sum(axis=1).max():
        return None
    u = np.abs(right[:, k])
    u /= u.sum()
    v = np.abs(left[:, k])
    return w[k].real, u, v / (u @ v)


def test_perron_triple_matches_scipy(bear_ensemble):
    rng = np.random.default_rng(17)
    stacks = []
    for K in range(1, 6):
        sparse = rng.uniform(size=(300, K, K)) < 0.5
        stacks.append(rng.uniform(0.0, 2.0, size=(300, K, K)) * sparse)
    period_two = np.zeros((200, 3, 3))  # {1, 2} -> 3 -> {1, 2}: roots lambda and -lambda
    period_two[:, [0, 1, 2, 2], [2, 2, 0, 1]] = rng.uniform(0.1, 2.0, size=(200, 4))
    stacks += [dense_mean_matrices(bear_ensemble)[::50], period_two,
               np.array([[[0.0, 1.5, 0.0], [0.0, 0.0, 0.8], [0.6, 0.0, 0.0]]])]  # period 3
    compared = 0
    for M in stacks:
        for A in M:
            want = _scipy_perron(A)
            if want is None:
                with pytest.raises(ValueError):
                    g.perron_triple(A)
                continue
            lam, u, v = want
            tri = g.perron_triple(A)
            assert tri.lam == pytest.approx(lam, rel=1e-13, abs=0)
            np.testing.assert_allclose(tri.u, u, rtol=0, atol=1e-10)
            np.testing.assert_allclose(tri.v, v, rtol=0, atol=1e-10)
            assert float(tri.u @ tri.v) == pytest.approx(1.0, rel=1e-14)
            compared += 1
    assert compared > 1500


def test_lambdas_at_one_type_are_the_means(synthetic_posterior, monkeypatch):
    # a 1 x 1 matrix is its own eigenvalue, the bits LAPACK gives it, and
    # perron_triple's root; the ensemble reads it off with no LAPACK call
    from gwpva.montecarlo import PosteriorEnsemble

    ens = PosteriorEnsemble(synthetic_posterior, n_prec=2000, master_seed=7)
    means = ens.pair_means[(1, 1)]
    assert np.abs(np.linalg.eigvals(means[:, None, None]))[:, 0].tobytes() == means.tobytes()
    assert all(spectral.perron_triple(np.array([[m]])).lam == m for m in means[::97])
    monkeypatch.setattr(np.linalg, "eigvals", None)
    assert ens.lambdas.tobytes() == means.tobytes()
