import numpy as np
import pytest

import gwpva as g
from gwpva import spectral
from gwpva.datasets import (bear_cap, bear_life_table, synthetic_cap,
                            synthetic_life_table)
from gwpva.extinction import _coefficient_major, _jacobian_entries, _phi

# acceptance tests register one (criterion, status, detail) line each;
# printed in the terminal summary so the verdicts survive output capture
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: {status} — {detail}")


def dense_mean_matrices(ens):
    """The (n_prec, K, K) dense mean matrices of an ensemble's draws, which
    no answer builds: ``spectral.mean_matrices`` of its laws."""
    return spectral.mean_matrices({p: ens.law(p) for p in ens.pairs}, ens.K)


def dense_pgf(laws, s):
    """phi applied draw-wise to an (n, K) s, ``laws`` being the law stack of
    those n draws: the dense (n, K) view of ``_phi``, which no answer
    takes."""
    return _phi(_coefficient_major(laws), s.T).T


def perron_markov_bound(M, N, ts):
    """The single-draw Markov bound min(1, c_upper lam^t) of a subcritical
    mean matrix M from its Perron pair, c_upper = sum_j u_j N_j / min u,
    which no answer computes: N(t) u / lam^t is a martingale, and
    N M^t 1 <= N M^t u / min u = c_upper lam^t for u > 0."""
    tri = spectral.perron_triple(M)
    c_upper = float(tri.u @ np.asarray(N, dtype=float)) / tri.u.min()
    return np.minimum(1.0, c_upper * tri.lam ** np.asarray(ts, dtype=float))


def dense_pgf_jacobian(laws, s):
    """d phi_i / d s_j draw-wise at an (n, K) s as a dense (n, K, K) stack,
    which no answer builds: the entries of ``_jacobian_entries`` put in
    place."""
    n, K = s.shape
    J = np.zeros((n, K, K))
    for (i, j), col in _jacobian_entries(_coefficient_major(laws), s.T).items():
        J[:, i - 1, j - 1] = col
    return J


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def synthetic_posterior():
    return g.posterior_update(g.prior_noninformative(synthetic_cap()),
                              synthetic_life_table())


@pytest.fixture(scope="session")
def bear_posterior():
    return g.posterior_update(g.prior_noninformative(bear_cap()),
                              bear_life_table())


@pytest.fixture(scope="session")
def bear_ensemble(bear_posterior):
    from gwpva.montecarlo import PosteriorEnsemble
    return PosteriorEnsemble(bear_posterior, n_prec=10_000, master_seed=2024)
