from fractions import Fraction

import numpy as np

from lllsample.batch import BatchSampler
from lllsample.bundled import load_bundled
from lllsample.oracle import enumerate_satisfying, tv_empirical
from reference import exact_mu_pi


def test_chain_reaches_stationary_law():
    # run well past the schedule horizon (10x the configured chain length):
    # the empirical projected-state law must sit within 2*eps of the exact
    # pushforward
    eps = 0.1
    for name in ("mark4", "colork4"):
        csp, scheme = load_bundled(name)
        sampler = BatchSampler(csp, scheme, eps, c_t=0.2)
        rng = np.random.default_rng(101)
        Y, s1, s2, _ = sampler.run_chains(3000, rng, steps=10 * sampler.cfg.T)
        counts = {}
        for row in Y:
            key = tuple(int(q) for q in row)
            counts[key] = counts.get(key, 0) + 1
        exact = exact_mu_pi(csp, scheme)
        assert tv_empirical(counts, exact) <= 2 * eps


def test_mu_pi_pullback_marginals():
    # per-variable projected marginals of mu_pi agree with direct statistics
    # over the satisfying set
    for name in ("mark4", "colork4", "mark3"):
        csp, scheme = load_bundled(name)
        mu = exact_mu_pi(csp, scheme)
        sols = enumerate_satisfying(csp)
        assert sum(mu.values()) == 1
        for v in range(csp.n):
            marg = {}
            for y, p in mu.items():
                marg[y[v]] = marg.get(y[v], Fraction(0)) + p
            direct = {}
            for x in sols:
                q = scheme.project_value(v, x[v])
                direct[q] = direct.get(q, 0) + 1
            total = len(sols)
            assert marg == {q: Fraction(c, total) for q, c in direct.items()}
