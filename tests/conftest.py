import numpy as np
import pytest

from lllsample.csp import AtomicCSP, AtomicConstraint
from lllsample.projection import ProjectionScheme


def uniform_csp(n, size, constraints):
    return AtomicCSP(
        n=n,
        domains=(size,) * n,
        constraints=tuple(AtomicConstraint(tuple(v), tuple(f)) for v, f in constraints),
    )


def random_instance(gen):
    """A random small instance with mixed alphabets and arities, unary
    constraints included, and a random scheme: some variables collapsed,
    some split into singletons."""
    n = int(gen.integers(2, 7))
    domains = [int(a) for a in gen.integers(2, 5, n)]
    cons = []
    for _ in range(int(gen.integers(1, 2 * n))):
        k = int(gen.integers(1, min(n, 3) + 1))
        vars_ = tuple(int(v) for v in gen.choice(n, size=k, replace=False))
        cons.append(AtomicConstraint(vars_, tuple(int(gen.integers(domains[v])) for v in vars_)))
    csp = AtomicCSP(n=n, domains=tuple(domains), constraints=tuple(cons))
    blocks = []
    for a in domains:
        values = [int(x) for x in gen.permutation(a)]
        cuts = sorted(int(c) for c in gen.choice(np.arange(1, a), size=int(gen.integers(0, a)),
                                                 replace=False))
        blocks.append(tuple(tuple(values[i:j]) for i, j in zip([0] + cuts, cuts + [a])))
    return csp, ProjectionScheme(tuple(blocks))


def star_instance(alphabet, k, delta, n_stars=6):
    """Uniform-alphabet instance with degree exactly delta: disjoint stars of
    delta constraints sharing one hub variable."""
    cons, n = [], 0
    for _ in range(n_stars):
        hub = n
        n += 1
        for _ in range(delta):
            others = tuple(range(n, n + k - 1))
            n += k - 1
            cons.append(((hub, *others), (0,) * k))
    return uniform_csp(n, alphabet, cons)


def random_graph(n, p, rng):
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(w)
                adj[w].add(u)
    return {u: sorted(vs) for u, vs in adj.items()}


def connected_subgraph(adj, size, rng):
    start = int(rng.integers(len(adj)))
    seen = [start]
    frontier = list(adj[start])
    while frontier and len(seen) < size:
        u = frontier.pop(int(rng.integers(len(frontier))))
        if u in seen:
            continue
        seen.append(u)
        frontier.extend(w for w in adj[u] if w not in seen)
    return seen


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
