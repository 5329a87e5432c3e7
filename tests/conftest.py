import numpy as np
import pytest

from lllsample.csp import AtomicCSP, AtomicConstraint
from lllsample.dynamics import Sampler, lift, project_csp, update
from lllsample.projection import ProjectionScheme
from reference import violated_by_partial


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


def rows_at(pcsp, y, v):
    """(unsat, seed) (m, 1) columns of a step at v, from the definition:
    the constraints unsatisfied with v unassigned, and those of them at v."""
    free = list(y)
    free[v] = None
    unsat = np.zeros((pcsp.m, 1), dtype=bool)
    unsat[violated_by_partial(pcsp, free), 0] = True
    return unsat, unsat & np.array([v in c.vars for c in pcsp.constraints], dtype=bool)[:, None]


def conditional_draws(csp, scheme, cfg, v, z, n_draws, seed):
    """n_draws independent chain steps at v from the projected state z (its
    value at v ignored), each through dynamics.update with the rows of
    rows_at, or, with no constraint to seed a component, the block of a
    uniform value of v.  Returns (counts over the projected alphabet of v,
    flag, S2 count): draws that end in S2 are not counted, and an oversized
    component (S1) gives flag "S1" and no counts."""
    rng = np.random.default_rng(seed)
    q = scheme.arrays.q[v]
    unsat, seeds = rows_at(project_csp(csp, scheme), z, v)
    if not seeds.any():
        values = (rng.random(n_draws) * csp.domains[v]).astype(np.int64)
        return np.bincount(scheme.arrays.block_of[v, values], minlength=q), None, 0
    Y, unsat, seeds = (np.repeat(a, n_draws, axis=1) for a in (np.array([z]).T, unsat, seeds))
    new_q, s1, s2, _ = update(csp, scheme, cfg, Y, unsat, seeds, np.full(n_draws, v), rng)
    if s1.any():
        return np.zeros(q, dtype=np.int64), "S1", 0
    return np.bincount(new_q[~s2], minlength=q), None, int(s2.sum())


def lift_draws(csp, scheme, cfg, y, n_draws, seed):
    """n_draws independent lifts of the projected state y through
    dynamics.lift: (dict assignment -> count over the draws without ERROR,
    whether any draw ended in I1, how many ended in I2)."""
    rng = np.random.default_rng(seed)
    Y = np.repeat(np.array([y], dtype=np.int64).T, n_draws, axis=1)
    sampler = Sampler(csp, scheme, cfg.eps, cfg.eta, cfg.c_t)
    sampler.cfg = cfg
    X, errors, _, _ = lift(sampler, Y, rng)
    rows, counts = np.unique(X.T[errors == ""], axis=0, return_counts=True)
    found = dict(zip(map(tuple, rows.tolist()), counts.tolist()))
    return found, bool((errors == "I1").any()), int((errors == "I2").sum())


def random_kcnf_text(seed, n, m, k):
    """m clauses over n variables, each on k distinct variables with random
    signs, as DIMACS CNF: the benchmark's generator (bench/gen.random_kcnf)."""
    rng = np.random.default_rng(seed)
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        variables = rng.choice(n, size=k, replace=False) + 1
        signs = rng.integers(2, size=k)
        lines.append(" ".join(str(int(v)) if s else str(-int(v))
                              for v, s in zip(variables, signs)) + " 0")
    return "\n".join(lines) + "\n"


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


def pinned_hypergraphs():
    """Edge lists that tests 16-colour: "colouring", a random 6-uniform
    hypergraph on 60 vertices, vertices unsorted, its first edge repeated
    last; "tie", two disjoint triples, so the worst A2 lhs is reached by a
    shape of each edge."""
    gen = np.random.default_rng(41)
    edges = [tuple(int(v) for v in gen.choice(60, size=6, replace=False)) for _ in range(20)]
    return {"colouring": edges + [edges[0]], "tie": [(0, 1, 2), (3, 4, 5)]}


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
