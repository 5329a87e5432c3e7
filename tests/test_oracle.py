import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lllsample.bundled import BUNDLED, load_bundled
from lllsample.csp import build_coloring_csp, parse_dimacs
from lllsample.oracle import (
    EnumerationGuard,
    count_satisfying,
    enumerate_satisfying,
    tv_empirical,
    two_tree_count_bound,
)
from lllsample.projection import ProjectionScheme, full_marking_scheme, identity_scheme
from conftest import random_graph, connected_subgraph, uniform_csp
from reference import (
    all_pairs_distances,
    count_2trees,
    count_2trees_backtracking,
    exact_lift_conditional,
    exact_mu_pi,
    exact_projected_conditional,
    greedy_2tree,
    is_two_tree,
    marginal_bound_holds,
)


def test_enumerate_examples():
    csp = parse_dimacs("p cnf 2 1\n1 2 0")
    assert enumerate_satisfying(csp) == [(0, 1), (1, 0), (1, 1)]
    free = uniform_csp(2, 2, [])
    assert len(enumerate_satisfying(free)) == 4
    triangle = build_coloring_csp([(0, 1), (1, 2), (0, 2)], q=2)
    assert count_satisfying(triangle) == 0


def test_enumeration_guard():
    big = uniform_csp(25, 2, [])
    with pytest.raises(EnumerationGuard):
        enumerate_satisfying(big)


def test_exact_mu_pi():
    csp = parse_dimacs("p cnf 2 1\n1 2 0")
    ident = exact_mu_pi(csp, identity_scheme(csp))
    assert ident == {s: Fraction(1, 3) for s in [(0, 1), (1, 0), (1, 1)]}
    marked = exact_mu_pi(csp, full_marking_scheme(csp))
    assert marked == {(0, 0): Fraction(1)}
    assert sum(marked.values()) == 1


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_counts_and_projected_laws(name):
    inst = BUNDLED[name]
    csp, scheme = inst.load()
    assert count_satisfying(csp) == inst.solutions
    assert sum(exact_mu_pi(csp, scheme).values()) == 1


def test_exact_projected_conditional():
    free = uniform_csp(1, 4, [])
    equal = ProjectionScheme((((0, 1), (2, 3)),))
    assert exact_projected_conditional(free, equal, 0, (0,)) == {
        0: Fraction(1, 2),
        1: Fraction(1, 2),
    }
    skew = ProjectionScheme((((0, 1, 2), (3,)),))
    assert exact_projected_conditional(free, skew, 0, (0,)) == {
        0: Fraction(3, 4),
        1: Fraction(1, 4),
    }
    csp, scheme = load_bundled("tri3m")
    with pytest.raises(ValueError):
        exact_projected_conditional(csp, scheme, 0, (0, 0, 0))  # infeasible event


def test_marginal_bound_on_regime_instances():
    for name in ("and2", "hyp1e"):
        csp, scheme = load_bundled(name)
        qs = scheme.q_sizes()
        for v in range(csp.n):
            for z in product(*(range(q) for q in qs)):
                try:
                    assert marginal_bound_holds(csp, scheme, v, z)
                except ValueError:
                    continue


def test_exact_lift_conditional():
    csp, scheme = load_bundled("mark3")
    dist = exact_lift_conditional(csp, scheme, (0, 0, 0))
    # x0=0, x1=0 fixed by identity blocks; x2 free except the all-zero row
    assert dist == {(0, 0, 1): Fraction(1)}
    dist2 = exact_lift_conditional(csp, scheme, (1, 0, 0))
    assert set(dist2) == {(1, 0, 0), (1, 0, 1)}


def test_tv_empirical_examples():
    exact = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert tv_empirical({0: 5, 1: 5}, exact) == 0.0
    uniform4 = {i: Fraction(1, 4) for i in range(4)}
    assert tv_empirical({0: 10}, uniform4) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        tv_empirical({}, exact)


def test_tv_concentration_three_point(rng):
    probs = [0.5, 0.3, 0.2]
    exact = {i: Fraction(p).limit_denominator() for i, p in enumerate(probs)}
    bad = 0
    for _ in range(100):
        draws = rng.choice(3, size=100_000, p=probs)
        counts = {i: int((draws == i).sum()) for i in range(3)}
        if tv_empirical(counts, exact) > 0.01:
            bad += 1
    assert bad <= 1  # <= 1% failures expected at this sample size


def _path(k):
    return {i: [j for j in (i - 1, i + 1) if 0 <= j < k] for i in range(k)}


def test_two_tree_predicate_and_counts():
    path3 = _path(3)
    assert count_2trees(path3, 0, 1) == 1
    assert count_2trees(path3, 0, 2) == 1  # {0, 2}
    assert is_two_tree(path3, [0, 2])
    assert not is_two_tree(path3, [0, 1])
    path5 = _path(5)
    # pairs need distance exactly 2 to stay connected after the closure
    assert count_2trees(path5, 0, 2) == 1  # {0,2}
    assert count_2trees(path5, 0, 3) == 1  # {0,2,4}


def test_two_tree_counts_match_backtracking(rng):
    for _ in range(12):
        graph = random_graph(int(rng.integers(4, 11)), 0.3, rng)
        root = 0
        for ell in (2, 3, 4):
            assert count_2trees(graph, root, ell) == count_2trees_backtracking(
                graph, root, ell
            )


def test_two_tree_count_bound(rng):
    for _ in range(20):
        graph = random_graph(int(rng.integers(4, 12)), 0.35, rng)
        delta = max((len(vs) for vs in graph.values()), default=0)
        for ell in (2, 3, 4, 5):
            assert count_2trees(graph, 0, ell) <= two_tree_count_bound(delta, ell)


def test_greedy_2tree_examples():
    single = {0: []}
    assert greedy_2tree(single, [0], 0) == [0]
    star = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
    tree = greedy_2tree(star, [0, 1, 2, 3], 0)
    assert tree == [0] and len(tree) >= 4 / 4
    path7 = _path(7)
    tree = greedy_2tree(path7, list(range(7)), 0)
    assert is_two_tree(path7, tree)
    assert len(tree) >= 7 / 3


def test_greedy_2tree_random_subgraphs(rng):
    done = 0
    while done < 25:
        graph = random_graph(int(rng.integers(5, 12)), 0.35, rng)
        delta = max((len(vs) for vs in graph.values()), default=0)
        sub = connected_subgraph(graph, int(rng.integers(2, 8)), rng)
        if len(sub) < 2:
            continue
        done += 1
        root = sub[0]
        tree = greedy_2tree(graph, sub, root)
        assert root in tree and set(tree) <= set(sub)
        assert is_two_tree(graph, tree)
        assert len(tree) >= len(sub) / (delta + 1)


def test_all_pairs_distances_helper():
    dist = all_pairs_distances(_path(4))
    assert dist[0][3] == 3 and dist[1][2] == 1
