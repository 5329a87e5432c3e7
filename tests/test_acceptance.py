"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical volume runs through the vectorized many-chain driver, which
shares its component explorer, rejection routine and lift with the scalar
sampler; agreement of the two drivers' sampled laws is covered separately in
test_batch.py.  The conditional and lifting criteria call dynamics.update and
dynamics.lift directly, with each step's constraints taken from their
definition (conftest.rows_at).  All expected distributions come from the
enumeration oracle.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lllsample.batch import BatchSampler
from lllsample.bundled import BUNDLED, tagged
from lllsample.counting import approx_count, counting_eps
from lllsample.csp import degree_stats, evaluate
from lllsample.dynamics import (
    SamplerConfig,
    chain_length,
    component_threshold,
    rejection_budget,
)
from lllsample.oracle import (
    enumerate_satisfying,
    tv_empirical,
    two_tree_count_bound,
)
from lllsample.projection import (
    check_admissibility,
    compute_b,
    construct_projection,
    kappa_for,
)
from lllsample.resample import find_assignment
from conftest import conditional_draws, lift_draws, star_instance, uniform_csp
from reference import (
    count_2trees,
    exact_lift_conditional,
    exact_mu_pi,
    exact_projected_conditional,
    greedy_2tree,
    is_two_tree,
    marginal_bound_holds,
    marginal_prob,
)

EPS = 0.1
SAMPLES_PER_INSTANCE = 20_000  # 2e5 seeded samples across the ten instances
CONDITIONAL_DRAWS = 100_000
LIFT_DRAWS = 100_000


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def uniformity_runs():
    """Criterion-1 sampler runs, shared with the failure-rarity criterion."""
    runs = {}
    for inst in tagged("tv"):
        csp, scheme = inst.load()
        sampler = BatchSampler(csp, scheme, EPS)
        out = sampler.sample(SAMPLES_PER_INSTANCE, seed=20240817)
        sols = enumerate_satisfying(csp)
        exact = {s: Fraction(1, len(sols)) for s in sols}
        counts = {}
        for row in out.assignments[out.ok]:
            key = tuple(int(x) for x in row)
            counts[key] = counts.get(key, 0) + 1
        runs[inst.name] = {
            "tv": tv_empirical(counts, exact),
            "errors": int((~out.ok).sum()),
            "touched": int(out.touched.sum()),
            "n_samples": SAMPLES_PER_INSTANCE,
        }
    return runs


def test_criterion_1_uniformity(uniformity_runs):
    worst = max(r["tv"] for r in uniformity_runs.values())
    detail = "; ".join(f"{k}:{v['tv']:.3f}" for k, v in uniformity_runs.items())
    report(1, "uniformity TV <= 0.1 + 0.02 on 10 bundled instances",
           len(uniformity_runs) == 10 and worst <= 0.12, detail)


def _feasible_conditionals(csp, scheme):
    """(v, z, exact conditional) for every projected partial state of positive
    measure, from a single enumeration pass."""
    mu = exact_mu_pi(csp, scheme)
    out = []
    for v in range(csp.n):
        groups = {}
        for y, p in mu.items():
            z = y[:v] + (0,) + y[v + 1 :]
            groups.setdefault(z, {}).setdefault(y[v], Fraction(0))
            groups[z][y[v]] += p
        for z, dist in groups.items():
            total = sum(dist.values())
            out.append((v, z, {q: p / total for q, p in dist.items()}))
    return out


def test_criterion_2_conditional_exactness():
    worst, pairs = 0.0, 0
    for inst in tagged("conditional"):
        csp, scheme = inst.load()
        cfg = SamplerConfig.derive(csp, scheme, EPS)
        conditionals = _feasible_conditionals(csp, scheme)
        # the grouped table must agree with the direct conditional oracle
        v0, z0, dist0 = conditionals[0]
        assert exact_projected_conditional(csp, scheme, v0, z0) == dist0
        for v, z, exact in conditionals:
            counts, flag, s2 = conditional_draws(
                csp, scheme, cfg, v, z, CONDITIONAL_DRAWS, seed=[1, pairs]
            )
            if flag == "S1":
                continue  # failing branch, excluded by the criterion
            good = int(counts.sum())
            assert good >= CONDITIONAL_DRAWS - s2
            tv = tv_empirical({q: int(c) for q, c in enumerate(counts)}, exact)
            worst = max(worst, tv)
            pairs += 1
    report(2, "single-site conditional matches oracle (TV <= 0.01)",
           pairs > 0 and worst <= 0.01, f"{pairs} (v,z) pairs, worst TV {worst:.4f}")


def test_criterion_3_lifting_exactness():
    worst, states = 0.0, 0
    for inst in tagged("lift"):
        csp, scheme = inst.load()
        cfg = SamplerConfig.derive(csp, scheme, EPS)
        for y in exact_mu_pi(csp, scheme):
            exact = exact_lift_conditional(csp, scheme, y)
            counts, i1, i2 = lift_draws(csp, scheme, cfg, y, LIFT_DRAWS, seed=[2, states])
            if i1:
                continue  # failing branch, excluded by the criterion
            tv = tv_empirical(counts, exact)
            worst = max(worst, tv)
            states += 1
    report(3, "lifting matches oracle conditional (TV <= 0.01)",
           states > 0 and worst <= 0.01, f"{states} projected states, worst TV {worst:.4f}")


def _regime_3cnf(n, m, rng):
    """Random 3-CNF with every clause overlapping at most one other clause
    (degree <= 2), inside e*p*Delta <= 1 for p = 1/8."""
    cons = []
    vars_pool = list(range(n))
    rng.shuffle(vars_pool)
    idx = 0
    while len(cons) < m and idx + 3 <= n:
        trio = tuple(sorted(vars_pool[idx : idx + 3]))
        idx += 3
        forb = tuple(int(b) for b in rng.integers(0, 2, 3))
        cons.append((trio, forb))
        if len(cons) < m and rng.random() < 0.5 and idx + 2 <= n:
            # partner clause sharing one variable
            shared = trio[int(rng.integers(3))]
            pair = (shared, vars_pool[idx], vars_pool[idx + 1])
            idx += 2
            cons.append((tuple(sorted(pair)), tuple(int(b) for b in rng.integers(0, 2, 3))))
    return uniform_csp(n, 2, cons)


def test_criterion_4_resampling_solver():
    rng = np.random.default_rng(4)
    successes = 0
    for trial in range(100):
        n = int(rng.integers(30, 201))
        m = int(rng.integers(2, max(3, n // 8)))
        csp = _regime_3cnf(n, m, rng)
        delta_deg, _, _ = degree_stats(csp)
        assert math.e * (1 / 8) * delta_deg <= 1.0
        result = find_assignment(csp, np.random.default_rng([4, trial]), delta=0.01)
        if result.success and evaluate(csp, result.values) == []:
            successes += 1
    report(4, "resampling solver on 100 in-regime random 3-CNF", successes == 100,
           f"{successes}/100")


def test_criterion_5_projection_constructions():
    # cube-root bucketing at the pinned desk parameters: construction always
    # succeeds, preimage marginals obey the sandwich exactly, comparability
    # (A3) holds; the computed (A1)/(A2) margins stay infeasible at this scale
    # for any scheme (the product of per-variable marginals alone exceeds the
    # (60000*Delta)^-2 target), which the report must state truthfully
    ok_pairs = True
    for a, k, d in [(64, 3, 5), (256, 4, 8)]:
        csp = star_instance(a, k, d)
        delta_deg, _, _ = degree_stats(csp)
        assert delta_deg == d
        for seed in range(100):
            scheme = construct_projection(csp, eta=0.4, case_hint="case1", seed=seed)
            rep = check_admissibility(csp, scheme, eta=0.4)
            lo, hi = 1 / (1.5 * a ** (2 / 3)), 1.5 / a ** (2 / 3)
            sandwich = all(
                lo <= len(block) / a <= hi for vb in scheme.blocks for block in vb
            )
            infeasible_floor = (1.0 / a) ** k > rep.a2_rhs
            ok_pairs &= (
                sandwich
                and rep.a3_pass
                and rep.a4_pass
                and not rep.a1_pass
                and not rep.a2_pass
                and infeasible_floor
            )
    # randomized marking / one-two partition constructions at arities where
    # the numeric conditions are satisfiable: A1-A3 must pass >= 99/100
    case2 = uniform_csp(160, 2, [(tuple(range(160)), (0,) * 160)])
    case3 = uniform_csp(130, 3, [(tuple(range(130)), (0,) * 130)])
    passes = {"case2": 0, "case3": 0}
    for seed in range(100):
        for name, csp in (("case2", case2), ("case3", case3)):
            scheme = construct_projection(csp, eta=0.4, delta=0.01, seed=seed)
            assert scheme.case == name
            rep = check_admissibility(csp, scheme, eta=0.4)
            passes[name] += rep.a1_pass and rep.a2_pass and rep.a3_pass
    report(5, "projection constructions",
           ok_pairs and passes["case2"] >= 99 and passes["case3"] >= 99,
           f"case1 structure+sandwich+A3 ok={ok_pairs}, "
           f"case2 A1-A3 {passes['case2']}/100, case3 A1-A3 {passes['case3']}/100")


def test_criterion_6_schedule_formulas():
    checks = []
    # chain length at the documented arithmetic point
    checks.append(chain_length(20.0, 10, 5, 0.5) == math.ceil(200 * math.log(100)))
    checks.append(chain_length(20.0, 10, 5, 0.5) == 922)
    # rejection budget
    lhs = rejection_budget(137.0, 6, 0.1, 0.25)
    rhs = math.ceil(10.0 * (137.0 * 6 / 0.1) ** 0.25 * math.log(6 * 137.0 / 0.1))
    checks.append(lhs == rhs)
    # component threshold to 1e-9
    checks.append(
        abs(component_threshold(3, 6, 137.0, 0.1) - 20 * 3 * math.log(6 * 137.0 / 0.1))
        <= 1e-9
    )
    # case-1 kappa
    kappa = kappa_for("case1", 100, 64, 3)
    checks.append(abs(kappa - 12 * math.log(3000 * 164)) <= 1e-9)
    checks.append(abs(kappa - 157.27480794569334) <= 1e-9)
    # per-stage counting accuracy
    eps = counting_eps(100, 0.1)
    checks.append(abs(eps - 0.01 / (8 * 100 * math.log(100 / 0.1))) <= 1e-15)
    checks.append(abs(eps - 1.8096e-6) <= 1e-10 * 1e4)
    report(6, "schedule formulas equal independent evaluation", all(checks),
           f"{sum(checks)}/{len(checks)} identities")


def test_criterion_7_failure_rarity(uniformity_runs):
    total = sum(r["n_samples"] for r in uniformity_runs.values())
    touched = sum(r["touched"] + r["errors"] for r in uniformity_runs.values())
    frac = touched / total
    report(7, "S1/S2/I1/I2 failure frequency <= 1%", frac <= 0.01,
           f"{touched}/{total} = {frac:.5f}")


def test_criterion_8_two_tree_bounds():
    from conftest import connected_subgraph, random_graph

    rng = np.random.default_rng(8)
    bound_ok = True
    for _ in range(50):
        graph = random_graph(int(rng.integers(4, 13)), float(rng.uniform(0.15, 0.5)), rng)
        delta = max((len(vs) for vs in graph.values()), default=0)
        root = int(rng.integers(len(graph)))
        for ell in (2, 3, 4, 5):
            bound_ok &= count_2trees(graph, root, ell) <= two_tree_count_bound(delta, ell)
    greedy_ok, built = True, 0
    while built < 100:
        graph = random_graph(int(rng.integers(4, 13)), float(rng.uniform(0.2, 0.5)), rng)
        delta = max((len(vs) for vs in graph.values()), default=0)
        sub = connected_subgraph(graph, int(rng.integers(2, 10)), rng)
        if len(sub) < 2:
            continue
        built += 1
        tree = greedy_2tree(graph, sub, sub[0])
        greedy_ok &= is_two_tree(graph, tree) and len(tree) >= len(sub) / (delta + 1)
    report(8, "two-tree count bound and greedy lower bound", bound_ok and greedy_ok,
           f"50 count graphs (ell 2..5), {built} greedy subgraphs")


def test_criterion_9_counting():
    results = {}
    ok = True
    for inst in tagged("counting"):
        csp, scheme = inst.load()
        truth = len(enumerate_satisfying(csp))
        hits = 0
        for seed in range(50):
            est = approx_count(csp, scheme, 0.2, seed=seed)
            if truth / 1.2 <= est.estimate <= truth * 1.2:
                hits += 1
        results[inst.name] = hits
        ok &= hits >= 45  # >= 90 percent of 50 seeded trials
    detail = "; ".join(f"{k}:{v}/50" for k, v in results.items())
    report(9, "approximate counts within (1+delta) in >= 90% of trials",
           ok and len(results) == 10, detail)


def test_criterion_10_marginal_bound():
    checked, ok = 0, True
    for inst in tagged("regime"):
        csp, scheme = inst.load()
        qs = scheme.q_sizes()
        for v in range(csp.n):
            for z in product(*(range(q) for q in qs)):
                try:
                    holds = marginal_bound_holds(csp, scheme, v, z)
                except ValueError:
                    continue  # infeasible conditioning event
                checked += 1
                ok &= holds
    report(10, "conditional-marginal upper bound on regime instances",
           ok and checked > 0, f"{checked} (v,z) pairs")
