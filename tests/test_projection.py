import hashlib
import json
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lllsample.csp import (
    AtomicConstraint,
    AtomicCSP,
    CSPError,
    ParseError,
    build_coloring_csp,
    degree_stats,
    evaluate,
)
import lllsample.dynamics as dynamics
from lllsample.batch import BatchSampler
from lllsample.bundled import BUNDLED, load_bundled
from lllsample.counting import approx_count
from lllsample.dynamics import main_sample, project_csp
from lllsample.projection import (
    AdmissibilityError,
    ConstructionError,
    ProjectionScheme,
    RegimeError,
    bucket_count,
    check_admissibility,
    choose_case,
    compute_b,
    construct_projection,
    full_marking_scheme,
    identity_scheme,
    kappa_for,
    scheme_kappa,
    zeta_values,
    _SHAPES,
    _WINDOWS,
    _floor_pow_2_3,
    _partitions,
)
from conftest import pinned_hypergraphs, random_instance, star_instance, uniform_csp


def test_scheme_validation():
    ProjectionScheme((((0,), (1,)), ((0, 1),)))
    with pytest.raises(CSPError):
        ProjectionScheme((((0,), (0, 1)),))  # value in two blocks
    with pytest.raises(CSPError):
        ProjectionScheme((((0,), (2,)),))  # gap
    with pytest.raises(CSPError):
        ProjectionScheme((((0,), ()),))  # empty block


def test_scheme_from_lists_and_repeats():
    # partitions are checked once each, keyed on a hashable form: blocks given
    # as lists, as unsorted tuples, or repeated over variables build the same
    # scheme as tuples of sorted tuples, equal and of equal hash
    part = ((0, 3), (1,), (2, 4))
    expect = ProjectionScheme((part, ((0,), (1,), (2,), (3,), (4,)), part, part))
    assert expect.block_of == ((0, 1, 2, 0, 2), (0, 1, 2, 3, 4), (0, 1, 2, 0, 2), (0, 1, 2, 0, 2))
    assert expect.size_of == ((2, 1, 2, 2, 2), (1,) * 5, (2, 1, 2, 2, 2), (2, 1, 2, 2, 2))
    as_lists = ProjectionScheme([[[3, 0], [1], [4, 2]], [[0], [1], [2], [3], [4]],
                                 [[0, 3], [1], [2, 4]], [list(b) for b in part]])
    reversed_blocks = ProjectionScheme(tuple(tuple(b[::-1] for b in p) for p in expect.blocks))
    for scheme in (as_lists, reversed_blocks):
        assert scheme.blocks == expect.blocks and scheme.block_of == expect.block_of
        assert scheme.size_of == expect.size_of
        assert scheme == expect and hash(scheme) == hash(expect)
    many = ProjectionScheme([[list(b) for b in part] for _ in range(50)])
    assert many == ProjectionScheme((part,) * 50) and many.block_of == (expect.block_of[0],) * 50


@pytest.mark.parametrize("bad, message", [
    (((0,), (0, 1)), "variable 3: value 0 in two blocks"),
    (((0,), (2,)), "variable 3: blocks do not partition 0..1"),
    (((0, 1), ()), "variable 3 has an empty block"),
])
def test_scheme_error_names_the_first_bad_variable(bad, message):
    # a malformed partition repeated at variables 3 and 7 is reported at 3,
    # given as tuples or as lists
    for form in (tuple, list):
        blocks = [((0,), (1,))] * 10
        blocks[3] = blocks[7] = form(form(b) for b in bad)
        with pytest.raises(CSPError, match=f"^{message}$"):
            ProjectionScheme(tuple(blocks))


def test_project_and_preimage():
    csp = uniform_csp(2, 4, [((0, 1), (0, 0))])
    ident = identity_scheme(csp)
    assert ident.project((3, 1)) == (3, 1)
    marking = full_marking_scheme(csp)
    assert marking.project((3, 1)) == (0, 0)
    blocks16 = tuple(tuple(range(j, j + 4)) for j in range(0, 64, 4))
    case1 = ProjectionScheme((blocks16,) * 3)
    # contiguous blocks of 4: value 5 sits in block 1
    assert case1.project_value(0, 5) == 1


def test_compute_b_examples():
    csp = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    assert compute_b(csp, identity_scheme(csp))[0] == 1
    k5 = uniform_csp(5, 2, [((0, 1, 2, 3, 4), (0,) * 5)])
    assert compute_b(k5, full_marking_scheme(k5))[0] == Fraction(1, 32)
    case1 = star_instance(64, 3, 1, n_stars=1)
    scheme = construct_projection(case1, case_hint="case1", seed=0)
    b, per = compute_b(case1, scheme)
    assert b == Fraction(1, 64)  # blocks of 4, arity 3
    assert all(v == Fraction(1, 64) for v in per)
    with pytest.raises(CSPError):
        compute_b(uniform_csp(2, 2, []), ProjectionScheme((((0, 1),),)))


def test_b_consistency_property():
    csp = star_instance(4, 3, 2, n_stars=2)
    scheme = construct_projection(csp, case_hint="case4", seed=1)
    b, per = compute_b(csp, scheme)
    for c, bc in zip(csp.constraints, per):
        direct = Fraction(1)
        for v, f in zip(c.vars, c.forbidden):
            direct /= scheme.block_size(v, scheme.project_value(v, f))
        assert bc == direct
        assert b >= bc


def test_zeta_kappa():
    # empty multi-block set floors zeta at 1; a scheme without kappa takes
    # the generic formula at Delta=1, A=2, k=3
    csp = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    assert zeta_values(csp, full_marking_scheme(csp)) == [1.0]
    assert scheme_kappa(csp, full_marking_scheme(csp)) == kappa_for(None, 1, 2, 3)
    # ceiling 2*Delta binds on the case-1 example
    case1 = star_instance(64, 3, 5)
    scheme = construct_projection(case1, case_hint="case1", seed=0)
    zetas = zeta_values(case1, scheme)
    assert all(z <= min(1.5 * 64 ** (2 / 3), 10.0) for z in zetas)
    # kappa arithmetic: case 1 with Delta=100, A=64
    assert kappa_for("case1", 100, 64, 3) == pytest.approx(12 * math.log(3000 * 164))
    assert kappa_for("case1", 100, 64, 3) == pytest.approx(157.2747, abs=5e-4)


def test_scheme_kappa_overrides_the_case_formula():
    # a scheme's own kappa is the one the sampler and the report use; without
    # one both use kappa_for of the scheme's case
    csp, scheme = load_bundled("mark4")
    delta, k, _ = degree_stats(csp)
    formula = kappa_for(scheme.case, delta, max(csp.domains), k)
    payload = json.loads(scheme.to_json())
    own = ProjectionScheme.from_json(json.dumps({**payload, "kappa": formula + 7.5}))
    for s, kappa in [(scheme, formula), (own, formula + 7.5)]:
        assert scheme_kappa(csp, s) == kappa
        assert dynamics.SamplerConfig.derive(csp, s, 0.1).kappa == kappa
        assert check_admissibility(csp, s, 0.25).kappa == kappa


def test_check_admissibility_identity_fails_a1():
    csp = star_instance(2, 2, 10, n_stars=1)
    assert degree_stats(csp)[0] == 10
    report = check_admissibility(csp, identity_scheme(csp), eta=0.1)
    assert not report.a1_pass
    assert report.b == 1.0
    assert report.a1_bound == pytest.approx(0.1 / 3000)


def test_check_admissibility_full_marking_a2_vacuous():
    csp = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    report = check_admissibility(csp, full_marking_scheme(csp), eta=0.25)
    assert report.a2_pass and report.a2_worst_lhs == 0.0


@pytest.mark.parametrize("delta", [5, 300, 600])
def test_check_admissibility_a2_past_float_range(delta):
    # b = 1/4: the factor (1-3b)^-Delta = 4^Delta of A2 leaves the float
    # range past Delta = 511 and the left-hand side well before; such a
    # left-hand side reads inf and fails instead of raising
    csp = star_instance(4, 2, delta, n_stars=1)
    scheme = ProjectionScheme((((0, 1), (2, 3)),) * csp.n)
    report = check_admissibility(csp, scheme, eta=0.25)
    assert report.b == 0.25 and report.delta_deg == delta and not report.a2_pass
    if delta == 5:
        # direct evaluation: both variables of every constraint have two
        # blocks and sit in the forbidden one with probability 1/2
        zeta = zeta_values(csp, scheme)[0]
        term = 4.0**delta * 0.5 + math.exp(-report.kappa / 3)
        expect = 2**2 * report.kappa**2 * zeta * term**2
        assert report.a2_worst_lhs == pytest.approx(expect, rel=1e-12)
    else:
        assert report.a2_worst_lhs == math.inf
        assert report.to_dict()["a2"]["worst_lhs"] is None


def test_check_admissibility_case1_margins():
    # frozen from direct evaluation of the three inequalities: at this desk
    # scale the (A1)/(A2) bounds cannot hold (prod of marginals over a
    # constraint already exceeds the (60000*Delta)^-2 target), while the
    # factor-2 comparability (A3) does
    csp = star_instance(256, 4, 8)
    scheme = construct_projection(csp, eta=0.4, case_hint="case1", seed=0)
    report = check_admissibility(csp, scheme, eta=0.4)
    assert not report.a1_pass and report.b == pytest.approx((1 / 6) ** 4)
    assert not report.a2_pass
    assert (1.0 / 256) ** 4 > report.a2_rhs  # infeasible for any scheme
    assert report.a3_pass and report.a4_pass


def _admissibility_reference(csp, scheme, eta):
    """check_admissibility's to_dict(), computed with the product-measure
    marginals as exact Fractions block size / |A_v|."""
    delta, k, _ = degree_stats(csp)
    kappa = scheme.kappa or kappa_for(scheme.case, delta, max(csp.domains), k)
    b_per = []
    for c in csp.constraints:
        value = Fraction(1)
        for v, f in zip(c.vars, c.forbidden):
            value /= scheme.block_size(v, scheme.project_value(v, f))
        b_per.append(value)
    b_frac = max(b_per)
    b = float(b_frac)

    def prob(v, c):
        return Fraction(scheme.block_size(v, scheme.project_value(v, c.forbidden_at(v))),
                        csp.domains[v])

    overlap = [[v for v in c.vars if len(scheme.blocks[v]) > 1] for c in csp.constraints]
    shrink = (1 - 3 * b) ** delta if b < 1 / 3 else 0.0
    zetas = [max([1.0] + [min(shrink / float(prob(v, c)) if shrink else math.inf, 2.0 * delta)
                          for v in ov]) for c, ov in zip(csp.constraints, overlap)]
    log_inflate = -delta * math.log1p(-3 * b) if b < 1 / 3 else math.inf
    tail = math.exp(-kappa / 3 - log_inflate)
    lhs = []
    for c, ov, zeta in zip(csp.constraints, overlap, zetas):
        logs = [math.log(len(ov) ** 2 * kappa**2 * zeta)] if ov else []
        logs += [log_inflate + math.log(float(prob(v, c)) + tail) for v in ov]
        try:
            lhs.append(math.exp(math.fsum(logs)) if ov else 0.0)
        except OverflowError:
            lhs.append(math.inf)
    worst = max(lhs)
    ratios = [1.0]
    for v in range(csp.n):
        probs = {prob(v, csp.constraints[cid]) for cid in csp.dep_index[v]}
        if probs:
            ratios.append(float(max(probs) / min(probs)))
    a1 = b_frac <= Fraction(eta) / (300 * delta)
    a2_rhs = (60000.0 * delta) ** -2
    finite = lambda x: x if math.isfinite(x) else None
    return {
        "eta": eta, "kappa": kappa, "delta": delta, "b": b,
        "a1": {"pass": a1, "b": b, "bound": eta / (300.0 * delta)},
        "a2": {"pass": worst <= a2_rhs, "worst_lhs": finite(worst), "rhs": a2_rhs,
               "worst_constraint": lhs.index(worst) if worst > 0 else None},
        "a3": {"pass": max(ratios) <= 2.0, "worst_ratio": max(ratios)},
        "a4": {"pass": True},
        "zeta": [finite(z) for z in zetas],
        "admissible": a1 and worst <= a2_rhs and max(ratios) <= 2.0,
        "notes": [f"outside e*b*Delta<=1 regime (={math.e * b * delta:.4g})"]
        if math.e * b * delta > 1.0 else [],
    }


def test_admissibility_report_matches_fraction_reference():
    gen = np.random.default_rng(23)
    cases = [load_bundled(name) for name in BUNDLED]
    cases += [random_instance(gen) for _ in range(60)]
    case1 = star_instance(64, 3, 5)
    case4 = star_instance(4, 3, 2, n_stars=2)
    cases += [(case1, construct_projection(case1, case_hint="case1", seed=0)),
              (case4, construct_projection(case4, case_hint="case4", seed=1))]
    for edges in pinned_hypergraphs().values():  # q constraints per edge, blocks of 2 and 3
        colouring = build_coloring_csp(edges, 16)
        cases.append((colouring, construct_projection(colouring, seed=0)))
    ratios = set()
    for csp, scheme in cases:
        report = check_admissibility(csp, scheme, 0.25)
        expect = _admissibility_reference(csp, scheme, 0.25)
        assert report.to_dict() == expect
        assert report.regime == (math.e * expect["b"] * expect["delta"] <= 1.0)
        ratios.add(expect["a3"]["worst_ratio"])
    assert len(ratios) > 2  # A3 sees unequal forbidden blocks


def _random_construction(gen, domains, m):
    """A random instance on the alphabets domains, m constraints of arity
    3-5, and the scheme construct_projection builds for it."""
    n = len(domains)
    cons = []
    for _ in range(m):
        vars_ = sorted(int(v) for v in gen.choice(n, size=int(gen.integers(3, 6)), replace=False))
        cons.append(AtomicConstraint(tuple(vars_), tuple(int(gen.integers(domains[v]))
                                                         for v in vars_)))
    csp = AtomicCSP(n=n, domains=tuple(domains), constraints=tuple(cons))
    return csp, construct_projection(csp, seed=int(gen.integers(1 << 30)))


def test_admissibility_report_matches_the_public_quantities():
    # check_admissibility computes once per shape; its b, zeta, A2 worst
    # lhs and A3 worst ratio equal what compute_b and zeta_values give, and
    # the block sizes and overlap marginals read from the scheme one
    # constraint at a time
    gen = np.random.default_rng(31)
    cases = [load_bundled(name) for name in sorted(BUNDLED)]
    for a in (2, 3, 5, 7):
        cases += [_random_construction(gen, (a,) * 40, 12) for _ in range(3)]
    cases += [_random_construction(gen, [int(a) for a in gen.choice([2, 3, 5, 7, 9], 40)], 12)
              for _ in range(3)]
    cases.append((star_instance(64, 3, 5), construct_projection(star_instance(64, 3, 5), seed=0)))
    assert {scheme.case for _, scheme in cases} >= {"case1", "case2", "case3", "case4", "case5"}
    for csp, scheme in cases:
        report = check_admissibility(csp, scheme, 0.25)
        b, _ = compute_b(csp, scheme)
        zetas = zeta_values(csp, scheme)
        assert report.b == float(b)
        assert report.zeta == zetas
        delta, kappa = report.delta_deg, report.kappa
        log_inflate = -delta * math.log1p(-3.0 * float(b)) if b < Fraction(1, 3) else math.inf
        tail_over_inflate = math.exp(-kappa / 3.0 - log_inflate)
        size_at = lambda v, f: scheme.block_size(v, scheme.project_value(v, f))
        worst_lhs, worst_ratio = 0.0, 1.0
        for c, zeta in zip(csp.constraints, zetas):
            ov = [size_at(v, f) / csp.domains[v] for v, f in zip(c.vars, c.forbidden)
                  if len(scheme.blocks[v]) > 1]
            if ov:
                logs = [math.log(len(ov) ** 2 * kappa**2 * zeta)]
                logs += [log_inflate + math.log(p + tail_over_inflate) for p in ov]
                try:
                    worst_lhs = max(worst_lhs, math.exp(math.fsum(logs)))
                except OverflowError:
                    worst_lhs = math.inf
        for v in range(csp.n):
            at_v = [size_at(v, csp.constraints[cid].forbidden_at(v)) for cid in csp.dep_index[v]]
            if at_v:
                worst_ratio = max(worst_ratio, max(at_v) / min(at_v))
        assert report.a2_worst_lhs == worst_lhs
        assert report.a3_worst_ratio == worst_ratio


def test_no_constraint_report_vacuous():
    csp = uniform_csp(3, 2, [])
    report = check_admissibility(csp, identity_scheme(csp), eta=0.25)
    assert report.all_pass


def test_case1_constructions():
    csp = star_instance(64, 3, 5)
    scheme = construct_projection(csp, case_hint="case1", seed=0)
    assert all(len(vb) == 16 for vb in scheme.blocks)
    assert all(len(b) == 4 for vb in scheme.blocks for b in vb)
    assert _floor_pow_2_3(64) == 16 and _floor_pow_2_3(256) == 40
    csp256 = star_instance(256, 4, 8)
    scheme256 = construct_projection(csp256, case_hint="case1", seed=0)
    sizes = sorted({len(b) for b in scheme256.blocks[0]})
    assert sizes == [6, 7] and len(scheme256.blocks[0]) == 40


def test_case1_marginal_sandwich():
    for a, k, d in [(64, 3, 5), (256, 4, 8)]:
        csp = star_instance(a, k, d)
        scheme = construct_projection(csp, case_hint="case1", seed=0)
        lo, hi = 1 / (1.5 * a ** (2 / 3)), 1.5 / a ** (2 / 3)
        for vb in scheme.blocks:
            for block in vb:
                assert lo <= len(block) / a <= hi


def test_case2_marking_thresholds():
    rng = np.random.default_rng(7)
    cons = [
        (tuple(range(30)), tuple(int(b) for b in rng.integers(0, 2, 30)))
        for _ in range(50)
    ]
    csp = uniform_csp(30, 2, cons)
    assert degree_stats(csp)[0] == 50
    scheme = construct_projection(csp, eta=0.25, seed=7)
    assert scheme.case == "case2"
    for c in csp.constraints:
        collapsed = sum(len(scheme.blocks[v]) == 1 for v in c.vars)
        identity = sum(len(scheme.blocks[v]) == 2 for v in c.vars)
        assert collapsed >= 0.1742 * 30
        assert identity >= 0.3484 * 30


def test_case3_single_constraint_threshold():
    # enumerate all 1/2-partition pairs: b(C) in {1/4, 1/2, 1}; the retained
    # scheme must meet b(C) <= 3^(-0.2 k) = 3^-0.4, i.e. b(C) <= 1/2 works
    # only via |pair-block hits| >= 0.2*2*log_2(3) -> >= 1
    csp = uniform_csp(2, 3, [((0, 1), (0, 0))])
    threshold = 3 ** (-0.2 * 2)
    feasible = set()
    for s0, s1 in product(range(3), repeat=2):
        bc = Fraction(1)
        for s, f in ((s0, 0), (s1, 0)):
            bc /= 1 if s == f else 2
        if float(bc) <= threshold:
            feasible.add((s0, s1))
    assert feasible  # the retry target is reachable
    for seed in range(20):
        scheme = construct_projection(csp, seed=seed)
        b, _ = compute_b(csp, scheme)
        assert float(b) <= threshold
        singles = tuple(vb[0][0] for vb in scheme.blocks)
        assert singles in feasible


def test_case4_deterministic_and_mixed():
    assert bucket_count(4) == 2 and bucket_count(64) == 16
    csp = star_instance(9, 3, 2, n_stars=2)
    scheme = construct_projection(csp, case_hint="case4", seed=1)
    assert all(len(vb) == bucket_count(9) for vb in scheme.blocks)
    for a in (5, 7):
        csp = star_instance(a, 6, 2, n_stars=2)
        scheme = construct_projection(csp, seed=2)
        assert scheme.case == "case4"
        shapes = {tuple(sorted((len(b) for b in vb), reverse=True)) for vb in scheme.blocks}
        allowed = {(3, 2), (2, 2, 1)} if a == 5 else {(3, 2, 2), (2, 2, 2, 1)}
        assert shapes <= allowed


def test_case5_mixed_alphabets():
    from lllsample.csp import AtomicCSP, AtomicConstraint

    csp = AtomicCSP(
        n=6,
        domains=(2, 3, 5, 7, 9, 16),
        constraints=(AtomicConstraint((0, 1, 2, 3, 4, 5), (0, 0, 0, 0, 0, 0)),),
    )
    scheme = construct_projection(csp, seed=3)
    assert scheme.case == "case5"
    # deterministic buckets on the large alphabets
    assert len(scheme.blocks[4]) == bucket_count(9)
    assert len(scheme.blocks[5]) == bucket_count(16)
    p = 1.0
    for size in csp.domains:
        p /= size
    b, _ = compute_b(csp, scheme)
    t = Fraction(1)
    c = csp.constraints[0]
    for v in c.vars:
        t *= Fraction(
            scheme.block_size(v, scheme.project_value(v, c.forbidden_at(v))), csp.domains[v]
        )
    assert float(b) <= p ** 0.142 * (1 + 1e-9)
    assert float(t) <= p ** (3 * 0.142) * (1 + 1e-9)


def _old_sampler_law(a, window):
    """The law of the partition the construction drew per variable before
    its table: marked with probability alpha at a = 2, a uniform singleton
    first at a = 3, and at 5 and 7 the blocks of a uniform permutation cut
    by the coarser shape (probability mix) or the finer one, ordered by
    size, largest first, then by content."""
    if a == 2:
        law = {((0, 1),): Fraction(window.alpha), ((0,), (1,)): 1 - Fraction(window.alpha)}
    elif a == 3:
        law = {((s,), tuple(x for x in range(3) if x != s)): Fraction(1, 3) for s in range(3)}
    else:
        law, perms = {}, list(permutations(range(a)))
        for shape, share in zip(_SHAPES[a], (Fraction(window.mix), 1 - Fraction(window.mix))):
            for perm in perms:
                cuts = [sum(shape[:i]) for i in range(len(shape) + 1)]
                blocks = sorted((tuple(sorted(perm[i:j])) for i, j in zip(cuts, cuts[1:])),
                                key=lambda blk: (-len(blk), blk))
                law[tuple(blocks)] = law.get(tuple(blocks), 0) + share / len(perms)
    return {p: w for p, w in law.items() if w}


@pytest.mark.parametrize("name,a", [
    ("case2", 2), ("case5", 2), ("case3", 3), ("case5", 3),
    ("case4-5", 5), ("case5", 5), ("case4-7", 7), ("case5", 7),
])
def test_partition_table_law_is_exact(name, a):
    table = _partitions(a, _WINDOWS[name])
    assert len({p for p, _ in table}) == len(table)
    assert sum(w for _, w in table) == 1
    assert dict(table) == _old_sampler_law(a, _WINDOWS[name])


def test_construction_verifies_its_windows(monkeypatch):
    # an engine that reports success with every variable marked (row 0)
    # leaves each clause's S(C) = L_C above its window: construct_projection
    # must raise, not return the scheme
    import lllsample.projection as projection
    from lllsample.csp import InternalError
    from lllsample.resample import ResampleResult

    def claims_success(n, vc, draw, violated, rng, delta=0.01):
        return ResampleResult(True, [0] * n, 0, 1)

    monkeypatch.setattr(projection, "moser_tardos", claims_success)
    csp = uniform_csp(4, 2, [((0, 1, 2, 3), (0, 1, 0, 1))])
    with pytest.raises(InternalError):
        construct_projection(csp, seed=0)


def test_construction_near_threshold_builds_most_seeds():
    # 3-colouring of a random 6-uniform hypergraph near the case-3 threshold:
    # redrawing the lowest violated id one at a time (0.4.1, budget 2n) built
    # 5 of these 10 seeds, the parallel rounds with a budget of 2n built 3
    rng = np.random.default_rng(2)
    edges = [tuple(sorted(int(v) for v in rng.choice(300, size=6, replace=False)))
             for _ in range(145)]
    csp = build_coloring_csp(edges, 3, 300)
    built = 0
    for seed in range(10):
        try:
            construct_projection(csp, seed=seed)
            built += 1
        except ConstructionError:
            pass
    assert built >= 7


def test_unit_alphabet_is_a_regime_error():
    csp = AtomicCSP(2, (1, 2), (AtomicConstraint((0, 1), (0, 0)),), allow_unit_domains=True)
    for hint in (None, "case1", "case2", "case4", "case5"):
        with pytest.raises(RegimeError):
            construct_projection(csp, case_hint=hint, seed=0)


def test_strict_mode_rejects_desk_scale():
    csp = star_instance(64, 3, 5)
    with pytest.raises(AdmissibilityError):
        construct_projection(csp, case_hint="case1", seed=0, strict=True)


def test_case_dispatch_errors():
    csp = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    with pytest.raises(RegimeError):
        construct_projection(csp, case_hint="case1", seed=0)
    with pytest.raises(RegimeError):
        construct_projection(csp, case_hint="case3", seed=0)


def test_violation_monotonicity_exhaustive():
    csp = uniform_csp(3, 3, [((0, 1), (0, 2)), ((1, 2), (1, 1))])
    scheme = construct_projection(csp, seed=4)
    pcsp = project_csp(csp, scheme)
    for x in product(range(3), repeat=3):
        violated = evaluate(csp, x)
        proj_violated = evaluate(pcsp, scheme.project(x))
        assert set(violated) <= set(proj_violated)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_partition_soundness_random(data):
    sizes = data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=4))
    blocks = []
    for size in sizes:
        values = list(range(size))
        cuts = sorted(
            data.draw(
                st.lists(st.integers(1, size - 1), max_size=size - 1, unique=True)
            )
        ) if size > 1 else []
        var_blocks, prev = [], 0
        for cut in cuts + [size]:
            var_blocks.append(tuple(values[prev:cut]))
            prev = cut
        blocks.append(tuple(var_blocks))
    scheme = ProjectionScheme(tuple(blocks))
    for v, size in enumerate(sizes):
        seen = [val for block in scheme.blocks[v] for val in block]
        assert sorted(seen) == list(range(size))
        for val in range(size):
            assert val in scheme.blocks[v][scheme.project_value(v, val)]


def test_scheme_json_round_trip():
    csp = star_instance(5, 4, 2, n_stars=1)
    scheme = construct_projection(csp, seed=5)
    again = ProjectionScheme.from_json(scheme.to_json())
    assert again.blocks == scheme.blocks and again.case == scheme.case


@pytest.mark.parametrize("text", [
    "", "[]", '{"blocks": 5}', '{"blocks": [[1]]}', '{"blocks": [[[0.0, 1]]]}',
    '{"blocks": [[[0, 1]]], "kappa": NaN}', '{"blocks": [[[0, 1]]], "eta": "x"}',
    '{"blocks": [[[0, 1]]], "case": 2}',
])
def test_scheme_json_malformed(text):
    with pytest.raises(ParseError):
        ProjectionScheme.from_json(text)


def test_regime_ok():
    csp = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    assert check_admissibility(csp, full_marking_scheme(csp), eta=0.25).regime  # e/8 < 1
    assert not check_admissibility(csp, identity_scheme(csp), eta=0.25).regime


def _random_constraints(rng, domains, m, widths):
    """m constraints, each on a uniformly random set of distinct variables
    of a width drawn from widths, with uniformly random forbidden values."""
    cons = []
    for _ in range(m):
        k = int(widths[int(rng.integers(len(widths)))])
        vs = sorted(int(v) for v in rng.choice(len(domains), size=k, replace=False))
        cons.append(AtomicConstraint(tuple(vs), tuple(int(rng.integers(domains[v])) for v in vs)))
    return AtomicCSP(n=len(domains), domains=tuple(domains), constraints=tuple(cons))


def _coloring(rng, n, m, k, q):
    edges = [sorted(int(v) for v in rng.choice(n, size=k, replace=False)) for _ in range(m)]
    return build_coloring_csp(edges, q, n)


def _golden_instances():
    """Construction inputs per case: random CNF of widths 12, 8, 5 and mixed
    widths, colourings, stars, mixed alphabets, and instances whose windows
    cannot all be met: a triangle of pairs, and one variable of alphabet 5
    or 7 with every value forbidden by a unary constraint."""
    rng = np.random.default_rng(20261018)

    def alphabets(choices, n):
        return [int(a) for a in rng.choice(choices, n)]

    triangle = [((0, 1), (0, 0)), ((1, 2), (0, 0)), ((0, 2), (0, 0))]
    return {
        "case2": [
            _random_constraints(rng, (2,) * 60, 20, (12,)),
            _random_constraints(rng, (2,) * 60, 30, (8,)),
            _random_constraints(rng, (2,) * 40, 30, (5,)),
            _random_constraints(rng, (2,) * 60, 25, tuple(range(3, 13))),
            uniform_csp(3, 2, triangle),
        ],
        "case3": [
            _coloring(rng, 40, 10, 6, 3),
            _random_constraints(rng, (3,) * 40, 15, (8,)),
            uniform_csp(3, 3, triangle),
        ],
        "case4": [
            _coloring(rng, 30, 8, 4, 5),
            _coloring(rng, 30, 8, 4, 7),
            star_instance(5, 6, 2, n_stars=2),
            star_instance(7, 3, 3, n_stars=2),
            uniform_csp(1, 5, [((0,), (f,)) for f in range(5)]),
            uniform_csp(1, 7, [((0,), (f,)) for f in range(7)]),
        ],
        "case5": [
            _random_constraints(rng, alphabets((2, 3, 5, 7, 9, 16), 30), 12, (4, 6)),
            _random_constraints(rng, alphabets((2, 3, 4, 5, 7), 30), 20, (3,)),
            _random_constraints(rng, (2, 3) * 10, 15, (2, 3)),
            AtomicCSP(6, (2, 3, 5, 7, 9, 16), (AtomicConstraint(tuple(range(6)), (0,) * 6),)),
            AtomicCSP(3, (5, 5, 7), tuple(AtomicConstraint(v, f) for v, f in triangle)),
            AtomicCSP(3, (2, 3, 2), tuple(AtomicConstraint(v, f) for v, f in triangle)),
        ],
    }


def _construction_outputs(csps, seeds):
    for csp in csps:
        for seed in seeds:
            try:
                yield construct_projection(csp, seed=seed).to_json()
            except ConstructionError as exc:
                yield f"ConstructionError: {exc}"


GOLDEN_DIGESTS = {
    "case2": "f138b9a5880551307bca495dd14bf150e8ff6104d91bade7b1844968c17d04a8",
    "case3": "98c6d9bb14f24b261046452abd825a93f90d1e7a53c6589dcda1e4bed8f577cf",
    "case4": "716bee80aaf697c14180f3717d81720a9c0d5024326bed36b5eb9383acc05e99",
    "case5": "29c5b0738bc4cd1a51324b8829d3e4d226347b847fcc0bd1cb159f404293459a",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_construction_output_is_pinned(case):
    # sha256 over the scheme JSON (or error text) of every instance and seed
    csps = _golden_instances()[case]
    assert all(choose_case(csp) == case for csp in csps)
    text = "\n".join(_construction_outputs(csps, range(10)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[case]


def _sampling_outputs():
    """(part, line) pairs: "sample" lines of main_sample and BatchSampler
    output, then one "count" line of approx_count output."""
    for name in sorted(BUNDLED):
        csp, scheme = load_bundled(name)
        for seed in range(3):
            res = main_sample(csp, scheme, 0.1, seed=[seed, 9])
            yield "sample", json.dumps([name, res.assignment, res.error, res.diagnostics],
                                       sort_keys=True)
        out = BatchSampler(csp, scheme, 0.1).sample(40, seed=[5, 9])
        yield "sample", json.dumps([name, out.assignments.tolist(), out.errors.tolist(),
                                    out.s1_steps, out.s2_steps])
    csp, scheme = load_bundled("sat62")
    yield "count", json.dumps(approx_count(csp, scheme, 0.5, seed=3).to_dict(), sort_keys=True)


# the sample parts are pinned since 0.9.0, the count parts since 0.7.0
SAMPLING_DIGESTS = {
    "schedule": {
        "sample": "7a2eae41fe0f6d7c142c33f6a9b311e5d5ab69f299e9f05041185a288f0e328c",
        "count": "f58bd5e5a715de6174031cbfc52c53fb16dc2d6b8675ae20359230724ec8c1ff",
    },
    "shrunk": {
        "sample": "e389b2f3cea661ecdaaa6d0721b9ffa463693728fe5dfa3ec6bba5f73f87c398",
        "count": "9529f1960b89bd3214f23c0f2a6b3ae1013b6451e42ef56cda56a8a7036de53a",
    },
}


@pytest.mark.parametrize("schedule", sorted(SAMPLING_DIGESTS))
def test_sampling_output_is_pinned(monkeypatch, schedule):
    # sha256 over main_sample's results and BatchSampler.sample's draws, and
    # apart over one approx_count, on the bundled instances; "shrunk" cuts the
    # component threshold and the rejection budget so S1, S2, I1 and I2 paths run
    if schedule == "shrunk":
        monkeypatch.setattr(dynamics, "component_threshold", lambda *args: 1.5)
        monkeypatch.setattr(dynamics, "rejection_budget", lambda *args: 2)
    parts = {"sample": [], "count": []}
    for part, line in _sampling_outputs():
        parts[part].append(line)
    digests = {part: hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for part, lines in parts.items()}
    assert digests == SAMPLING_DIGESTS[schedule]
