import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lllsample.batch import BatchSampler
from lllsample.bundled import BUNDLED, load_bundled
import lllsample.dynamics as dynamics
from lllsample.csp import AtomicConstraint, AtomicCSP, InternalError, build_coloring_csp, evaluate
from lllsample.dynamics import (
    ProjectedState,
    Sampler,
    SamplerConfig,
    chain_length,
    component_threshold,
    components,
    constrained_variables,
    explore,
    glauber_run,
    inv_sample,
    main_sample,
    movable_steps,
    project_csp,
    projected_forbidden,
    rejection_budget,
    update,
)
from lllsample.oracle import tv_empirical
from lllsample.projection import (
    ProjectionScheme,
    construct_projection,
    full_marking_scheme,
    identity_scheme,
)
from conftest import random_instance, rows_at, uniform_csp
from reference import (
    apply,
    check_consistent,
    exact_lift_conditional,
    exact_mu_pi,
    exact_projected_conditional,
    group_of,
    seeds as reference_seeds,
    unsat,
    violated_by_partial,
)


def test_schedule_formulas():
    # documented arithmetic point: n=10, kappa=20, Delta=5; eps=0.5 is outside the open
    # interval, so evaluate the formula pieces directly
    assert math.ceil(1.0 * 20 * 10 * math.log(10 * 5 / 0.5)) == 922
    assert chain_length(20.0, 10, 5, 0.49999999) == 922
    cfg = SamplerConfig(eps=0.1, eta=0.25, kappa=20.0, n=10, delta_deg=5)
    assert cfg.T == math.ceil(20 * 10 * math.log(10 * 5 / 0.1))
    assert cfg.S == math.ceil(10 * (20 * 10 / 0.1) ** 0.25 * math.log(10 * 20 / 0.1))
    assert cfg.theta_comp == 20 * 5 * math.log(10 * 20 / 0.1)
    with pytest.raises(ValueError):
        SamplerConfig(eps=0.5, eta=0.25, kappa=20.0, n=10, delta_deg=5)
    with pytest.raises(ValueError):
        SamplerConfig(eps=0.0, eta=0.25, kappa=20.0, n=10, delta_deg=5)


def test_formula_helpers_match_direct_evaluation():
    assert rejection_budget(137.0, 6, 0.1, 0.25) == math.ceil(
        10 * (137 * 6 / 0.1) ** 0.25 * math.log(6 * 137 / 0.1)
    )
    assert component_threshold(3, 6, 137.0, 0.1) == 20 * 3 * math.log(6 * 137 / 0.1)


def test_project_csp():
    csp, scheme = load_bundled("mark4")
    pcsp = project_csp(csp, scheme)
    assert pcsp.domains == (2, 1, 2, 1)
    assert [c.forbidden for c in pcsp.constraints] == [(0, 0), (0, 0), (0, 0)]


def test_state_bookkeeping_random_walk(rng):
    csp, scheme = load_bundled("mark4")
    state = ProjectedState.random(Sampler(csp, scheme, 0.1), rng)
    check_consistent(state)
    for _ in range(300):
        v = int(rng.integers(csp.n))
        apply(state, v, int(rng.integers(scheme.q_sizes()[v])))
    check_consistent(state)


def test_projected_forbidden_matches_project_csp():
    # the chain's one projected table equals the reference projected instance
    gen = np.random.default_rng(4)
    cases = [load_bundled(name) for name in sorted(BUNDLED)]
    cases += [random_instance(gen) for _ in range(40)]
    for csp, scheme in cases:
        pcsp = project_csp(csp, scheme)
        forb = projected_forbidden(csp, scheme)
        assert forb.shape == csp.arrays.forb.shape
        assert [tuple(row[: c.arity]) for c, row in zip(csp.constraints, forb.T.tolist())] == [
            c.forbidden for c in pcsp.constraints
        ]
        assert (forb[csp.arrays.forb == -2] == -2).all()
        assert pcsp.domains == tuple(scheme.tables.q[scheme.tables.part[:-1]].tolist())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bookkeeping_equals_recomputation(data):
    # mixed arities, unary constraints and projected alphabets of 1-4
    n = data.draw(st.integers(1, 6))
    domains = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    cons = []
    for _ in range(data.draw(st.integers(0, 10))):
        k = data.draw(st.integers(1, min(4, n)))
        vars_ = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        forb = [data.draw(st.integers(0, domains[v])) for v in vars_]
        cons.append(AtomicConstraint(tuple(vars_), tuple(forb)))
    # an input with one more value per variable, joined to its last block, and
    # the instance it projects to; forbidden values q-1 and q share a block, so
    # constraints can project alike and share a group
    csp = AtomicCSP(n=n, domains=tuple(q + 1 for q in domains), constraints=tuple(cons))
    pcsp = AtomicCSP(n=n, domains=tuple(domains), allow_unit_domains=True, constraints=tuple(
        AtomicConstraint(c.vars, tuple(min(f, domains[v] - 1)
                                       for v, f in zip(c.vars, c.forbidden)))
        for c in cons))
    scheme = ProjectionScheme(tuple(
        tuple((j,) for j in range(q - 1)) + ((q - 1, q),) for q in domains))
    assert project_csp(csp, scheme) == pcsp
    y = [data.draw(st.integers(0, size - 1)) for size in domains]
    state = ProjectedState(Sampler(csp, scheme, 0.1), y)
    moves = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3)), max_size=40))
    for v, q in [(0, y[0])] + moves:
        q %= domains[v]
        apply(state, v, q)
        y[v] = q
        assert state.y == y
        assert [state.dev[g] for g in group_of(state)] == [
            sum(y[u] != f for u, f in zip(c.vars, c.forbidden)) for c in pcsp.constraints]
        assert unsat(state) == set(evaluate(pcsp, y))
        for u in range(n):
            seeds = np.flatnonzero(rows_at(pcsp, y, u)[1][:, 0]).tolist()
            assert state.near[u] == len(seeds)
            assert (state.near[u] == 0) == (not seeds)
            assert sorted(reference_seeds(state, u)) == seeds
    check_consistent(state)


def _reference_run(y, pcsp, csp, scheme, cfg, rng, steps, chunk):
    """glauber_run as a plain loop over the same chunked draws: each step's
    seeds and unsatisfied constraints are recomputed from the state."""
    y = list(y)
    movable, (total,) = movable_steps(scheme, constrained_variables(csp), steps, 1, rng)
    s1 = s2 = 0
    hist = {}
    for start in range(0, total, chunk):
        vs, qs = dynamics._draw_steps(movable, csp, scheme, min(chunk, total - start), rng)
        for v, q in zip(vs, qs):
            unsat, seed = rows_at(pcsp, y, v)
            size = 0
            if seed.any():
                new_q, f1, f2, sizes = update(csp, scheme, cfg, np.array([y]).T, unsat, seed,
                                              np.array([v]), rng)
                q, size = int(new_q[0]), int(sizes[0])
                s1, s2 = s1 + bool(f1[0]), s2 + bool(f2[0])
            hist[size] = hist.get(size, 0) + 1
            y[v] = q
    return y, int(total), s1, s2, hist


@pytest.mark.parametrize("chunk", [7, dynamics.STEP_CHUNK])
def test_chain_matches_recomputing_reference(monkeypatch, chunk):
    # same seed, same final state, diagnostics and generator state as a loop
    # that recomputes every step from scratch through numpy `update`; small
    # thresholds and budgets make S1 and S2 steps happen
    monkeypatch.setattr(dynamics, "STEP_CHUNK", chunk)
    gen = np.random.default_rng(11)
    busy = failed = 0
    for case in range(40):
        csp, scheme = random_instance(gen)
        pcsp = project_csp(csp, scheme)
        sampler = Sampler(csp, scheme, 0.1)
        cfg = sampler.cfg
        object.__setattr__(cfg, "theta_comp", float(gen.choice([0.5, 1.5, cfg.theta_comp])))
        object.__setattr__(cfg, "S", int(gen.choice([1, 3, cfg.S])))
        y = [int(gen.integers(q)) for q in pcsp.domains]
        steps = int(gen.integers(0, 60))
        run_rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        state, diag = glauber_run(ProjectedState(sampler, y), run_rng, steps=steps)
        ref = _reference_run(y, pcsp, csp, scheme, cfg, ref_rng, steps, chunk)
        assert (state.y, diag.steps, diag.s1, diag.s2, diag.component_hist) == ref
        # every step draws as many numbers as the reference's update does
        assert run_rng.bit_generator.state == ref_rng.bit_generator.state
        busy += diag.steps - diag.component_hist.get(0, 0)
        failed += diag.s1 + diag.s2
    assert busy > 200 and 50 < failed < busy


def _wide_instances(gen):
    """Instances at the arity of the benchmark's chain: three random 12-CNF
    on 40 variables under a case2 scheme; one with 8-ary constraints over
    ternary alphabets, each split into a permuted pair and a single value, so
    that some pairs are not contiguous; and a 16-colouring of 30 random
    6-uniform edges on 10 vertices under case1, whose 6 blocks of 2 or 3
    colours project each edge's 16 constraints onto 6 groups."""
    for _ in range(3):
        cons = [
            AtomicConstraint(tuple(int(v) for v in gen.choice(40, size=12, replace=False)),
                             tuple(int(b) for b in gen.integers(2, size=12)))
            for _ in range(12)
        ]
        csp = AtomicCSP(40, (2,) * 40, tuple(cons))
        yield csp, construct_projection(csp, case_hint="case2", seed=int(gen.integers(2**31)))
    cons = [
        AtomicConstraint(tuple(int(v) for v in gen.choice(16, size=8, replace=False)),
                         tuple(int(x) for x in gen.integers(3, size=8)))
        for _ in range(24)
    ]
    pairs = [[int(x) for x in gen.permutation(3)] for _ in range(16)]
    yield (AtomicCSP(16, (3,) * 16, tuple(cons)),
           ProjectionScheme(tuple(((p[0], p[1]), (p[2],)) for p in pairs)))
    edges = [sorted(int(v) for v in gen.choice(10, size=6, replace=False)) for _ in range(30)]
    csp = build_coloring_csp(edges, 16, n=10)
    yield csp, construct_projection(csp, case_hint="case1")


def test_chain_matches_reference_on_wide_constraints():
    # the same check at arity 8 and 12, where most busy steps have a
    # one-constraint component and the rest several; a threshold of 1.5 makes
    # two-constraint components stop growing (S1), and stops every colouring
    # component at its seeds, since each group there holds 2 or 3 constraints
    gen = np.random.default_rng(12)
    hist, s1, grouped_busy = {}, 0, 0
    for case, (csp, scheme) in enumerate(_wide_instances(gen)):
        pcsp = project_csp(csp, scheme)
        y = [int(gen.integers(q)) for q in pcsp.domains]
        for theta in (None, 1.5):
            sampler = Sampler(csp, scheme, 0.1)
            cfg = sampler.cfg
            if theta is not None:
                object.__setattr__(cfg, "theta_comp", theta)
            run_rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
            state, diag = glauber_run(ProjectedState(sampler, y), run_rng, steps=3000)
            ref = _reference_run(y, pcsp, csp, scheme, cfg, ref_rng, 3000, dynamics.STEP_CHUNK)
            assert (state.y, diag.steps, diag.s1, diag.s2, diag.component_hist) == ref
            assert run_rng.bit_generator.state == ref_rng.bit_generator.state
            check_consistent(state)
            s1 += diag.s1
            for size, count in diag.component_hist.items():
                hist[size] = hist.get(size, 0) + count
            if len(sampler.groups.members) < csp.m:
                grouped_busy += diag.steps - diag.component_hist.get(0, 0)
    assert hist[1] > 500 and hist[2] > 100 and hist[3] > 10 and s1 > 100
    assert grouped_busy > 50


def test_chain_matches_reference_when_the_budget_runs_out(monkeypatch):
    # the same check at a budget of one draw, on the 12-CNF and 8-ary
    # instances of `_wide_instances`: a step whose one draw violates its
    # component ends in S2, and both of `_reject_at`'s paths, one constraint
    # and several, must then draw the fallback where numpy `update` does.
    # A 12-ary draw is rarely rejected, hence the long chains
    exhausted = {}  # (arity, several constraints) -> S2 steps
    reject_at = dynamics._reject_at

    def spy(sampler, comp, v, rng):
        new_q, flag = reject_at(sampler, comp, v, rng)
        if flag == "S2":
            key = (sampler.csp.constraints[comp[0]].arity, len(comp) > 1)
            exhausted[key] = exhausted.get(key, 0) + 1
        return new_q, flag

    monkeypatch.setattr(dynamics, "_reject_at", spy)
    gen = np.random.default_rng(12)
    for case, (csp, scheme) in enumerate(list(_wide_instances(gen))[:4]):
        pcsp = project_csp(csp, scheme)
        y = [int(gen.integers(q)) for q in pcsp.domains]
        sampler = Sampler(csp, scheme, 0.1)
        object.__setattr__(sampler.cfg, "S", 1)
        run_rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        state, diag = glauber_run(ProjectedState(sampler, y), run_rng, steps=20000)
        ref = _reference_run(y, pcsp, csp, scheme, sampler.cfg, ref_rng, 20000,
                             dynamics.STEP_CHUNK)
        assert (state.y, diag.steps, diag.s1, diag.s2, diag.component_hist) == ref
        assert run_rng.bit_generator.state == ref_rng.bit_generator.state
        check_consistent(state)
    assert exhausted[12, False] >= 10 and exhausted[12, True] >= 4
    assert exhausted[8, False] >= 10 and exhausted[8, True] >= 10


def test_one_sampler_serves_many_samples(monkeypatch):
    # k samples on one Sampler equal k main_sample calls at the same seeds,
    # while the projected table and the groups are built once and the draw
    # entries stay warm from chain to chain: on a 12-CNF whose chains take
    # busy steps, and on a colouring whose groups hold several constraints
    cases = list(_wide_instances(np.random.default_rng(12)))
    calls = {"projected_forbidden": 0, "group_constraints": 0}
    for name in calls:
        def counted(*args, _build=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(dynamics, name, counted)
    k = 4
    for csp, scheme in (cases[0], cases[-1]):
        sampler = Sampler(csp, scheme, 0.1, c_t=0.05)
        shared = [sampler.sample_one([7, i]) for i in range(k)]
        assert calls == {"projected_forbidden": 1, "group_constraints": 1}
        warm = sum(entry is not None for entry in sampler.groups.entries)
        fresh = [main_sample(csp, scheme, 0.1, seed=[7, i], c_t=0.05) for i in range(k)]
        assert [(r.assignment, r.error, r.diagnostics) for r in shared] == [
            (r.assignment, r.error, r.diagnostics) for r in fresh]
        busy = sum(count for size, count in shared[-1].diagnostics["component_hist"].items()
                   if size != "0")
        assert warm and busy and all(r.ok for r in shared)
        calls.update(projected_forbidden=0, group_constraints=0)
    assert sampler.groups.max_mult > 1


def test_fallback_values_stay_in_the_projected_alphabet():
    # with the threshold and budget shrunk as above, S1 and S2 fallbacks
    # happen in both drivers; every final projected value lies in [0, q_v)
    gen = np.random.default_rng(23)
    fallbacks = batch_fallbacks = 0
    for case in range(30):
        csp, scheme = random_instance(gen)
        q = scheme.q_sizes()
        sampler = BatchSampler(csp, scheme, 0.1)
        cfg = sampler.cfg
        object.__setattr__(cfg, "theta_comp", float(gen.choice([0.5, 1.5])))
        object.__setattr__(cfg, "S", int(gen.choice([1, 3])))
        rng = np.random.default_rng(case)
        state, diag = glauber_run(ProjectedState.random(sampler, rng), rng, steps=60)
        assert all(0 <= y < size for y, size in zip(state.y, q))
        check_consistent(state)
        fallbacks += diag.s1 + diag.s2
        Y, s1, s2, _ = sampler.run_chains(20, rng, steps=60)
        assert ((0 <= Y) & (Y < np.array(q))).all()
        batch_fallbacks += s1 + s2
    assert fallbacks > 200 and batch_fallbacks > 3000


def _component_at(pcsp, y, v, theta=math.inf):
    """explore's component around v in state y: the closure, within the
    constraints unsatisfied with v unassigned, of those of them at v.
    explore reads only the variable sets, which projecting keeps."""
    return np.flatnonzero(explore(pcsp, *rows_at(pcsp, y, v), theta)[:, 0]).tolist()


def _all_components(pcsp, y):
    unsat = np.zeros((pcsp.m, 1), dtype=bool)
    unsat[violated_by_partial(pcsp, y), 0] = True
    return [np.flatnonzero(comp[:, 0]).tolist() for comp in components(pcsp, unsat)]


def test_component_examples():
    # satisfied everywhere: no constraint in the component at v
    csp, scheme = load_bundled("mark4")
    pcsp = project_csp(csp, scheme)
    assert _component_at(pcsp, [1, 0, 1, 0], 1) == []  # y0=1 and y2=1 satisfy both clauses at v1

    # one unsatisfied constraint containing v
    one = uniform_csp(3, 2, [((0, 1), (0, 0))])
    p1 = project_csp(one, full_marking_scheme(one))
    assert _component_at(p1, [0, 0, 0], 0) == [0]

    # chain of three pairwise-overlapping unsatisfied constraints: transitive
    # closure picks up the union of their variable sets
    chain = uniform_csp(4, 2, [((0, 1), (0, 0)), ((1, 2), (0, 0)), ((2, 3), (0, 0))])
    pc = project_csp(chain, full_marking_scheme(chain))
    comp = _component_at(pc, [0, 0, 0, 0], 0)
    assert comp == [0, 1, 2]
    assert set().union(*(pc.constraints[cid].vars for cid in comp)) == {0, 1, 2, 3}

    # all components of the current state
    assert _all_components(pc, [0, 0, 0, 0]) == [[0, 1, 2]]


def _closure(csp, allowed, start):
    """Brute force: the constraints of allowed reachable from start through
    shared variables."""
    comp, grown = set(start), True
    while grown:
        grown = False
        for cid in allowed - comp:
            if any(set(csp.constraints[cid].vars) & set(csp.constraints[o].vars) for o in comp):
                comp.add(cid)
                grown = True
    return comp


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_explorer_matches_brute_force_closure(data):
    n = data.draw(st.integers(2, 7))
    size = data.draw(st.integers(2, 3))
    cons = []
    for _ in range(data.draw(st.integers(0, 10))):
        k = data.draw(st.integers(1, min(3, n)))
        vars_ = sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
        cons.append((vars_, [data.draw(st.integers(0, size - 1)) for _ in vars_]))
    csp = uniform_csp(n, size, cons)
    ys = [data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)) for _ in range(3)]
    vs = [data.draw(st.integers(0, n - 1)) for _ in ys]

    def unsat_without(y, v):
        return {cid for cid, c in enumerate(csp.constraints)
                if all(y[u] == f for u, f in zip(c.vars, c.forbidden) if u != v)}

    # chain step: the component around v, one state at a time and as rows
    expect = []
    for y, v in zip(ys, vs):
        allowed = unsat_without(y, v)
        comp = _closure(csp, allowed, {cid for cid in allowed if v in csp.constraints[cid].vars})
        expect.append(sorted(comp))
        assert _component_at(csp, y, v) == sorted(comp)
    unsat = np.zeros((len(ys), csp.m), dtype=bool)
    seed = np.zeros_like(unsat)
    for row, (y, v) in enumerate(zip(ys, vs)):
        for cid in unsat_without(y, v):
            unsat[row, cid] = True
            seed[row, cid] = v in csp.constraints[cid].vars
    grown = explore(csp, unsat.T, seed.T)
    assert [np.flatnonzero(r).tolist() for r in grown.T] == expect

    # lift: the full decomposition of the unsatisfied constraints
    expect = []
    for y in ys:
        left, parts = unsat_without(y, None), []
        while left:
            part = _closure(csp, left, {min(left)})
            parts.append(sorted(part))
            left -= part
        expect.append(parts)
        assert _all_components(csp, y) == parts
    unsat = np.array([[cid in unsat_without(y, None) for cid in range(csp.m)] for y in ys],
                     dtype=bool)
    split = components(csp, unsat.T)
    for row, parts in enumerate(expect):
        got = [np.flatnonzero(c[:, row]).tolist() for c in split]
        assert [part for part in got if part] == parts


def test_explore_early_exit():
    # a row stops growing once it holds more than theta constraints
    chain = uniform_csp(4, 2, [((0, 1), (0, 0)), ((1, 2), (0, 0)), ((2, 3), (0, 0))])
    pc = project_csp(chain, full_marking_scheme(chain))
    assert len(_component_at(pc, [0, 0, 0, 0], 0, theta=1.0)) > 1.0
    assert _component_at(pc, [0, 0, 0, 0], 0, theta=1.0) != _component_at(pc, [0, 0, 0, 0], 0)


def test_empty_step_draws_block_proportional(rng):
    # with no constraint at v its component is empty, and the step sets the
    # value _draw_steps drew: the block of a uniform value of v
    csp = uniform_csp(1, 4, [])
    scheme = ProjectionScheme((((0, 1, 2), (3,)),))
    assert ProjectedState(Sampler(csp, scheme, 0.1), [0]).near == [0]
    draws = 100_000
    vs, qs = dynamics._draw_steps(np.array([0]), csp, scheme, draws, rng)
    assert vs == [0] * draws
    hits = sum(q == 0 for q in qs)
    assert abs(hits / draws - 0.75) < 0.01


def test_redraw_matches_update_on_grouped_components():
    # a 16-colouring under case1 has groups of 2 and 3 constraints; states
    # drawn from two of its six blocks put whole edges in one block often, so
    # components grow through several groups.  At thresholds between a
    # component's group count and its constraint count, `_redraw` must stop
    # where numpy `update` does, and return its value, flag and size with as
    # many random numbers drawn
    gen = np.random.default_rng(13)
    edges = [sorted(int(v) for v in gen.choice(10, size=6, replace=False)) for _ in range(30)]
    csp = build_coloring_csp(edges, 16, n=10)
    scheme = construct_projection(csp, case_hint="case1")
    pcsp = project_csp(csp, scheme)
    grown = 0
    for theta in (1.5, 4.5, 10.5, None):
        sampler = Sampler(csp, scheme, 0.1)
        cfg = sampler.cfg
        if theta is not None:
            object.__setattr__(cfg, "theta_comp", theta)
        for trial in range(100):
            y, v = [int(b) for b in gen.integers(2, size=10)], int(gen.integers(10))
            unsat, seed = rows_at(pcsp, y, v)
            if not seed.any():
                continue
            run_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            got = dynamics._redraw(ProjectedState(sampler, y), run_rng, v)
            new_q, s1, s2, size = update(csp, scheme, cfg, np.array([y]).T, unsat, seed,
                                         np.array([v]), ref_rng)
            flag = "S1" if s1[0] else "S2" if s2[0] else None
            assert got == (int(new_q[0]), flag, int(size[0]))
            assert run_rng.bit_generator.state == ref_rng.bit_generator.state
            grown += int(size[0]) > int(seed.sum())
    assert grown > 25


def test_redraw_matches_exact_conditional(rng):
    csp, scheme = load_bundled("mark3")
    v, z = 0, (0, 0, 0)  # y1=0, y2 collapsed
    exact = exact_projected_conditional(csp, scheme, v, z)
    state = ProjectedState(Sampler(csp, scheme, 0.1), list(z))
    assert state.near[v]  # a busy step: glauber_run redraws it
    counts = {}
    for _ in range(20_000):
        q, flag, _ = dynamics._redraw(state, rng, v)
        assert flag is None
        counts[q] = counts.get(q, 0) + 1
    assert tv_empirical(counts, exact) < 0.02


def test_glauber_zero_steps_is_identity(rng):
    csp, scheme = load_bundled("mark4")
    state = ProjectedState(Sampler(csp, scheme, 0.1), [0, 0, 0, 0])
    before = list(state.y)
    glauber_run(state, rng, steps=0)
    assert state.y == before


def test_glauber_no_constraints_uniform(rng):
    csp = uniform_csp(3, 2, [])
    scheme = identity_scheme(csp)
    sampler = Sampler(csp, scheme, 0.1, c_t=0.2)
    ones = np.zeros(3)
    runs = 4000
    for _ in range(runs):
        state = ProjectedState.random(sampler, rng)
        glauber_run(state, rng, steps=15)
        ones += state.y
    # each coordinate marginal stays uniform within 3 sigma
    sigma = math.sqrt(runs * 0.25)
    assert all(abs(c - runs / 2) < 3 * sigma for c in ones)


def test_chain_runs_on_the_constrained_variables(rng):
    # a colouring with free vertices and nothing collapsed: the schedule
    # counts the n' = 5 vertices in some edge, every one of the T picks
    # among them runs, and the free vertices keep their start
    csp = build_coloring_csp([[0, 1, 2], [2, 3, 4]], 3, n=8)
    sampler = Sampler(csp, identity_scheme(csp), 0.1, c_t=0.05)
    assert sampler.constrained.tolist() == [True] * 5 + [False] * 3
    cfg = sampler.cfg
    assert cfg.n == 5 and cfg.T == chain_length(cfg.kappa, 5, cfg.delta_deg, 0.1, 0.05)
    state = ProjectedState.random(sampler, rng)
    free = state.y[5:]
    state, diag = glauber_run(state, rng)
    assert diag.steps == cfg.T and state.y[5:] == free


def test_glauber_bookkeeping_check(rng):
    # the bookkeeping equals a recount every 100 steps
    csp, scheme = load_bundled("colork4")
    state = ProjectedState.random(Sampler(csp, scheme, 0.1), rng)
    for _ in range(5):
        glauber_run(state, rng, steps=100)
        check_consistent(state)


def test_inv_sample_no_unsat_uniform_blocks(rng):
    csp, scheme = load_bundled("mark4")
    # satisfies every projected constraint
    state = ProjectedState(Sampler(csp, scheme, 0.1), [1, 0, 1, 0])
    assert not unsat(state)
    lift = inv_sample(state, rng)
    assert lift.error is None
    assert scheme.project(lift.assignment) == (1, 0, 1, 0)
    assert evaluate(csp, lift.assignment) == []


def test_inv_sample_i1_on_oversized_component(rng):
    csp, scheme = load_bundled("sat62")
    sampler = Sampler(csp, scheme, 0.1)
    object.__setattr__(sampler.cfg, "theta_comp", 0.5)  # inject an undersized threshold
    state = ProjectedState(sampler, [0] * 6)
    lift = inv_sample(state, rng)
    assert lift.error == "I1" and lift.assignment is None


def test_inv_sample_i2_on_unsatisfiable_block_cube(rng):
    # identity blocks freeze the violating assignment: rejection can never accept
    csp = uniform_csp(2, 2, [((0, 1), (0, 0))])
    scheme = identity_scheme(csp)
    state = ProjectedState(Sampler(csp, scheme, 0.4), [0, 0])
    lift = inv_sample(state, rng)
    assert lift.error == "I2"


def test_inv_sample_matches_exact_lift_conditional(rng):
    csp, scheme = load_bundled("mark3")
    sampler = Sampler(csp, scheme, 0.1)
    y = (0, 0, 0)
    exact = exact_lift_conditional(csp, scheme, y)
    counts = {}
    for _ in range(20_000):
        state = ProjectedState(sampler, list(y))
        lift = inv_sample(state, rng)
        assert lift.error is None
        counts[lift.assignment] = counts.get(lift.assignment, 0) + 1
    assert tv_empirical(counts, exact) < 0.02


def test_main_sample_no_constraints_uniform(rng):
    csp = uniform_csp(2, 2, [])
    scheme = identity_scheme(csp)
    counts = np.zeros((2, 2))
    for i in range(3000):
        res = main_sample(csp, scheme, 0.1, rng=rng, c_t=0.1)
        assert res.ok
        counts[0, res.assignment[0]] += 1
        counts[1, res.assignment[1]] += 1
    from scipy.stats import chisquare

    for v in range(2):
        assert chisquare(counts[v]).pvalue > 1e-5


def test_main_sample_two_var_clause_tv(rng):
    csp, scheme = load_bundled("and2")
    counts = {}
    for i in range(4000):
        res = main_sample(csp, scheme, 0.1, rng=rng, c_t=0.1)
        assert res.ok
        counts[res.assignment] = counts.get(res.assignment, 0) + 1
    exact = {s: Fraction(1, 3) for s in [(0, 1), (1, 0), (1, 1)]}
    assert tv_empirical(counts, exact) < 0.03


def test_main_sample_deterministic():
    csp, scheme = load_bundled("mark4")
    r1 = main_sample(csp, scheme, 0.2, seed=77, c_t=0.05)
    r2 = main_sample(csp, scheme, 0.2, seed=77, c_t=0.05)
    assert r1.assignment == r2.assignment and r1.error == r2.error
    assert r1.diagnostics == r2.diagnostics


def test_main_sample_diagnostics_fields():
    csp, scheme = load_bundled("and2")
    res = main_sample(csp, scheme, 0.1, seed=5, c_t=0.05)
    for key in ("T", "S", "theta_comp", "s1_failures", "s2_failures", "lift_error"):
        assert key in res.diagnostics


@pytest.mark.parametrize("driver", ["scalar", "batch"])
@pytest.mark.parametrize("value, why", [(0, "violates"), (1, "project")])
def test_lift_verification_raises(monkeypatch, driver, value, why):
    # a rejection routine that accepts one fixed draw unchecked makes the lift
    # return (0, 0), which violates the constraint, or (1, 1), which does not
    # project to the state (0, 0); the lift's own check must catch either
    import lllsample.dynamics as dynamics

    csp = uniform_csp(2, 2, [((0, 1), (0, 0))])
    scheme = identity_scheme(csp)

    def accept_unchecked(csp, scheme, Y, comp, rng, budget):
        n, P = Y.shape
        return (np.arange(n), np.full((n, P), value), np.ones(P, dtype=bool),
                np.ones(P, dtype=np.int64))

    monkeypatch.setattr(dynamics, "reject", accept_unchecked)
    with pytest.raises(InternalError, match=why):
        if driver == "scalar":
            inv_sample(ProjectedState(Sampler(csp, scheme, 0.1), [0, 0]), np.random.default_rng(0))
        else:
            BatchSampler(csp, scheme, 0.1).lift(np.zeros((4, 2), dtype=np.int64),
                                                np.random.default_rng(0))


@pytest.mark.parametrize("name", ["and2", "ring12"])
def test_all_collapsed_chain_runs_no_step(monkeypatch, name):
    # every projected alphabet has one block: no step can move the state, so
    # neither driver runs one
    import lllsample.batch as batch

    csp, scheme = load_bundled(name)
    rng = np.random.default_rng(3)
    state, diag = glauber_run(ProjectedState.random(Sampler(csp, scheme, 0.1), rng), rng)
    assert diag.steps == 0 and state.y == [0] * csp.n
    assert main_sample(csp, scheme, 0.1, seed=3).diagnostics["steps"] == 0

    def no_update(*args):
        raise AssertionError("a chain with nothing movable ran an update")

    monkeypatch.setattr(batch, "update", no_update)
    Y, s1, s2, touched = batch.BatchSampler(csp, scheme, 0.1).run_chains(200, rng)
    assert (Y == 0).all() and s1 == s2 == 0 and not touched.any()


def test_nothing_collapsed_runs_every_step():
    csp, scheme = load_bundled("colork4")
    assert min(scheme.q_sizes()) > 1
    rng = np.random.default_rng(5)
    _, diag = glauber_run(ProjectedState.random(Sampler(csp, scheme, 0.1), rng), rng, steps=300)
    assert diag.steps == 300
    res = main_sample(csp, scheme, 0.1, seed=5, c_t=0.05)
    assert res.diagnostics["steps"] == res.diagnostics["T"]


def test_steps_land_on_movable_variables_only(monkeypatch):
    # mark4 has q = (2, 1, 2, 1): a step picks variable 0 or 2, and the
    # number of steps run is Binomial(s, 2/4)
    import lllsample.dynamics as dynamics

    csp, scheme = load_bundled("mark4")
    sampler = Sampler(csp, scheme, 0.1)
    picked = set()
    draw = dynamics._draw_steps

    def spy(movable, csp, scheme, count, rng):
        vs, qs = draw(movable, csp, scheme, count, rng)
        picked.update(vs)
        return vs, qs

    monkeypatch.setattr(dynamics, "_draw_steps", spy)
    s, runs, p = 40, 200, 2 / 4
    steps = []
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        _, diag = glauber_run(ProjectedState.random(sampler, rng), rng, steps=s)
        steps.append(diag.steps)
    assert picked == {0, 2}
    sigma = math.sqrt(s * p * (1 - p) / runs)
    assert abs(np.mean(steps) - s * p) < 4 * sigma
