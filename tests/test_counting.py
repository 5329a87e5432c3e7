import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

import lllsample.counting as counting
from lllsample.bundled import load_bundled
from lllsample.counting import CountingError, approx_count, blocks, counting_eps, stage_samples
from lllsample.csp import AtomicConstraint, AtomicCSP, degree_stats, parse_dimacs
from lllsample.oracle import ENUM_GUARD
from lllsample.projection import (
    ProjectionScheme,
    check_admissibility,
    full_marking_scheme,
    identity_scheme,
)
from conftest import uniform_csp


def test_counting_eps_formula():
    assert counting_eps(100, 0.1) == pytest.approx(0.01 / (8 * 100 * math.log(1000)))
    assert counting_eps(100, 0.1) == pytest.approx(1.81e-6, rel=5e-3)
    assert stage_samples(4, 0.2) == math.ceil(64 * 4 / 0.04)


def test_counting_eps_capped_below_half():
    # at m = 1 and delta = 0.95 the formula gives 2.2, and a large
    # theta_const passes 1/2 anywhere; both are capped
    assert counting_eps(1, 0.95) == counting.STAGE_EPS_CAP < 0.5
    assert counting_eps(50, 0.5, theta_const=1000.0) == counting.STAGE_EPS_CAP
    csp, scheme = load_bundled("and2")
    est = approx_count(csp, scheme, 0.95, seed=0)
    assert est.eps_stage == counting.STAGE_EPS_CAP
    assert 1 - 0.95 <= est.estimate / 3 <= 1 + 0.95


def test_count_past_float_range():
    # one 3-clause over 1,100 binary variables: Z = 7 * 2^1097 > e^709
    csp = uniform_csp(1100, 2, [((0, 1, 2), (0, 0, 0))])
    est = approx_count(csp, full_marking_scheme(csp), 0.5, seed=0)
    assert est.estimate == math.inf and est.to_dict()["estimate"] is None
    assert abs(est.log_estimate - (math.log(7) + 1097 * math.log(2))) <= math.log(1.5)


def test_no_constraints_exact():
    # no stage is sampled, so a delta whose square underflows to 0 counts too
    csp = uniform_csp(3, 2, [])
    for delta in (0.2, 1e-320):
        est = approx_count(csp, identity_scheme(csp), delta, seed=1)
        assert est.estimate == pytest.approx(8.0)
        assert est.stages[0]["method"] == "unconstrained-tail"


def test_count_two_var_clause():
    csp, scheme = load_bundled("and2")
    hits = 0
    for seed in range(40):
        est = approx_count(csp, scheme, 0.2, seed=seed)
        if 3 / 1.2 <= est.estimate <= 3 * 1.2:
            hits += 1
    assert hits >= 36  # >= 90 percent of seeded trials


def test_count_log_identity():
    # the estimate is the exact unconstrained count times the stage ratios:
    # log bookkeeping must close to 1e-9
    csp, scheme = load_bundled("sat62")
    est = approx_count(csp, scheme, 0.2, seed=5)
    sampled = [s for s in est.stages if s["method"] == "sampled"]
    assert [s["constraint"] for s in sampled] == list(range(1, csp.m + 1))
    acc = sum(math.log(size) for size in csp.domains)
    acc += sum(math.log(s["marginal"]) for s in sampled)
    assert est.log_estimate == pytest.approx(acc, abs=1e-9)
    for s in sampled:
        assert s["marginal"] == s["successes"] / (s["draws"] - s["errors"])


def _exact_disjoint_clause_draws(csp, scheme, eps, n_draws, seed, eta, c_t):
    """Exact uniform draws over the solutions of disjoint binary clauses:
    each clause's variables take one of its satisfying patterns uniformly,
    every other variable is a fair bit.  Built column by column for speed;
    the rows returned are a transposed view."""
    rng = np.random.default_rng(seed)
    fair = rng.integers(0, 256, size=(csp.n, -(-n_draws // 8)), dtype=np.uint8)
    columns = np.unpackbits(fair, axis=1, count=n_draws)
    if csp.m:
        cols = np.array([c.vars for c in csp.constraints])  # (m, k)
        bits = np.arange(cols.shape[1], dtype=np.uint8)
        banned = np.array([c.forbidden for c in csp.constraints]) @ (1 << bits)
        code = rng.integers(0, (1 << bits.size) - 1, size=(csp.m, n_draws), dtype=np.uint8)
        code += code >= banned[:, None]  # skip the forbidden pattern
        columns[cols.ravel()] = ((code[:, None, :] >> bits[None, :, None]) & 1).reshape(-1, n_draws)
    return columns.T, 0


def test_count_unbiased_at_n200():
    # 50 disjoint 4-clauses with mixed signs: Z = 15^50.  With an exact
    # sampler in place of the chain, the telescope's mean ratio must sit
    # within delta/4 of 1.
    rng = np.random.default_rng(0)
    clauses = [(tuple(range(4 * j, 4 * j + 4)), tuple(rng.integers(0, 2, 4))) for j in range(50)]
    csp = uniform_csp(200, 2, clauses)
    delta, log_z = 0.5, 50 * math.log(15)
    ratios = []
    for seed in range(20):
        est = counting._count(csp, full_marking_scheme(csp), delta, seed=seed,
                              chain_draws=_exact_disjoint_clause_draws)
        assert est.stages[0]["method"] == "unconstrained-tail"
        ratios.append(math.exp(est.log_estimate - log_z))
    assert abs(np.mean(ratios) - 1) <= delta / 4
    assert all(1 / (1 + delta) <= r <= 1 + delta for r in ratios)


def test_count_stages_mix_sampled_and_exact():
    csp, scheme = load_bundled("sat62")
    est = approx_count(csp, scheme, 0.2, seed=3)
    methods = {s["method"] for s in est.stages}
    assert "sampled" in methods
    assert est.estimate == pytest.approx(49, rel=0.2)


def test_count_regime_loss_falls_back_exact():
    # identity scheme never sits in the sampling regime: the estimate is the
    # exact count from stage zero
    csp, _ = load_bundled("xor2")
    est = approx_count(csp, identity_scheme(csp), 0.3, seed=2)
    assert est.stages[0]["method"] == "exact-tail"
    assert est.estimate == pytest.approx(2.0)


def test_stage_draws_with_moving_chain():
    # colork4's scheme keeps two blocks per variable, so stage draws run a
    # real (non-constant) chain before lifting
    from lllsample.counting import _stage_draws
    from lllsample.csp import evaluate

    csp, scheme = load_bundled("colork4")
    rows, errors = _stage_draws(csp, scheme, 0.2, 60, seed=4, eta=0.25, c_t=0.05)
    assert errors == 0 and rows.shape == (60, 4)
    for row in rows:
        assert evaluate(csp, [int(x) for x in row]) == []


def test_count_rejects_bad_delta():
    csp, scheme = load_bundled("and2")
    with pytest.raises(ValueError):
        approx_count(csp, scheme, 1.5, seed=0)


def test_counting_error_reports_stage():
    csp = uniform_csp(2, 2, [((0, 1), (0, 0)), ((0, 1), (1, 1)),
                             ((0, 1), (0, 1)), ((0, 1), (1, 0))])
    # unsatisfiable instance: every assignment forbidden
    with pytest.raises(CountingError) as err:
        approx_count(csp, full_marking_scheme(csp), 0.2, seed=0)
    assert err.value.stage == 0


def test_constraint_on_one_value_alphabets_is_unsatisfiable():
    # every assignment violates the constraint; past the enumeration guard and
    # outside the regime the count still says so, before drawing anything
    csp = AtomicCSP(22, (1,) + (2,) * 21, (AtomicConstraint((0,), (0,)),),
                    allow_unit_domains=True)
    assert csp.state_space_size() > ENUM_GUARD
    with pytest.raises(CountingError, match="stage 0: instance is unsatisfiable"):
        approx_count(csp, identity_scheme(csp), 0.2, seed=0)


@st.composite
def _instances(draw):
    """Random instances over alphabets of 2-4 values whose constraints all
    have at least a drawn width, with a random scheme: each value's block
    is a drawn label of at most 3."""
    n = draw(st.integers(1, 30))
    domains = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    width = min(n, draw(st.integers(1, 8)))
    constraints = []
    for _ in range(draw(st.integers(0, 14))):
        vars_ = draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=min(n, width + 2),
                              unique=True))
        forbidden = [draw(st.integers(0, domains[v] - 1)) for v in vars_]
        constraints.append(AtomicConstraint(vars_, forbidden))
    scheme = []
    for size in domains:
        labels = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        scheme.append(tuple(tuple(a for a in range(size) if labels[a] == label)
                            for label in sorted(set(labels))))
    return AtomicCSP(n, domains, constraints), ProjectionScheme(tuple(scheme))


def _lll_mass(csp):
    """e * p_C per constraint, and e * p_max * Delta, from the definitions."""
    mass = [math.e / math.prod(csp.domains[v] for v in c.vars) for c in csp.constraints]
    degree = max((sum(1 for d in csp.constraints if set(c.vars) & set(d.vars))
                  for c in csp.constraints), default=0)
    return mass, max(mass, default=0.0) * degree


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_blocks_partition_the_constraints(instance):
    csp, scheme = instance
    cut = blocks(csp)
    mass, lll = _lll_mass(csp)
    assert [i for span in cut.spans for i in span] == list(range(csp.m))
    assert all(len(span) >= 1 for span in cut.spans) and len(cut.sigma) == len(cut.spans)
    # the masses multiply 1/|A_v| position by position, so the sums are those
    # of this loop bit for bit
    exact = [math.e * math.prod(1.0 / csp.domains[v] for v in c.vars) for c in csp.constraints]
    assert cut.sigma == [sum(exact[i] for i in span) for span in cut.spans]
    for j, (span, sigma) in enumerate(zip(cut.spans, cut.sigma)):
        assert sigma == pytest.approx(math.fsum(mass[i] for i in span))
        if len(span) > 1:
            assert sigma <= 0.5
        if j + 1 < len(cut.spans):  # it closed because the next constraint would pass 1/2
            assert sigma + mass[span.stop] > 0.5
    # the sampled stages run only in the regime, which gives each ratio >= 1/2
    if check_admissibility(csp, scheme, 0.25).regime:
        assert lll <= 1.0 + 1e-12


def test_blocks_of_disjoint_wide_clauses():
    # 50 disjoint 8-clauses: e/256 each, 47 fit under 1/2
    wide = uniform_csp(400, 2, [(tuple(range(8 * j, 8 * j + 8)), (0,) * 8) for j in range(50)])
    assert [len(span) for span in blocks(wide).spans] == [47, 3]
    assert blocks(uniform_csp(2, 2, [])) == ([], [])


def test_first_stage_draws_from_the_product_law():
    csp = AtomicCSP(3, (2, 3, 5), [AtomicConstraint((0, 1, 2), (0, 0, 0))])
    rows = counting._product_draws(csp, 30000, [4, 1])
    assert rows.shape == (30000, 3) and rows.dtype == np.int64
    code = rows[:, 0] * 15 + rows[:, 1] * 5 + rows[:, 2]  # the joint law of all three
    assert chisquare(np.bincount(code, minlength=30)).pvalue > 1e-3
    assert rows.min() == 0 and (rows.max(axis=0) == np.array(csp.domains) - 1).all()


def test_one_block_runs_no_chain():
    # a single 4-clause is one block: the count is the exact first stage alone
    csp = uniform_csp(4, 2, [((0, 1, 2, 3), (0, 1, 0, 1))])

    def no_chain(*args):
        raise AssertionError("a chain stage ran")

    est = counting._count(csp, full_marking_scheme(csp), 0.5, seed=3, chain_draws=no_chain)
    (stage,) = est.stages[1:]
    assert stage["sampler"] == "exact" and stage["draws"] == math.ceil(64 / 0.25)
    assert est.samples_total == stage["draws"] and est.eps_stage == counting_eps(1, 0.5)


def test_stage_prefixes_are_the_earlier_constraints():
    # disjoint constraints of arities 2 to 5, so Delta = 1, over alphabets of
    # 2 values but one of 3, and a one-value variable in none: the blocks are
    # [0], [1], [2], [3, 4], [5, 6], so the chain stages' prefixes widen from
    # k = 2 to k = 4 while the instance's k is 5
    arities, cons, n = (2, 3, 3, 4, 4, 4, 5), [], 0
    for k in arities:
        vars_ = tuple(range(n + k - 1, n - 1, -1))  # descending
        cons.append(AtomicConstraint(vars_, tuple(v % 2 for v in vars_)))
        n += k
    csp = AtomicCSP(n + 1, (2,) * (n - 1) + (3, 1), cons, allow_unit_domains=True)
    prefixes = []

    def record(prefix, scheme, eps, n_draws, seed, eta, c_t):
        prefixes.append(prefix)
        return counting._product_draws(prefix, n_draws, seed), 0

    est = counting._count(csp, full_marking_scheme(csp), 0.5, seed=1, chain_draws=record)
    starts = [stage["constraint"] - 1 for stage in est.stages[2:]]
    assert starts == [1, 2, 3, 5] and [len(p.arrays.vc) for p in prefixes] == [2, 3, 3, 4]
    assert len(csp.arrays.vc) == 5 and all("constraints" not in p.__dict__ for p in prefixes)
    for prefix, start in zip(prefixes, starts):
        expect = AtomicCSP(csp.n, csp.domains, csp.constraints[:start], csp.allow_unit_domains)
        assert prefix == expect
        for name in ("domains", "vc", "forb", "arity"):
            got, want = getattr(prefix.arrays, name), getattr(expect.arrays, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and want.flags.c_contiguous
            assert np.array_equal(got, want)
        assert degree_stats(prefix) == degree_stats(expect)


def test_stage_health_fields():
    csp, scheme = load_bundled("sat62")  # two 3-clauses, e/8 each: one block apiece
    est = approx_count(csp, scheme, 0.2, seed=5)
    first, second = est.stages[1:]
    assert (first["sampler"], second["sampler"]) == ("exact", "chain")
    assert [(s["constraint"], s["last"]) for s in (first, second)] == [(1, 1), (2, 2)]
    for s in (first, second):
        assert s["sigma"] == pytest.approx(math.e / 8)
        assert s["variance"] == pytest.approx(
            s["marginal"] * (1 - s["marginal"]) / (s["draws"] - s["errors"]))
    # the exact stage takes at least c_n / delta^2 draws, the chain stage N
    assert (first["draws"], second["draws"]) == (1600, stage_samples(2 * math.e / 8, 0.2))
    assert est.samples_total == first["draws"] + second["draws"]


def test_one_wide_clause_keeps_the_exact_stage_floor():
    # one 10-clause at delta=0.5: N = ceil(64 * e/1024 / 0.25) = 1.  The
    # clause forbids the first exact draw, so a single draw would end the
    # count; the exact stage's floor of c_n / delta^2 draws carries it.
    free = uniform_csp(10, 2, [])
    first = counting._product_draws(free, 1, [7, 1])[0]
    csp = uniform_csp(10, 2, [(tuple(range(10)), tuple(int(x) for x in first))])
    assert stage_samples(math.e / 1024, 0.5) == 1
    est = approx_count(csp, full_marking_scheme(csp), 0.5, seed=7)
    (stage,) = est.stages[1:]
    assert stage["draws"] == 256 and stage["successes"] == 255
    assert est.estimate == pytest.approx(1024 * 255 / 256)


def _binary_scheme(spec):
    """A scheme over binary alphabets: "i" keeps a variable's two values
    apart (movable), "c" collapses them."""
    return ProjectionScheme(tuple(((0, 1),) if ch == "c" else ((0,), (1,)) for ch in spec))


def test_count_past_enumeration_through_the_chain():
    # 6 disjoint 5-clauses at n=30: Z = 31^6, past the oracle's guard.  The
    # blocks are 5 + 1, so the second stage runs the chain at c_t=1 under a
    # scheme that keeps two variables of each clause movable.
    rng = np.random.default_rng(0)
    lines = ["p cnf 30 6"] + [" ".join(str((5 * j + i + 1) * (1 if rng.integers(2) else -1))
                                       for i in range(5)) + " 0" for j in range(6)]
    csp = parse_dimacs("\n".join(lines) + "\n")
    scheme = _binary_scheme("iiccc" * 6)
    assert csp.state_space_size() > ENUM_GUARD
    delta = 0.5
    est = approx_count(csp, scheme, delta, seed=0, c_t=1.0)
    assert [s["sampler"] for s in est.stages[1:]] == ["exact", "chain"]
    ratio = math.exp(est.log_estimate - 6 * math.log(31))
    assert 1 / (1 + delta) <= ratio <= 1 + delta


@pytest.mark.slow
def test_count_at_n400_through_the_chain():
    # 50 disjoint 8-clauses at n=400: Z = 255^50, blocks 47 + 3, one exact
    # and one chain stage at c_t=1; the mean ratio over seeds lies within
    # delta/4 of 1.
    rng = np.random.default_rng(1)
    clauses = [(tuple(range(8 * j, 8 * j + 8)), tuple(rng.integers(0, 2, 8))) for j in range(50)]
    csp = uniform_csp(400, 2, clauses)
    scheme = _binary_scheme("iiiicccc" * 50)
    delta, log_z = 0.5, 50 * math.log(255)
    ratios = []
    for seed in range(3):
        est = approx_count(csp, scheme, delta, seed=seed, c_t=1.0)
        assert [s["sampler"] for s in est.stages[1:]] == ["exact", "chain"]
        ratios.append(math.exp(est.log_estimate - log_z))
    assert abs(np.mean(ratios) - 1) <= delta / 4
