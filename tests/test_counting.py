import math

import numpy as np
import pytest

import lllsample.counting as counting
from lllsample.bundled import load_bundled
from lllsample.counting import CountingError, approx_count, counting_eps, stage_samples
from lllsample.projection import full_marking_scheme, identity_scheme
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
    csp = uniform_csp(3, 2, [])
    est = approx_count(csp, identity_scheme(csp), 0.2, seed=1)
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


def test_count_unbiased_at_n200(monkeypatch):
    # 50 disjoint 4-clauses with mixed signs: Z = 15^50.  With an exact
    # sampler in place of the chain, the telescope's mean ratio must sit
    # within delta/4 of 1.
    rng = np.random.default_rng(0)
    clauses = [(tuple(range(4 * j, 4 * j + 4)), tuple(rng.integers(0, 2, 4))) for j in range(50)]
    csp = uniform_csp(200, 2, clauses)
    monkeypatch.setattr(counting, "_stage_draws", _exact_disjoint_clause_draws)
    delta, log_z = 0.5, 50 * math.log(15)
    ratios = []
    for seed in range(20):
        est = approx_count(csp, full_marking_scheme(csp), delta, seed=seed)
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
