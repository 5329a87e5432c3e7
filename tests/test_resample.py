import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lllsample.csp import AtomicConstraint, AtomicCSP, degree_stats, evaluate, parse_dimacs
from lllsample.projection import construct_projection
from lllsample.resample import (
    ResampleResult,
    default_attempts,
    find_assignment,
    moser_tardos,
    redraw_set,
)
from conftest import uniform_csp


def coins(idx, rng):
    return rng.integers(2, size=idx.size)


def clause_tables(n, cons):
    """Padded (vc, forb) tables of clauses over n variables."""
    k = max((len(vars_) for vars_, _ in cons), default=0)
    vc = np.full((len(cons), k), n, dtype=np.int64)
    forb = np.full((len(cons), k), -2, dtype=np.int64)
    for cid, (vars_, f) in enumerate(cons):
        vc[cid, : len(vars_)], forb[cid, : len(vars_)] = vars_, f
    return vc, forb


def clauses_violated(vc, forb):
    """violated(values) for clauses: every variable at its forbidden value."""
    return lambda x: (np.append(x, -1)[vc] == forb).sum(axis=1) == (vc < len(x)).sum(axis=1)


def test_zero_bad_events_returns_initial_draw():
    none = np.zeros((0, 0), dtype=np.int64)
    r1 = moser_tardos(3, none, coins, lambda x: np.zeros(0, bool), np.random.default_rng(5))
    r2 = moser_tardos(3, none, coins, lambda x: np.zeros(0, bool), np.random.default_rng(5))
    assert r1.success and r1.resamples == 0
    assert r1.values == r2.values  # deterministic under a fixed seed
    assert all(type(v) is int for v in r1.values)


def test_disjoint_3cnf_satisfied():
    csp = parse_dimacs(
        "p cnf 12 4\n1 2 3 0\n-4 -5 6 0\n7 -8 9 0\n-10 11 -12 0\n"
    )
    result = find_assignment(csp, np.random.default_rng(0))
    assert result.success
    assert evaluate(csp, result.values) == []


def _rounds(csp, seed, delta=0.01):
    """find_assignment's result and the variables it redrew, round by round,
    with every constraint evaluated from scratch in every round."""
    a, trace = csp.arrays, []

    def draw(idx, rng):
        trace.append(idx.tolist())
        return rng.integers(a.domains[idx])

    violated = lambda x: a.matches(x, a.forb) == a.arity[:-1]
    return moser_tardos(csp.n, a.vc.T, draw, violated, np.random.default_rng(seed), delta), trace


def test_determinism_trace():
    csp = parse_dimacs("p cnf 6 4\n1 2 0\n-2 3 0\n4 5 0\n-5 -6 0\n")
    r1 = find_assignment(csp, np.random.default_rng(11))
    r2 = find_assignment(csp, np.random.default_rng(11))
    assert r1 == r2
    (r3, t3), (r4, t4) = _rounds(csp, 11), _rounds(csp, 11)
    assert r3 == r1 and t3 == t4


def test_incremental_mask_matches_evaluating_from_scratch():
    # find_assignment re-evaluates only the constraints at changed values;
    # on dense instances, whose attempts exhaust their budget and restart,
    # and on a sparse 4-CNF it gives what evaluating every constraint gives
    gen = np.random.default_rng(8)
    outcomes = set()
    for case in range(60):
        n, size = int(gen.integers(3, 9)), int(gen.integers(2, 4))
        csp = uniform_csp(n, size, _random_clauses(gen, n, size))
        delta = float(gen.choice([0.5, 0.01]))
        got = find_assignment(csp, np.random.default_rng(case), delta)
        assert got == _rounds(csp, case, delta)[0]
        outcomes.add((got.success, got.attempts_used > 1))
    assert outcomes >= {(True, False), (True, True), (False, True)}
    lines = ["p cnf 2000 4000"]
    for _ in range(4000):
        vars_ = gen.choice(2000, size=4, replace=False) + 1
        lines.append(" ".join(str(v * s) for v, s in zip(vars_, gen.choice([-1, 1], 4))) + " 0")
    csp = parse_dimacs("\n".join(lines) + "\n")
    got = find_assignment(csp, np.random.default_rng(5))
    assert got.success and got.resamples > 100
    assert got == _rounds(csp, 5)[0]


def test_default_attempts_is_ceil_log_one_over_delta():
    # -log(delta) in place of log(1/delta): the same count wherever 1/delta
    # is finite, and a count rather than OverflowError below about 5.6e-309
    for delta in [0.5, 0.01] + [10.0**-k for k in range(1, 309)]:
        assert default_attempts(delta) == max(1, math.ceil(math.log(1.0 / delta)))
    assert default_attempts(1e-320) == math.ceil(320 * math.log(10))
    assert default_attempts(5e-324) == 745


def test_lowest_id_selection():
    # clauses 0-2 on a path 0-1-2-3 and clause 3 apart, all violated by the
    # first draw: a round redraws clause 0, the lowest, and clause 3, but not
    # clause 1 (it shares variable 1 with clause 0) nor clause 2 (it shares
    # variable 2 with the violated clause 1)
    cons = [((0, 1), (0, 0)), ((1, 2), (0, 0)), ((2, 3), (0, 0)), ((4, 5), (0, 0))]
    vc, forb = clause_tables(6, cons)
    assert redraw_set(vc, np.array([0, 1, 2, 3]), 6).tolist() == [0, 3]
    assert redraw_set(vc, np.array([1, 2, 3]), 6).tolist() == [1, 3]
    assert redraw_set(vc, np.array([2, 3]), 6).tolist() == [2, 3]
    draws = []

    def zeros_first(idx, rng):
        draws.append(idx.tolist())
        return np.zeros(idx.size, np.int64) if len(draws) == 1 else rng.integers(2, size=idx.size)

    result = moser_tardos(6, vc, zeros_first, clauses_violated(vc, forb), np.random.default_rng(3))
    assert result.success
    assert draws[1] == [0, 1, 4, 5]  # clauses 0 and 3, in id order


def test_budget_exhaustion_failure():
    # impossible event: always violated
    vc = np.zeros((1, 1), dtype=np.int64)
    result = moser_tardos(1, vc, coins, lambda x: np.ones(1, bool), np.random.default_rng(0),
                          delta=0.5)
    assert not result.success and result.values is None
    assert result.attempts_used == default_attempts(0.5)
    assert result.resamples == 6 * default_attempts(0.5) and result.violated == 1


def test_single_clause_expected_resamples():
    # one clause of arity 3: violation probability p = 1/8 per fresh draw,
    # so the expected resample count p/(1-p) is below 1/(1-p)
    csp = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    p = 1.0 / 8.0
    rng = np.random.default_rng(99)
    counts = []
    for _ in range(10_000):
        result = find_assignment(csp, rng)
        assert result.success
        counts.append(result.resamples)
    mean = float(np.mean(counts))
    sigma = float(np.std(counts)) / math.sqrt(len(counts))
    assert mean <= 1.0 / (1.0 - p) + 3.0 * sigma


def test_lll_regime_3cnf_batch():
    # sparse random 3-CNF in the e*p*Delta <= 1 regime solves every time
    rng = np.random.default_rng(42)
    for _ in range(20):
        csp = _sparse_3cnf(60, 12, rng)
        delta, _, _ = degree_stats(csp)
        assert math.e * (1 / 8) * delta <= 1.0
        result = find_assignment(csp, rng)
        assert result.success and evaluate(csp, result.values) == []


def _sparse_3cnf(n, m, rng):
    cons, used = [], []
    while len(cons) < m:
        vars_ = tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False)))
        overlap = sum(1 for other in used if set(other) & set(vars_))
        if overlap or any(set(other) & set(vars_) for other in used):
            continue
        forb = tuple(int(b) for b in rng.integers(0, 2, 3))
        cons.append((vars_, forb))
        used.append(vars_)
    return uniform_csp(n, 2, cons)


def test_find_assignment_verifies_its_result(monkeypatch):
    # a solver that reports success on a violating assignment is a defect:
    # find_assignment must raise, not return it
    import lllsample.resample as resample
    from lllsample.csp import InternalError

    def claims_success(n, vc, draw, violated, rng, delta=0.01):
        return ResampleResult(True, [0] * n, 0, 1)

    monkeypatch.setattr(resample, "moser_tardos", claims_success)
    csp = uniform_csp(2, 2, [((0, 1), (0, 0))])
    with pytest.raises(InternalError):
        find_assignment(csp, np.random.default_rng(0))


def _linear_scan_reference(n, cons, draw, rng, delta=0.01):
    """moser_tardos as plain loops: every round scans every clause, and
    redraws, in id order, the violated ones with no lower violated clause on
    a variable of theirs, as many as the budget of 6n redraws still allows."""
    resamples, attempts = 0, default_attempts(delta)
    for attempt in range(1, attempts + 1):
        values, budget = [int(x) for x in draw(np.arange(n), rng)], 6 * n
        while True:
            bad = [e for e, (vars_, f) in enumerate(cons)
                   if all(values[v] == fv for v, fv in zip(vars_, f))]
            if not bad or not budget:
                break
            chosen = [e for e in bad if not any(
                set(cons[o][0]) & set(cons[e][0]) for o in bad if o < e)][:budget]
            budget -= len(chosen)
            resamples += len(chosen)
            idx = [v for e in chosen for v in cons[e][0]]
            for v, x in zip(idx, draw(np.array(idx, dtype=np.int64), rng)):
                values[v] = int(x)
        if not bad:
            return ResampleResult(True, values, resamples, attempt)
    return ResampleResult(False, None, resamples, attempts, len(bad))


def _random_clauses(gen, n, size):
    cons = []
    for _ in range(int(gen.integers(1, 3 * n))):
        vars_ = tuple(int(v) for v in gen.choice(n, size=int(gen.integers(1, 4)), replace=False))
        cons.append((vars_, tuple(int(f) for f in gen.integers(0, size, len(vars_)))))
    return cons


def test_engine_matches_linear_scan_reference():
    # dense random clauses of mixed arity over few variables: clauses turn
    # violated and satisfied again many times, and many runs exhaust the
    # budget; values, resamples, attempts and the violated count agree
    gen = np.random.default_rng(8)
    for case in range(60):
        n, size = int(gen.integers(3, 9)), int(gen.integers(2, 4))
        cons = _random_clauses(gen, n, size)
        vc, forb = clause_tables(n, cons)
        draw = lambda idx, r: r.integers(size, size=idx.size)
        delta = float(gen.choice([0.5, 0.01]))
        got = moser_tardos(n, vc, draw, clauses_violated(vc, forb), np.random.default_rng(case), delta)
        assert got == _linear_scan_reference(n, cons, draw, np.random.default_rng(case), delta)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_redraw_set_is_an_independent_set_holding_the_lowest_violated(data):
    n = data.draw(st.integers(1, 8))
    cons = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True),
        min_size=1, max_size=12,
    ))
    vc, _ = clause_tables(n, [(c, [0] * len(c)) for c in cons])  # mixed arities: pads
    bad = np.array(sorted(data.draw(st.sets(st.integers(0, len(cons) - 1), min_size=1))))
    chosen = redraw_set(vc, bad, n).tolist()
    assert chosen and chosen[0] == bad[0]
    assert set(chosen) <= set(bad.tolist()) and chosen == sorted(chosen)
    for i, e in enumerate(chosen):
        assert not any(set(cons[e]) & set(cons[o]) for o in chosen[i + 1:])
    # exactly the violated events with no lower violated event beside them
    assert chosen == [e for e in bad.tolist()
                      if not any(set(cons[o]) & set(cons[e]) for o in bad.tolist() if o < e)]


def _random_kcnf(seed, n, m, k):
    """m clauses of k distinct, sorted variables with random signs, drawn
    with numpy alone: a row with a repeated variable is drawn again."""
    gen = np.random.default_rng(seed)
    vc = gen.integers(n, size=(m, k))
    while (redo := np.flatnonzero((np.diff(np.sort(vc), axis=1) == 0).any(axis=1))).size:
        vc[redo] = gen.integers(n, size=(redo.size, k))
    vc, forb = np.sort(vc).tolist(), gen.integers(2, size=(m, k)).tolist()
    return AtomicCSP(n, (2,) * n, tuple(map(AtomicConstraint, vc, forb)))


# sha256 over find_assignment on a random 4-CNF at the kcnf-solve operation's
# size, at three seeds, and over the case2 scheme JSON of a random 8-CNF at its
# set-up's size, at two seeds: 8-wide rows, whose float window sums must keep
# their association.  Recorded at 0.9.0.
WORKLOAD_DIGESTS = {
    "construct": "be91905a714d45e6cc70afa6c11f85fe6218139975bfc8d6bc2fc49122e029a5",
    "find": "c4ff4b63bacf26f4e5521c0d57bc6b28c9b36593d8d477a6aa439691726d1022",
}


@pytest.mark.parametrize("part", sorted(WORKLOAD_DIGESTS))
def test_resampling_is_pinned_at_workload_scale(part):
    digest = hashlib.sha256()
    if part == "find":
        csp = _random_kcnf(20, 5000, 10000, 4)
        for seed in range(3):
            r = find_assignment(csp, np.random.default_rng([20, seed]))
            digest.update(json.dumps([r.values, r.resamples, r.attempts_used,
                                      r.violated]).encode())
    else:
        csp = _random_kcnf(21, 5000, 2000, 8)
        for seed in range(2):
            digest.update(construct_projection(csp, seed=[21, seed]).to_json().encode())
    assert digest.hexdigest() == WORKLOAD_DIGESTS[part]
