import math

import numpy as np
import pytest

from lllsample.csp import degree_stats, evaluate, parse_dimacs
from lllsample.resample import (
    BadEvent,
    ResampleResult,
    ResamplingProblem,
    default_attempts,
    find_assignment,
    moser_tardos,
)
from conftest import uniform_csp


def coin(rng):
    return int(rng.integers(2))


def test_zero_bad_events_returns_initial_draw():
    problem = ResamplingProblem(n=3, samplers=[coin] * 3, events=[])
    r1 = moser_tardos(problem, np.random.default_rng(5))
    r2 = moser_tardos(problem, np.random.default_rng(5))
    assert r1.success and r1.resamples == 0
    assert r1.values == r2.values  # deterministic under a fixed seed


def test_disjoint_3cnf_satisfied():
    csp = parse_dimacs(
        "p cnf 12 4\n1 2 3 0\n-4 -5 6 0\n7 -8 9 0\n-10 11 -12 0\n"
    )
    result = find_assignment(csp, np.random.default_rng(0))
    assert result.success
    assert evaluate(csp, result.values) == []


def test_determinism_trace():
    csp = parse_dimacs("p cnf 6 4\n1 2 0\n-2 3 0\n4 5 0\n-5 -6 0\n")
    r1 = find_assignment(csp, np.random.default_rng(11))
    r2 = find_assignment(csp, np.random.default_rng(11))
    assert r1.values == r2.values and r1.trace == r2.trace


def test_lowest_id_selection():
    # both events violated by the all-zero draw; the trace must start at 0
    samplers = [lambda rng: 0, lambda rng: 0]
    events = [
        BadEvent((0,), lambda vals: vals[0] == 0),
        BadEvent((1,), lambda vals: vals[1] == 0),
    ]

    idx = {"calls": 0}

    def forced_then_random(rng):
        idx["calls"] += 1
        return 0 if idx["calls"] <= 2 else int(rng.integers(2))

    problem = ResamplingProblem(n=2, samplers=[forced_then_random] * 2, events=events)
    result = moser_tardos(problem, np.random.default_rng(3))
    assert result.success
    assert result.trace[0] == 0


def test_budget_exhaustion_failure():
    # impossible event: always violated
    problem = ResamplingProblem(
        n=1, samplers=[coin], events=[BadEvent((0,), lambda vals: True)]
    )
    result = moser_tardos(problem, np.random.default_rng(0), delta=0.5)
    assert not result.success and result.values is None
    assert result.attempts_used == default_attempts(0.5)


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

    def claims_success(problem, rng, delta=0.01):
        return ResampleResult(True, [0] * problem.n, 0, 1)

    monkeypatch.setattr(resample, "moser_tardos", claims_success)
    csp = uniform_csp(2, 2, [((0, 1), (0, 0))])
    with pytest.raises(InternalError):
        find_assignment(csp, np.random.default_rng(0))


def _linear_scan_reference(problem, rng, delta=0.01):
    """moser_tardos as a plain loop: every step re-evaluates every event and
    redraws the lowest-id violated one."""
    n = problem.n
    steps = problem.steps_per_attempt if problem.steps_per_attempt is not None else 2 * n
    attempts = problem.attempts if problem.attempts is not None else default_attempts(delta)
    total, trace = 0, []
    for attempt in range(1, attempts + 1):
        values = [problem.samplers[v](rng) for v in range(n)]
        for _ in range(steps):
            eid = next((i for i, ev in enumerate(problem.events) if ev.violated(values)), None)
            if eid is None:
                break
            trace.append(eid)
            total += 1
            for v in problem.events[eid].vars:
                values[v] = problem.samplers[v](rng)
        if not any(ev.violated(values) for ev in problem.events):
            return ResampleResult(True, values, total, attempt, trace)
    return ResampleResult(False, None, total, attempts, trace)


def test_engine_matches_linear_scan_reference():
    # dense random clauses over few variables: events turn violated and
    # satisfied again many times, and short attempts exhaust their budget
    gen = np.random.default_rng(8)
    for case in range(60):
        n, size = int(gen.integers(3, 9)), int(gen.integers(2, 4))
        cons = []
        for _ in range(int(gen.integers(1, 3 * n))):
            vars_ = tuple(int(v) for v in gen.choice(n, size=int(gen.integers(1, 4)), replace=False))
            cons.append((vars_, tuple(int(f) for f in gen.integers(0, size, len(vars_)))))
        events = [
            BadEvent(vars_, lambda vals, vars_=vars_, forb=forb: all(
                vals[v] == f for v, f in zip(vars_, forb)))
            for vars_, forb in cons
        ]
        samplers = [lambda r, size=size: int(r.integers(size))] * n
        problem = ResamplingProblem(n, samplers, events, steps_per_attempt=int(gen.integers(1, 3 * n)),
                                    attempts=3)
        got = moser_tardos(problem, np.random.default_rng(case))
        assert got == _linear_scan_reference(problem, np.random.default_rng(case))
