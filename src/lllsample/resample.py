"""Generic resampling engine: draw every variable fresh, then repeatedly
redraw the variables of a violated bad event until none is violated.

The engine serves two callers: finding satisfying assignments of an atomic
CSP, and randomized projection construction (where a "variable" is one
vertex's projection choice and a bad event is a per-constraint numeric
failure).  The caller is responsible for the regime condition e*p*Delta <= 1;
the engine only enforces budgets.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .csp import AtomicCSP, InternalError, evaluate


@dataclass(frozen=True)
class BadEvent:
    """Violation predicate over a declared variable subset.

    The predicate receives the full value list but must read only the
    declared variables; resampling redraws exactly those variables.
    """

    vars: tuple[int, ...]
    violated: Callable[[Sequence[Any]], bool]


@dataclass
class ResamplingProblem:
    n: int
    samplers: Sequence[Callable[[np.random.Generator], Any]]
    events: Sequence[BadEvent]
    steps_per_attempt: int | None = None  # default 2n
    attempts: int | None = None  # default ceil(log(1/delta)), min 1


@dataclass
class ResampleResult:
    success: bool
    values: list[Any] | None
    resamples: int
    attempts_used: int
    trace: list[int] = field(default_factory=list)  # event ids in resample order


def default_attempts(delta: float) -> int:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return max(1, math.ceil(math.log(1.0 / delta)))


def moser_tardos(
    problem: ResamplingProblem, rng: np.random.Generator, delta: float = 0.01
) -> ResampleResult:
    """Run independent attempts of at most 2n resampling steps each; within an
    attempt the lowest-id violated event is redrawn.  Success is re-checked
    against every event before returning."""
    n = problem.n
    steps = problem.steps_per_attempt if problem.steps_per_attempt is not None else 2 * n
    attempts = problem.attempts if problem.attempts is not None else default_attempts(delta)
    events = list(problem.events)
    events_by_var: list[list[int]] = [[] for _ in range(n)]
    for eid, ev in enumerate(events):
        for v in ev.vars:
            events_by_var[v].append(eid)

    total_resamples = 0
    trace: list[int] = []
    for attempt in range(1, attempts + 1):
        values = [problem.samplers[v](rng) for v in range(n)]
        violated = [ev.violated(values) for ev in events]
        # lazy min-heap: every violated id is in it, ids that turned
        # satisfied leave when they reach the top
        heap = [eid for eid, bad in enumerate(violated) if bad]
        for _ in range(steps):
            while heap and not violated[heap[0]]:
                heapq.heappop(heap)
            if not heap:
                break
            eid = heap[0]
            trace.append(eid)
            total_resamples += 1
            touched: set[int] = set()
            for v in events[eid].vars:
                values[v] = problem.samplers[v](rng)
                touched.update(events_by_var[v])
            for other in touched:
                bad = events[other].violated(values)
                if bad and not violated[other]:
                    heapq.heappush(heap, other)
                violated[other] = bad
        if not any(violated):
            # soundness re-check, independent of incremental bookkeeping
            if any(ev.violated(values) for ev in events):
                raise InternalError("bookkeeping and predicates disagree")
            return ResampleResult(True, values, total_resamples, attempt, trace)
    return ResampleResult(False, None, total_resamples, attempts, trace)


def find_assignment(
    csp: AtomicCSP, rng: np.random.Generator, delta: float = 0.01
) -> ResampleResult:
    """Satisfying assignment of an atomic CSP via resampling of violated
    constraints.  Caller asserts e*p*Delta <= 1 for the usual guarantee."""
    samplers = [
        (lambda r, size=size: int(r.integers(size))) for size in csp.domains
    ]
    events = [
        BadEvent(
            c.vars,
            lambda vals, c=c: all(vals[v] == f for v, f in zip(c.vars, c.forbidden)),
        )
        for c in csp.constraints
    ]
    problem = ResamplingProblem(n=csp.n, samplers=samplers, events=events)
    result = moser_tardos(problem, rng, delta=delta)
    if result.success and evaluate(csp, result.values):
        raise InternalError("resampling returned an assignment that violates a constraint")
    return result
