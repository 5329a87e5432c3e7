"""Approximate model counting by self-reducibility.

The satisfying-assignment count is the inverse probability of one fixed
satisfying assignment under the uniform law, telescoped over variables:
pin variables one at a time, estimate each conditional marginal of the pinned
value from sampler draws, and return the product of inverse marginals.  The
pinned value at each stage is the empirically most frequent one, keeping every
estimated marginal at least 1/|alphabet| in expectation.

Stages whose restricted scheme leaves the e*b*Delta <= 1 regime finish with
an exact enumeration tail instead (desk-scale guard, capped at 2^20 states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .batch import BatchSampler
from .csp import AtomicCSP, AtomicConstraint, CSPError
from .oracle import ENUM_GUARD, count_satisfying
from .projection import ProjectionScheme, check_admissibility, regime_ok

EXACT_TAIL_GUARD = 1 << 20


class PinnedUnsatisfiable(CSPError):
    pass


class CountingError(RuntimeError):
    def __init__(self, stage: int, reason: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {reason}")


def counting_eps(m: int, delta: float, theta_const: float = 0.125) -> float:
    """Per-stage sampler accuracy for a (1+delta) count of an m-constraint
    instance: theta_const * delta^2 / (m * ln(m/delta))."""
    if m < 1:
        raise ValueError("counting_eps needs at least one constraint")
    return theta_const * delta * delta / (m * math.log(m / delta))


def stage_samples(n: int, delta: float, c_n: float = 64.0) -> int:
    return math.ceil(c_n * n / (delta * delta))


def pin_variable(csp: AtomicCSP, v: int, value: int):
    """Substitute value for variable v and drop it.

    Constraints forbidding a different value at v become satisfied and vanish;
    constraints forbidding exactly this value shrink.  A constraint shrinking
    to zero variables witnesses unsatisfiability of the pinned instance.
    Returns (pinned CSP, kept original-position list).
    """
    if not 0 <= v < csp.n:
        raise CSPError(f"variable {v} out of range")
    if not 0 <= value < csp.domains[v]:
        raise CSPError(f"value {value} outside alphabet of variable {v}")
    keep = [u for u in range(csp.n) if u != v]
    remap = {u: i for i, u in enumerate(keep)}
    constraints = []
    for c in csp.constraints:
        if v in c.vars:
            if c.forbidden_at(v) != value:
                continue
            pairs = [(remap[u], f) for u, f in zip(c.vars, c.forbidden) if u != v]
            if not pairs:
                raise PinnedUnsatisfiable(
                    f"pinning variable {v} to {value} violates a unit constraint"
                )
            constraints.append(AtomicConstraint(*zip(*pairs)))
        else:
            constraints.append(
                AtomicConstraint(tuple(remap[u] for u in c.vars), c.forbidden)
            )
    pinned = AtomicCSP(
        n=len(keep),
        domains=tuple(csp.domains[u] for u in keep),
        constraints=tuple(constraints),
        allow_unit_domains=csp.allow_unit_domains,
    )
    return pinned, keep


@dataclass
class CountEstimate:
    estimate: float
    log_estimate: float
    delta: float
    eps_stage: float | None
    stages: list[dict] = field(default_factory=list)
    exact_tail: int | None = None
    samples_total: int = 0

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "log_estimate": self.log_estimate,
            "delta": self.delta,
            "eps_stage": self.eps_stage,
            "stages": self.stages,
            "exact_tail": self.exact_tail,
            "samples_total": self.samples_total,
        }


def _stage_draws(csp, scheme, eps, n_draws, seed, eta, c_t):
    """(assignment rows, error count) for one stage's sample budget."""
    result = BatchSampler(csp, scheme, eps, eta=eta, c_t=c_t).sample(n_draws, seed=seed)
    return result.assignments[result.ok], int((~result.ok).sum())


def approx_count(
    csp: AtomicCSP,
    scheme: ProjectionScheme,
    delta: float,
    seed=None,
    theta_const: float = 0.125,
    c_n: float = 64.0,
    eta: float = 0.25,
    c_t: float = 1.0,
) -> CountEstimate:
    """Multiplicative (1+delta) estimate of the satisfying-assignment count."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    n0, m0 = csp.n, csp.m
    eps_stage = counting_eps(m0, delta, theta_const) if m0 else None
    est = CountEstimate(estimate=1.0, log_estimate=0.0, delta=delta, eps_stage=eps_stage)

    cur_csp, cur_scheme = csp, scheme
    log_est = 0.0
    for stage in range(n0):
        if cur_csp.n == 0:
            break
        if cur_csp.m == 0:
            tail = cur_csp.state_space_size()
            log_est += math.log(tail)
            est.exact_tail = tail
            est.stages.append({"stage": stage, "method": "unconstrained-tail", "count": tail})
            break
        report = check_admissibility(cur_csp, cur_scheme, eta)
        if not (report.all_pass or regime_ok(cur_csp, cur_scheme)):
            if cur_csp.state_space_size() > min(EXACT_TAIL_GUARD, ENUM_GUARD):
                raise CountingError(stage, "regime lost and instance too large to enumerate")
            tail = count_satisfying(cur_csp)
            if tail == 0:
                raise CountingError(stage, "pinned instance is unsatisfiable")
            log_est += math.log(tail)
            est.exact_tail = tail
            est.stages.append({"stage": stage, "method": "exact-tail", "count": tail})
            break

        n_draws = stage_samples(cur_csp.n, delta, c_n)
        rows, n_errors = _stage_draws(
            cur_csp, cur_scheme, eps_stage, n_draws, [seed, stage], eta, c_t
        )
        est.samples_total += n_draws
        if n_errors > 0.1 * n_draws:
            raise CountingError(stage, f"{n_errors}/{n_draws} draws returned ERROR")
        if rows.shape[0] == 0:
            raise CountingError(stage, "no successful draws; instance looks unsatisfiable")
        values = rows[:, 0]
        counts = np.bincount(values, minlength=cur_csp.domains[0])
        pick = int(counts.argmax())
        marginal = counts[pick] / rows.shape[0]
        log_est -= math.log(marginal)
        est.stages.append(
            {
                "stage": stage,
                "method": "sampled",
                "variable_position": stage,
                "value": pick,
                "marginal": float(marginal),
                "successes": int(rows.shape[0]),
                "draws": int(n_draws),
                "errors": int(n_errors),
                "admissible": report.all_pass,
            }
        )
        try:
            cur_csp, keep = pin_variable(cur_csp, 0, pick)
        except PinnedUnsatisfiable as exc:
            raise CountingError(stage, str(exc)) from exc
        cur_scheme = cur_scheme.restrict(keep)

    est.log_estimate = log_est
    est.estimate = math.exp(log_est)
    return est
