"""Approximate model counting by self-reducibility, one constraint at a time.

Let Z_i count the assignments satisfying the first i constraints, so that
Z_0 = prod |A_v| and Z_m is the count sought.  Each ratio
r_i = Z_i / Z_{i-1} is the probability that constraint i holds under the
uniform law on the solutions of the first i - 1 constraints, and the
telescope Z_m = Z_0 * r_1 * ... * r_m estimates it from the share of sampler
draws on that sub-instance that satisfy constraint i.  No value is chosen
from the draws that measure it, so each stage is unbiased.

A sub-instance keeps every variable and alphabet and drops constraints, so
neither Delta nor b grows and the input's scheme serves every stage.  The
regime is checked once, on the input: outside it the instance is counted
exactly by enumeration when the oracle's guard allows, and counting aborts
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .batch import BatchSampler
from .csp import AtomicCSP
from .oracle import ENUM_GUARD, count_satisfying
from .projection import ProjectionScheme, RegimeError, _check_match, check_admissibility


class CountingError(RuntimeError):
    def __init__(self, stage: int, reason: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {reason}")


STAGE_EPS_CAP = 0.25


def counting_eps(m: int, delta: float, theta_const: float = 0.125) -> float:
    """Per-stage sampler accuracy for a (1+delta) count of an m-constraint
    instance: theta_const * delta^2 / (m * ln(m/delta)), at most
    STAGE_EPS_CAP.  The formula passes 1/2, where no sampler accuracy is
    defined, as m/delta nears 1; a smaller accuracy only tightens a stage."""
    if m < 1:
        raise ValueError("counting_eps needs at least one constraint")
    return min(theta_const * delta * delta / (m * math.log(m / delta)), STAGE_EPS_CAP)


def stage_samples(m: int, delta: float, c_n: float = 64.0) -> int:
    """Draws per stage of an m-constraint count; RegimeError where that is
    past the int64 range numpy counts draws in."""
    draws = c_n * m / (delta * delta)
    if not draws < 2.0**63:
        raise RegimeError(f"stage draws {draws:.4g} are past the int64 range (c_n = {c_n})")
    return math.ceil(draws)


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
            # strict JSON: a count past the float range is null, log_estimate keeps it
            "estimate": self.estimate if math.isfinite(self.estimate) else None,
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


def _exact(est: CountEstimate, method: str, count: int) -> None:
    """Record stage 0, the exactly known count that starts the telescope."""
    est.exact_tail = count
    est.log_estimate = math.log(count)
    est.stages.append({"stage": 0, "method": method, "count": count})


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
    """Multiplicative (1+delta) estimate of the satisfying-assignment count.

    Stage 0 is exact: the product of the alphabet sizes or, outside the
    sampling regime, the enumerated count.  Stage i = 1..m records the
    estimated ratio r_i as its marginal.  A count past the float range has
    estimate inf; log_estimate holds it."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    _check_match(csp, scheme)
    m = csp.m
    eps_stage = counting_eps(m, delta, theta_const) if m else None
    est = CountEstimate(estimate=1.0, log_estimate=0.0, delta=delta, eps_stage=eps_stage)

    report = check_admissibility(csp, scheme, eta)
    if not (report.all_pass or report.regime):
        if csp.state_space_size() > ENUM_GUARD:
            raise CountingError(0, "regime lost and instance too large to enumerate")
        count = count_satisfying(csp)
        if count == 0:
            raise CountingError(0, "instance is unsatisfiable")
        _exact(est, "exact-tail", count)
        est.estimate = float(count)
        return est

    _exact(est, "unconstrained-tail", csp.state_space_size())
    n_draws = stage_samples(m, delta, c_n)
    for i, constraint in enumerate(csp.constraints, start=1):
        prefix = AtomicCSP(csp.n, csp.domains, csp.constraints[: i - 1], csp.allow_unit_domains)
        rows, n_errors = _stage_draws(prefix, scheme, eps_stage, n_draws, [seed, i], eta, c_t)
        est.samples_total += n_draws
        if n_errors > 0.1 * n_draws:
            raise CountingError(i, f"{n_errors}/{n_draws} draws returned ERROR")
        held = np.any(rows[:, list(constraint.vars)] != constraint.forbidden, axis=1)
        successes = int(held.sum())
        if successes == 0:
            raise CountingError(i, "no draw satisfies the constraint; instance looks unsatisfiable")
        marginal = successes / rows.shape[0]
        est.log_estimate += math.log(marginal)
        est.stages.append(
            {
                "stage": i,
                "method": "sampled",
                "constraint": i,
                "marginal": marginal,
                "successes": successes,
                "draws": n_draws,
                "errors": n_errors,
            }
        )
    try:
        est.estimate = math.exp(est.log_estimate)
    except OverflowError:
        est.estimate = math.inf
    return est
