"""Approximate model counting by a blocked self-reducibility telescope.

Cut the constraints, in input order, into blocks B_1..B_s and let Z_j count
the assignments satisfying B_1..B_j, so that Z_0 = prod |A_v| and Z_s is the
count sought.  Each ratio r_j = Z_j / Z_{j-1} is the probability that every
constraint of B_j holds under mu_{<j}, the uniform law on the solutions of
the earlier blocks, and the telescope Z_s = Z_0 * r_1 * ... * r_s estimates
it from the share of draws from mu_{<j} that satisfy all of B_j.  No value
is chosen from the draws that measure it, so each stage is unbiased.  Stage 1
has no earlier constraint: mu_{<1} is the product of uniform alphabets and is
drawn exactly.  Every later stage runs the many-chain sampler on the
instance of the earlier blocks.

Condition.  Let p_C = prod_{v in C} 1/|A_v|, the probability that C is
violated under the product law, and Delta the largest constraint degree,
which counts the constraint itself.  Stages are sampled only in the regime
e * b * Delta <= 1 alone, checked once on the input (_in_regime).  The
scheme's blocks partition each alphabet, so b(C) = prod 1/|forbidden block|
is at least p_C and the regime gives e * p_max * Delta <= 1.  Then the
asymmetric local lemma holds with x_C = e * p_C: each of the at most
Delta - 1 neighbours D of C has x_D <= 1/Delta, and
(1 - 1/Delta)^(Delta - 1) >= 1/e, so p_C <= x_C * prod_D (1 - x_D).  Its
proof gives mu(C violated | every constraint of S holds) <= e * p_C for any
set S without C, here the earlier blocks.

Blocks.  A block closes before sigma_j = sum_{C in B_j} e * p_C would pass
1/2, so by the union bound 1 - r_j <= sigma_j <= 1/2.  A one-constraint block
carries sigma_j > 1/2 only when Delta = 1, where its constraint shares no
variable and 1 - r_j = p_C <= 1/e.

Budget.  With N draws, r-hat_j has relative variance (1 - r_j) / (r_j N),
which is at most 2 sigma_j / N: (1 - r)/r <= 2(1 - r) when r >= 1/2, and
p/(1 - p) <= 2ep when p <= 1/e.  The stages draw independently, so the
product has relative variance prod_j (1 + 2 sigma_j / N) - 1 <=
exp(2 sum_j sigma_j / N) - 1, and N = ceil(c_n * sum_j sigma_j / delta^2)
draws per stage bound it by exp(2 delta^2 / c_n) - 1, about delta^2 / 32 at
c_n = 64.  Chebyshev then puts the estimate within (1 +/- delta) of the
count with probability at least about 31/32, less the chain's bias, which
counting_eps(s, delta) keeps small over the s stages.  This is the blocked
telescope of Jerrum-Valiant-Vazirani (1986) and Stefankovic-Vempala-Vigoda
(JACM 2009).  The exact first stage runs no chain, so it takes at least
c_n / delta^2 draws: where sum_j sigma_j is small, N comes to a few draws,
and one that broke its block would end the count.

A sub-instance keeps every variable and alphabet and drops constraints, so
neither Delta nor b grows and the input's scheme serves every stage; its
chain runs only on the variables the earlier blocks constrain.  It is the
first columns of the input's tables (AtomicCSP.arrays), trimmed to their
largest arity; no stage reads or builds a constraint object.
Outside the regime the instance is counted exactly by enumeration when the
oracle's guard allows.  Above the guard, a count of one block still runs,
since its one stage is exact and needs no chain, and a count of more blocks
aborts.  A constraint whose variables all have one-value alphabets is
violated by every assignment; the count reports such an instance as
unsatisfiable before anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .batch import BatchSampler
from .csp import AtomicCSP
from .dynamics import SamplerConfig
from .oracle import ENUM_GUARD, count_satisfying
from .projection import ProjectionScheme, RegimeError, _check_match, _in_regime


class CountingError(RuntimeError):
    def __init__(self, stage: int, reason: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {reason}")


STAGE_EPS_CAP = 0.25
BLOCK_MASS = 0.5  # a block closes before its sum of e * p_C would pass this


def counting_eps(m: int, delta: float, theta_const: float = 0.125) -> float:
    """Per-stage sampler accuracy for a (1+delta) count of m stages:
    theta_const * delta^2 / (m * ln(m/delta)), at most STAGE_EPS_CAP.  The
    formula passes 1/2, where no sampler accuracy is defined, as m/delta
    nears 1; a smaller accuracy only tightens a stage."""
    if m < 1:
        raise ValueError("counting_eps needs at least one stage")
    return min(theta_const * delta * delta / (m * math.log(m / delta)), STAGE_EPS_CAP)


def stage_samples(mass: float, delta: float, c_n: float = 64.0) -> int:
    """Draws per stage, ceil(c_n * mass / delta^2) and at least 1, where mass
    is the sum of e * p_C over the constraints; RegimeError where that is
    past the int64 range numpy counts draws in."""
    draws = c_n * mass / (delta * delta)
    if not draws < 2.0**63:
        raise RegimeError(f"stage draws {draws:.4g} are past the int64 range (c_n = {c_n})")
    return max(1, math.ceil(draws))


class Blocks(NamedTuple):
    spans: list[range]  # 0-based constraint indices of each block, in input order
    sigma: list[float]  # sum of e * p_C over each block


def blocks(csp: AtomicCSP) -> Blocks:
    """The telescope's blocks: consecutive runs of constraints, each closed
    before its sum of e * p_C would pass BLOCK_MASS.  Each stage ratio is at
    least 1/2 when e * p_max * Delta <= 1, which the sampling regime implies."""
    a = csp.arrays
    # 1/|A_v| multiplied position by position, as math.prod would; pads at 1.0
    mass = (math.e * np.append(1.0 / a.domains, 1.0)[a.vc].prod(axis=0)).tolist()
    spans, sigma, start, total = [], [], 0, 0.0
    for i, x in enumerate(mass):
        if i > start and total + x > BLOCK_MASS:
            spans.append(range(start, i))
            sigma.append(total)
            start, total = i, 0.0
        total += x
    if mass:
        spans.append(range(start, csp.m))
        sigma.append(total)
    return Blocks(spans, sigma)


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
    """(assignment rows, error count) for one chain stage's sample budget."""
    result = BatchSampler(csp, scheme, eps, eta=eta, c_t=c_t).sample(n_draws, seed=seed)
    return result.assignments[result.ok], int((~result.ok).sum())


def _product_draws(csp: AtomicCSP, n_draws: int, seed) -> np.ndarray:
    """(n_draws, n) rows of independent uniform values, one per variable:
    exact draws from stage 1's law, whose prefix holds no constraint."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, np.asarray(csp.domains), size=(n_draws, csp.n))


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
    sampling regime, the enumerated count.  Stage j = 1..s records the
    estimated ratio r_j of block j as its marginal; the stages after the
    first draw through _stage_draws.  A count past the float range has
    estimate inf; log_estimate holds it."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    _check_match(csp, scheme)
    # every assignment violates a constraint whose alphabets have one value each
    a = csp.arrays
    if np.append(a.domains == 1, True)[a.vc].all(axis=0).any():
        raise CountingError(0, "instance is unsatisfiable")
    cut = blocks(csp)
    eps_stage = counting_eps(len(cut.spans), delta, theta_const) if cut.spans else None
    est = CountEstimate(estimate=1.0, log_estimate=0.0, delta=delta, eps_stage=eps_stage)

    if not _in_regime(csp, scheme):
        if csp.state_space_size() <= ENUM_GUARD:
            count = count_satisfying(csp)
            if count == 0:
                raise CountingError(0, "instance is unsatisfiable")
            _exact(est, "exact-tail", count)
            est.estimate = float(count)
            return est
        # one block is the exact first stage alone: no chain runs, so the
        # regime is not needed
        if len(cut.spans) > 1:
            raise CountingError(0, "regime lost and instance too large to enumerate")

    _exact(est, "unconstrained-tail", csp.state_space_size())
    if cut.spans:
        # the stage accuracy scales with delta^2, which underflows to 0 below
        # about 1.6e-162
        if eps_stage == 0.0:
            raise RegimeError(f"the stage accuracy underflows to 0 at delta = {delta}")
        # refuse schedule constants past the drivers' ranges, even when every
        # stage is exact: those of the input, whose constrained variables and
        # Delta, and so T, S and kappa, bound those of every prefix
        SamplerConfig.derive(csp, scheme, eps_stage, eta=eta, c_t=c_t)
        n_draws = stage_samples(math.fsum(cut.sigma), delta, c_n)
    if seed is None:
        seed = np.random.SeedSequence().entropy
    for j, (span, sigma) in enumerate(zip(cut.spans, cut.sigma), start=1):
        if j == 1:
            draws = max(n_draws, stage_samples(1.0, delta, c_n))
            rows, n_errors, sampler = _product_draws(csp, draws, [seed, j]), 0, "exact"
        else:
            draws = n_draws
            start, k = span.start, a.arity[: span.start].max()  # trimmed to the prefix's arity
            prefix = AtomicCSP._of_arrays(csp.n, csp.domains, a.vc[:k, :start].copy(),
                                          a.forb[:k, :start].copy(),
                                          np.append(a.arity[:start], -1), csp.allow_unit_domains)
            rows, n_errors = _stage_draws(prefix, scheme, eps_stage, draws, [seed, j], eta, c_t)
            sampler = "chain"
        est.samples_total += draws
        if n_errors > 0.1 * draws:
            raise CountingError(j, f"{n_errors}/{draws} draws returned ERROR")
        held = np.ones(rows.shape[0], dtype=bool)
        for cid in span:
            k = a.arity[cid]
            held &= np.any(rows[:, a.vc[:k, cid]] != a.forb[:k, cid], axis=1)
        successes = int(held.sum())
        if successes == 0:
            # the regime makes the instance satisfiable: too few draws for r_j
            raise CountingError(j, f"none of {rows.shape[0]} draws satisfies the block; raise c_n")
        marginal = successes / rows.shape[0]
        est.log_estimate += math.log(marginal)
        est.stages.append(
            {
                "stage": j,
                "method": "sampled",
                "sampler": sampler,
                "constraint": span.start + 1,  # the block's first constraint, 1-based
                "last": span.stop,
                "sigma": sigma,
                "marginal": marginal,
                "successes": successes,
                "draws": draws,
                "errors": n_errors,
                "variance": marginal * (1.0 - marginal) / rows.shape[0],
            }
        )
    try:
        est.estimate = math.exp(est.log_estimate)
    except OverflowError:
        est.estimate = math.inf
    return est
