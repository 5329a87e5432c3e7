"""Vectorized many-chain driver.

Runs N independent copies of the projected chain in lockstep with numpy,
one vectorized update per time step, plus a batched lifting pass.  As in
the scalar driver, every chain starts from the projection of a uniform
assignment (Sampler.start_states) and steps only movable variables, those
with more than one block that lie in some constraint
(dynamics.movable_steps): a variable in no constraint keeps its start,
which is already its exact law.
BatchSampler is a dynamics.Sampler, the set-up built once per (instance,
scheme) that the scalar driver runs on too: the schedule and the projected
forbidden values by constraint, and by variable for the step test
(Sampler.inc_forb, built the first time run_chains reads it).  Each driver
keeps its own step bookkeeping: run_chains decides which constraints seed a
step from per-constraint match counts, the scalar driver from its
near-violation counts.  Every update goes through dynamics.update (explore,
then reject), which the scalar driver's busy step repeats on its own lists
draw for draw, and every lift through dynamics.lift, as the scalar driver's;
so the component rule, thresholds and fallback draws are the same.  The
random streams are laid out differently, so outputs for a given seed differ
from the scalar driver while the sampled law is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Sampler, SamplerConfig, movable_steps, update


@dataclass
class BatchResult:
    assignments: np.ndarray  # (N, n) int64, row of -1s on error
    errors: np.ndarray  # (N,) of "", "I1", "I2"
    s1_steps: int
    s2_steps: int
    touched: np.ndarray  # (N,) bool: chain saw any S1/S2 step or lift error
    cfg: SamplerConfig

    @property
    def ok(self) -> np.ndarray:
        return self.errors == ""


class BatchSampler(Sampler):
    """N chains in lockstep on one set-up (dynamics.Sampler), then their
    lifts in one batch."""

    def run_chains(self, n_chains: int, rng: np.random.Generator, steps: int | None = None):
        """Final projected states of n_chains independent chains, plus step
        failure tallies.

        Chain i runs its own K_i ~ Binomial(T, n_movable/n') steps, each at
        a uniform movable variable (dynamics.movable_steps); the lockstep
        loop runs max K_i steps and a chain past its K_i keeps its state."""
        N, cfg, csp = n_chains, self.cfg, self.csp
        ca, sa, inc_forb = csp.arrays, self.scheme.arrays, self.inc_forb
        Y = self.start_states(N, rng)
        s1_steps = s2_steps = 0
        touched = np.zeros(N, dtype=bool)
        movable, K = movable_steps(self.scheme, self.constrained, cfg.T if steps is None else steps,
                                   N, rng)
        # per-constraint projected forbidden matches, with a zero column for the pad
        cnt = np.concatenate([ca.matches(Y, self.forb), np.zeros((N, 1), dtype=np.int64)], axis=1)
        for t in range(K.max(initial=0)):
            rows = np.flatnonzero(K > t)  # chains with a step left
            v = movable[rng.integers(movable.size, size=rows.size)]
            cids, forb = ca.inc[v], inc_forb[v]
            hit = Y[rows, v][:, None] == forb
            seed_at = cnt[rows[:, None], cids] - hit == ca.arity[cids] - 1
            # empty component: the block of a uniform value of v
            new_q = sa.block_of[v, (rng.random(rows.size) * ca.domains[v]).astype(np.int64)]
            busy = np.flatnonzero(seed_at.any(axis=1))
            if busy.size:
                seed = np.zeros((busy.size, csp.m + 1), dtype=bool)
                seed[np.arange(busy.size)[:, None], cids[busy]] = seed_at[busy]
                seed = seed[:, :-1]
                busy_rows = rows[busy]
                unsat = (cnt[busy_rows, :-1] == ca.arity[:-1]) | seed
                q, s1, s2, _ = update(
                    csp, self.scheme, cfg, Y[busy_rows], unsat, seed, v[busy], rng
                )
                new_q[busy] = q
                s1_steps += int(s1.sum())
                s2_steps += int(s2.sum())
                touched[busy_rows[s1 | s2]] = True
            cnt[rows[:, None], cids] += (new_q[:, None] == forb).astype(np.int64) - hit
            Y[rows, v] = new_q
        return Y, s1_steps, s2_steps, touched

    def sample(self, n_samples: int, seed=None) -> BatchResult:
        rng = np.random.default_rng(seed)
        Y, s1_steps, s2_steps, touched = self.run_chains(n_samples, rng)
        X, errors = self.lift(Y, rng)
        return BatchResult(assignments=X, errors=errors, s1_steps=s1_steps, s2_steps=s2_steps,
                           touched=touched | (errors != ""), cfg=self.cfg)
