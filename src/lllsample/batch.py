"""Vectorized many-chain driver.

Runs N independent copies of the projected chain in lockstep with numpy,
one vectorized update per time step, plus a batched lifting pass.  As in
the scalar driver, every chain starts from the projection of a uniform
assignment (Sampler.start_states) and steps only movable variables, those
with more than one block that lie in some constraint
(dynamics.movable_steps): a variable in no constraint keeps its start,
which is already its exact law.
BatchSampler is a dynamics.Sampler, the set-up built once per (instance,
scheme) that the scalar driver runs on too, whose step tables by variable
(Sampler.step_tables, gathered from the flat index CSPArrays.inc_flat)
run_chains builds on first use.  run_chains decides which constraints seed
a step from per-constraint match counts, the scalar driver from its
near-violation counts; every update goes through
dynamics.update (explore, then reject), which the scalar driver's busy step
repeats draw for draw, and every lift through dynamics.lift, so the
component rule, thresholds and fallback draws are the same.  The random
streams are laid out differently, so outputs for a given seed differ from
the scalar driver while the sampled law is the same.  Inside run_chains the
tables are chains-last, as in dynamics: states (n, N), match counts (m + 1, N).
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
        """Final projected states (n_chains, n) of n_chains independent
        chains, plus step failure tallies.

        Chain i runs its own K_i ~ Binomial(T, n_movable/n') steps, each at
        a uniform movable variable (dynamics.movable_steps); the lockstep
        loop runs max K_i steps and a chain past its K_i keeps its state."""
        N, cfg, csp = n_chains, self.cfg, self.csp
        ca, st, (cids_at, forb_at, need) = csp.arrays, self.scheme.tables, self.step_tables
        Y = np.ascontiguousarray(self.start_states(N, rng).T)
        touched = np.zeros(N, dtype=bool)
        s1_steps = s2_steps = 0
        movable, K = movable_steps(self.scheme, self.constrained, cfg.T if steps is None else steps,
                                   N, rng)
        # per-constraint projected forbidden matches, with a zero row for the pad
        cnt = np.concatenate([ca.matches(Y, self.forb), np.zeros((1, N), dtype=np.int64)])
        # a step reads and writes Y and cnt at flat positions (row * N + chain)
        Y_at, cnt_at = Y.ravel(), cnt.ravel()
        arity, chains, every = ca.arity[:-1, None], np.arange(N), K.min(initial=0)
        for t in range(K.max(initial=0)):
            rows = chains if t < every else np.flatnonzero(K > t)  # chains with a step left
            v = movable[rng.integers(movable.size, size=rows.size)]
            at, cids = v * N + rows, cids_at.take(v, axis=1)
            forb, at_cids = forb_at.take(v, axis=1), cids * N + rows
            hit = Y_at[at] == forb
            seed_at = cnt_at[at_cids] - hit == need.take(v, axis=1)
            # empty component: the block of a uniform value of v
            new_q = st.block(v, (rng.random(rows.size) * ca.domains[v]).astype(np.int64))
            busy = np.flatnonzero(seed_at.any(axis=0))
            if busy.size:
                busy_rows = rows[busy]
                seed = np.zeros((csp.m + 1, busy.size), dtype=bool)
                seed[cids.take(busy, axis=1), chains[: busy.size]] = seed_at.take(busy, axis=1)
                seed = seed[:-1]
                unsat = (cnt[:-1].take(busy_rows, axis=1) == arity) | seed
                q, s1, s2, _ = update(
                    csp, self.scheme, cfg, Y.take(busy_rows, axis=1), unsat, seed, v[busy], rng
                )
                new_q[busy] = q
                s1_steps += int(s1.sum())
                s2_steps += int(s2.sum())
                touched[busy_rows[s1 | s2]] = True
            cnt_at[at_cids] += (new_q == forb).astype(np.int64) - hit
            Y_at[at] = new_q
        return Y.T, s1_steps, s2_steps, touched

    def sample(self, n_samples: int, seed=None) -> BatchResult:
        rng = np.random.default_rng(seed)
        Y, s1_steps, s2_steps, touched = self.run_chains(n_samples, rng)
        X, errors = self.lift(Y, rng)
        return BatchResult(assignments=X, errors=errors, s1_steps=s1_steps, s2_steps=s2_steps,
                           touched=touched | (errors != ""), cfg=self.cfg)
