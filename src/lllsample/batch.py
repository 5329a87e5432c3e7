"""Vectorized many-chain driver.

Runs N independent copies of the projected chain in lockstep with numpy,
one vectorized update per time step, plus a batched lifting pass.  Like the
scalar driver it reads the input's own tables, the scheme's block counts and
the projected forbidden values (dynamics.projected_forbidden, gathered once
per sampler, with the same gather by variable for the step test).  Each
driver keeps its own step bookkeeping: run_chains decides which constraints
seed a step from per-constraint match counts, the scalar driver from its
near-violation counts.  Every update goes
through dynamics.update (explore, then reject), which the scalar driver's
busy step repeats on its own lists draw for draw, and every lift through
dynamics.lift, as the scalar driver's; so the component rule, thresholds and
fallback draws are the same.  The random streams are laid out differently,
so outputs for a given seed differ from the scalar driver while the sampled
law is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csp import AtomicCSP
from .dynamics import SamplerConfig, lift, movable_steps, projected_forbidden, update
from .projection import ProjectionScheme, _check_match


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


class BatchSampler:
    def __init__(
        self,
        csp: AtomicCSP,
        scheme: ProjectionScheme,
        eps: float,
        eta: float = 0.25,
        c_t: float = 1.0,
    ):
        _check_match(csp, scheme)
        self.csp = csp
        self.scheme = scheme
        self.cfg = SamplerConfig.derive(csp, scheme, eps, eta=eta, c_t=c_t)
        self.n, self.m = csp.n, csp.m
        # the tables every update and lift reads, built here once: the
        # projected forbidden values by constraint, and by variable as
        # csp.arrays.inc lists the constraints at it
        self.arrays = csp.arrays, scheme.arrays
        self.forb = projected_forbidden(csp, scheme)
        self.inc_forb = scheme.arrays.project(np.arange(self.n + 1)[:, None], csp.arrays.inc_forb)

    # -- chain ----------------------------------------------------------------

    def run_chains(self, n_chains: int, rng: np.random.Generator, steps: int | None = None):
        """Final projected states of n_chains independent chains, plus step
        failure tallies.

        Chain i runs its own K_i ~ Binomial(T, n_movable/n) steps, each at a
        uniform movable variable (dynamics.movable_steps); the lockstep loop
        runs max K_i steps and a chain past its K_i keeps its state."""
        N = n_chains
        cfg = self.cfg
        ca, sa = self.arrays
        Y = (rng.random((N, self.n)) * sa.q[None, :]).astype(np.int64)
        s1_steps = s2_steps = 0
        touched = np.zeros(N, dtype=bool)
        movable, K = movable_steps(self.scheme, cfg.T if steps is None else steps, N, rng)
        # per-constraint projected forbidden matches, with a zero column for the pad
        cnt = np.concatenate([ca.matches(Y, self.forb), np.zeros((N, 1), dtype=np.int64)], axis=1)
        for t in range(K.max(initial=0)):
            rows = np.flatnonzero(K > t)  # chains with a step left
            v = movable[rng.integers(movable.size, size=rows.size)]
            cids, forb = ca.inc[v], self.inc_forb[v]
            hit = Y[rows, v][:, None] == forb
            seed_at = cnt[rows[:, None], cids] - hit == ca.arity[cids] - 1
            # empty component: the block of a uniform value of v
            new_q = sa.block_of[v, (rng.random(rows.size) * ca.domains[v]).astype(np.int64)]
            busy = np.flatnonzero(seed_at.any(axis=1))
            if busy.size:
                seed = np.zeros((busy.size, self.m + 1), dtype=bool)
                seed[np.arange(busy.size)[:, None], cids[busy]] = seed_at[busy]
                seed = seed[:, :-1]
                busy_rows = rows[busy]
                unsat = (cnt[busy_rows, :-1] == ca.arity[:-1]) | seed
                q, s1, s2, _ = update(
                    self.csp, self.scheme, cfg, Y[busy_rows], unsat, seed, v[busy], rng
                )
                new_q[busy] = q
                s1_steps += int(s1.sum())
                s2_steps += int(s2.sum())
                touched[busy_rows[s1 | s2]] = True
            cnt[rows[:, None], cids] += (new_q[:, None] == forb).astype(np.int64) - hit
            Y[rows, v] = new_q
        return Y, s1_steps, s2_steps, touched

    # -- lifting ---------------------------------------------------------------

    def lift(self, Y: np.ndarray, rng: np.random.Generator):
        """Batched lifting of final projected states; error rows hold -1."""
        X, errors, _, _ = lift(self.csp, self.scheme, self.forb, self.cfg, Y, rng)
        return X, errors

    def sample(self, n_samples: int, seed=None) -> BatchResult:
        rng = np.random.default_rng(seed)
        Y, s1_steps, s2_steps, touched = self.run_chains(n_samples, rng)
        X, errors = self.lift(Y, rng)
        touched = touched | (errors != "")
        return BatchResult(
            assignments=X,
            errors=errors,
            s1_steps=s1_steps,
            s2_steps=s2_steps,
            touched=touched,
            cfg=self.cfg,
        )
