"""Vectorized many-chain driver.

Runs N independent copies of the projected chain in lockstep with numpy,
one vectorized update per time step, plus batched versions of the fixed-state
conditional draw and of the lifting pass.  Like the scalar driver it reads
the input's own tables, the scheme's block counts and the projected
forbidden values (dynamics.projected_forbidden, gathered once per sampler,
with the same gather by variable for the step test).  Every update and lift
goes through the routines the scalar driver uses (dynamics.explore,
dynamics.reject, dynamics.update, dynamics.lift), so the component rule,
thresholds and fallback draws are the same; the random streams are laid out
differently, so outputs for a given seed differ from the scalar driver while
the sampled law is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csp import AtomicCSP
from .dynamics import SamplerConfig, lift, movable_steps, projected_forbidden, update
from .projection import ProjectionScheme, _check_match


@dataclass
class BatchResult:
    assignments: np.ndarray  # (N, n) int16, row of -1s on error
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
            assignments=X.astype(np.int16),
            errors=errors,
            s1_steps=s1_steps,
            s2_steps=s2_steps,
            touched=touched,
            cfg=self.cfg,
        )

    # -- fixed-state batched subroutines ---------------------------------------

    def conditional_draws(self, v: int, z, n_draws: int, seed=None):
        """n_draws independent runs of the conditional update at (v, z), the
        update run_chains makes: returns (counts over the projected alphabet
        of v, flag, s2_failures).  Draws that end in S2 are not counted; an
        oversized component (S1) gives flag "S1" and no counts.  z assigns
        every variable except v (value at v ignored)."""
        rng = np.random.default_rng(seed)
        ca, sa = self.arrays
        y = np.array(z, dtype=np.int64)
        y[v] = -1
        cnt, cids = np.append(ca.matches(y, self.forb), 0), ca.inc[v]
        seed_row = np.zeros(self.m + 1, dtype=bool)
        seed_row[cids] = cnt[cids] == ca.arity[cids] - 1
        seed_row = seed_row[:-1]
        qv = int(sa.q[v])
        if not seed_row.any():
            values = (rng.random(n_draws) * ca.domains[v]).astype(np.int64)
            return np.bincount(sa.block_of[v, values], minlength=qv), None, 0
        unsat_row = (cnt[:-1] == ca.arity[:-1]) | seed_row
        Y, unsat, seeds = (np.repeat(a[None, :], n_draws, axis=0) for a in (y, unsat_row, seed_row))
        q, s1, s2, _ = update(
            self.csp, self.scheme, self.cfg, Y, unsat, seeds, np.full(n_draws, v), rng
        )
        if s1.any():
            return np.zeros(qv, dtype=np.int64), "S1", 0
        return np.bincount(q[~s2], minlength=qv), None, int(s2.sum())

    def lift_draws(self, y, n_draws: int, seed=None):
        """n_draws independent lifts of the fixed projected state y: returns
        (dict assignment->count over non-ERROR draws, i1 flag, i2 count)."""
        rng = np.random.default_rng(seed)
        Y = np.repeat(np.array(y, dtype=np.int64)[None, :], n_draws, axis=0)
        X, errors = self.lift(Y, rng)
        i1 = bool((errors == "I1").any())
        i2 = int((errors == "I2").sum())
        ok = errors == ""
        counts: dict[tuple[int, ...], int] = {}
        if ok.any():
            vals, cnts = np.unique(X[ok], axis=0, return_counts=True)
            for row, cnt in zip(vals, cnts):
                counts[tuple(int(x) for x in row)] = int(cnt)
        return counts, i1, i2
