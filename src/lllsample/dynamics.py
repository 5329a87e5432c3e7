"""Projected single-site dynamics.

The sampler runs a Glauber chain on the projected state space: each step
picks a uniform variable and redraws its projected value from the conditional
law given the rest, realized by rejection sampling inside the connected
component of unsatisfied projected constraints around that variable.  A final
lifting pass turns the projected state into a full satisfying assignment, one
component at a time.

The chain runs on the n' variables that lie in some constraint, and its
schedule counts n' of them: a variable in no constraint keeps its start, the
block of a uniform value, which is its exact law, and the lift draws it
uniformly inside its block.  A step at a collapsed variable (a single block)
cannot move the state either, so both drivers run only the steps that land
on a movable variable (`movable_steps`).

The single-chain driver `glauber_run` decides each step in O(1) from the
near-violation counts that `ProjectedState` keeps per variable, one deficit
per group of constraints with the same variables and projected forbidden
values.  Its steps are drawn ahead in chunks (`_draw_steps`); a busy step
runs `_redraw`, and the step loop makes each move's bookkeeping update
itself.

The chain runs on the input's own tables and the projected forbidden values
(`projected_forbidden`); `project_csp` builds the projected instance only
as the reference definition.  What a chain or a lift reads besides its own
state is set up once per (instance, scheme) pair, as a `Sampler`.

A chain update and a lift are the same operation.  The batch driver
(BatchSampler in batch) runs its updates, and both drivers run their lifts,
through three routines that read the padded tables of AtomicCSP.arrays and
ProjectionScheme.arrays and are vectorised over chains.  Their tables are
chains-last, one column per chain or draw: states (n, P), constraint masks
(m, P), draws (columns drawn, P); so a test over a constraint's few
variables reduces across the chains, not along a row 3 or 4 wide:
- `explore` grows components; a component is a boolean column over the m
  constraints, closed under "shares a variable" within the unsatisfied set;
- `reject` draws inside components until every constraint in them holds;
- `lift` lifts projected states one component at a time and verifies them.
`update` is one chain step of explore and reject.  States that callers pass
in or get back (`Sampler.lift`, BatchSampler's `run_chains` and `sample`)
stay one row per chain, (N, n), transposed once at that boundary.  The
single chain runs the same step on its own lists as `_redraw`, drawing the
same random numbers as `update` in the same order, at a cost that follows
its component and its draws: a numpy call costs about as much for one chain
as for hundreds, and a single chain's components mostly hold one or two
constraints.  A step whose component is empty, the common case, sets the
block of a uniform value of the variable.

Failure paths are tagged, never raised: "S1"/"S2" for an oversized component
or exhausted rejection budget during a chain update (the update falls back to
a uniform draw), "I1"/"I2" for the same situations during lifting (the run
returns an ERROR result).  A lift whose result fails its own verification
raises InternalError.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .csp import AtomicCSP, InternalError, degree_stats
from .projection import ProjectionScheme, RegimeError, _check_match, scheme_kappa


# An instance without variables has one solution, the empty assignment: its
# chain runs no step and its lift draws nothing, so each schedule constant is 0.
# Constants that leave the ranges the drivers can run raise RegimeError: T is
# drawn from and counted by numpy in int64, and S must be a finite number.


def chain_length(kappa: float, n: int, delta_deg: int, eps: float, c_t: float = 1.0) -> int:
    if n == 0:
        return 0
    T = c_t * kappa * n * math.log(n * max(delta_deg, 1) / eps)
    if not T < 2.0**63:
        raise RegimeError(
            f"chain length T = {T:.4g} is past the int64 range (c_t = {c_t}, eps = {eps})"
        )
    return math.ceil(T)


def rejection_budget(kappa: float, n: int, eps: float, eta: float) -> int:
    if n == 0:
        return 0
    try:
        S = 10.0 * (kappa * n / eps) ** eta * math.log(n * kappa / eps)
    except OverflowError:
        S = math.inf
    if not math.isfinite(S):
        raise RegimeError(f"rejection budget S is past the float range (eta = {eta}, eps = {eps})")
    return math.ceil(S)


def component_threshold(delta_deg: int, n: int, kappa: float, eps: float) -> float:
    if n == 0:
        return 0.0
    return 20.0 * delta_deg * math.log(n * kappa / eps)


def constrained_variables(csp: AtomicCSP) -> np.ndarray:
    """(n,) bool: whether each variable lies in some constraint."""
    mask = np.zeros(csp.n + 1, dtype=bool)
    mask[csp.arrays.vc] = True
    return mask[: csp.n]


@dataclass(frozen=True)
class SamplerConfig:
    """Schedule constants derived from (eps, eta, kappa, n, Delta, C_T); n
    counts the variables the chain runs on, those in some constraint."""

    eps: float
    eta: float
    kappa: float
    n: int
    delta_deg: int
    c_t: float = 1.0
    T: int = field(init=False)
    S: int = field(init=False)
    theta_comp: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")
        object.__setattr__(self, "T", chain_length(self.kappa, self.n, self.delta_deg, self.eps, self.c_t))
        object.__setattr__(self, "S", rejection_budget(self.kappa, self.n, self.eps, self.eta))
        object.__setattr__(
            self, "theta_comp", component_threshold(self.delta_deg, self.n, self.kappa, self.eps)
        )

    @classmethod
    def derive(cls, csp: AtomicCSP, scheme: ProjectionScheme, eps: float, eta: float = 0.25,
               c_t: float = 1.0) -> "SamplerConfig":
        kappa = scheme_kappa(csp, scheme)
        delta_deg, _, _ = degree_stats(csp)
        n = int(np.count_nonzero(constrained_variables(csp)))
        return cls(eps=eps, eta=eta, kappa=kappa, n=n, delta_deg=delta_deg, c_t=c_t)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps, "eta": self.eta, "kappa": self.kappa, "c_t": self.c_t,
            "n": self.n, "delta": self.delta_deg, "T": self.T, "S": self.S,
            "theta_comp": self.theta_comp,
        }


def project_csp(csp: AtomicCSP, scheme: ProjectionScheme) -> AtomicCSP:
    """The projected instance: same variable sets, forbidden vectors pushed
    through the per-variable block maps, alphabets = block counts.  The
    chain does not build it: it reads the input's tables, the block counts
    and `projected_forbidden`."""
    _check_match(csp, scheme)
    constraints = tuple(
        type(c)(c.vars, tuple(scheme.project_value(v, f) for v, f in zip(c.vars, c.forbidden)))
        for c in csp.constraints
    )
    return AtomicCSP(
        n=csp.n, domains=scheme.q_sizes(), constraints=constraints, allow_unit_domains=True
    )


def projected_forbidden(csp: AtomicCSP, scheme: ProjectionScheme) -> np.ndarray:
    """(k, m) the block of each constraint's forbidden value at its variable,
    the forbidden values of project_csp(csp, scheme), laid out and padded
    with -2 as csp.arrays.forb is."""
    a = csp.arrays
    return scheme.arrays.project(a.vc, a.forb)


class Groups(NamedTuple):
    """The single chain's tables.  The constraints with the same variables
    and projected forbidden values, in the same order, form one group, and
    the groups are numbered in order of their first member."""

    cons: list  # (variables, projected forbidden values, multiplicity) of each group
    members: list  # the constraints of each group
    max_mult: int  # the largest multiplicity
    by_forb: list  # per variable and projected value, the groups at it forbidding that value
    q: tuple  # per variable, its number of blocks
    entries: list  # per constraint, its rejection test once built (Sampler._draw_entries)


def group_constraints(csp: AtomicCSP, scheme: ProjectionScheme, forb: np.ndarray) -> Groups:
    """The groups of csp under scheme; forb is projected_forbidden(csp, scheme)."""
    groups = {}  # (variables, projected forbidden values) -> member constraints
    for cid, (c, row) in enumerate(zip(csp.constraints, forb.T.tolist())):
        groups.setdefault((c.vars, tuple(row[: c.arity])), []).append(cid)
    members = list(groups.values())
    cons = [(*key, len(cids)) for key, cids in groups.items()]
    q = scheme.q_sizes()
    by_forb = [[[] for _ in range(size)] for size in q]
    for g, (vars_, forb_g, _) in enumerate(cons):
        for v, f in zip(vars_, forb_g):
            by_forb[v][f].append(g)
    return Groups(cons, members, max(map(len, members), default=1), by_forb, q, [None] * csp.m)


class Sampler:
    """The set-up of one (instance, scheme) pair, built once and shared by
    every chain and lift run on it: the schedule `cfg` and the projected
    forbidden values by constraint, `forb`.  Tables by variable are built
    the first time they are read, as CSPArrays builds its own: which
    variables lie in some constraint, `constrained`, and the tables only
    one driver reads, the single chain's `groups` and the many-chain
    driver's `step_tables`."""

    def __init__(self, csp: AtomicCSP, scheme: ProjectionScheme, eps: float, eta: float = 0.25,
                 c_t: float = 1.0):
        _check_match(csp, scheme)
        self.csp, self.scheme = csp, scheme
        self.cfg = SamplerConfig.derive(csp, scheme, eps, eta=eta, c_t=c_t)
        self.forb = projected_forbidden(csp, scheme)

    @cached_property
    def constrained(self) -> np.ndarray:
        return constrained_variables(self.csp)

    def start_states(self, n_chains: int, rng: np.random.Generator) -> np.ndarray:
        """(n_chains, n) projections of uniform assignments, the block of a
        uniform value at each variable, from one rng.random call.  This is
        the exact law of the variables in no constraint, which no chain
        steps.  Raises ValueError on a negative n_chains."""
        if n_chains < 0:
            raise ValueError(f"chain count n_chains must be non-negative, got {n_chains}")
        n = self.csp.n
        x = (rng.random((n_chains, n)) * self.csp.arrays.domains).astype(np.int64)
        return self.scheme.arrays.block_of[np.arange(n), x]

    @cached_property
    def step_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The many-chain driver's (d, n + 1) tables by variable: the
        constraints at it (csp.arrays.inc, transposed), their projected
        forbidden values there, and their arity less one."""
        n, a = self.csp.n, self.csp.arrays
        forb = self.scheme.arrays.project(np.arange(n + 1)[:, None], a.inc_forb)
        return tuple(np.ascontiguousarray(t.T) for t in (a.inc, forb, a.arity[a.inc] - 1))

    @cached_property
    def groups(self) -> Groups:
        return group_constraints(self.csp, self.scheme, self.forb)

    def _draw_entries(self, cid: int):
        """(variables, tested, tests), the rejection test of constraint cid,
        built the first time the constraint enters a component and kept:
        - variables: its variables in increasing order;
        - tested: (u, size, position) for each variable u whose forbidden
          value f lies in a block of more than one value: size is that
          block's size and position the place of f in it;
        - tests: per variable v of the constraint, the test of a component
          of this constraint alone with v unassigned: (column count, column
          of v, |A_v|, the forbidden value at v, v's block map, and the
          (column, size, position) of each tested variable, which the test
          skips at v's column).
        So the table holds one test per (constraint, variable), and the
        tested triples once per constraint."""
        cache = self.groups.entries
        entries = cache[cid]
        if entries is None:
            c, scheme, tested, columns = self.csp.constraints[cid], self.scheme, [], []
            pairs = sorted(zip(c.vars, c.forbidden))
            for i, (u, f) in enumerate(pairs):
                block = scheme.blocks[u][scheme.block_of[u][f]]
                if len(block) > 1:
                    size, pos = len(block), block.index(f)
                    tested.append((u, size, pos))
                    columns.append((i, size, pos))
            columns, block_of = tuple(columns), scheme.block_of
            tests = {v: (len(pairs), i, len(block_of[v]), f, block_of[v], columns)
                     for i, (v, f) in enumerate(pairs)}
            entries = cache[cid] = tuple(sorted(c.vars)), tuple(tested), tests
        return entries

    def lift(self, Y: np.ndarray, rng: np.random.Generator):
        """(assignments (N, n), errors (N,)) of `lift` on the rows of Y
        (N, n); an error row holds -1."""
        X, errors, _, _ = lift(self, Y.T, rng)
        return X.T, errors

    def sample_one(self, seed=None, rng: np.random.Generator | None = None) -> "SampleResult":
        """One sample: the projection of a uniform assignment as the initial
        state, T chain steps (glauber_run), then lifting (inv_sample), on
        rng or else on default_rng(seed)."""
        if rng is None:
            rng = np.random.default_rng(seed)
        state, diag = glauber_run(ProjectedState.random(self, rng), rng)
        lifted = inv_sample(state, rng)
        diagnostics = {
            **self.cfg.to_dict(),
            "seed": seed,
            "steps": diag.steps,
            "s1_failures": diag.s1,
            "s2_failures": diag.s2,
            "lift_error": lifted.error,
            "lift_components": lifted.components,
            "component_hist": {str(k): v for k, v in sorted(diag.component_hist.items())},
        }
        return SampleResult(lifted.assignment, lifted.error, diagnostics)


class ProjectedState:
    """Projected assignment of one chain on a sampler, plus the bookkeeping
    that decides a chain step in O(1).

    The bookkeeping is kept per group (`Groups`): under a colouring's block
    projection the q constraints of an edge fall into one group per block.
    - dev[g] counts the variables of group g off their forbidden projected
      value; its constraints are unsatisfied iff dev[g] == 0.
    - near[v] counts the constraints at v whose other variables all sit at
      their forbidden value.  A step at v has an empty component iff
      near[v] == 0.

    Group g adds its multiplicity (number of constraints) to near[u] for
    every u in g when dev[g] == 0, and for the one u off its value when
    dev[g] == 1.  A move of v from old to new changes only the deficits of
    the groups at v that forbid old or new, so `glauber_run` visits just
    those, and touches near only where a deficit passes through 0 or 1
    (`_shift`).  The sampler's group tables are bound here, so that the
    step loop reads them as directly as tables of the state's own."""

    __slots__ = ("y", "dev", "near", "sampler", "_cons", "_by_forb")

    def __init__(self, sampler: Sampler, y):
        self.y = list(y)
        if len(self.y) != sampler.csp.n:
            raise ValueError("state length mismatch")
        self.sampler = sampler
        self._cons, self._by_forb = sampler.groups.cons, sampler.groups.by_forb
        y = self.y
        self.dev = [sum(y[v] != f for v, f in zip(vars_, forb)) for vars_, forb, _ in self._cons]
        self.near = [0] * len(y)
        for (vars_, forb, k), d in zip(self._cons, self.dev):
            for v, f in zip(vars_, forb):
                self.near[v] += k * (d == (y[v] != f))

    @classmethod
    def random(cls, sampler: Sampler, rng: np.random.Generator):
        """A chain's start: the projection of a uniform assignment
        (Sampler.start_states)."""
        return cls(sampler, sampler.start_states(1, rng)[0].tolist())

    def _shift(self, g: int, v: int, d: int, k: int):
        """Add k to near[u] for each u != v that group g counts there when v
        sits at its forbidden value and the deficit is d: every u at d == 0,
        and at d == 1 the one u off its forbidden value, where the scan
        stops."""
        near = self.near
        vars_, forb, _ = self._cons[g]
        if d == 0:
            for u in vars_:
                if u != v:
                    near[u] += k
            return
        y = self.y
        for u, f in zip(vars_, forb):
            if y[u] != f and u != v:
                near[u] += k
                return


def explore(csp: AtomicCSP, unsat: np.ndarray, comp: np.ndarray, theta: float = math.inf):
    """Grow each column of comp (m, P) bool, seed constraints taken from the
    same column of unsat (m, P) bool, to its closure under "shares a
    variable" within unsat.  A column stops growing once it holds more than
    theta constraints, a test that cannot bind, and is skipped, if theta >= m."""
    adj, m = csp.arrays.adj, csp.m
    frontier, comp = comp, comp.copy()
    while True:
        cids, rows = np.nonzero(frontier if theta >= m else frontier & (comp.sum(axis=0) <= theta))
        if not cids.size:
            return comp
        touched = np.zeros((m + 1, comp.shape[1]), dtype=bool)
        touched[adj[cids], rows[:, None]] = True
        frontier = touched[:-1] & unsat & ~comp
        comp |= frontier


def components(csp: AtomicCSP, unsat: np.ndarray, theta: float = math.inf) -> list[np.ndarray]:
    """The connected components of each column of unsat (m, P) bool, in
    order of their lowest constraint: array j holds the j-th component of
    every column, empty where a column has fewer.  A column ends at its
    first component of more than theta constraints."""
    rest, comps = unsat.copy(), []
    while rest.any():
        rows = np.flatnonzero(rest.any(axis=0))
        seed = np.zeros_like(rest)
        seed[rest.take(rows, axis=1).argmax(axis=0), rows] = True
        comp = explore(csp, rest, seed, theta)
        comps.append(comp)
        rest &= ~comp
        rest[:, comp.sum(axis=0) > theta] = False
    return comps


def reject(csp, scheme, Y, comp, rng, budget, free=None):
    """Rejection sampling inside components, all columns in lockstep.

    Y (n, P) holds projected states, -1 where a variable is unassigned, and
    comp (m, P) bool the component of each column; free (P,), if given,
    names one more unassigned variable per column.  A round draws the
    components' variables from their blocks under Y, an unassigned one from
    its whole alphabet, and succeeds when every constraint of the column's
    component holds.  Rounds run in batches of doubling width and the first
    success counts; a column gets at most budget rounds.  Returns (cols, the
    variables drawn, those of every component; draws (cols.size, P); success
    flags (P,); rounds used (P,)).  The numbers of a round come from
    rng.random((pending columns, width, cols.size)), read transposed.
    """
    a = csp.arrays
    n, P = Y.shape
    cons = np.flatnonzero(comp.any(axis=1))
    drawn = np.zeros(n + 1, dtype=bool)
    drawn[a.vc.take(cons, axis=1)] = True
    cols = np.flatnonzero(drawn[:n])
    # pad entries of a constraint read column 0 and count as matched (pad)
    local = np.zeros(n + 1, dtype=np.int64)
    local[cols] = np.arange(cols.size)
    vcl, need = local[a.vc.take(cons, axis=1)], comp[cons]
    forb = a.forb.take(cons, axis=1)[:, :, None, None]
    pad = forb == -2
    Yc = Y[cols]
    if free is not None:
        Yc[cols[:, None] == free] = -1
    bounds = np.stack(scheme.arrays.bounds(cols[:, None], Yc))  # (2, cols.size, P)
    X = np.zeros((cols.size, P), dtype=np.int64)
    ok, rounds = np.zeros(P, dtype=bool), np.zeros(P, dtype=np.int64)
    pending, used, width = np.arange(P), 0, 1
    while pending.size and used < budget:
        width = min(width, budget - used)
        u = rng.random((pending.size, width, cols.size)).transpose(2, 1, 0)
        D = scheme.arrays.pick(bounds[:, :, None], u)
        violated = ((D.take(vcl, axis=0) == forb) | pad).all(axis=0)
        has = ~(violated & need[:, None]).any(axis=0)
        first = has.argmax(axis=0)
        has = has.any(axis=0)
        acc = pending[has]
        X[:, acc] = D[:, first[has], has]
        ok[acc] = True
        rounds[acc] = used + first[has] + 1
        keep = ~has
        pending, need = pending[keep], need.compress(keep, axis=1)
        bounds = bounds.compress(keep, axis=2)
        used += width
        width = min(2 * width, 64)
    rounds[pending] = used
    return cols, X, ok, rounds


def update(csp, scheme, cfg, Y, unsat, seed, v, rng):
    """Conditional redraw at v (P,) for every column of Y (n, P), given the
    constraints unsatisfied with v unassigned, unsat (m, P) bool, and those
    of them at v, seed (m, P) bool, not empty.  Returns (new projected
    values, S1 flags, S2 flags, component sizes), each (P,)."""
    comp = explore(csp, unsat, seed, cfg.theta_comp)
    size = comp.sum(axis=0)
    s1 = size > cfg.theta_comp
    comp[:, s1] = False  # an oversized component is not sampled
    cols, X, ok, _ = reject(csp, scheme, Y, comp, rng, cfg.S, free=v)
    s2 = ~ok & ~s1
    fallback = (rng.random(size.size) * scheme.arrays.q[v]).astype(np.int64)
    # v is among the drawn columns except where its component was dropped (S1)
    x_v = np.where(cols[:, None] == v, X, 0).sum(axis=0)
    new_q = np.where(s1 | s2, fallback, scheme.arrays.block_of[v, x_v])
    return new_q, s1, s2, size


def _redraw(state: ProjectedState, rng: np.random.Generator, v: int):
    """`update` at v for a state whose component at v is not empty, run on
    the state's own lists and drawing the same random numbers in the same
    order.  Returns (new projected value, failure flag, component size).

    The component grows over groups, from those at v unsatisfied with v
    unassigned, a level at a time through the groups of deficit 0, and stops
    growing once it holds more than cfg.theta_comp constraints (S1, whose
    fallback value is drawn here); otherwise `_reject_at` draws inside its
    member constraints, and draws the fallback value too (S2 when its budget
    runs out).  The members of a group share their variables and deficit,
    so they join a component at the same level, and the component is the
    one `update` grows over constraints.  The fallback value, a uniform
    block of v (block counts from `Groups.q`), is drawn on every step, as
    `update` draws it.

    Growth visits the groups at a variable u != v of a frontier group only
    when near[u] exceeds what that group adds there itself (its multiplicity
    at deficit 0, else 0).  Every group of deficit 0 adds its multiplicity
    to near at each of its variables, so otherwise none but the frontier
    group can be found at u; and near rarely leaves room for one.  A group
    of deficit 0 at u forbids y[u], so only those are visited; at v those
    are seeds already.  While the component holds at most theta / (largest
    multiplicity) groups, it holds at most theta constraints, so its members
    are summed only past that."""
    sampler, dev, near, y = state.sampler, state.dev, state.near, state.y
    cons, members, max_mult, by_forb, q, _ = sampler.groups
    theta = sampler.cfg.theta_comp
    y_v, comp = y[v], []
    for f, gs in enumerate(by_forb[v]):
        d = y_v != f
        for g in gs:
            if dev[g] == d:
                comp.append(g)
    frontier, seen = comp, set(comp)
    while frontier and (len(comp) * max_mult <= theta
                        or sum(len(members[g]) for g in comp) <= theta):
        grown = []
        for g in frontier:
            vars_, _, k = cons[g]
            own = k if dev[g] == 0 else 0
            for u in vars_:
                if near[u] > own and u != v:
                    for h in by_forb[u][y[u]]:
                        if dev[h] == 0 and h not in seen:
                            seen.add(h)
                            grown.append(h)
        frontier = grown
        comp += grown
    if max_mult > 1:  # else group g is constraint g (groups are numbered by first member)
        comp = [cid for g in comp for cid in members[g]]
    if len(comp) > theta:
        return int(rng.random() * q[v]), "S1", len(comp)
    new_q, flag = _reject_at(sampler, comp, v, rng)
    return new_q, flag, len(comp)


def _reject_at(sampler: Sampler, comp, v: int, rng: np.random.Generator):
    """`reject` on one row, v unassigned, then `update`'s fallback draw:
    (the block at v of the first draw under which every constraint of comp
    holds, None) or, once the budget cfg.S of draws have failed, (the
    fallback value, "S2").  A draw sets the component's variables in
    increasing order, each to a uniform value of its block and v to a
    uniform value of its alphabet; draws come in rounds of doubling width,
    at most 64.  Each round's numbers come from one rng.random call that
    also draws the next number of the stream: the first of the next round,
    or, after the last round, the fallback's, drawn whether it is used or
    not.  So a step makes one call where the first round succeeds.

    No value is built but v's.  Every variable u != v of a constraint in
    comp sits in the block of its forbidden value, so a uniform r draws that
    value at u iff int(r * size) is its position in the block, and at v iff
    int(r * |A_v|) is the value itself.  A block of one value always draws
    it and is not tested.  The tests come from `Sampler._draw_entries`: a
    one-constraint component runs the constraint's test at v as it is; a
    larger one maps the member constraints' tested variables onto the
    sorted union of their variables, and splits them into the tests of the
    constraints not at v, which every draw runs, and those of the
    constraints at v, which run only where v draws their forbidden value."""
    cache, budget = sampler.groups.entries, sampler.cfg.S
    width, used, start = 1 if budget > 0 else 0, 0, 0
    if len(comp) == 1:
        (cid,) = comp
        ncols, i_v, q_v, f_v, block_v, columns = (cache[cid] or sampler._draw_entries(cid))[2][v]
        draws = rng.random(width * ncols + 1).tolist()
        while True:
            for row in range(start, start + width * ncols, ncols):
                x_v = int(draws[row + i_v] * q_v)
                if x_v != f_v:
                    return block_v[x_v], None
                for i, size, pos in columns:
                    if i != i_v and int(draws[row + i] * size) != pos:
                        return block_v[x_v], None
            used, start = used + width, start + width * ncols
            if used >= budget:
                return int(draws[start] * sampler.groups.q[v]), "S2"
            width = min(2 * width, 64, budget - used)
            draws += rng.random(width * ncols).tolist()
    union, free, bound = set(), [], {}  # the tests of constraints not at v; at v, by f_v
    for cid in comp:
        variables, tested, tests = cache[cid] or sampler._draw_entries(cid)
        union.update(variables)
        if v in tests:
            bound.setdefault(tests[v][3], []).append(tested)
        else:
            free.append(tested)
    for tests_f in bound.values():
        tests_f += free
    cols, block_v = sorted(union), sampler.scheme.block_of[v]
    ncols, i_v, q_v = len(cols), bisect_left(cols, v), len(block_v)
    draws = rng.random(width * ncols + 1).tolist()
    while True:
        for row in range(start, start + width * ncols, ncols):
            x_v = int(draws[row + i_v] * q_v)
            for tested in bound.get(x_v, free):
                for u, size, pos in tested:
                    if u != v and int(draws[row + bisect_left(cols, u)] * size) != pos:
                        break
                else:
                    break  # the draw violates this constraint
            else:
                return block_v[x_v], None
        used, start = used + width, start + width * ncols
        if used >= budget:
            return int(draws[start] * sampler.groups.q[v]), "S2"
        width = min(2 * width, 64, budget - used)
        draws += rng.random(width * ncols).tolist()


@dataclass
class ChainDiagnostics:
    steps: int = 0
    s1: int = 0
    s2: int = 0
    component_hist: dict[int, int] = field(default_factory=dict)


def movable_steps(scheme: ProjectionScheme, constrained: np.ndarray, steps: int, n_chains: int,
                  rng: np.random.Generator):
    """The movable variables, those with more than one block of scheme
    among the constrained ones (a bool mask), and for each of n_chains
    chains how many of `steps` uniform picks among the constrained variables
    land on one.

    A step at a collapsed variable cannot change the projected state, so a
    chain that runs only those steps, each at a uniform movable variable, has
    the same law.  With every constrained variable movable, every chain runs
    all `steps` and no random draw is made, so its random stream is that of a
    uniform pick per step; with no movable variable no chain runs a step.
    Raises ValueError on a negative step count."""
    if steps < 0:
        raise ValueError(f"step count steps must be non-negative, got {steps}")
    movable = np.flatnonzero((scheme.arrays.q > 1) & constrained)
    n = int(constrained.sum())
    if movable.size == n:
        return movable, np.full(n_chains, steps if n else 0)
    return movable, rng.binomial(steps, movable.size / n, n_chains)


STEP_CHUNK = 1024  # steps glauber_run draws at a time


def _draw_steps(movable, csp: AtomicCSP, scheme: ProjectionScheme, count: int, rng):
    """count chain steps drawn ahead, as lists: a uniform movable variable
    each, and the value the step sets if its component is empty, the block
    of a uniform value of that variable."""
    v = movable[rng.integers(movable.size, size=count)]
    x = (rng.random(count) * csp.arrays.domains[v]).astype(np.int64)
    return v.tolist(), scheme.arrays.block_of[v, x].tolist()


def glauber_run(state: ProjectedState, rng: np.random.Generator, steps: int | None = None):
    """Run the chain for its sampler's T steps (steps, if given) of a uniform
    pick among the constrained variables each, updating state in place.
    Only the steps that land on a movable variable are run (see
    movable_steps); diag.steps counts them.

    Steps are drawn STEP_CHUNK at a time (_draw_steps).  A step at v with
    near[v] == 0 has an empty component and sets its drawn value; any other
    step drops that value and runs `_redraw`.  Only the busy steps are
    counted as they run, with their failures and component sizes; the
    empty ones, total - busy, count as component size 0 at the end.  A move
    updates dev and near here, at the groups at v that forbid the old or
    the new value."""
    sampler = state.sampler
    csp, scheme = sampler.csp, sampler.scheme
    movable, (total,) = movable_steps(scheme, sampler.constrained,
                                      sampler.cfg.T if steps is None else steps, 1, rng)
    total, busy, s1, s2, hist = int(total), 0, 0, 0, {}
    y, dev, near, cons, by_forb, shift = (state.y, state.dev, state.near, state._cons,
                                          state._by_forb, state._shift)
    for start in range(0, total, STEP_CHUNK):
        vs, qs = _draw_steps(movable, csp, scheme, min(STEP_CHUNK, total - start), rng)
        for v, new_q in zip(vs, qs):
            if near[v]:
                new_q, flag, size = _redraw(state, rng, v)
                busy += 1
                hist[size] = hist.get(size, 0) + 1
                if flag == "S1":
                    s1 += 1
                elif flag:
                    s2 += 1
            old = y[v]
            if new_q != old:
                y[v] = new_q
                at = by_forb[v]
                for g in at[old]:
                    d = dev[g]
                    dev[g] = d + 1
                    if d <= 1:
                        shift(g, v, d, -cons[g][2])
                for g in at[new_q]:
                    d = dev[g] - 1
                    dev[g] = d
                    if d <= 1:
                        shift(g, v, d, cons[g][2])
    if total > busy:
        hist[0] = total - busy
    return state, ChainDiagnostics(total, s1, s2, hist)


def lift(sampler: Sampler, Y: np.ndarray, rng: np.random.Generator):
    """Lift every column of Y (n, P), a projected state of the sampler's
    instance, to a full assignment.

    Each variable is drawn from its block; then the components of the
    column's unsatisfied projected constraints are rejection-sampled one at
    a time until all their constraints hold.  A column with a component of
    more than cfg.theta_comp constraints gets ERROR "I1", one that exhausts
    the budget cfg.S gets "I2", and its assignment column holds -1.  Every
    other column is checked: it projects back to Y and satisfies every
    constraint, or InternalError is raised.  Returns (assignments (n, P),
    errors (P,) of "", "I1", "I2", components (P,), rejection rounds (P,)).
    """
    csp, scheme, cfg = sampler.csp, sampler.scheme, sampler.cfg
    n, P = Y.shape
    a, var = csp.arrays, np.arange(n)[:, None]
    comps = components(csp, a.matches(Y, sampler.forb) == a.arity[:-1, None], cfg.theta_comp)
    errors = np.full(P, "", dtype="<U2")
    n_comps = np.zeros(P, dtype=np.int64)
    for comp in comps:
        errors[comp.sum(axis=0) > cfg.theta_comp] = "I1"
        n_comps += comp.any(axis=0)
    X = scheme.arrays.pick(scheme.arrays.bounds(var, Y), rng.random((P, n)).T)
    rounds = np.zeros(P, dtype=np.int64)
    for comp in comps:
        rows = np.flatnonzero(comp.any(axis=0) & (errors == ""))
        comp = comp.take(rows, axis=1)
        cols, D, ok, used = reject(csp, scheme, Y.take(rows, axis=1), comp, rng, cfg.S)
        rounds[rows] += used
        inside = np.zeros((n + 1, rows.size), dtype=bool)
        c, r = np.nonzero(comp)
        inside[a.vc.take(c, axis=1), r] = True
        X[cols[:, None], rows] = np.where(inside[cols] & ok, D, X[cols[:, None], rows])
        errors[rows[~ok]] = "I2"
    good = errors == ""
    X[:, ~good] = -1
    if (scheme.arrays.block_of[var, X[:, good]] != Y[:, good]).any():
        raise InternalError("lift returned an assignment that does not project to its state")
    if (a.matches(X[:, good], a.forb) == a.arity[:-1, None]).any():
        raise InternalError("lift returned an assignment that violates a constraint")
    return X, errors, n_comps, rounds


@dataclass
class LiftResult:
    assignment: tuple[int, ...] | None
    error: str | None
    components: int = 0
    rounds: int = 0


def inv_sample(state: ProjectedState, rng: np.random.Generator) -> LiftResult:
    """Lift the projected state to a full assignment (`lift` on one row).

    An oversized component yields ERROR "I1", an exhausted budget ERROR
    "I2".  A returned assignment always projects back to the state and
    satisfies the full instance.
    """
    Y = np.array([state.y], dtype=np.int64).T
    X, errors, n_comps, rounds = lift(state.sampler, Y, rng)
    error = str(errors[0]) or None
    assignment = None if error else tuple(X[:, 0].tolist())
    return LiftResult(assignment, error, components=int(n_comps[0]), rounds=int(rounds[0]))


@dataclass
class SampleResult:
    assignment: tuple[int, ...] | None
    error: str | None
    diagnostics: dict

    @property
    def ok(self) -> bool:
        return self.error is None


def main_sample(csp: AtomicCSP, scheme: ProjectionScheme, eps: float, seed=None,
                eta: float = 0.25, c_t: float = 1.0,
                rng: np.random.Generator | None = None) -> SampleResult:
    """One sample on a set-up of its own: Sampler.sample_one.

    The distributional guarantee presumes an admissible scheme; the returned
    assignment, when not an ERROR, is always an exactly verified satisfying
    assignment regardless.
    """
    return Sampler(csp, scheme, eps, eta=eta, c_t=c_t).sample_one(seed, rng)
