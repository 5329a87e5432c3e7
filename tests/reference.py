"""Exact references the tests check the library against: each variable's
constraints, projected and conditional laws, the conditional-marginal
bound, the chain state's bookkeeping, and 2-tree counts.  All are exact
(integer counts, Fractions), guarded to desk scale, and share no code path
with the sampler they check.
`zeta`, each constraint's zeta read from the constraint objects, is in
floats like the admissibility report's, and takes b and Delta from
`compute_b` and `degree_stats`.  `apply`, which moves a chain state one
variable at a time for the bookkeeping tests, is the other exception: it is
the step loop's update, through the state's own `_shift`."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from lllsample.csp import AtomicCSP, CSPError, degree_stats
from lllsample.dynamics import ProjectedState, project_csp
from lllsample.oracle import _satisfying_rows
from lllsample.projection import ProjectionScheme, compute_b


def incidence(csp: AtomicCSP) -> list[list[int]]:
    """Each variable's constraint ids in ascending order, read from the
    constraint objects: the lists CSPArrays.inc_flat indexes."""
    out = [[] for _ in range(csp.n)]
    for cid, c in enumerate(csp.constraints):
        for v in c.vars:
            out[v].append(cid)
    return out


def zeta(csp: AtomicCSP, scheme: ProjectionScheme) -> list[float]:
    """zeta(C) of each constraint, read from the constraint objects: 1, or
    the largest min((1 - 3b)^Delta / P, 2 Delta) over C's variables with
    more than one block, P the share of the alphabet in the block of C's
    forbidden value; 2 Delta where b >= 1/3 makes the first term
    meaningless."""
    b, _ = compute_b(csp, scheme)
    delta = degree_stats(csp)[0]
    shrink = (1.0 - 3.0 * float(b)) ** delta if b < Fraction(1, 3) else 0.0
    out = []
    for c in csp.constraints:
        z = 1.0
        for v, f in zip(c.vars, c.forbidden):
            if len(scheme.blocks[v]) > 1:
                p = scheme.block_size(v, scheme.project_value(v, f)) / csp.domains[v]
                z = max(z, min(shrink / p, 2.0 * delta) if shrink > 0.0 else 2.0 * delta)
        out.append(z)
    return out


def violated_by_partial(csp: AtomicCSP, y) -> list[int]:
    """Ids of constraints whose assigned variables all sit at their forbidden
    values; constraints with no assigned variable count as unsatisfied."""
    if len(y) != csp.n:
        raise CSPError(f"assignment has length {len(y)}, expected {csp.n}")
    out = []
    for cid, c in enumerate(csp.constraints):
        for v, f in zip(c.vars, c.forbidden):
            if y[v] is not None and y[v] != f:
                break
        else:
            out.append(cid)
    return out


def group_of(state: ProjectedState) -> list[int]:
    """Each constraint's group in the state's bookkeeping."""
    out = [None] * state.sampler.csp.m
    for g, cids in enumerate(state.sampler.groups.members):
        for cid in cids:
            out[cid] = g
    return out


def unsat(state: ProjectedState) -> set[int]:
    """The constraints the state's deficits mark unsatisfied, read through
    the constraint -> group map."""
    return {cid for cid, g in enumerate(group_of(state)) if state.dev[g] == 0}


def seeds(state: ProjectedState, v: int) -> list[int]:
    """Constraints at v that are unsatisfied with v unassigned, by the
    state's per-group deficits and lists."""
    y_v, dev, groups = state.y[v], state.dev, state.sampler.groups
    return [cid for f, gs in enumerate(groups.by_forb[v]) for g in gs
            for cid in groups.members[g] if dev[g] == (y_v != f)]


def apply(state: ProjectedState, v: int, new_q: int) -> None:
    """Move v to new_q, updating the state's deficits and near counts as
    glauber_run's step loop does for each move; a move to v's own value
    changes nothing."""
    y, dev, cons = state.y, state.dev, state._cons
    old, y[v] = y[v], new_q
    at = state._by_forb[v]
    for g in at[old]:  # v leaves the value g forbids
        d = dev[g]
        dev[g] = d + 1
        if d <= 1:
            state._shift(g, v, d, -cons[g][2])
    for g in at[new_q]:  # v takes it
        d = dev[g] - 1
        dev[g] = d
        if d <= 1:
            state._shift(g, v, d, cons[g][2])


def check_consistent(state: ProjectedState) -> None:
    """Raise AssertionError unless the state's groups are the constraints
    with equal variables and projected forbidden values, and each constraint's deficit (read through
    its group) and each near-violation count match a recount from the
    projected assignment."""
    pcsp = project_csp(state.sampler.csp, state.sampler.scheme)
    y = state.y
    expect = set(violated_by_partial(pcsp, y))
    if expect != unsat(state):
        raise AssertionError(f"unsat bookkeeping drifted: {unsat(state)} != {expect}")
    cons, groups = pcsp.constraints, group_of(state)
    for c, d in enumerate(groups):
        if any((cons[c] == cons[o]) != (d == groups[o]) for o in range(c)):
            raise AssertionError(f"constraint {c} is grouped apart from its projected twins")
    dev = [sum(y[v] != f for v, f in zip(c.vars, c.forbidden)) for c in pcsp.constraints]
    if dev != [state.dev[g] for g in groups]:
        raise AssertionError("deficit bookkeeping drifted")
    near = [0] * pcsp.n
    for c, d in zip(pcsp.constraints, dev):
        for v, f in zip(c.vars, c.forbidden):
            near[v] += d == (y[v] != f)
    if near != state.near:
        raise AssertionError("near-violation bookkeeping drifted")


def marginal_prob(csp: AtomicCSP, scheme: ProjectionScheme, v: int, q: int) -> Fraction:
    """Product-measure probability that variable v projects to block q."""
    return Fraction(scheme.block_size(v, q), csp.domains[v])


def exact_mu_pi(csp: AtomicCSP, scheme: ProjectionScheme) -> dict[tuple[int, ...], Fraction]:
    """Pushforward of the uniform distribution on satisfying assignments
    through the projection; exact probabilities."""
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for rows in _satisfying_rows(csp):
        total += rows.shape[0]
        for row in rows:
            y = scheme.project(row)
            counts[y] = counts.get(y, 0) + 1
    if total == 0:
        raise ValueError("instance has no satisfying assignment")
    return {y: Fraction(c, total) for y, c in counts.items()}


def exact_projected_conditional(
    csp: AtomicCSP, scheme: ProjectionScheme, v: int, z
) -> dict[int, Fraction]:
    """Exact conditional law of the projected value at v given the projected
    values z everywhere else (z[v] is ignored).  Raises if the conditioning
    event has zero probability."""
    counts: dict[int, int] = {}
    total = 0
    for rows in _satisfying_rows(csp):
        for row in rows:
            y = scheme.project(row)
            if all(y[u] == z[u] for u in range(csp.n) if u != v):
                counts[y[v]] = counts.get(y[v], 0) + 1
                total += 1
    if total == 0:
        raise ValueError("conditioning event has probability zero")
    return {q: Fraction(c, total) for q, c in counts.items()}


def exact_lift_conditional(
    csp: AtomicCSP, scheme: ProjectionScheme, y
) -> dict[tuple[int, ...], Fraction]:
    """Uniform distribution on satisfying assignments whose projection is y."""
    matches: list[tuple[int, ...]] = []
    for rows in _satisfying_rows(csp):
        for row in rows:
            if scheme.project(row) == tuple(y):
                matches.append(tuple(int(x) for x in row))
    if not matches:
        raise ValueError("projected state has no satisfying preimage")
    p = Fraction(1, len(matches))
    return {x: p for x in matches}


def marginal_bound_holds(
    csp: AtomicCSP, scheme: ProjectionScheme, v: int, z, slack: float = 1e-12
) -> bool:
    """Conditional marginal at v given z is at most (1-3b)^-Delta times the
    product-measure marginal, coordinatewise."""
    delta, _, _ = degree_stats(csp)
    b, _ = compute_b(csp, scheme)
    if float(b) >= 1.0 / 3.0:
        raise ValueError("bound undefined for b >= 1/3")
    inflate = (1.0 - 3.0 * float(b)) ** (-delta)
    cond = exact_projected_conditional(csp, scheme, v, z)
    for q, prob in cond.items():
        cap = inflate * float(marginal_prob(csp, scheme, v, q))
        if float(prob) > cap * (1.0 + slack):
            return False
    return True


# ---------------------------------------------------------------------------
# 2-trees: vertex sets at pairwise distance >= 2 whose distance<=2 closure
# is connected


def _distances_from(adj: dict, src) -> dict:
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def all_pairs_distances(adj: dict) -> dict:
    return {u: _distances_from(adj, u) for u in adj}


def is_two_tree(adj: dict, vertices) -> bool:
    verts = list(vertices)
    if not verts:
        return False
    dist = {u: _distances_from(adj, u) for u in verts}
    for u, w in combinations(verts, 2):
        if dist[u].get(w, math.inf) < 2:
            return False
    # connectivity after joining pairs at distance <= 2
    seen = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        u = frontier.pop()
        for w in verts:
            if w not in seen and dist[u].get(w, math.inf) <= 2:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(verts)


def count_2trees(adj: dict, root, ell: int) -> int:
    """Number of 2-trees of size ell containing root (exhaustive subset scan,
    graphs capped at 20 vertices)."""
    verts = sorted(adj)
    if len(verts) > 20:
        raise ValueError("exhaustive 2-tree count capped at 20 vertices")
    if ell < 1:
        return 0
    others = [u for u in verts if u != root]
    return sum(
        1 for extra in combinations(others, ell - 1) if is_two_tree(adj, (root, *extra))
    )


def count_2trees_backtracking(adj: dict, root, ell: int) -> int:
    """Independent recursive counter (distance-pruned backtracking) used to
    cross-check the subset scan."""
    verts = sorted(adj)
    dist = all_pairs_distances(adj)

    def feasible(chosen, candidate):
        return all(dist[candidate].get(u, math.inf) >= 2 for u in chosen)

    def rec(chosen, start):
        if len(chosen) == ell:
            return 1 if is_two_tree(adj, chosen) else 0
        total = 0
        for idx in range(start, len(verts)):
            u = verts[idx]
            if u == root or not feasible(chosen, u):
                continue
            total += rec(chosen + [u], idx + 1)
        return total

    return rec([root], 0)


def greedy_2tree(adj: dict, subgraph_vertices, v) -> list:
    """Greedy 2-tree inside a connected subgraph: repeatedly discard the last
    pick's closed neighborhood and take the smallest remaining vertex at
    distance exactly 2 from the current set.  Output size is at least
    |V(H)|/(Delta+1)."""
    H = set(subgraph_vertices)
    if v not in H:
        raise ValueError("root must lie in the subgraph")
    tree = [v]
    remaining = H - {v} - set(adj[v])
    while remaining:
        dist_to_tree = {}
        for u in sorted(remaining):
            d = min(_distances_from(adj, u).get(t, math.inf) for t in tree)
            dist_to_tree[u] = d
        pick = next((u for u in sorted(remaining) if dist_to_tree[u] == 2), None)
        if pick is None:
            break
        tree.append(pick)
        remaining -= {pick} | set(adj[pick])
    return tree
