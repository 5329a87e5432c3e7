"""Resampling engine: draw every variable fresh, then redraw the variables
of violated bad events until none is violated.

Events are the rows of a table vc (m, k) of variable ids, padded with n, read
as the columns of vc.T (copied C-contiguous unless it is).  Each round takes the
mask of violated events and redraws, together, the violated events that hold
the lowest id among the violated events at each of their variables: the
parallel variant of Moser-Tardos (JACM 2010).  That set is independent and holds
the lowest violated id, so a round is a run of the sequential algorithm.  The
engine serves find_assignment and the randomized projection constructions; the
caller is responsible for the regime condition e*p*Delta <= 1, the engine only
enforces budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .csp import AtomicCSP, InternalError


@dataclass
class ResampleResult:
    success: bool
    values: list[int] | None
    resamples: int  # events redrawn, over every attempt
    attempts_used: int
    violated: int = 0  # events still violated at the end of a failed run
    # values as the engine's own array, which the library reads; from the list if not given
    array: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.array is None and self.values is not None:
            self.array = np.asarray(self.values, dtype=np.int64)


def default_attempts(delta: float) -> int:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return max(1, math.ceil(-math.log(delta)))


def redraw_set(vc: np.ndarray, bad: np.ndarray, n: int) -> np.ndarray:
    """The events among bad (ascending ids) that own every variable they
    touch, where a variable is owned by the lowest id of bad at it.  The
    rows are gathered from vc.T, which moser_tardos keeps C-contiguous."""
    cols = vc.T.take(bad, axis=1)
    owner = np.full(n + 1, len(vc), dtype=np.int64)
    np.minimum.at(owner, cols, bad[None])  # pads land on owner[n]; numpy 2.4 misreads 1-D bad
    return bad[((owner[cols] == bad) | (cols == n)).all(axis=0)]


def moser_tardos(
    n: int,
    vc: np.ndarray,
    draw: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    violated: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    delta: float = 0.01,
) -> ResampleResult:
    """Run independent attempts of at most 6n redrawn events each.

    draw(idx, rng) returns fresh values (int array) for the variables idx;
    violated(values) returns the (m,) bool mask of violated events.  A round
    redraws its events' variables event by event, in row order; past the
    budget it redraws only its lowest ids that still fit.  Near the
    construction threshold this rule redraws about twice as many events as
    redrawing the lowest violated id one at a time, whose budget was 2n; 6n
    builds at least as many of those schemes."""
    resamples, attempts = 0, default_attempts(delta)
    ev = np.ascontiguousarray(vc.T)  # no copy when vc is the transpose of a (k, m) table
    for attempt in range(1, attempts + 1):
        values, budget = draw(np.arange(n), rng), 6 * n
        while (bad := np.flatnonzero(violated(values))).size and budget:
            chosen = redraw_set(ev.T, bad, n)[:budget]
            budget -= chosen.size
            resamples += chosen.size
            idx = ev.take(chosen, axis=1).T  # constraint-major
            idx = idx[idx < n]
            values[idx] = draw(idx, rng)
        if not bad.size:
            return ResampleResult(True, values.tolist(), resamples, attempt, array=values)
    return ResampleResult(False, None, resamples, attempts, int(bad.size))


def find_assignment(
    csp: AtomicCSP, rng: np.random.Generator, delta: float = 0.01
) -> ResampleResult:
    """Satisfying assignment of an atomic CSP via resampling of violated
    constraints.  Caller asserts e*p*Delta <= 1 for the usual guarantee.

    The engine's violated mask is kept between rounds: a round re-evaluates
    only the constraints at variables whose value changed since the last round,
    which is exact since a constraint's status depends on its own variables
    alone.  It looks them up in csp.arrays.inc_flat and tests their columns of
    the (k, m) tables.  A returned assignment is then checked once from scratch
    on csp.arrays, every value in its alphabet and every constraint satisfied,
    or InternalError is raised."""
    a, (ids, offsets) = csp.arrays, csp.arrays.inc_flat
    sizes = np.diff(offsets)  # the number of constraints at each variable
    prev = mask = None  # the values and the mask of the previous round

    def violated(x):
        nonlocal prev, mask
        if prev is None:
            prev, mask = x.copy(), a.matches(x, a.forb) == a.arity[:-1]
            return mask
        changed = np.flatnonzero(prev != x)
        hi, deg = offsets.take(changed + 1), sizes.take(changed)  # ids[hi - deg:hi] for each
        cids = ids.take(np.arange(deg.sum()) + np.repeat(hi - deg.cumsum(), deg))
        hit = np.append(x, -1).take(a.vc.take(cids, axis=1)) == a.forb.take(cids, axis=1)
        mask[cids] = hit.sum(axis=0) == a.arity.take(cids)
        prev[changed] = x[changed]
        return mask

    result = moser_tardos(csp.n, a.vc.T, lambda idx, r: r.integers(a.domains[idx]), violated, rng,
                          delta=delta)
    if result.success:
        x = result.array
        if x.shape != a.domains.shape or ((x < 0) | (x >= a.domains)).any():
            raise InternalError("resampling returned a value outside its variable's alphabet")
        if (a.matches(x, a.forb) == a.arity[:-1]).any():
            raise InternalError("resampling returned an assignment that violates a constraint")
    return result
