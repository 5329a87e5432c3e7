"""Brute-force ground truth: exact enumeration of satisfying assignments
(the counter's fallback outside the sampling regime), empirical TV distance,
and the bound on 2-trees that component sizes are compared against.

Enumeration is exact (integer counts) and guarded to desk scale; nothing
here reuses the sampling code paths it is meant to check: it reads each
constraint from the instance's tables and tests it itself, not through
CSPArrays.matches, which the lift's verification uses.
"""

from __future__ import annotations

import math

import numpy as np

from .csp import AtomicCSP

ENUM_GUARD = 1 << 20
_CHUNK = 1 << 16


class EnumerationGuard(ValueError):
    pass


def _decode_chunk(start: int, stop: int, domains) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic enumeration of the product
    space (leftmost variable most significant)."""
    idx = np.arange(start, stop, dtype=np.int64)
    n = len(domains)
    out = np.empty((idx.size, n), dtype=np.int64)
    radix = 1
    for v in range(n - 1, -1, -1):
        out[:, v] = (idx // radix) % domains[v]
        radix *= domains[v]
    return out


def _satisfying_rows(csp: AtomicCSP):
    total = csp.state_space_size()
    if total > ENUM_GUARD:
        raise EnumerationGuard(f"state space {total} exceeds guard {ENUM_GUARD}")
    a = csp.arrays
    for start in range(0, total, _CHUNK):
        rows = _decode_chunk(start, min(start + _CHUNK, total), csp.domains)
        ok = np.ones(rows.shape[0], dtype=bool)
        for vars_, forbidden in zip(a.tuples(a.vc), a.tuples(a.forb)):
            ok &= ~np.all(rows[:, list(vars_)] == forbidden, axis=1)
        yield rows[ok]


def enumerate_satisfying(csp: AtomicCSP) -> list[tuple[int, ...]]:
    """All satisfying assignments in lexicographic order (guarded)."""
    out: list[tuple[int, ...]] = []
    for rows in _satisfying_rows(csp):
        out.extend(tuple(int(x) for x in row) for row in rows)
    return out


def count_satisfying(csp: AtomicCSP) -> int:
    return sum(rows.shape[0] for rows in _satisfying_rows(csp))


# ---------------------------------------------------------------------------
# Total variation


def tv_empirical(samples, exact: dict) -> float:
    """0.5 * sum over the union support of |empirical freq - exact prob|.
    samples: iterable of hashable outcomes, or a dict of counts."""
    if isinstance(samples, dict):
        counts = dict(samples)
    else:
        counts = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no samples")
    support = set(counts) | set(exact)
    return 0.5 * sum(
        abs(counts.get(x, 0) / total - float(exact.get(x, 0))) for x in support
    )


# ---------------------------------------------------------------------------
# 2-trees: vertex sets at pairwise distance >= 2 whose distance<=2 closure
# is connected


def two_tree_count_bound(delta: int, ell: int) -> float:
    """(e * Delta^2)^(ell-1) / 2."""
    return (math.e * delta * delta) ** (ell - 1) / 2.0
