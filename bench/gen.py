"""Seeded input generators for the benchmark.

Each generator returns the text a user would hand to the library (DIMACS
CNF or a hypergraph edge list), so that parsing stays on the timed path.
The same generator and seed always give the same text.
"""

from __future__ import annotations

import hashlib

import numpy as np


def random_kcnf(rng: np.random.Generator, n: int, m: int, k: int) -> str:
    """m clauses over n variables, each on k distinct variables with
    uniformly random signs, as DIMACS CNF."""
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        variables = rng.choice(n, size=k, replace=False) + 1
        signs = rng.integers(2, size=k)
        lits = (int(v) if s else -int(v) for v, s in zip(variables, signs))
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def random_hypergraph(rng: np.random.Generator, n: int, m: int, k: int) -> str:
    """m edges on n vertices, each a uniformly random k-subset, as an edge
    list with 0-indexed vertex ids."""
    edges = (sorted(int(v) for v in rng.choice(n, size=k, replace=False)) for _ in range(m))
    return "".join(" ".join(map(str, e)) + "\n" for e in edges)


def disjoint_clauses(rng: np.random.Generator, c: int, k: int) -> str:
    """c clauses of width k on disjoint variable blocks (clause j uses
    variables jk+1 .. jk+k) with random signs.  Every clause forbids exactly
    one of the 2^k assignments of its block, so the instance has exactly
    (2^k - 1)^c satisfying assignments."""
    lines = [f"p cnf {c * k} {c}"]
    for j in range(c):
        signs = rng.integers(2, size=k)
        lits = ((j * k + i + 1) * (1 if s else -1) for i, s in enumerate(signs))
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def disjoint_clauses_count(c: int, k: int) -> int:
    return (2**k - 1) ** c


def digest(text: str) -> str:
    """Short content hash printed with every generated input."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
