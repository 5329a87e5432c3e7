"""Atomic constraint satisfaction problems and their external formats.

An atomic constraint forbids exactly one assignment to its variable set.
Assignments are plain tuples of ints (value of variable v at index v);
partial assignments use None for unassigned variables.  CSPArrays holds
their numpy tables, those by constraint laid out constraint-last, (k, m).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class CSPError(ValueError):
    pass


class InternalError(RuntimeError):
    """A result failed its final verification: a defect of the library, not
    of the input."""


class ParseError(CSPError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParserWarning(UserWarning):
    pass


# Most variables an input may declare.  The parsers refuse more before
# building any per-variable table, so a huge declared size is an input error
# rather than a MemoryError.
MAX_VARIABLES = 10**7


@dataclass(frozen=True)
class AtomicConstraint:
    """A single forbidden partial assignment: violated iff every listed
    variable carries its forbidden value."""

    vars: tuple[int, ...]
    forbidden: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "forbidden", tuple(self.forbidden))
        if len(self.vars) != len(self.forbidden):
            raise CSPError("vars and forbidden must have equal length")
        if len(self.vars) == 0:
            raise CSPError("constraint must involve at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise CSPError(f"duplicate variables in constraint {self.vars}")

    @property
    def arity(self) -> int:
        return len(self.vars)

    def forbidden_at(self, v: int) -> int:
        return self.forbidden[self.vars.index(v)]


@dataclass(frozen=True)
class AtomicCSP:
    """Immutable atomic CSP: per-variable alphabet sizes (values 0..size-1)
    plus atomic constraints, with a variable -> incident-constraints index.

    allow_unit_domains exists for projected instances, whose alphabets may
    collapse to a single value; ordinary instances require size >= 2.
    """

    n: int
    domains: tuple[int, ...]
    constraints: tuple[AtomicConstraint, ...]
    allow_unit_domains: bool = False
    dep_index: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.n != len(self.domains):
            raise CSPError(f"n={self.n} but {len(self.domains)} domains given")
        min_size = 1 if self.allow_unit_domains else 2
        for v, size in enumerate(self.domains):
            if size < min_size:
                raise CSPError(f"variable {v} has alphabet size {size} < {min_size}")
        index: list[list[int]] = [[] for _ in range(self.n)]
        for cid, c in enumerate(self.constraints):
            for v, value in zip(c.vars, c.forbidden):
                if not 0 <= v < self.n:
                    raise CSPError(f"constraint {cid} references variable {v} out of range")
                if not 0 <= value < self.domains[v]:
                    raise CSPError(
                        f"constraint {cid} forbids value {value} outside alphabet of variable {v}"
                    )
                index[v].append(cid)
        object.__setattr__(self, "dep_index", tuple(tuple(ids) for ids in index))

    @property
    def m(self) -> int:
        return len(self.constraints)

    def state_space_size(self) -> int:
        total = 1
        for size in self.domains:
            total *= size
        return total

    @cached_property
    def arrays(self) -> "CSPArrays":
        return CSPArrays.build(self)


@dataclass(frozen=True)
class CSPArrays:
    """Padded numpy tables of an AtomicCSP; those by variable and by
    neighbour are built on first use.  Those by constraint are C-contiguous
    (k, m): a test over a constraint's variables reduces across constraints.

    Tables pad with n for "no variable", m for "no constraint" and -2 for
    "no forbidden value", which no value equals; the arity of the pad
    constraint m is -1, which no count reaches."""

    domains: np.ndarray  # (n,) alphabet sizes
    vc: np.ndarray  # (k, m) variables of each constraint; gather with take(..., axis=1)
    forb: np.ndarray  # (k, m) their forbidden values
    arity: np.ndarray  # (m + 1,)
    csp: AtomicCSP = field(repr=False, compare=False)

    @classmethod
    def build(cls, csp: AtomicCSP) -> "CSPArrays":
        cs = csp.constraints
        arity = np.array([c.arity for c in cs] + [-1], dtype=np.int64)
        vc = _padded([c.vars for c in cs], csp.m, csp.n).T.copy()
        forb = _padded([c.forbidden for c in cs], csp.m, -2).T.copy()
        return cls(np.array(csp.domains, dtype=np.int64), vc, forb, arity, csp)

    @cached_property
    def inc_flat(self) -> tuple[np.ndarray, np.ndarray]:  # Σ arity ids, n + 1 offsets
        """The constraints at v, as in dep_index, are ids[offsets[v]:offsets[v + 1]]."""
        order = np.argsort(self.vc.T.ravel(), kind="stable")  # constraint-major: ids ascend
        offsets = np.searchsorted(np.sort(self.vc, axis=None), np.arange(self.csp.n + 1))
        return order[: offsets[-1]] // len(self.vc), offsets

    @cached_property
    def inc(self) -> np.ndarray:  # (n + 1, d) constraints at each variable
        return _padded(self.csp.dep_index, self.csp.n + 1, self.csp.m)

    @cached_property
    def inc_forb(self) -> np.ndarray:  # (n + 1, d) the variable's forbidden value in each of them
        forbidden: list[list[int]] = [[] for _ in range(self.csp.n)]
        for c in self.csp.constraints:
            for v, f in zip(c.vars, c.forbidden):
                forbidden[v].append(f)
        return _padded(forbidden, self.csp.n + 1, -2)

    def _near(self, vars_) -> set[int]:  # the constraints with a variable in vars_
        return set().union(*map(self.csp.dep_index.__getitem__, vars_))

    @cached_property
    def adj(self) -> np.ndarray:  # (m, e) constraints sharing a variable with each, ascending
        rows = [sorted(self._near(c.vars)) for c in self.csp.constraints]
        return _padded(rows, self.csp.m, self.csp.m)

    @cached_property
    def degrees(self) -> tuple[int, ...]:  # (m,) adj's row lengths, per distinct variable tuple
        vars_ = [c.vars for c in self.csp.constraints]
        size = {t: len(self._near(t)) for t in set(vars_)}
        return tuple(map(size.__getitem__, vars_))

    def matches(self, Z: np.ndarray, forb: np.ndarray) -> np.ndarray:
        """(m,) or (m, P) count of variables at the value forb (k, m) lists for
        them in each constraint, for an assignment Z (n,) or columns Z (n, P):
        forb is self.forb for assignments, the projected table for projected states."""
        Zp = np.concatenate([Z, np.full((1,) + Z.shape[1:], -1, dtype=Z.dtype)])
        return (Zp.take(self.vc, axis=0) == (forb if Z.ndim == 1 else forb[..., None])).sum(axis=0)


def _padded(rows, height: int, pad: int) -> np.ndarray:
    """(height, longest row) int64 table holding each row as a prefix, the rest pad."""
    out = np.full((height, max(map(len, rows), default=0)), pad, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def evaluate(csp: AtomicCSP, x) -> list[int]:
    """Ids of constraints violated by the full assignment x."""
    if len(x) != csp.n:
        raise CSPError(f"assignment has length {len(x)}, expected {csp.n}")
    for v, value in enumerate(x):
        if value is None:
            raise CSPError(f"variable {v} unassigned; evaluate requires a full assignment")
        if not 0 <= value < csp.domains[v]:
            raise CSPError(f"value {value} outside alphabet of variable {v}")
    return [
        cid
        for cid, c in enumerate(csp.constraints)
        if all(x[v] == f for v, f in zip(c.vars, c.forbidden))
    ]


def degree_stats(csp: AtomicCSP) -> tuple[int, int, list[int]]:
    """(Delta, k, per-constraint degrees).

    The degree of a constraint counts every constraint sharing at least one
    variable with it, itself included; Delta is the maximum, k the maximum
    arity.  An instance with no constraints reports (0, 0, []).  Degrees are
    counted once per distinct variable tuple and cached on csp.arrays.
    """
    degrees = csp.arrays.degrees
    return max(degrees, default=0), len(csp.arrays.vc), list(degrees)


# ---------------------------------------------------------------------------
# DIMACS CNF


def _decode(text) -> str:
    """text as a string; bytes must be UTF-8, or ParseError names the first
    line, as str.splitlines counts them, that does not decode."""
    if not isinstance(text, bytes):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; the bad byte is on their last line
        lineno = len((text[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError("input is not UTF-8 text", lineno) from None


def parse_dimacs(text) -> AtomicCSP:
    """Parse DIMACS CNF into an atomic CSP over binary alphabets.

    A clause is violated only by the complement of its literals, so the
    forbidden vector maps a positive literal to 0 and a negative one to 1.
    Duplicate literals are dropped; tautological clauses are skipped with a
    warning.  A line starting with "%" ends the formula, as in SATLIB's files.
    The declared clause count must match the number of clauses read.
    """
    text = _decode(text)
    n = None
    declared_m = None
    clauses: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    seen_clauses = 0
    current: list[int] = []
    current_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):  # SATLIB's end of formula, followed by a stray "0"
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError(f"negative counts in header {line!r}", lineno)
            if n > MAX_VARIABLES:
                raise ParseError(
                    f"header declares {n} variables, past the limit of {MAX_VARIABLES}", lineno
                )
            continue
        if n is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                seen_clauses += 1
                clause = _clause_to_constraint(current, current_line or lineno)
                if clause is not None:
                    clauses.append(clause)
                current = []
                current_line = 0
                continue
            if abs(lit) > n:
                raise ParseError(f"literal {lit} out of range (n={n})", lineno)
            if not current:
                current_line = lineno
            current.append(lit)
    if current:
        raise ParseError("unterminated clause at end of input", current_line)
    if n is None:
        raise ParseError("missing 'p cnf' header")
    if seen_clauses != declared_m:
        raise ParseError(f"header declares {declared_m} clauses but {seen_clauses} found")
    constraints = [AtomicConstraint(vars, forb) for vars, forb in clauses]
    return AtomicCSP(n=n, domains=(2,) * n, constraints=tuple(constraints))


def _clause_to_constraint(lits: list[int], lineno: int):
    if not lits:
        raise ParseError("empty clause", lineno)
    by_var: dict[int, int] = {}
    for lit in lits:
        v = abs(lit) - 1  # external 1-indexed -> internal 0-indexed
        value = 0 if lit > 0 else 1
        if v in by_var:
            if by_var[v] != value:
                warnings.warn(
                    f"line {lineno}: tautological clause dropped", ParserWarning, stacklevel=3
                )
                return None
        else:
            by_var[v] = value
    vars_sorted = tuple(sorted(by_var))
    return vars_sorted, tuple(by_var[v] for v in vars_sorted)


def write_dimacs(csp: AtomicCSP) -> str:
    """Serialize a binary-alphabet CSP back to DIMACS (forbidden 0 -> positive
    literal, forbidden 1 -> negative)."""
    if any(size != 2 for size in csp.domains):
        raise CSPError("DIMACS output requires binary alphabets")
    lines = [f"p cnf {csp.n} {csp.m}"]
    for c in csp.constraints:
        lits = [(v + 1) if f == 0 else -(v + 1) for v, f in zip(c.vars, c.forbidden)]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Hypergraph edge lists and coloring instances


def parse_hypergraph(text) -> list[tuple[int, ...]]:
    """One edge per line: whitespace-separated 0-indexed vertex ids, '#' comments."""
    text = _decode(text)
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            verts = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"bad vertex id in {line!r}", lineno) from None
        if any(v < 0 for v in verts):
            raise ParseError("negative vertex id", lineno)
        edges.append(verts)
    return edges


def build_coloring_csp(edges, q: int, n: int | None = None) -> AtomicCSP:
    """q coloring constraints per edge: constraint i for edge e is violated
    exactly when every vertex of e has color i."""
    if q < 2:
        raise CSPError(f"need at least 2 colors, got {q}")
    edges = [tuple(e) for e in edges]
    for e in edges:
        if len(e) == 0:
            raise CSPError("empty edge")
        if len(set(e)) != len(e):
            raise CSPError(f"edge {e} has a duplicate vertex")
        if len(e) < 2:
            raise CSPError(f"edge {e} has fewer than 2 vertices")
    max_v = max((max(e) for e in edges), default=-1)
    if n is None:
        n = max_v + 1
    if n > MAX_VARIABLES:
        raise CSPError(f"{n} vertices, past the limit of {MAX_VARIABLES} variables")
    elif max_v >= n:
        raise CSPError(f"edge vertex {max_v} out of range for n={n}")
    constraints = [
        AtomicConstraint(tuple(sorted(e)), (color,) * len(e))
        for e in edges
        for color in range(q)
    ]
    return AtomicCSP(n=n, domains=(q,) * n, constraints=tuple(constraints))

