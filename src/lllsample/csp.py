"""Atomic constraint satisfaction problems and their external formats.

An atomic constraint forbids exactly one assignment to its variable set.
Assignments are plain tuples of ints (value of variable v at index v);
partial assignments use None for unassigned variables.  CSPArrays holds
their numpy tables, those by constraint laid out constraint-last, (k, m),
and one index by variable, the flat inc_flat, which only the many-chain
driver and the resampling solver build; the library reads an instance
through these tables alone.

An AtomicCSP checks its constraints in one pass at construction.  The
clause-by-clause DIMACS reader hands it constraints that are valid by
construction, which skip their own checks.  parse_dimacs assembles long
inputs, and build_coloring_csp every colouring, with numpy into the tables
of CSPArrays; dynamics.project_csp and each counting stage's prefix gather
theirs from the input's.  All hand them to AtomicCSP._of_arrays, which
checks them with numpy and builds the constraint objects only when
`constraints` is first read.  parse_dimacs leaves any irregular input to
its clause-by-clause reader, the one source of its errors and warnings.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

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


# Most variables an input may declare, and most constraints (edges times
# colours) a colouring may have.  Past either, the parsers and build_coloring_csp
# raise before building any table: an input error rather than a MemoryError.
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


def _constraint(vars_: tuple, forbidden: tuple) -> AtomicConstraint:
    """The constraint of two tuples known to form one (equal, nonzero
    lengths and distinct variables), without __post_init__'s checks."""
    c = object.__new__(AtomicConstraint)
    object.__setattr__(c, "vars", vars_)
    object.__setattr__(c, "forbidden", forbidden)
    return c


@dataclass(frozen=True)
class AtomicCSP:
    """Immutable atomic CSP: per-variable alphabet sizes (values 0..size-1)
    plus atomic constraints.

    Construction checks, in one pass, the alphabets and then each
    (constraint, position) in order: the variable in 0..n-1 and its value
    inside its alphabet; CSPError names the first bad one.
    allow_unit_domains exists for projected instances, whose alphabets may
    collapse to a single value; ordinary instances require size >= 2.

    An instance is built from its constraints, or from the tables of
    CSPArrays (_of_arrays), which it keeps as `arrays`; such an instance
    builds `constraints`, a view that no algorithm of the library reads,
    when first read, and compares, hashes, prints and pickles as the same
    instance built from its constraints.
    """

    n: int
    domains: tuple[int, ...]
    constraints: tuple[AtomicConstraint, ...]
    allow_unit_domains: bool = False

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        self._check()

    @classmethod
    def _of_arrays(cls, n, domains, vc, forb, arity, allow_unit_domains=False):
        """The instance whose tables are vc, forb (k, m) and arity (m + 1,),
        laid out and padded as in CSPArrays, each column already a
        constraint's (at least one variable, none repeated); checked as
        __post_init__ checks, with numpy.  Its constraints are built only
        when read."""
        csp = object.__new__(cls)
        csp.__dict__.update(n=n, domains=tuple(domains), allow_unit_domains=allow_unit_domains)
        csp._check_domains()
        a = CSPArrays(np.array(csp.domains, dtype=np.int64), vc, forb, arity)
        live = np.arange(len(vc))[:, None] < arity[:-1]  # (k, m): the entries within each arity
        bad_var = live & ((vc < 0) | (vc >= n))
        size = np.append(a.domains, 0)[np.where(live & ~bad_var, vc, n)]
        bad = bad_var | (live & ((forb < 0) | (forb >= size)))
        if bad.any():  # name the first in (constraint, position) order
            cid, at = divmod(int(bad.T.argmax()), len(vc))
            raise _entry_error(cid, int(vc[at, cid]), int(forb[at, cid]), n)
        csp.__dict__["arrays"] = a
        return csp

    def __getattr__(self, name):
        # only an instance built from its tables lacks constraints, until
        # they are first read; pickle and copy look up other names on an
        # instance not yet filled in, which has no tables to read
        a = self.__dict__.get("arrays")
        if name != "constraints" or a is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars_ = a.tuples(a.vc, ints=list(range(self.n)))  # one int object per variable
        cs = tuple(map(_constraint, vars_, a.tuples(a.forb, shared=True)))
        self.__dict__["constraints"] = cs
        return cs

    def _check_domains(self):
        n, domains = self.n, self.domains
        if n != len(domains):
            raise CSPError(f"n={n} but {len(domains)} domains given")
        min_size = 1 if self.allow_unit_domains else 2
        if min(domains, default=min_size) < min_size:
            v = next(v for v, size in enumerate(domains) if size < min_size)
            raise CSPError(f"variable {v} has alphabet size {domains[v]} < {min_size}")

    def _check(self):
        self._check_domains()
        n, domains = self.n, self.domains
        for cid, c in enumerate(self.constraints):
            for v, value in zip(c.vars, c.forbidden):
                if not (0 <= v < n and 0 <= value < domains[v]):
                    raise _entry_error(cid, v, value, n)

    @property
    def m(self) -> int:
        return len(self.arrays.arity) - 1

    def state_space_size(self) -> int:
        total = 1
        for size in self.domains:
            total *= size
        return total

    @cached_property
    def arrays(self) -> "CSPArrays":
        return CSPArrays.build(self)


def _entry_error(cid: int, v: int, value: int, n: int) -> CSPError:
    """The error of constraint cid at a bad position: variable v, value value."""
    if not 0 <= v < n:
        return CSPError(f"constraint {cid} references variable {v} out of range")
    return CSPError(f"constraint {cid} forbids value {value} outside alphabet of variable {v}")


@dataclass(frozen=True)
class CSPArrays:
    """Padded numpy tables of an AtomicCSP, plain data with no reference
    back to it.  Those by constraint are C-contiguous (k, m): a test over a
    constraint's variables reduces across constraints.  build fills them
    from the constraints in one conversion per table; an instance built from
    its tables (AtomicCSP._of_arrays) holds those, and tuples reads them
    back.  The one index by variable is the flat inc_flat, whose memory
    follows the sum of the arities; only Sampler.step_tables and
    find_assignment read it.  constrained and degrees, the only other tables
    by variable or by neighbour, are derived from vc on first use, without it:
    degrees once per distinct variable tuple.

    Tables pad with n for "no variable" and -2 for "no forbidden value",
    which no value equals; the arity of the pad constraint m is -1, which no
    count reaches."""

    domains: np.ndarray  # (n,) alphabet sizes
    vc: np.ndarray  # (k, m) variables of each constraint; gather with take(..., axis=1)
    forb: np.ndarray  # (k, m) their forbidden values
    arity: np.ndarray  # (m + 1,)

    @classmethod
    def build(cls, csp: AtomicCSP) -> "CSPArrays":
        cs = csp.constraints
        arity = np.array([len(c.vars) for c in cs] + [-1], dtype=np.int64)
        vc = _short_rows([c.vars for c in cs], csp.n).T.copy()
        forb = _short_rows([c.forbidden for c in cs], -2).T.copy()
        return cls(np.array(csp.domains, dtype=np.int64), vc, forb, arity)

    def tuples(self, table: np.ndarray, ints: list | None = None,
               shared: bool = False) -> list[tuple]:
        """table, vc or forb, as one tuple per constraint, as long as its
        arity: entries x read as ints[x] where given; with shared, equal
        tuples are one object, as a table of few patterns wants."""
        flat = table.T[self.vc.T < len(self.domains)].tolist()  # vc pads with n
        if ints is not None:
            flat = list(map(ints.__getitem__, flat))
        return _split(flat, self.arity[:-1].tolist(), shared)

    @cached_property
    def inc_flat(self) -> tuple[np.ndarray, np.ndarray]:  # Σ arity ids, n + 1 offsets
        """The constraints at v, in ascending id, are ids[offsets[v]:offsets[v + 1]]."""
        flat = self.vc.T.ravel()  # constraint-major: ids ascend along it
        order = np.argsort(flat * flat.size + np.arange(flat.size))  # by variable, then place
        counts = np.bincount(flat, minlength=len(self.domains) + 1)
        offsets = counts.cumsum() - counts  # entries before each variable; the pads n come last
        return order[: offsets[-1]] // len(self.vc), offsets

    @cached_property
    def constrained(self) -> np.ndarray:  # (n,) bool: whether each variable is in a constraint
        n = len(self.domains)
        return np.bincount(self.vc.ravel(), minlength=n + 1)[:n] > 0  # vc pads with n

    @cached_property
    def degrees(self) -> tuple[int, ...]:  # (m,) constraints sharing a variable with each
        n = len(self.domains)
        ids: dict = {}  # each distinct variable tuple's number, in order of first appearance
        # a column of vc, pads n included, stands for its tuple
        of = [ids.setdefault(t, len(ids)) for t in map(tuple, self.vc.T.tolist())]
        at = [[] for _ in range(n + 1)]  # per variable, the distinct tuples at it
        for i, t in enumerate(ids):
            for v in t:
                at[v].append(i)
        at[n].clear()  # the pad n is no variable
        if len(ids) == len(of):  # no tuple repeats: a tuple's degree is its union's length
            size = [len(set().union(*map(at.__getitem__, t))) for t in ids]
        else:  # the summed multiplicity of its union
            mult = Counter(of).__getitem__
            size = [sum(map(mult, set().union(*map(at.__getitem__, t)))) for t in ids]
        return tuple(map(size.__getitem__, of))

    def matches(self, Z: np.ndarray, forb: np.ndarray) -> np.ndarray:
        """(m,) or (m, P) count of variables at the value forb (k, m) lists for
        them in each constraint, for an assignment Z (n,) or columns Z (n, P):
        forb is self.forb for assignments, the projected table for projected states."""
        Zp = np.concatenate([Z, np.full((1,) + Z.shape[1:], -1, dtype=Z.dtype)])
        return (Zp.take(self.vc, axis=0) == (forb if Z.ndim == 1 else forb[..., None])).sum(axis=0)


def _short_rows(rows: list[tuple], pad: int) -> np.ndarray:
    """(len(rows), longest row) int64 table holding each row as a prefix, the
    rest pad.  The rows are padded as tuples and converted in one call, which
    holds a second copy of the table meanwhile: rows as short as a
    constraint's only."""
    width = max(map(len, rows), default=0)
    fill = [(pad,) * (width - k) for k in range(width + 1)]  # the padding of a row of length k
    return np.array([row + fill[len(row)] for row in rows], dtype=np.int64).reshape(len(rows), width)


def evaluate(csp: AtomicCSP, x) -> list[int]:
    """Ids of constraints violated by the full assignment x."""
    if len(x) != csp.n:
        raise CSPError(f"assignment has length {len(x)}, expected {csp.n}")
    for v, value in enumerate(x):
        if value is None:
            raise CSPError(f"variable {v} unassigned; evaluate requires a full assignment")
        if not 0 <= value < csp.domains[v]:
            raise CSPError(f"value {value} outside alphabet of variable {v}")
    a = csp.arrays
    pairs = zip(a.tuples(a.vc), a.tuples(a.forb))
    return [cid for cid, (vars_, forbidden) in enumerate(pairs)
            if all(x[v] == f for v, f in zip(vars_, forbidden))]


def degree_stats(csp: AtomicCSP) -> tuple[int, int, list[int]]:
    """(Delta, k, per-constraint degrees).

    The degree of a constraint counts every constraint sharing at least one
    variable with it, itself included; Delta is the maximum, k the maximum
    arity.  An instance with no constraints reports (0, 0, []).  Degrees are
    counted once per distinct variable tuple, from the variable table alone,
    and cached on csp.arrays: a distinct tuple's degree is the summed
    multiplicity of the distinct tuples at any of its variables.
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


# Inputs this long or longer are first assembled with numpy (_dimacs_tables);
# shorter ones cost less clause by clause.
_TABLES_FROM_CHARS = 1000


def parse_dimacs(text) -> AtomicCSP:
    """Parse DIMACS CNF into an atomic CSP over binary alphabets.

    A clause is violated only by the complement of its literals, so the
    forbidden vector maps a positive literal to 0 and a negative one to 1.
    Duplicate literals are dropped; tautological clauses are skipped with a
    warning.  A line starting with "%" ends the formula, as in SATLIB's files.
    The declared clause count must match the number of clauses read.

    Inputs of at least _TABLES_FROM_CHARS characters convert their literals
    in one numpy call and assemble the clauses as tables; one with anything
    irregular (a bad token or header, a literal out of range, an empty or
    unterminated clause, a count mismatch, a tautology) is parsed again
    clause by clause, which alone raises ParseError and warns.
    """
    text = _decode(text)
    if len(text) >= _TABLES_FROM_CHARS:
        csp = _dimacs_tables(text)
        if csp is not None:
            return csp
    return _dimacs_clauses(text)


def _header(line: str, lineno: int) -> tuple[int, int]:
    """(n, m) of a 'p cnf n m' line."""
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
    return n, declared_m


def _dimacs_lines(text: str):
    """(number, stripped text) of each line that is neither blank nor a
    comment, up to a line starting with "%"."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):  # SATLIB's end of formula, followed by a stray "0"
            return
        if line and not line.startswith("c"):
            yield lineno, line


def _dimacs_clauses(text: str) -> AtomicCSP:
    n = None
    declared_m = None
    constraints: list[AtomicConstraint] = []
    seen_clauses = 0
    current: list[int] = []
    current_line = 0
    for lineno, line in _dimacs_lines(text):
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            n, declared_m = _header(line, lineno)
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
                constraint = _clause_to_constraint(current, current_line or lineno)
                if constraint is not None:
                    constraints.append(constraint)
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
    return AtomicCSP(n, (2,) * n, constraints)


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
                    f"line {lineno}: tautological clause dropped", ParserWarning, stacklevel=4
                )
                return None
        else:
            by_var[v] = value
    vars_sorted = tuple(sorted(by_var))
    return _constraint(vars_sorted, tuple(by_var[v] for v in vars_sorted))


def _dimacs_tables(text: str) -> AtomicCSP | None:
    """parse_dimacs(text) with the clauses assembled by numpy, or None if the
    input holds anything that the clause-by-clause parser reports or warns
    of, or a token that the two might read differently."""
    header, lines = None, []
    for _, line in _dimacs_lines(text):
        if line.startswith("p"):
            if header is not None:
                return None
            header = line
        elif header is None:
            return None
        else:
            lines.append(line)
    if header is None:
        return None
    try:
        n, m = _header(header, 0)
    except ParseError:
        return None
    # each temporary is dropped once read: the text's lines and numpy's
    # arrays would otherwise add to the peak
    literals = _literals(" ".join(lines))
    del lines
    tables = None if literals is None else _clauses(literals, n, m)
    del literals
    return None if tables is None else AtomicCSP._of_arrays(n, (2,) * n, *tables)


def _literals(body: str) -> np.ndarray | None:
    """The integers of body, stripped lines joined by spaces, as int() reads
    its tokens, or None if numpy might read them otherwise.  numpy reads
    "+5" as int() does, but a sign before no digit as 0 or as the sign of
    the next number, and it clamps past int64, which the range check
    catches; it refuses what int() alone reads, such as "1_000"."""
    try:
        chars = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
        with warnings.catch_warnings():
            # numpy before 2.0 only warns of a token it cannot read, and
            # returns the numbers before it
            warnings.simplefilter("error", DeprecationWarning)
            literals = np.fromstring(body, dtype=np.int64, sep=" ")
    except (UnicodeEncodeError, ValueError, DeprecationWarning):
        return None
    after = np.append(chars[1:], 32)  # each character's successor; a space ends the body
    lone_sign = ((chars == 43) | (chars == 45)) & ((after < 48) | (after > 57))
    return None if lone_sign.any() else literals


def _clauses(literals: np.ndarray, n: int, m: int):
    """(vc, forb, arity), the tables of CSPArrays, of the 0-terminated
    clauses in literals, each clause's variables ascending and repeated
    literals dropped; or None if a literal is out of range, a clause is
    empty, unterminated or tautological, or there are not m clauses."""
    ends = np.flatnonzero(literals == 0)
    if ends.size != m or (literals.size and (
            literals[-1] != 0 or literals.min() < -n or literals.max() > n
            or ends[0] == 0 or (np.diff(ends) == 1).any())):
        return None
    is_lit = literals != 0
    key = np.cumsum(~is_lit)[is_lit] * (2 * n)  # the clause, variable and value in one key
    literals = literals[is_lit]
    key += 2 * np.abs(literals) - 2
    key += literals < 0
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]  # repeated literals dropped
    if ((key[1:] >> 1) == (key[:-1] >> 1)).any():  # a variable under both signs
        return None
    clause, key = np.divmod(key, 2 * n)
    arity = np.bincount(clause, minlength=m)
    at = np.arange(clause.size) - (np.cumsum(arity) - arity)[clause]  # the position in its clause
    vc = np.full((arity.max(initial=0), m), n, dtype=np.int64)
    forb = np.full(vc.shape, -2, dtype=np.int64)
    vc[at, clause], forb[at, clause] = key >> 1, key & 1
    return vc, forb, np.append(arity, -1)


def _split(flat: list, lengths: list[int], shared: bool = False) -> list[tuple]:
    """flat cut into consecutive tuples of the given lengths; with shared,
    equal tuples are one object, as a table of few patterns wants."""
    if lengths and min(lengths) == max(lengths):
        rows = zip(*[iter(flat)] * lengths[0])
    else:
        it = iter(flat)
        rows = (tuple(islice(it, k)) for k in lengths)
    if shared:
        patterns: dict[tuple, tuple] = {}
        return [patterns.setdefault(row, row) for row in rows]
    return list(rows)


def write_dimacs(csp: AtomicCSP) -> str:
    """Serialize a binary-alphabet CSP back to DIMACS (forbidden 0 -> positive
    literal, forbidden 1 -> negative)."""
    if any(size != 2 for size in csp.domains):
        raise CSPError("DIMACS output requires binary alphabets")
    lines, a = [f"p cnf {csp.n} {csp.m}"], csp.arrays
    for vars_, forbidden in zip(a.tuples(a.vc), a.tuples(a.forb)):
        lits = [(v + 1) if f == 0 else -(v + 1) for v, f in zip(vars_, forbidden)]
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
    exactly when every vertex of e has color i.  The instance is built from
    its tables: column e * q + i holds edge e's vertices, ascending, each
    forbidding colour i."""
    if not 2 <= q < 2**63:  # the tables hold colours as int64
        raise CSPError(f"need at least 2 colors and fewer than 2**63, got {q}")
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
    if len(edges) * q > MAX_VARIABLES:
        raise CSPError(f"{len(edges) * q} constraints, past the limit of {MAX_VARIABLES}")
    vc = np.repeat(_short_rows([tuple(sorted(e)) for e in edges], n).T, q, axis=1)
    forb = np.where(vc < n, np.arange(vc.shape[1], dtype=np.int64) % q, -2)  # colour i of e
    arity = np.append(np.repeat(np.array(list(map(len, edges)), dtype=np.int64), q), -1)
    return AtomicCSP._of_arrays(n, (q,) * n, vc, forb, arity)

