"""Projection schemes: per-variable partitions of the alphabet into preimage
blocks, the quantities b, zeta, kappa derived from them, the admissibility
report, and the five-case constructor.

A scheme maps each original value to the index of its block; the projected
alphabet of variable v has one symbol per block.  Collapsing a variable to a
single block erases it from the projected instance; singleton blocks keep it
fully visible.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from typing import NamedTuple

import numpy as np

from .csp import AtomicCSP, CSPError, InternalError, ParseError, degree_stats
from .resample import moser_tardos

logger = logging.getLogger(__name__)

E = math.e


class RegimeError(ValueError):
    """Instance/scheme parameters outside the range a formula is defined for."""


class ConstructionError(RuntimeError):
    """Randomized construction exhausted its resampling budget."""


class AdmissibilityError(ValueError):
    """Strict construction rejected a scheme that fails the numeric checks."""


@dataclass(frozen=True)
class ProjectionScheme:
    """Per-variable partition of 0..size-1 into nonempty blocks; block j is
    the preimage of projected value j, and block_of[v][x] is the block of
    value x at v; variables with equal partitions share these tuples."""

    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    case: str | None = None
    kappa: float | None = None
    eta: float | None = None
    block_of: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        done: dict[tuple, tuple] = {}  # each distinct partition, checked at its first variable
        keys = (tuple(map(tuple, var_blocks)) for var_blocks in self.blocks)  # hashable forms
        parts = [done[key] if key in done else done.setdefault(key, _partition(v, key))
                 for v, key in enumerate(keys)]
        blocks, block_of = zip(*parts) if parts else ((), ())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_of", block_of)

    @property
    def n(self) -> int:
        return len(self.blocks)

    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(lookup) for lookup in self.block_of)

    def q_sizes(self) -> tuple[int, ...]:
        return tuple(len(var_blocks) for var_blocks in self.blocks)

    def project_value(self, v: int, value: int) -> int:
        return self.block_of[v][value]

    def project(self, x) -> tuple[int, ...]:
        return tuple(self.block_of[v][value] for v, value in enumerate(x))

    def block_size(self, v: int, q: int) -> int:
        return len(self.blocks[v][q])

    @cached_property
    def size_of(self) -> tuple[tuple[int, ...], ...]:  # size_of[v][x]: the size of x's block
        return tuple(tuple(map(len, map(var_blocks.__getitem__, lookup)))
                     for var_blocks, lookup in zip(self.blocks, self.block_of))

    @cached_property
    def arrays(self) -> "BlockArrays":
        return BlockArrays.build(self)

    def to_json(self) -> str:
        payload = {
            "blocks": [[list(b) for b in var_blocks] for var_blocks in self.blocks],
            "case": self.case,
            "kappa": self.kappa,
            "eta": self.eta,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "ProjectionScheme":
        """Inverse of to_json.  Raises ParseError on text that is not JSON,
        on blocks that are not lists of lists of integers, on a case that is
        neither a string nor null, and on a kappa or eta that is neither a
        positive number nor null."""
        try:
            payload = json.loads(text)
            blocks = tuple(tuple(tuple(b) for b in var_blocks) for var_blocks in payload["blocks"])
            case, kappa, eta = (payload.get(key) for key in ("case", "kappa", "eta"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"malformed scheme JSON: {exc!r}") from exc
        if not all(type(x) is int for var_blocks in blocks for b in var_blocks for x in b):
            raise ParseError("scheme blocks must be lists of lists of integers")
        if not isinstance(case, (str, type(None))):
            raise ParseError("scheme case must be a string or null")
        for name, value in (("kappa", kappa), ("eta", eta)):
            if value is not None and not (type(value) in (int, float) and 0 < value < math.inf):
                raise ParseError(f"scheme {name} must be a positive number or null")
        return cls(blocks=blocks, case=case, kappa=kappa, eta=eta)


def _partition(v: int, blocks: tuple) -> tuple[tuple, tuple[int, ...]]:
    """(blocks, each sorted; the block of each value), or CSPError naming
    variable v unless blocks partition 0..size-1 into nonempty blocks."""
    canon = tuple(tuple(sorted(block)) for block in blocks)
    union: dict[int, int] = {}
    for j, block in enumerate(canon):
        if not block:
            raise CSPError(f"variable {v} has an empty block")
        for value in block:
            if value in union:
                raise CSPError(f"variable {v}: value {value} in two blocks")
            union[value] = j
    size = len(union)
    if set(union) != set(range(size)):
        raise CSPError(f"variable {v}: blocks do not partition 0..{size - 1}")
    return canon, tuple(union[value] for value in range(size))


@dataclass(frozen=True)
class BlockArrays:
    """Numpy tables of a ProjectionScheme, built once per scheme.

    Block q of variable v is values[start[v, q + 1] : start[v, q + 1] +
    size[v, q + 1]].  Block -1 is the whole alphabet of v, so the projected
    value -1 reads "unassigned"."""

    values: np.ndarray  # per variable, its blocks' values, then its alphabet
    start: np.ndarray  # (n, qmax + 1), column 0 the alphabet and q + 1 block q
    size: np.ndarray  # (n, qmax + 1)
    block_of: np.ndarray  # (n, amax) block of each value
    q: np.ndarray  # (n,) block count of each variable

    @classmethod
    def build(cls, scheme: "ProjectionScheme") -> "BlockArrays":
        n = scheme.n
        qmax = max(scheme.q_sizes(), default=0)
        amax = max(scheme.domain_sizes(), default=1)
        start = np.zeros((n, qmax + 1), dtype=np.int64)
        size = np.zeros((n, qmax + 1), dtype=np.int64)
        block_of = np.zeros((n, amax), dtype=np.int64)
        values: list[int] = []
        for v, var_blocks in enumerate(scheme.blocks):
            alphabet = tuple(range(len(scheme.block_of[v])))
            for q, block in [*enumerate(var_blocks, 1), (0, alphabet)]:
                start[v, q], size[v, q] = len(values), len(block)
                values.extend(block)
            block_of[v, : len(alphabet)] = scheme.block_of[v]
        q = np.array(scheme.q_sizes(), dtype=np.int64)
        return cls(np.array(values, dtype=np.int64), start, size, block_of, q)

    def project(self, var: np.ndarray, value: np.ndarray) -> np.ndarray:
        """The block of each value at its variable, entrywise over var and
        value, which broadcast together; -2 where value is the pad -2."""
        pad = value < 0
        out = self.block_of[np.where(pad, 0, var), np.where(pad, 0, value)]
        out[pad] = -2
        return out

    def bounds(self, var: np.ndarray, Yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start, size) of block Yc of variable var, entrywise over both."""
        at = var * self.start.shape[1] + Yc + 1
        return self.start.ravel().take(at), self.size.ravel().take(at)

    def pick(self, bounds, u: np.ndarray) -> np.ndarray:
        """The value at uniform position u in each block (start, size) of bounds."""
        start, size = bounds
        return self.values[start + (u * size).astype(np.int64)]


def identity_scheme(csp: AtomicCSP, **kw) -> ProjectionScheme:
    return ProjectionScheme(
        tuple(tuple((value,) for value in range(size)) for size in csp.domains), **kw
    )


def full_marking_scheme(csp: AtomicCSP, **kw) -> ProjectionScheme:
    return ProjectionScheme(tuple((tuple(range(size)),) for size in csp.domains), **kw)


def _check_match(csp: AtomicCSP, scheme: ProjectionScheme):
    if scheme.n != csp.n or scheme.domain_sizes() != csp.domains:
        raise CSPError(
            f"scheme covers domains {scheme.domain_sizes()}, CSP has {csp.domains}"
        )


# ---------------------------------------------------------------------------
# Derived quantities


def compute_b(csp: AtomicCSP, scheme: ProjectionScheme):
    """Exact per-constraint b(C) = prod of reciprocal preimage-block sizes at
    the forbidden projected values, and the maximum b; each distinct b(C)
    is computed once per shape (_shapes) and shared by its constraints."""
    _check_match(csp, scheme)
    shapes, of = _shapes(csp, scheme)
    per_shape = [Fraction(1, math.prod(sizes)) for _, sizes, _ in shapes]
    return _max_b(shapes), [per_shape[s] for s in of]


def _max_b(shapes: list[tuple]) -> Fraction:
    """The largest b(C), the reciprocal of the product of C's forbidden
    block sizes; 0 without constraints."""
    return Fraction(1, min(math.prod(sizes) for _, sizes, _ in shapes)) if shapes else Fraction(0)


def _shapes(csp: AtomicCSP, scheme: ProjectionScheme) -> tuple[list[tuple], list[int]]:
    """The distinct shapes (variables, sizes, overlap) of csp's constraints
    under scheme, in order of first appearance, and each constraint's shape
    index: sizes are those of the blocks holding the forbidden values, and
    overlap their product-measure probabilities, as floats, at the variables
    with more than one block (vbl-bar).  b(C), zeta(C), the A2 lhs and the A3
    ratios depend on C only through its shape, so they are computed once per
    shape: a colouring's q constraints per edge have one per block size."""
    size_of, index = scheme.size_of.__getitem__, {}
    of = [index.setdefault((c.vars, tuple(map(tuple.__getitem__, map(size_of, c.vars),
                                              c.forbidden))), len(index))
          for c in csp.constraints]
    domains, blocks = csp.domains, scheme.blocks
    return [(vars_, sizes, [size / domains[v] for v, size in zip(vars_, sizes)
                            if len(blocks[v]) > 1])
            for vars_, sizes in index], of


def kappa_for(case: str | None, delta: int, a_max: int, k_max: int) -> float:
    """Chain-length scale for each construction case; generic fallback covers
    user-supplied schemes.  Always at least 4*ln(3000*Delta)."""
    d = max(delta, 1)
    if case == "case1":
        kappa = 12.0 * math.log(3000.0 * (d + a_max))
    elif case in ("case2", "case3"):
        kappa = 12.0 * math.log(3000.0 * (d + max(k_max, 1)))
    elif case == "case4":
        kappa = 12.0 * math.log(3000.0 * (d + a_max * max(k_max, 1)))
    elif case == "case5":
        kappa = 12.0 * math.log(3000.0 * (d + 100))
    else:
        kappa = 12.0 * math.log(3000.0 * (d + a_max + max(k_max, 1)))
    return max(kappa, 4.0 * math.log(3000.0 * d))


def scheme_kappa(csp: AtomicCSP, scheme: ProjectionScheme) -> float:
    """The chain-length scale of scheme on csp: the scheme's own kappa, or
    else kappa_for its case."""
    if scheme.kappa is not None:
        return scheme.kappa
    delta, k, _ = degree_stats(csp)
    return kappa_for(scheme.case, delta, max(csp.domains, default=2), k)


def zeta_values(csp: AtomicCSP, scheme: ProjectionScheme, b: Fraction | None = None):
    """zeta(C) with the conservative substitute 1 for the worst-case TV term:
    max over multi-block variables of max(1, min((1-3b)^Delta / P, 2*Delta)).
    Returns math.inf entries when b >= 1/3 makes the factor meaningless."""
    _check_match(csp, scheme)
    shapes, of = _shapes(csp, scheme)
    zetas = _zetas(shapes, _max_b(shapes) if b is None else b, degree_stats(csp)[0])
    return [zetas[s] for s in of]


def _zetas(shapes: list[tuple], b: Fraction, delta: int) -> list[float]:
    """zeta(C) of each shape, from its overlap marginals."""
    shrink = (1.0 - 3.0 * float(b)) ** delta if float(b) < 1.0 / 3.0 else 0.0
    return [max([1.0] + [min(shrink / p if shrink > 0.0 else math.inf, 2.0 * delta) for p in ov])
            for _, _, ov in shapes]


# ---------------------------------------------------------------------------
# Admissibility


@dataclass
class AdmissibilityReport:
    eta: float
    kappa: float
    delta_deg: int
    b: float
    regime: bool  # e*b*Delta <= 1, under which the conditional-marginal bound applies
    a1_bound: float
    a1_pass: bool
    a2_rhs: float
    a2_worst_lhs: float
    a2_worst_constraint: int | None
    a2_pass: bool
    a3_worst_ratio: float
    a3_pass: bool
    a4_pass: bool
    zeta: list[float]
    notes: list[str]

    @property
    def all_pass(self) -> bool:
        return self.a1_pass and self.a2_pass and self.a3_pass and self.a4_pass

    def to_dict(self) -> dict:
        def num(x):
            # strict-JSON surface: non-finite margins become None
            return x if x is None or (isinstance(x, (int, float)) and math.isfinite(x)) else None

        return {
            "eta": self.eta,
            "kappa": self.kappa,
            "delta": self.delta_deg,
            "b": self.b,
            "a1": {"pass": self.a1_pass, "b": self.b, "bound": num(self.a1_bound)},
            "a2": {
                "pass": self.a2_pass,
                "worst_lhs": num(self.a2_worst_lhs),
                "rhs": self.a2_rhs,
                "worst_constraint": self.a2_worst_constraint,
            },
            "a3": {"pass": self.a3_pass, "worst_ratio": self.a3_worst_ratio},
            "a4": {"pass": self.a4_pass},
            "zeta": [num(z) for z in self.zeta],
            "admissible": self.all_pass,
            "notes": self.notes,
        }


def check_admissibility(
    csp: AtomicCSP, scheme: ProjectionScheme, eta: float
) -> AdmissibilityReport:
    """Evaluate the four admissibility conditions numerically, and whether
    the instance lies in the e*b*Delta <= 1 regime.

    Failures are report entries, never exceptions.  With no constraints every
    condition passes vacuously.  b, zeta, the A2 lhs and the A3 extremes are
    computed once per shape (_shapes), the constraints' distinct (variables,
    forbidden block sizes), in log space and with math.fsum as for one
    constraint; zeta is then given per constraint, and the worst A2
    constraint is the lowest id of the first shape that reaches the largest lhs.
    """
    _check_match(csp, scheme)
    delta, _, _ = degree_stats(csp)
    shapes, of = _shapes(csp, scheme)
    b_frac = _max_b(shapes)
    b = float(b_frac)
    notes: list[str] = []
    kappa = scheme_kappa(csp, scheme)

    if csp.m == 0:
        return AdmissibilityReport(
            eta=eta, kappa=kappa, delta_deg=0, b=0.0, regime=True, a1_bound=math.inf, a1_pass=True,
            a2_rhs=math.inf, a2_worst_lhs=0.0, a2_worst_constraint=None, a2_pass=True,
            a3_worst_ratio=1.0, a3_pass=True, a4_pass=True, zeta=[],
            notes=["no constraints: vacuous pass"],
        )

    # A1: b <= eta / (300 Delta), compared exactly
    a1_bound = eta / (300.0 * delta)
    a1_pass = b_frac <= Fraction(eta) / (300 * delta)

    e_b_delta = E * b * delta
    regime = e_b_delta <= 1.0
    if not regime:
        notes.append(f"outside e*b*Delta<=1 regime (={e_b_delta:.4g})")

    # A2: |vbl-bar|^2 kappa^2 zeta(C) prod((1-3b)^-Delta P + e^-kappa/3) <= (60000 Delta)^-2
    # in log space, since (1-3b)^-Delta leaves the float range at large
    # Delta: log(inflate*P + tail) = log_inflate + log(P + tail/inflate),
    # where tail/inflate <= 1 cannot overflow; a lhs past the float range
    # reads inf and fails
    zetas = _zetas(shapes, b_frac, delta)
    log_inflate = -delta * math.log1p(-3.0 * b) if b < 1.0 / 3.0 else math.inf
    tail_over_inflate = math.exp(-kappa / 3.0 - log_inflate)
    a2_rhs = (60000.0 * delta) ** -2
    worst_lhs, worst = 0.0, None  # a shape without overlap has lhs 0
    for s, ((_, _, ov), zeta) in enumerate(zip(shapes, zetas)):
        if ov:
            logs = [math.log(len(ov) ** 2 * kappa**2 * zeta)]
            logs += [log_inflate + math.log(p + tail_over_inflate) for p in ov]
            try:
                lhs = math.exp(math.fsum(logs))  # compensated log-space product
            except OverflowError:
                lhs = math.inf
            if lhs > worst_lhs:
                worst_lhs, worst = lhs, s
    a2_pass = worst_lhs <= a2_rhs

    # A3: marginal comparability within a factor of 2 at every shared
    # variable; the marginals there share the denominator |A_v|, so the
    # ratio is that of the largest and smallest forbidden block
    low, high = [math.inf] * csp.n, [0] * csp.n
    for vars_, sizes, _ in shapes:
        for v, size in zip(vars_, sizes):
            low[v], high[v] = min(low[v], size), max(high[v], size)
    worst_ratio = max([1.0] + [hi / lo for lo, hi in zip(low, high) if hi])
    a3_pass = worst_ratio <= 2.0

    # A4: block-backed lookup projects and samples preimages in O(1) after
    # O(log|alphabet|) indexing; holds structurally for this representation.
    return AdmissibilityReport(
        eta=eta, kappa=kappa, delta_deg=delta, b=b, regime=regime, a1_bound=a1_bound,
        a1_pass=bool(a1_pass), a2_rhs=a2_rhs, a2_worst_lhs=worst_lhs,
        a2_worst_constraint=None if worst is None else of.index(worst), a2_pass=bool(a2_pass),
        a3_worst_ratio=worst_ratio, a3_pass=bool(a3_pass), a4_pass=True,
        zeta=[zetas[s] for s in of], notes=notes,
    )


# ---------------------------------------------------------------------------
# Construction cases


def _floor_pow_2_3(a: int) -> int:
    """Exact floor(a^(2/3)): largest r with r^3 <= a^2."""
    r = round(a ** (2.0 / 3.0)) + 2
    while r**3 > a * a:
        r -= 1
    return r


def _contiguous_blocks(size: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Partition 0..size-1 into r contiguous blocks of size floor(size/r) or
    ceil(size/r), small blocks first."""
    base, extra = divmod(size, r)
    blocks = []
    start = 0
    for j in range(r):
        width = base if j < r - extra else base + 1
        blocks.append(tuple(range(start, start + width)))
        start += width
    return tuple(blocks)


def bucket_count(a: int) -> int:
    """Block count maximizing min(log(a/ceil(a/r))/(2 log a), log(floor(a/r))/log a)."""
    best_r, best_val = 2, -1.0
    for r in range(2, a + 1):
        val = min(
            0.5 * math.log(a / math.ceil(a / r)) / math.log(a),
            math.log(max(math.floor(a / r), 1)) / math.log(a),
        )
        if val > best_val + 1e-12:
            best_r, best_val = r, val
    return best_r


def _uniform_case_params(csp: AtomicCSP):
    sizes = set(csp.domains)
    arities = {c.arity for c in csp.constraints}
    a = sizes.pop() if len(sizes) == 1 else None
    k = arities.pop() if len(arities) == 1 else None
    return a, k


def choose_case(csp: AtomicCSP) -> str:
    """Instance-shape dispatch.  Uniform alphabets route to their dedicated
    case; mixed alphabets use the combined construction.  The large-alphabet
    cutoff for the cube-root bucketing is 8 (uniform arity required)."""
    a, k = _uniform_case_params(csp)
    if a is None:
        return "case5"
    if a == 2:
        return "case2"
    if a == 3:
        return "case3"
    if a in (5, 7):
        return "case4"
    if a >= 8 and k is not None:
        return "case1"
    return "case4"


# The randomized constructions (cases 2-5) share one window rule.  A
# variable's partition puts the forbidden value f_v of each constraint C at v
# in some block; with S(C) = sum over v in C of log|block holding f_v| and
# L_C = sum over v in C of log|A_v|, constraint C is bad when
#     S(C) < gamma * Lambda          (b(C) = e^-S(C) too large), or
#     S(C) > L_C - c * gamma * Lambda (projected mass e^(S(C) - L_C) too large),
# and Moser-Tardos redraws the partitions of bad constraints' variables, in
# rounds of bad constraints that share no variable with a lower bad one.
# The constants below come from the offline optimizations behind each case.


class _Window(NamedTuple):
    what: str  # names the construction in ConstructionError
    gamma: float
    c: int  # factor of gamma * Lambda on the upper side of the window
    least: bool  # Lambda is the least L_C of the instance, else L_C itself
    alpha: float = 0.0  # probability that a binary variable is marked (one block)
    mix: float = 0.0  # probability of the coarser shape at alphabets 5 and 7


_WINDOWS = {
    "case2": _Window("marking", 0.1742, 2, False, alpha=0.4047),
    "case3": _Window("1/2-partition", 0.2, 2, False),
    "case4-5": _Window("alphabet-5 mix", 0.221, 2, False, mix=0.275),
    "case4-7": _Window("alphabet-7 mix", 0.236, 2, False, mix=0.69),
    "case5": _Window("mixed-alphabet", 0.142, 3, True, alpha=0.34),
}
_SHAPES = {5: ((3, 2), (2, 2, 1)), 7: ((3, 2, 2), (2, 2, 2, 1))}  # coarser shape first


def _shaped(values: tuple[int, ...], shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of values into blocks of the sizes in shape, blocks
    ordered largest first, then by content."""
    if not shape:
        return [()]
    return sorted({
        tuple(sorted((first, *tail), key=lambda blk: (-len(blk), blk)))
        for first in combinations(values, shape[0])
        for tail in _shaped(tuple(x for x in values if x not in first), shape[1:])
    })


def _partitions(a: int, window: _Window) -> list[tuple[tuple, Fraction]]:
    """Every partition a variable of alphabet a can draw, with its
    probability: marked with probability alpha at a = 2, a uniform singleton
    beside a pair at a = 3, and a uniform partition of the coarser shape
    (probability mix) or of the finer one at a = 5 and 7."""
    if a == 2:
        table = [(((0, 1),), Fraction(window.alpha)), (((0,), (1,)), 1 - Fraction(window.alpha))]
    elif a == 3:
        table = [(((s,), tuple(x for x in range(3) if x != s)), Fraction(1, 3)) for s in range(3)]
    else:
        table = []
        for shape, share in zip(_SHAPES[a], (Fraction(window.mix), 1 - Fraction(window.mix))):
            parts = _shaped(tuple(range(a)), shape)
            table += [(p, share / len(parts)) for p in parts]
    return [(p, w) for p, w in table if w]


def _build_random(csp: AtomicCSP, window: _Window, delta: float, rng):
    """Partitions inside every constraint's window.  Variables of alphabet
    at least 4 other than 5 and 7 keep fixed buckets; Moser-Tardos draws
    the rest, each as a row of one table of every partition it can take."""
    n, m, a = csp.n, csp.m, csp.arrays
    vc, forb = a.vc.T.copy(), a.forb.T.copy()  # (m, k): the window sums below add along rows
    sizes = sorted(set(csp.domains))
    drawn_sizes = [s for s in sizes if s < 4 or s in (5, 7)]
    fixed_sizes = [s for s in sizes if s not in drawn_sizes]
    tables = [_partitions(s, window) for s in drawn_sizes]
    parts = [p for table in tables for p, _ in table]
    # the thresholds of alphabet i, shifted by i, in one ascending array: a
    # variable of alphabet i at uniform u takes row searchsorted(i + u) + i
    thresholds = np.array([
        i + float(c) for i, table in enumerate(tables) for c in accumulate(w for _, w in table[:-1])
    ])
    first_fixed = len(parts)
    parts += [_contiguous_blocks(s, bucket_count(s)) for s in fixed_sizes]
    logs = np.zeros((len(parts) + 1, max(sizes, default=0)))  # the last row: no variable
    for r, blocks in enumerate(parts):
        for block in blocks:
            logs[r, list(block)] = math.log(len(block))

    is_drawn = np.isin(a.domains, drawn_sizes)
    drawn = np.flatnonzero(is_drawn)
    alphabet = np.searchsorted(drawn_sizes, a.domains[drawn])
    pos = np.full(n + 1, drawn.size)
    pos[drawn] = np.arange(drawn.size)
    row = np.full(n + 1, len(parts))
    row[:n][~is_drawn] = first_fixed + np.searchsorted(fixed_sizes, a.domains[~is_drawn])
    mvc, fcol = pos[vc], np.maximum(forb, 0)
    base = logs[row[vc], fcol].sum(axis=1)  # S(C) over the fixed buckets
    L = np.append(np.log(a.domains), 0.0)[vc].sum(axis=1)
    scale = np.full(m, L.min(initial=math.inf)) if window.least else L
    low, high = window.gamma * scale, L - window.c * window.gamma * scale

    def violated(rows):  # S(C) outside its window
        S = base + logs[np.append(rows, len(parts))[mvc], fcol].sum(axis=1)
        return (S < low) | (S > high)

    def draw(idx, r):
        i = alphabet[idx]
        return np.searchsorted(thresholds, i + r.random(idx.size), side="right") + i

    if (violated(np.full(drawn.size, len(parts))) & (mvc == drawn.size).all(axis=1)).any():
        raise ConstructionError("deterministic large-alphabet blocks already violate a threshold")
    result = moser_tardos(drawn.size, mvc, draw, violated, rng, delta=delta)
    if not result.success:
        raise ConstructionError(f"{window.what} construction exhausted its resampling budget: "
                                f"{result.attempts_used} attempts, {result.resamples} resamples, "
                                f"{result.violated} of {m} windows still violated")
    row[drawn] = result.array
    blocks = tuple(parts[r] for r in row[:n].tolist())
    size = {p: {x: len(block) for block in p for x in block} for p in set(blocks)}
    for cid, c in enumerate(csp.constraints):  # re-check from the block sizes alone
        S = sum(math.log(size[blocks[v]][f]) for v, f in zip(c.vars, c.forbidden))
        if not low[cid] <= S <= high[cid]:
            raise InternalError(f"constructed blocks miss the window of constraint {cid}")
    return blocks


def construct_projection(
    csp: AtomicCSP,
    eta: float = 0.25,
    delta: float = 0.01,
    case_hint: str | None = None,
    seed=None,
    strict: bool = False,
) -> ProjectionScheme:
    """Build a projection scheme by the case matching the instance shape.

    The returned scheme is always re-verified by check_admissibility.  With
    strict=True a scheme failing A1-A3 is rejected (AdmissibilityError); by
    default the report outcome is logged and the scheme returned, since the
    numeric conditions are asymptotic and desk-scale instances routinely sit
    outside them while the sampler remains exact.
    """
    if 1 in csp.domains:
        raise RegimeError("projection construction requires alphabets of size at least 2")
    rng = np.random.default_rng(seed)
    case = case_hint or choose_case(csp)
    a, _ = _uniform_case_params(csp)
    if case == "case1":
        if a is None or a < 4:
            raise RegimeError("case1 requires a uniform alphabet of size >= 4")
        blocks = (_contiguous_blocks(a, _floor_pow_2_3(a)),) * csp.n
    elif case == "case2":
        if a != 2:
            raise RegimeError("case2 requires a uniform binary alphabet")
        blocks = _build_random(csp, _WINDOWS[case], delta, rng)
    elif case == "case3":
        if a != 3:
            raise RegimeError("case3 requires a uniform ternary alphabet")
        blocks = _build_random(csp, _WINDOWS[case], delta, rng)
    elif case == "case4":
        if a is None or a < 4:
            raise RegimeError("case4 requires a uniform alphabet of size >= 4")
        if a in (5, 7):
            blocks = _build_random(csp, _WINDOWS[f"case4-{a}"], delta, rng)
        else:
            blocks = (_contiguous_blocks(a, bucket_count(a)),) * csp.n
    elif case == "case5":
        blocks = _build_random(csp, _WINDOWS[case], delta, rng)
    else:
        raise RegimeError(f"unknown construction case {case!r}")

    delta_deg, k_max, _ = degree_stats(csp)
    kappa = kappa_for(case, delta_deg, max(csp.domains, default=2), k_max)
    scheme = ProjectionScheme(blocks=blocks, case=case, kappa=kappa, eta=eta)
    report = check_admissibility(csp, scheme, eta)
    if not report.all_pass:
        fails = [
            name
            for name, ok in [
                ("A1", report.a1_pass), ("A2", report.a2_pass),
                ("A3", report.a3_pass), ("A4", report.a4_pass),
            ]
            if not ok
        ]
        if strict:
            raise AdmissibilityError(
                f"constructed {case} scheme fails {'/'.join(fails)} numerically"
            )
        logger.info("constructed %s scheme fails %s numerically (desk scale)", case, fails)
    return scheme
