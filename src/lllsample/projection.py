"""Projection schemes: per-variable partitions of the alphabet into preimage
blocks, the quantities b, zeta, kappa derived from them, the admissibility
report (check_admissibility, the one check of a scheme), and the five-case
constructor, which constructs and checks only its own windows.

A scheme maps each original value to the index of its block; the projected
alphabet of variable v has one symbol per block.  Collapsing a variable to a
single block erases it from the projected instance; singleton blocks keep it
fully visible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, chain, combinations
from typing import NamedTuple

import numpy as np

from .csp import AtomicCSP, CSPError, InternalError, ParseError, degree_stats
from .resample import moser_tardos

E = math.e
_LOG_MAX = float(np.log(np.finfo(float).max))  # math.exp overflows past it


class RegimeError(ValueError):
    """Instance/scheme parameters outside the range a formula is defined for."""


class ConstructionError(RuntimeError):
    """Randomized construction exhausted its resampling budget."""


@dataclass(frozen=True)
class ProjectionScheme:
    """Per-variable partition of 0..size-1 into nonempty blocks; block j is
    the preimage of projected value j, and block_of[v][x] is the block of
    value x at v.  Variables with equal partitions, however their blocks are
    written, share these tuples and their number part[v], counted in order
    of first appearance; partitions[p] is (blocks, block_of) of partition
    p.  Its numpy tables (SchemeTables) are built the first time they are
    read."""

    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    case: str | None = None
    kappa: float | None = None
    eta: float | None = None
    block_of: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    part: tuple[int, ...] = field(init=False, repr=False, compare=False)
    partitions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        forms: dict = {}  # each written form's partition, checked at its first variable
        canon: dict = {}  # each partition's (number, blocks, block_of), by its sorted blocks
        parts = []
        for v, var_blocks in enumerate(self.blocks):
            key = tuple(map(tuple, var_blocks))  # hashable
            p = forms.get(key)
            if p is None:
                blocks, block_of = _partition(v, key)
                p = forms[key] = canon.setdefault(blocks, (len(canon), blocks, block_of))
            parts.append(p)
        part, blocks, block_of = zip(*parts) if parts else ((), (), ())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_of", block_of)
        object.__setattr__(self, "part", part)
        object.__setattr__(self, "partitions", tuple((b, of) for _, b, of in canon.values()))

    @property
    def n(self) -> int:
        return len(self.blocks)

    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.block_of))

    def q_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.blocks))

    def project_value(self, v: int, value: int) -> int:
        return self.block_of[v][value]

    def project(self, x) -> tuple[int, ...]:
        return tuple(self.block_of[v][value] for v, value in enumerate(x))

    def block_size(self, v: int, q: int) -> int:
        return len(self.blocks[v][q])

    @cached_property
    def tables(self) -> "SchemeTables":
        return SchemeTables.build(self)

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
class SchemeTables:
    """Numpy tables of a ProjectionScheme, built once per scheme: one row
    per distinct partition and a last, pad row, that of the pad variable n,
    each read through part[v], so that they grow with the partitions, not n.

    Block q of partition p is values[start[p, q + 1] : start[p, q + 1] +
    size[p, q + 1]].  Block -1 is the whole alphabet, so the projected
    value -1 reads "unassigned"."""

    part: np.ndarray  # (n + 1,) the partition of each variable, then the pad's
    block_of: np.ndarray  # (parts + 1, amax) block of each value; -2 past the alphabet, at the pad
    size_of: np.ndarray  # (parts + 1, amax) size of that block; 1 past the alphabet, at the pad
    values: np.ndarray  # per partition, its alphabet, then its blocks' values
    start: np.ndarray  # (parts + 1, qmax + 1), column 0 the alphabet and q + 1 block q
    size: np.ndarray  # (parts + 1, qmax + 1)
    q: np.ndarray  # (parts + 1,) block count of each partition, 0 at the pad

    @classmethod
    def build(cls, scheme: ProjectionScheme) -> "SchemeTables":
        parts = scheme.partitions
        amax = max((len(of) for _, of in parts), default=1)
        width = max((len(blocks) for blocks, _ in parts), default=0) + 1
        # one table, a row per partition and then the pad's, converted at once; its
        # columns are q, then amax of block_of and of size_of, then width of start and of size
        rows, values = [], []
        for blocks, of in parts:
            pad = amax - len(of)
            sizes = (len(of), *map(len, blocks)) + (0,) * (width - 1 - len(blocks))
            starts = accumulate(sizes[:-1], initial=len(values))  # values holds them in this order
            rows.append((len(blocks), *of, *(-2,) * pad, *(len(blocks[j]) for j in of), *(1,) * pad,
                         *starts, *sizes))
            values += chain(range(len(of)), *blocks)
        rows.append((0, *(-2,) * amax, *(1,) * amax, *(0,) * (2 * width)))
        t, a, b = np.array(rows, dtype=np.int64), 1 + amax, 1 + 2 * amax
        start, size = t[:, b : b + width].copy(), t[:, b + width :].copy()  # bounds ravels them
        return cls(np.array(scheme.part + (len(parts),), dtype=np.int64), t[:, 1:a], t[:, a:b],
                   np.array(values, dtype=np.int64), start, size, t[:, 0])

    def block(self, var: np.ndarray, value: np.ndarray) -> np.ndarray:
        """The block of each value at its variable, entrywise over var and
        value, which broadcast together."""
        return self.block_of[self.part[var], value]

    def bounds(self, var: np.ndarray, Yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start, size) of block Yc of variable var, entrywise over both."""
        at = self.part[var] * self.start.shape[1] + Yc + 1
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


def _tables(csp: AtomicCSP, scheme: ProjectionScheme) -> tuple:
    """(b, products, sizes, p, multi).  sizes, p and multi are (k, m) as
    csp.arrays.vc: each forbidden value's block size, 1 at padding; its
    probability size / |A_v|; whether its variable has more than one block
    (vbl-bar: the block is not the whole alphabet).  products are the exact
    column products, Python ints past 2^62; b = 1 / their least, else 0."""
    _check_match(csp, scheme)
    a, t = csp.arrays, scheme.tables
    sizes, alphabet = t.size_of[t.part[a.vc], np.maximum(a.forb, 0)], np.append(a.domains, 1)[a.vc]
    products = sizes.prod(axis=0).tolist()
    for c in np.flatnonzero(np.log2(sizes).sum(axis=0) >= 62).tolist():
        products[c] = math.prod(sizes[:, c].tolist())
    b = Fraction(1, min(products)) if products else Fraction(0)
    return b, products, sizes, sizes / alphabet, sizes < alphabet


def _zeta(p: np.ndarray, multi: np.ndarray, b: Fraction, delta: int) -> np.ndarray:
    """(m,) zeta(C) from the overlap marginals."""
    shrink = (1.0 - 3.0 * float(b)) ** delta if float(b) < 1.0 / 3.0 else 0.0
    ratio = np.minimum(shrink / p, 2.0 * delta) if shrink > 0.0 else 2.0 * delta
    return np.where(multi, ratio, 1.0).max(axis=0, initial=1.0)


def compute_b(csp: AtomicCSP, scheme: ProjectionScheme):
    """Exact per-constraint b(C) = prod of reciprocal preimage-block sizes at
    the forbidden projected values, and the maximum b, 0 without constraints,
    from the (k, m) table of those sizes; exact past the int64 range too."""
    b, products, _, _, _ = _tables(csp, scheme)
    return b, [Fraction(1, product) for product in products]


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


def _in_regime(csp: AtomicCSP, scheme: ProjectionScheme) -> bool:
    """check_admissibility(csp, scheme, eta).regime, without the rest of the report."""
    return E * float(_tables(csp, scheme)[0]) * degree_stats(csp)[0] <= 1.0


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
    read from one (k, m) table of forbidden block sizes; b is exact.  The A2
    lhs is estimated in numpy, then computed in log space with math.fsum for
    every constraint near the largest estimate, once per distinct zeta and
    marginals; the worst A2 constraint is the lowest id that reaches the
    largest lhs.
    """
    b_frac, _, sizes, p, multi = _tables(csp, scheme)  # raises unless scheme matches csp
    b = float(b_frac)
    delta, _, _ = degree_stats(csp)
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
    zeta = _zeta(p, multi, b_frac, delta)
    log_inflate = -delta * math.log1p(-3.0 * b) if b < 1.0 / 3.0 else math.inf
    tail_over_inflate = math.exp(-kappa / 3.0 - log_inflate)
    a2_rhs = (60000.0 * delta) ** -2
    # estimated in numpy, within far less than 1e-9 of its terms' magnitude,
    # then exact at the constraints that near the top or the float range's end
    count = multi.sum(axis=0)  # a constraint without overlap has lhs 0
    logs = np.where(multi, log_inflate + np.log(p + tail_over_inflate), 0.0)
    head = 2.0 * np.log(np.maximum(count, 1) * kappa) + np.log(zeta)
    estimate = np.where(count > 0, head + logs.sum(axis=0), -np.inf)
    err = 1e-9 * (1.0 + (np.abs(head) + np.abs(logs).sum(axis=0)).max(where=count > 0, initial=0))
    near = np.flatnonzero((count > 0) & (estimate >= min(estimate.max(), _LOG_MAX) - err))
    marginals = np.sort(np.where(multi[:, near], p[:, near], np.inf), axis=0).T.tolist()
    worst_lhs, worst, lhs_of = 0.0, None, {}
    for c, z, n_ov, ov in zip(near.tolist(), zeta[near].tolist(), count[near].tolist(), marginals):
        key = (z, tuple(ov[:n_ov]))
        if key not in lhs_of:
            terms = [math.log(n_ov**2 * kappa**2 * z)]
            terms += [log_inflate + math.log(x + tail_over_inflate) for x in key[1]]
            try:
                lhs_of[key] = math.exp(math.fsum(terms))  # compensated log-space product
            except OverflowError:
                lhs_of[key] = math.inf
        if lhs_of[key] > worst_lhs:
            worst_lhs, worst = lhs_of[key], c
    a2_pass = worst_lhs <= a2_rhs

    # A3: marginal comparability within a factor of 2 at every shared
    # variable; the marginals there share the denominator |A_v|, so the
    # ratio is that of the largest and smallest forbidden block, 0 off them
    low, high = np.full(csp.n + 1, np.iinfo(np.int64).max), np.zeros(csp.n + 1, dtype=np.int64)
    np.minimum.at(low, csp.arrays.vc.ravel(), sizes.ravel())
    np.maximum.at(high, csp.arrays.vc.ravel(), sizes.ravel())
    worst_ratio = float((high / low).max(initial=1.0))
    a3_pass = worst_ratio <= 2.0

    # A4: block-backed lookup projects and samples preimages in O(1) after
    # O(log|alphabet|) indexing; holds structurally for this representation.
    return AdmissibilityReport(
        eta=eta, kappa=kappa, delta_deg=delta, b=b, regime=regime, a1_bound=a1_bound,
        a1_pass=bool(a1_pass), a2_rhs=a2_rhs, a2_worst_lhs=worst_lhs,
        a2_worst_constraint=worst, a2_pass=bool(a2_pass),
        a3_worst_ratio=worst_ratio, a3_pass=bool(a3_pass), a4_pass=True,
        zeta=zeta.tolist(), notes=notes,
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
    """(a, k): the alphabet size and the arity shared by the whole instance,
    each None where they differ."""
    sizes, arity = set(csp.domains), csp.arrays.arity[:-1]
    a = sizes.pop() if len(sizes) == 1 else None
    k = int(arity[0]) if arity.size and (arity == arity[0]).all() else None
    return a, k


def _case_of(a: int | None, k: int | None) -> str:
    """Instance-shape dispatch on _uniform_case_params: uniform alphabets
    route to their dedicated case; mixed alphabets use the combined
    construction.  The large-alphabet cutoff for the cube-root bucketing is
    8 (uniform arity required)."""
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


def _build_random(csp: AtomicCSP, window: _Window, delta: float, seed, make) -> ProjectionScheme:
    """make(blocks) for partitions inside every constraint's window.  Variables
    of alphabet at least 4 other than 5 and 7 keep fixed buckets; Moser-Tardos
    draws the rest, each as a row of one table of every partition it can take,
    from np.random.default_rng(seed)."""
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
    # logs is read flat, at row * width + value: one take per window test
    mvc, fcol, flat, width = pos[vc], np.maximum(forb, 0), logs.ravel(), logs.shape[1]
    base = flat.take(row[vc] * width + fcol).sum(axis=1)  # S(C) over the fixed buckets
    L = np.append(np.log(a.domains), 0.0)[vc].sum(axis=1)
    scale = np.full(m, L.min(initial=math.inf)) if window.least else L
    low, high = window.gamma * scale, L - window.c * window.gamma * scale

    def violated(rows):  # S(C) outside its window
        S = base + flat.take(np.append(rows, len(parts)).take(mvc) * width + fcol).sum(axis=1)
        return (S < low) | (S > high)

    def draw(idx, r):
        i = alphabet[idx]
        return np.searchsorted(thresholds, i + r.random(idx.size), side="right") + i

    if (violated(np.full(drawn.size, len(parts))) & (mvc == drawn.size).all(axis=1)).any():
        raise ConstructionError("deterministic large-alphabet blocks already violate a threshold")
    result = moser_tardos(drawn.size, mvc, draw, violated, np.random.default_rng(seed), delta=delta)
    if not result.success:
        raise ConstructionError(f"{window.what} construction exhausted its resampling budget: "
                                f"{result.attempts_used} attempts, {result.resamples} resamples, "
                                f"{result.violated} of {m} windows still violated")
    row[drawn] = result.array
    scheme = make(tuple(parts[r] for r in row[:n].tolist()))
    # re-check from the scheme's block sizes alone; sum adds the rows in turn,
    # so each constraint's logs add left to right in its variables' order
    forbidden = _tables(csp, scheme)[2]
    log_of = np.array([0.0] + [math.log(s) for s in range(1, int(forbidden.max(initial=1)) + 1)])
    S = sum(log_of[forbidden], np.zeros(m))
    missed = (S < low) | (S > high)
    if missed.any():
        raise InternalError(f"constructed blocks miss the window of constraint {missed.argmax()}")
    return scheme


def construct_projection(
    csp: AtomicCSP,
    eta: float = 0.25,
    delta: float = 0.01,
    case_hint: str | None = None,
    seed=None,
) -> ProjectionScheme:
    """Build a projection scheme by case_hint, else by the case _case_of
    gives the instance's shape.

    The randomized cases draw from np.random.default_rng(seed) and re-check
    every constraint's window on the scheme they return; the others read no
    seed.  Nothing here checks the numeric admissibility conditions:
    check_admissibility reports them.  They are asymptotic, so desk-scale
    schemes routinely fail them while the sampler remains exact.
    """
    if 1 in csp.domains:
        raise RegimeError("projection construction requires alphabets of size at least 2")
    a, k = _uniform_case_params(csp)
    case = case_hint or _case_of(a, k)
    delta_deg, k_max, _ = degree_stats(csp)
    kappa = kappa_for(case, delta_deg, max(csp.domains, default=2), k_max)
    make = partial(ProjectionScheme, case=case, kappa=kappa, eta=eta)
    if case == "case1":
        if a is None or a < 4:
            raise RegimeError("case1 requires a uniform alphabet of size >= 4")
        return make((_contiguous_blocks(a, _floor_pow_2_3(a)),) * csp.n)
    if case == "case2":
        if a != 2:
            raise RegimeError("case2 requires a uniform binary alphabet")
        return _build_random(csp, _WINDOWS[case], delta, seed, make)
    if case == "case3":
        if a != 3:
            raise RegimeError("case3 requires a uniform ternary alphabet")
        return _build_random(csp, _WINDOWS[case], delta, seed, make)
    if case == "case4":
        if a is None or a < 4:
            raise RegimeError("case4 requires a uniform alphabet of size >= 4")
        if a in (5, 7):
            return _build_random(csp, _WINDOWS[f"case4-{a}"], delta, seed, make)
        return make((_contiguous_blocks(a, bucket_count(a)),) * csp.n)
    if case == "case5":
        return _build_random(csp, _WINDOWS[case], delta, seed, make)
    raise RegimeError(f"unknown construction case {case!r}")
