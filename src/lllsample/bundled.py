"""Small bundled instances with fixed projection schemes, used by the test
suite and the benchmark.

Tags route instances to checks: "tv" (whole-sampler uniformity), "conditional"
(single-site conditional exactness), "lift" (lifting exactness), "regime"
(instances whose scheme satisfies e*b*Delta <= 1, used for the exact
conditional-marginal bound), "counting" (approximate-count targets).

Expected solution counts are frozen from the enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csp import AtomicCSP, build_coloring_csp, parse_dimacs, parse_hypergraph
from .projection import ProjectionScheme


def _binary_scheme(spec: str) -> ProjectionScheme:
    """One letter per variable: 'c' collapsed (single block), 'i' identity."""
    blocks = tuple(
        ((0, 1),) if ch == "c" else ((0,), (1,)) for ch in spec
    )
    return ProjectionScheme(blocks, case=None, kappa=None, eta=0.25)


def _ternary_scheme(singletons) -> ProjectionScheme:
    """Per-variable split of {0,1,2} into a singleton and the complementary
    pair."""
    blocks = tuple(
        ((s,), tuple(sorted({0, 1, 2} - {s}))) for s in singletons
    )
    return ProjectionScheme(blocks, case=None, kappa=None, eta=0.25)


@dataclass(frozen=True)
class BundledInstance:
    name: str
    kind: str  # "cnf" | "hypergraph"
    text: str
    q: int | None
    scheme_spec: str
    tags: tuple[str, ...]
    solutions: int  # frozen from the enumeration oracle

    def load(self) -> tuple[AtomicCSP, ProjectionScheme]:
        if self.kind == "cnf":
            csp = parse_dimacs(self.text)
        else:
            csp = build_coloring_csp(parse_hypergraph(self.text), self.q)
        kind, _, arg = self.scheme_spec.partition(":")
        if kind == "binary":
            scheme = _binary_scheme(arg)
        elif kind == "ternary":
            scheme = _ternary_scheme(tuple(int(ch) for ch in arg))
        else:
            raise ValueError(f"unknown scheme spec {self.scheme_spec!r}")
        return csp, scheme


BUNDLED: dict[str, BundledInstance] = {
    inst.name: inst
    for inst in [
        BundledInstance(
            "and2", "cnf", "p cnf 2 1\n1 2 0\n", None, "binary:cc",
            ("conditional", "lift", "regime", "counting"), solutions=3,
        ),
        BundledInstance(
            "xor2", "cnf", "p cnf 2 2\n1 2 0\n-1 -2 0\n", None, "binary:cc",
            ("lift", "counting"), solutions=2,
        ),
        BundledInstance(
            "or3", "cnf", "p cnf 3 1\n1 2 3 0\n", None, "binary:ccc",
            ("tv", "lift", "regime"), solutions=7,
        ),
        BundledInstance(
            "ring12",
            "cnf",
            "p cnf 12 12\n" + "".join(f"{i} {i % 12 + 1} 0\n" for i in range(1, 13)),
            None,
            "binary:" + "c" * 12,
            ("tv",),
            solutions=322,
        ),
        BundledInstance(
            "chain4", "cnf", "p cnf 4 3\n1 2 0\n2 3 0\n3 4 0\n", None, "binary:cccc",
            ("tv", "counting"), solutions=8,
        ),
        BundledInstance(
            "mark4", "cnf", "p cnf 4 3\n1 2 0\n2 3 0\n3 4 0\n", None, "binary:icic",
            ("tv", "conditional", "lift"), solutions=8,
        ),
        BundledInstance(
            "tri3", "cnf", "p cnf 3 3\n1 2 0\n2 3 0\n-1 -3 0\n", None, "binary:ccc",
            ("tv", "lift", "counting"), solutions=3,
        ),
        BundledInstance(
            "tri3m", "cnf", "p cnf 3 3\n1 2 0\n2 3 0\n-1 -3 0\n", None, "binary:cic",
            ("conditional", "lift"), solutions=3,
        ),
        BundledInstance(
            "sat62", "cnf", "p cnf 6 2\n1 2 3 0\n4 5 6 0\n", None, "binary:cccccc",
            ("tv", "lift", "regime", "counting"), solutions=49,
        ),
        BundledInstance(
            "unary3", "cnf", "p cnf 3 2\n-1 0\n1 2 3 0\n", None, "binary:ccc",
            ("tv", "counting"), solutions=3,
        ),
        BundledInstance(
            "hyp1e", "hypergraph", "0 1 2\n", 2, "binary:ccc",
            ("tv", "lift", "regime", "counting"), solutions=6,
        ),
        BundledInstance(
            "hyppath", "hypergraph", "0 1 2\n2 3 4\n", 2, "binary:ccccc",
            ("tv", "counting"), solutions=18,
        ),
        BundledInstance(
            "colork4", "hypergraph", "0 1 2 3\n", 3, "ternary:0120",
            ("tv", "conditional", "counting"), solutions=78,
        ),
        BundledInstance(
            "mark3", "cnf", "p cnf 3 1\n1 2 3 0\n", None, "binary:iic",
            ("conditional", "lift", "counting"), solutions=7,
        ),
        BundledInstance(
            "colork6", "hypergraph", "0 1 2 3 4 5\n", 3, "ternary:012012",
            ("regime",), solutions=726,
        ),
    ]
}


def tagged(tag: str) -> list[BundledInstance]:
    return [inst for inst in BUNDLED.values() if tag in inst.tags]


def load_bundled(name: str):
    return BUNDLED[name].load()
