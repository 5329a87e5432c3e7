"""The benchmark's workloads.

Each workload turns a seed into input text, sets up from that text, and
then repeats one operation.  `check` verifies an operation's output with
the benchmark's own code (`assert` in the library vanishes under -O) and
returns (attempted, failures, wrong): `failures` lists the type of each
failed item (an ERROR result, a count outside (1 +/- delta), a solver that
gave up, an exception), and `wrong` lists outputs that claim success but
are not correct.
"""

from __future__ import annotations

import math

import numpy as np

import lllsample
from lllsample.bundled import tagged
from lllsample.oracle import enumerate_satisfying, tv_empirical

from gen import digest, disjoint_clauses, disjoint_clauses_count, random_hypergraph, random_kcnf

EPS = 0.1


def _verify_assignment(csp, x) -> str | None:
    """Why x is not a satisfying assignment of csp, or None."""
    if x is None or len(x) != csp.n:
        return "wrong length"
    if any(not 0 <= int(value) < size for value, size in zip(x, csp.domains)):
        return "value outside its alphabet"
    if lllsample.evaluate(csp, [int(value) for value in x]):
        return "violates a constraint"
    return None


class Workload:
    name = ""
    count_truth: float | None = None  # exact count, for counting.ratio

    def __init__(self, seed: int):
        self.seed = seed
        self.texts = self.inputs(np.random.default_rng([seed, 0]))

    def inputs(self, rng) -> dict[str, str]:
        raise NotImplementedError

    def input_lines(self) -> list[str]:
        return [f"input {self.name}/{key}: {len(text)} bytes sha256:{digest(text)}"
                for key, text in self.texts.items()]

    def setup(self, rep: int):
        """Input text to ready objects.  Set-up is timed several times; a
        randomized construction draws a fresh seed in each repetition, so
        set-up time is its typical cost on this input, and operations use
        repetition 0."""
        raise NotImplementedError

    def op(self, ready, i: int):
        raise NotImplementedError

    def check(self, ready, result) -> tuple[int, list[str], list[str]]:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Do two results of the same operation and seed agree?"""
        raise NotImplementedError

    def check_traced(self, ready, result, spans) -> list[str]:
        """Checks that need the spans of one traced operation."""
        return []

    def finish(self, ready) -> tuple[list[str], list[str], dict]:
        """Checks over the whole run: (wrong, report lines, per-layer extras)."""
        return [], [], {}

    def derived(self, op_s: float) -> list[tuple[str, float, str]]:
        """The workload's figure under the name users know it by."""
        raise NotImplementedError


class _Chain(Workload):
    """One chain at a time: main_sample, sample after sample.  The chain runs
    for a quarter of its default length (c_t=0.25), so that a run's median
    rests on a dozen samples rather than three; each step is a step of the
    default schedule."""

    C_T = 0.25

    def op(self, ready, i):
        csp, scheme = ready
        return lllsample.main_sample(csp, scheme, EPS, seed=[self.seed, 2, i], c_t=self.C_T)

    def check(self, ready, result):
        csp, _ = ready
        if not result.ok:
            return 1, [result.error], []
        why = _verify_assignment(csp, result.assignment)
        return 1, [], [] if why is None else [f"sample {why}"]

    def same(self, a, b):
        return a.assignment == b.assignment and a.error == b.error

    def check_traced(self, ready, result, spans):
        _, scheme = ready
        states = [s.counts["y"] for s in spans if "y" in s.counts]
        if result.ok and states and scheme.project(result.assignment) != states[-1]:
            return ["sample does not project back to the chain's final state"]
        return []

    def derived(self, op_s):
        return [("chain_samples_per_s", 1.0 / op_s, "1/s")]


class KcnfChain(_Chain):
    name = "kcnf-chain"
    N, M, K = 200, 60, 12

    def inputs(self, rng):
        return {"cnf": random_kcnf(rng, self.N, self.M, self.K)}

    def setup(self, rep):
        csp = lllsample.parse_dimacs(self.texts["cnf"])
        return csp, lllsample.construct_projection(csp, seed=[self.seed, 1, rep])


class ColorChain(_Chain):
    name = "color-chain"
    N, EDGES, K, Q = 100, 20, 6, 16

    def inputs(self, rng):
        return {"edges": random_hypergraph(rng, self.N, self.EDGES, self.K)}

    def setup(self, rep):
        edges = lllsample.parse_hypergraph(self.texts["edges"])
        csp = lllsample.build_coloring_csp(edges, self.Q, n=self.N)
        return csp, lllsample.construct_projection(csp, seed=[self.seed, 1, rep])


class SmallBatch(Workload):
    """BatchSampler.sample(N) on every bundled instance tagged "tv"; the
    samples of the whole run are pooled for a TV check against the
    enumeration oracle."""

    name = "small-batch"
    N = 500

    def __init__(self, seed):
        super().__init__(seed)
        self.pooled: dict[str, dict[tuple, int]] = {}
        self.seen: set[bytes] = set()  # a traced rerun of an operation is pooled once

    def inputs(self, rng):
        return {inst.name: inst.text for inst in tagged("tv")}

    def setup(self, rep):
        ready = []
        for inst in tagged("tv"):
            csp, scheme = inst.load()
            ready.append((inst, csp, lllsample.BatchSampler(csp, scheme, EPS)))
        return ready

    def op(self, ready, i):
        return [sampler.sample(self.N, seed=[self.seed, 2, i, j])
                for j, (_, _, sampler) in enumerate(ready)]

    def check(self, ready, results):
        failures, wrong = [], []
        for (inst, csp, _), res in zip(ready, results):
            failures += [str(e) for e in res.errors if e != ""]
            key = inst.name.encode() + res.assignments.tobytes()
            if key in self.seen:
                continue
            self.seen.add(key)
            counts = self.pooled.setdefault(inst.name, {})
            for row in res.assignments[res.ok]:
                x = tuple(int(v) for v in row)
                if x not in counts:
                    why = _verify_assignment(csp, x)
                    if why is not None:
                        wrong.append(f"{inst.name}: sample {why}")
                        continue
                counts[x] = counts.get(x, 0) + 1
        return self.N * len(ready), failures, wrong

    def same(self, a, b):
        return all(np.array_equal(x.assignments, y.assignments) for x, y in zip(a, b))

    def derived(self, op_s):
        return [("batch_samples_per_s", self.N * len(self.texts) / op_s, "1/s")]

    def finish(self, ready):
        """TV of the pooled samples from the uniform law on the oracle's
        solutions.  The bound is eps plus sqrt(K/N), twice the largest mean
        TV that N exact draws over K outcomes can show."""
        wrong, lines, tv_max = [], [], 0.0
        for inst, csp, _ in ready:
            counts = self.pooled.get(inst.name)
            if not counts:
                continue
            solutions = enumerate_satisfying(csp)
            if len(solutions) != inst.solutions:
                wrong.append(f"{inst.name}: oracle finds {len(solutions)} solutions")
            uniform = {x: 1.0 / len(solutions) for x in solutions}
            n = sum(counts.values())
            tv = tv_empirical(counts, uniform)
            bound = EPS + math.sqrt(len(solutions) / n)
            tv_max = max(tv_max, tv)
            lines.append(f"tv {inst.name}: {tv:.4f} over {n} samples, bound {bound:.4f}")
            if tv > bound:
                wrong.append(f"{inst.name}: TV {tv:.4f} > {bound:.4f}")
        return wrong, lines, {"batch.tv_max": tv_max}


class SmallCount(Workload):
    """approx_count on one width-4 clause whose scheme keeps two variables
    and collapses two ("iicc"); the exact count is 2^4 - 1 = 15."""

    name = "small-count"
    CLAUSES, WIDTH, DELTA, SPEC = 1, 4, 0.5, "iicc"
    count_truth = disjoint_clauses_count(CLAUSES, WIDTH)

    def inputs(self, rng):
        return {"cnf": disjoint_clauses(rng, self.CLAUSES, self.WIDTH)}

    def setup(self, rep):
        csp = lllsample.parse_dimacs(self.texts["cnf"])
        blocks = tuple(((0, 1),) if ch == "c" else ((0,), (1,))
                       for ch in self.SPEC * self.CLAUSES)
        return csp, lllsample.ProjectionScheme(blocks, eta=0.25)

    def op(self, ready, i):
        csp, scheme = ready
        return lllsample.approx_count(csp, scheme, self.DELTA, seed=[self.seed, 2, i])

    def check(self, ready, est):
        truth, slack = self.count_truth, 1.0 + self.DELTA
        inside = truth / slack <= est.estimate <= truth * slack
        return 1, [] if inside else ["count_out_of_range"], []

    def same(self, a, b):
        return a.estimate == b.estimate

    def derived(self, op_s):
        return [("count_s", op_s, "s")]


class KcnfSolve(Workload):
    """Set-up runs the projection pipeline on a random 8-CNF (parse,
    construct, admissibility, project); the operation is find_assignment on
    a random 4-CNF."""

    name = "kcnf-solve"
    SETUP_NMK = (5000, 2000, 8)
    SOLVE_NMK = (5000, 10000, 4)

    def inputs(self, rng):
        return {"setup_cnf": random_kcnf(rng, *self.SETUP_NMK),
                "solve_cnf": random_kcnf(rng, *self.SOLVE_NMK)}

    def setup(self, rep):
        csp = lllsample.parse_dimacs(self.texts["setup_cnf"])
        scheme = lllsample.construct_projection(csp, seed=[self.seed, 1, rep])
        lllsample.check_admissibility(csp, scheme, 0.25)
        pcsp = lllsample.project_csp(csp, scheme)
        return csp, scheme, pcsp, lllsample.parse_dimacs(self.texts["solve_cnf"])

    def op(self, ready, i):
        return lllsample.find_assignment(ready[3], np.random.default_rng([self.seed, 2, i]))

    def check(self, ready, result):
        if not result.success:
            return 1, ["solver_budget"], []
        why = _verify_assignment(ready[3], result.values)
        return 1, [], [] if why is None else [f"solution {why}"]

    def same(self, a, b):
        return a.values == b.values and a.resamples == b.resamples

    def derived(self, op_s):
        return [("solve_s", op_s, "s")]

    def finish(self, ready):
        csp, scheme, pcsp, _ = ready
        expect = tuple(tuple(scheme.project_value(v, f) for v, f in zip(c.vars, c.forbidden))
                       for c in csp.constraints)
        got = tuple(c.forbidden for c in pcsp.constraints)
        ok = pcsp.domains == scheme.q_sizes() and got == expect
        return [] if ok else ["project_csp disagrees with the scheme's block maps"], [], {}


WORKLOADS = {w.name: w for w in (KcnfChain, ColorChain, SmallBatch, SmallCount, KcnfSolve)}
