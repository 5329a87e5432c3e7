"""Spans around the calls that cross from one lllsample module into another.

The library is not edited.  `Tracer.install` rebinds each traced function, in
every lllsample module that imported it, to a wrapper that records a span
(name, start, end, parent span, phase, unit) and a few counts read from the
object the call returned.  `Tracer.uninstall` puts the originals back.  A
traced function that no longer exists is reported as missing, and one whose
result can no longer be read as unreadable; the run goes on.

A phase is "setup" or "op"; a unit is one set-up or one operation, so the
spans of one operation share a unit number.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


def _glauber(args, kwargs, result):
    state, diag = result
    return {"steps": diag.steps, "s1": diag.s1, "s2": diag.s2,
            "hist": dict(diag.component_hist), "y": tuple(state.y)}


def _inv_sample(args, kwargs, result):
    cfg = args[4]
    return {"rounds": result.rounds, "components": result.components,
            "S": cfg.S, "delta": cfg.delta_deg}


def _run_chains(args, kwargs, result):
    sampler, n_chains = args[0], args[1]
    steps = args[3] if len(args) > 3 else kwargs.get("steps")
    _, s1, s2, _ = result
    return {"chain_steps": n_chains * (sampler.cfg.T if steps is None else steps),
            "s1": s1, "s2": s2}


def _lift(args, kwargs, result):
    _, errors = result
    return {"errors": int((errors != "").sum())}


def _construct(args, kwargs, result):
    q = result.q_sizes()
    return {"collapsed": sum(1 for size in q if size == 1), "vars": len(q)}


def _find(args, kwargs, result):
    return {"resamples": result.resamples}


def _count(args, kwargs, result):
    methods = [stage["method"] for stage in result.stages]
    return {"estimate": result.estimate, "samples_total": result.samples_total,
            "stages_sampled": methods.count("sampled"),
            "stages_tail": len(methods) - methods.count("sampled"),
            "marginals": [stage["marginal"] for stage in result.stages if "marginal" in stage]}


# (span name, module, attribute path, reader of the returned object)
TARGETS = [
    ("csp.parse_dimacs", "lllsample.csp", "parse_dimacs", None),
    ("csp.parse_hypergraph", "lllsample.csp", "parse_hypergraph", None),
    ("csp.build_coloring_csp", "lllsample.csp", "build_coloring_csp", None),
    ("csp.degree_stats", "lllsample.csp", "degree_stats", None),
    ("projection.construct_projection", "lllsample.projection", "construct_projection", _construct),
    ("projection.check_admissibility", "lllsample.projection", "check_admissibility", None),
    ("resample.moser_tardos", "lllsample.resample", "moser_tardos", None),
    ("resample.find_assignment", "lllsample.resample", "find_assignment", _find),
    ("dynamics.project_csp", "lllsample.dynamics", "project_csp", None),
    ("dynamics.glauber_run", "lllsample.dynamics", "glauber_run", _glauber),
    ("dynamics.inv_sample", "lllsample.dynamics", "inv_sample", _inv_sample),
    ("batch.BatchSampler.__init__", "lllsample.batch", "BatchSampler.__init__", None),
    ("batch.BatchSampler.run_chains", "lllsample.batch", "BatchSampler.run_chains", _run_chains),
    ("batch.BatchSampler.lift", "lllsample.batch", "BatchSampler.lift", _lift),
    ("counting.approx_count", "lllsample.counting", "approx_count", _count),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str | None
    unit: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Finds every traced function on creation; `install` and `uninstall`
    switch the wrappers on and off, so traced and untraced operations can
    alternate in one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.unreadable: set[str] = set()
        self.phase: str | None = None
        self.unit: int | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in sys.modules.items()
                   if key == "lllsample" or key.startswith("lllsample.")]
        for name, module_name, path, reader in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, reader)
            if owner_path:  # a method: rebind it on its class
                self._bindings.append((owner, attr, original, wrapper))
                continue
            for module in modules:  # every module that imported the function
                for key, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, key, original, wrapper))

    def enter(self, phase: str, unit: int):
        self.phase, self.unit = phase, unit

    def leave(self):
        self.phase, self.unit = None, None

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _wrap(self, name, fn, reader):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, 0.0, 0.0, parent, tracer.phase, tracer.unit)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if reader is not None:
                try:
                    span.counts = reader(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.unreadable.add(name)
            return result

        return traced

    # -- aggregation ----------------------------------------------------------

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and s.unit is not None and (phase is None or s.phase == phase)]

    def per_unit_seconds(self, name: str, n_setups: int, n_ops: int) -> float:
        """Seconds inside `name` per set-up plus seconds per operation: what
        the function adds to one set-up followed by one operation."""
        setup = sum(s.duration for s in self.select(name, "setup"))
        ops = sum(s.duration for s in self.select(name, "op"))
        return (setup / n_setups if n_setups else 0.0) + (ops / n_ops if n_ops else 0.0)

    def total(self, name: str, key: str, phase: str | None = None) -> float:
        return sum(s.counts.get(key, 0) for s in self.select(name, phase))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over traced units."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, tuple[int, float, float]] = {}
        for i, s in enumerate(self.spans):
            if s.unit is None:
                continue
            calls, total, own = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, total + s.duration, own + s.duration - child[i])
        return out
