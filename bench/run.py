"""Benchmark of lllsample: set-up time, time per operation and peak memory
on seeded workloads, with every output checked.

    python3 bench/run.py --workload kcnf-chain --seed 1 --seconds 15 --trace 0

Run from anywhere; the library is imported from the `src/` directory next
to `bench/`.  One process, no worker pool, BLAS threads pinned to 1.

--trace 0 sets up several times, then repeats the workload's operation for
--seconds, and reports the end-to-end metrics.  --trace 1 records spans
around the calls between the library's modules (see spans.py) and reports
the per-layer metrics; it alternates untraced and traced operations on the
same seed, checks that they give the same result, and reports the
difference in time as the tracing overhead.

The end-to-end times are speed-scaled: a fixed pure-Python reference loop
is timed before every set-up or operation and after it, and each measured
time is multiplied by REF_S over the mean of the two reference times.  On
a shared machine whose speed drifts by a third for tens of seconds at a
time, this keeps a run's figures comparable with another run's; a change
to the library still moves them in full.  The raw wall-clock figures are
printed beside them.  Per-layer times are raw wall-clock seconds.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when every output check passed, 1 when one
failed, 2 when the library cannot be found or the arguments are bad.

Known limits of the library, left for later changes and therefore kept out
of the workloads:
- construct_projection (case2) exhausts its resampling budget on random
  12-CNF at n=5000, m=1500 (about 11 s, then ConstructionError); kcnf-solve
  uses 8-CNF for that reason.
- check_admissibility raises OverflowError from math.exp on a case3 scheme
  with b=0.25 and Delta=87 (6-uniform hypergraph 3-colouring, n=5000).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPS = 50
TRACED_SETUPS = 3
REF_S = 0.02  # the reference loop's time on the Xeon the bounds were set on

KNOWN_LIMITS = [
    "construct_projection case2 raises ConstructionError on 12-CNF n=5000 m=1500",
    "check_admissibility raises OverflowError on a case3 scheme with b=0.25, Delta=87",
]


def environment_lines(args, lllsample, np) -> list[str]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lllsample").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    return [
        f"env lllsample {lllsample.__version__} source sha256:{digest.hexdigest()[:16]}",
        f"env python {platform.python_version()} numpy {np.__version__}",
        f"env nproc {len(os.sched_getaffinity(0))} cpu {cpu}",
        "env one process, no worker pool, BLAS threads 1",
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
    ] + [f"known-limit {text}" for text in KNOWN_LIMITS]


class Run:
    """Counts what was attempted, what failed (by type) and what was wrong."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []

    def fail(self, kind: str, n: int = 1):
        self.failures[kind] = self.failures.get(kind, 0) + n

    def op(self, ready, i: int):
        """(seconds, result or None) of one checked operation."""
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.w.op(ready, i)
        except Exception as exc:  # a library error is a failed operation, not a crash
            elapsed = time.perf_counter() - start
            if not self.failures:
                traceback.print_exc()
            self.attempted += 1
            self.fail(type(exc).__name__)
            return elapsed, None
        elapsed = time.perf_counter() - start
        attempted, failures, wrong = self.w.check(ready, result)
        self.attempted += attempted
        for kind in failures:
            self.fail(kind)
        if wrong:
            self.fail("wrong_output", len(wrong))
            self.wrong += wrong
        return elapsed, result

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def reference_loop(np) -> int:
    """Fixed work shaped like the library's inner loops: pure-Python tuple,
    set and dict operations, then the small numpy gathers, compares and sums
    of the batch driver.  Its time reads the machine's current speed."""
    acc, seen, last = 0, set(), {}
    for i in range(30_000):
        t = (i, i * 7 % 13, i ^ 5)
        if t[1] in seen:
            acc += last.get(t[1], 0)
        else:
            seen.add(t[1])
            last[t[1]] = i
        acc += t.index(i ^ 5)
    table = np.arange(2048 * 8).reshape(2048, 8) % 5
    rows, cols = np.arange(2048), np.arange(2048) % 8
    for k in range(150):
        acc += int((table[rows, cols] == k % 5).sum()) + int((table == 3).sum(axis=1).max())
    return acc


def speed_scaled(fn, keep_going):
    """Call fn(i) for i = 0, 1, ... while keep_going(i, seconds so far); fn
    returns the seconds it measured.  The reference time is taken before the
    first call and after each.  Returns (raw seconds, scaled seconds,
    reference seconds)."""

    import numpy as np

    def reference() -> float:
        times = []
        for _ in range(3):  # the median of three rides out a short stall
            start = time.perf_counter()
            reference_loop(np)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    refs, raw, scaled, i, start = [reference()], [], [], 0, time.perf_counter()
    while keep_going(i, time.perf_counter() - start):
        raw.append(fn(i))
        refs.append(reference())
        scaled.append(raw[-1] * 2.0 * REF_S / (refs[-2] + refs[-1]))
        i += 1
    return raw, scaled, refs


def quartile_line(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"{name}: median {q2:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"


def untraced(run: Run, seconds: float):
    ready = None

    def setup(rep):
        nonlocal ready
        gc.collect()
        start = time.perf_counter()
        result = run.w.setup(rep)
        elapsed = time.perf_counter() - start
        ready = result if rep == 0 else ready
        return elapsed

    setup_raw, setup_scaled, refs = speed_scaled(
        setup, lambda i, spent: i < SETUP_MIN_REPS or (spent < SETUP_BUDGET_S and i < SETUP_MAX_REPS))
    op_raw, op_scaled, op_refs = speed_scaled(
        lambda i: run.op(ready, i)[0], lambda i, spent: i == 0 or spent < seconds)
    refs += op_refs
    wrong, lines, _ = run.w.finish(ready)
    run.wrong += wrong
    op_s = statistics.median(op_scaled)
    lines = [
        quartile_line("setup_s (scaled)", setup_scaled, "s"),
        quartile_line("setup_s (raw)", setup_raw, "s"),
        quartile_line("op_s (scaled)", op_scaled, "s"),
        quartile_line("op_s (raw)", op_raw, "s"),
        quartile_line("reference loop", refs, "s") + f", REF_S {REF_S}",
    ] + [f"{name}: {value:.6g} {unit} (scaled)" for name, value, unit in run.w.derived(op_s)] + lines
    return {
        "setup_s": statistics.median(setup_scaled),
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, lines


def traced(run: Run, seconds: float):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    for rep in reversed(range(TRACED_SETUPS)):  # rep 0, the one operations use, last
        gc.collect()
        tracer.enter("setup", rep)
        ready = run.w.setup(rep)
        tracer.leave()

    # operations run in pairs on one seed, untraced first in even pairs
    results = {}

    def is_traced(j):
        return (j % 2 == 1) == (j // 2 % 2 == 0)

    def op(j):
        pair, with_trace = j // 2, is_traced(j)
        if with_trace:
            tracer.install()
            tracer.enter("op", pair)
        else:
            tracer.uninstall()
        elapsed, results[pair, with_trace] = run.op(ready, pair)
        tracer.leave()
        return elapsed

    _, scaled, _ = speed_scaled(op, lambda j, spent: j % 2 == 1 or j == 0 or spent < seconds)
    tracer.uninstall()
    pairs = len(scaled) // 2
    for i in range(pairs):
        a, b = results[i, False], results[i, True]
        if a is not None and b is not None:
            if not run.w.same(a, b):
                run.wrong.append(f"operation {i}: traced and untraced results differ")
            run.wrong += run.w.check_traced(ready, b, [s for s in tracer.spans if s.unit == i])
    traced_t = sum(t for j, t in enumerate(scaled) if is_traced(j))
    plain_t = sum(scaled) - traced_t

    wrong, lines, extras = run.w.finish(ready)
    run.wrong += wrong
    extras["trace.overhead_share"] = traced_t / plain_t - 1.0
    metrics, health = layer_metrics(tracer, TRACED_SETUPS, pairs, extras, run.w.count_truth)
    lines = span_table(tracer) + health + lines
    lines.append(f"tracing overhead: {extras['trace.overhead_share']:+.4f} (traced "
                 f"{traced_t:.4f} s vs untraced {plain_t:.4f} s, scaled, over {pairs} pairs)")
    if tracer.missing:
        lines.append("layers missing (reported as 0): " + ", ".join(tracer.missing))
    if tracer.unreadable:
        lines.append("results no longer readable: " + ", ".join(sorted(tracer.unreadable)))
    return metrics, lines


def span_table(tracer) -> list[str]:
    lines = ["span                                calls    total_s     self_s"]
    for name, (calls, total, own) in sorted(tracer.self_times().items()):
        lines.append(f"{name:34s} {calls:7d} {total:10.4f} {own:10.4f}")
    return lines


def layer_metrics(tracer, n_setups: int, n_ops: int, extras: dict, count_truth):
    """Per-layer metrics.  Times are seconds per set-up plus seconds per
    operation (Tracer.per_unit_seconds); counts are per operation.  A layer
    the workload does not reach reads 0."""

    def secs(name):
        return tracer.per_unit_seconds(name, n_setups, n_ops)

    def per_op(name, key):
        return tracer.total(name, key, "op") / n_ops

    def op_time(name):
        return sum(s.duration for s in tracer.select(name, "op"))

    def ratio(num, den):
        return num / den if den else 0.0

    glauber, lift_spans = "dynamics.glauber_run", "dynamics.inv_sample"
    steps = tracer.total(glauber, "steps", "op")
    hist: dict[int, int] = {}
    for span in tracer.select(glauber, "op"):
        for size, count in span.counts.get("hist", {}).items():
            hist[size] = hist.get(size, 0) + count
    collapsed = tracer.total("projection.construct_projection", "collapsed")
    variables = tracer.total("projection.construct_projection", "vars")
    resamples = tracer.total("resample.find_assignment", "resamples", "op")
    chain_steps = tracer.total("batch.BatchSampler.run_chains", "chain_steps", "op")
    count_spans = tracer.select("counting.approx_count", "op")
    estimates = [s.counts["estimate"] for s in count_spans if "estimate" in s.counts]
    draws = tracer.total("counting.approx_count", "samples_total", "op")

    m = {
        "csp.parse_s": sum(secs(n) for n in
                           ("csp.parse_dimacs", "csp.parse_hypergraph", "csp.build_coloring_csp")),
        "csp.degree_stats_s": secs("csp.degree_stats"),
        "projection.construct_s": secs("projection.construct_projection"),
        "projection.admissibility_s": secs("projection.check_admissibility"),
        "projection.collapsed_share": ratio(collapsed, variables),
        "resample.moser_tardos_s": secs("resample.moser_tardos"),
        "resample.find_s": secs("resample.find_assignment"),
        "resample.resamples": resamples / n_ops,
        "resample.us_per_resample": 1e6 * ratio(op_time("resample.find_assignment"), resamples),
        "dynamics.project_s": secs("dynamics.project_csp"),
        "dynamics.chain_s": secs(glauber),
        "dynamics.steps": steps / n_ops,
        "dynamics.us_per_step": 1e6 * ratio(op_time(glauber), steps),
        "dynamics.empty_share": ratio(hist.get(0, 0), steps),
        "dynamics.s1_rate": ratio(tracer.total(glauber, "s1", "op"), steps),
        "dynamics.s2_rate": ratio(tracer.total(glauber, "s2", "op"), steps),
        "dynamics.lift_s": secs(lift_spans),
        "dynamics.lift_rounds": per_op(lift_spans, "rounds"),
        "dynamics.lift_components": per_op(lift_spans, "components"),
        "batch.init_s": secs("batch.BatchSampler.__init__"),
        "batch.run_chains_s": secs("batch.BatchSampler.run_chains"),
        "batch.ns_per_chain_step": 1e9 * ratio(op_time("batch.BatchSampler.run_chains"), chain_steps),
        "batch.lift_s": secs("batch.BatchSampler.lift"),
        "batch.s1_steps": per_op("batch.BatchSampler.run_chains", "s1"),
        "batch.s2_steps": per_op("batch.BatchSampler.run_chains", "s2"),
        "batch.errors": per_op("batch.BatchSampler.lift", "errors"),
        "batch.tv_max": 0.0,
        "counting.stages_sampled": per_op("counting.approx_count", "stages_sampled"),
        "counting.stages_tail": per_op("counting.approx_count", "stages_tail"),
        "counting.samples_total": draws / n_ops,
        "counting.draws_per_s": ratio(draws, op_time("counting.approx_count")),
        "counting.ratio": statistics.median(estimates) / count_truth if estimates and count_truth else 0.0,
    }
    m.update(extras)

    health = []
    if steps:
        health.append(f"health chain: S1 rate {m['dynamics.s1_rate']:.3g}, S2 rate "
                      f"{m['dynamics.s2_rate']:.3g} over {int(steps)} steps (failure-rarity limit 0.01)")
        lifts = [s.counts for s in tracer.select(lift_spans, "op") if "delta" in s.counts]
        delta = lifts[0]["delta"] if lifts else 0
        from lllsample.oracle import two_tree_count_bound

        health.append(f"health component sizes (unsatisfied constraints around the updated "
                      f"variable), share of steps, beside two_tree_count_bound(Delta={delta}, l):")
        for size in sorted(hist):
            bound = f"{two_tree_count_bound(delta, size):.3g}" if size else "-"
            health.append(f"health   l={size}: {hist[size] / steps:.3g} ({hist[size]} steps), "
                          f"bound {bound}")
        if lifts:
            components = sum(c["components"] for c in lifts)
            rounds = sum(c["rounds"] for c in lifts)
            health.append(f"health lift: {components} components, {rounds} rounds "
                          f"({ratio(rounds, components):.3g} per component) over {len(lifts)} "
                          f"lifts, against the rejection budget S={lifts[0]['S']}")
    if chain_steps:
        health.append(f"health batch: S1 {m['batch.s1_steps'] * n_ops:.0f}, S2 "
                      f"{m['batch.s2_steps'] * n_ops:.0f} over {int(chain_steps)} chain steps")
    stage_marginals: dict[int, list[float]] = {}
    for span in count_spans:
        for j, marginal in enumerate(span.counts.get("marginals", [])):
            stage_marginals.setdefault(j, []).append(marginal)
    for j, values in sorted(stage_marginals.items()):
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        health.append(f"health counting stage {j}: marginal mean {statistics.mean(values):.4f} "
                      f"sd {sd:.4f} over {len(values)} counts")
    return m, health


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lllsample" / "__init__.py").is_file():
        print(f"error: lllsample sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import lllsample

    if Path(lllsample.__file__).resolve().parent != SRC / "lllsample":
        print(f"error: imported lllsample from {lllsample.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    for line in environment_lines(args, lllsample, np):
        print(line)
    run = Run(WORKLOADS[args.workload](args.seed))
    for line in run.w.input_lines():
        print(line)
    if args.trace:
        metrics, lines = traced(run, args.seconds)
    else:
        metrics, lines = untraced(run, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for line in lines:
        print(line)
    print(f"attempted {run.attempted}, failed {run.failed} {run.failures}, "
          f"fail_share {run.failed / max(run.attempted, 1):.6g}")
    for problem in run.wrong:
        print(f"WRONG {problem}")
    correct = not run.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
