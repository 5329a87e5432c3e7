"""Command-line entry point.

Subcommands: find (resampling solver), sample (projected-chain sampler),
count (approximate model count), check-projection (admissibility report).
Output is a single JSON document on stdout carrying a manifest that,
together with the input file, fully determines the run; diagnostics go to
stderr.

Exit codes: 0 success, 1 ERROR result (sampler lift failure, solver budget,
counting abort), 2 usage/parse/regime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import __version__
from .counting import CountingError, approx_count
from .csp import AtomicCSP, CSPError, build_coloring_csp, parse_dimacs, parse_hypergraph
from .dynamics import Sampler
from .projection import (
    ConstructionError,
    ProjectionScheme,
    RegimeError,
    check_admissibility,
    construct_projection,
)
from .resample import find_assignment

USAGE_ERROR, RESULT_ERROR = 2, 1


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _load_csp(args) -> AtomicCSP:
    if args.format == "cnf" and args.q is not None:
        raise CSPError("--q applies to hypergraph input only")
    try:
        with open(args.input, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise CSPError(f"cannot read {args.input}: {exc}") from exc
    if args.format == "cnf":
        return parse_dimacs(text)
    if args.q is None:
        raise CSPError("hypergraph input requires --q")
    return build_coloring_csp(parse_hypergraph(text), args.q)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(np.random.SeedSequence().entropy % (1 << 63))


def _scheme_for(args, csp: AtomicCSP, seed: int):
    if args.scheme:
        try:
            with open(args.scheme, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise CSPError(f"cannot read {args.scheme}: {exc}") from exc
        return ProjectionScheme.from_json(text), f"file:{args.scheme}"
    # without --construction-delta the library's default holds
    kw = {} if args.construction_delta is None else {"delta": args.construction_delta}
    scheme = construct_projection(csp, eta=args.eta, case_hint=args.case_hint, seed=[seed, 0],
                                  **kw)
    return scheme, f"auto:{scheme.case}"


_SCHEDULE = ("c_t", "theta_const", "c_n")


def _overrides(args, names=_SCHEDULE) -> dict:
    """The constants among names that the user set; the library's defaults
    hold for the rest.  By default the schedule's, which the sampler and the
    counter take; the manifest records --construction-delta beside them, so
    that a run with it replays."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _manifest(args, command: str, seed: int, scheme_source: str | None) -> dict:
    manifest = {
        "command": command,
        "input": getattr(args, "input", None),
        "format": getattr(args, "format", None),
        "q": getattr(args, "q", None),
        "eta": getattr(args, "eta", None),
        "seed": seed,
        "scheme_source": scheme_source,
        "overrides": _overrides(args, (*_SCHEDULE, "construction_delta")),
        "version": __version__,
    }
    if hasattr(args, "eps"):
        manifest["epsilon"] = args.eps
    if hasattr(args, "delta"):
        manifest["delta"] = args.delta
    return manifest


def _chain_payload(sampler: Sampler, seed) -> dict:
    res = sampler.sample_one(seed)
    return {
        "assignment": list(res.assignment) if res.assignment is not None else None,
        "error": res.error,
        "diagnostics": res.diagnostics,
    }


def cmd_find(args) -> int:
    seed = _resolve_seed(args)
    csp = _load_csp(args)
    result = find_assignment(csp, np.random.default_rng([seed, 1]), delta=args.delta)
    payload = {
        "assignment": list(result.values) if result.success else None,
        "success": result.success,
        "resamples": result.resamples,
        "attempts": result.attempts_used,
        "manifest": _manifest(args, "find", seed, None),
    }
    _emit(payload, args.pretty)
    return 0 if result.success else RESULT_ERROR


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    csp = _load_csp(args)
    scheme, source = _scheme_for(args, csp, seed)
    # one set-up for all chains; a pool gets one chunk per worker, each
    # unpickling it once
    run = partial(_chain_payload, Sampler(csp, scheme, args.eps, eta=args.eta, **_overrides(args)))
    seeds = [[seed, 1, i] for i in range(args.count)]
    if args.workers > 1 and args.count > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run, seeds, chunksize=-(-args.count // args.workers)))
    else:
        results = list(map(run, seeds))
    manifest = _manifest(args, "sample", seed, source)
    errored = any(r["error"] is not None for r in results)
    if args.count == 1:
        payload = {**results[0], "manifest": manifest}
    else:
        payload = {"results": results, "manifest": manifest}
    _emit(payload, args.pretty)
    return RESULT_ERROR if errored else 0


def cmd_count(args) -> int:
    seed = _resolve_seed(args)
    csp = _load_csp(args)
    scheme, source = _scheme_for(args, csp, seed)
    manifest = _manifest(args, "count", seed, source)
    try:
        estimate = approx_count(
            csp,
            scheme,
            args.delta,
            seed=seed,
            eta=args.eta,
            **_overrides(args),
        )
    except CountingError as exc:
        _emit({"error": str(exc), "stage": exc.stage, "manifest": manifest}, args.pretty)
        return RESULT_ERROR
    _emit({**estimate.to_dict(), "manifest": manifest}, args.pretty)
    return 0


def cmd_check_projection(args) -> int:
    seed = _resolve_seed(args)
    csp = _load_csp(args)
    scheme, source = _scheme_for(args, csp, seed)
    report = check_admissibility(csp, scheme, args.eta)
    payload = {
        "report": report.to_dict(),
        "regime_ok": report.regime,
        "scheme": json.loads(scheme.to_json()),
        "manifest": _manifest(args, "check-projection", seed, source),
    }
    _emit(payload, args.pretty)
    return 0


def _float_in(low: float, high: float):
    """argparse type: a float strictly between low and high."""

    def parse(text: str) -> float:
        value = float(text)
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number in ({low}, {high})")
        return value

    return parse


_PROBABILITY = _float_in(0.0, 1.0)
_POSITIVE = _float_in(0.0, math.inf)


def _int_from(low: int):
    """argparse type: an integer of at least low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value

    return parse


def _add_common(p, scheme_opts=True):
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("cnf", "hypergraph"), default="cnf")
    p.add_argument("--q", type=int, default=None, help="colors for hypergraph input")
    p.add_argument("--seed", type=_int_from(0), default=None)
    p.add_argument("--pretty", action="store_true")
    if scheme_opts:
        p.add_argument("--eta", type=_POSITIVE, default=0.25)
        p.add_argument("--scheme", default=None, help="projection scheme JSON file")
        p.add_argument("--case-hint", default=None,
                       choices=("case1", "case2", "case3", "case4", "case5"))
        p.add_argument("--construction-delta", type=_PROBABILITY, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lllsample",
        description="Near-uniform sampling and approximate counting of atomic-CSP solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find", help="find one satisfying assignment by resampling")
    _add_common(p, scheme_opts=False)
    p.add_argument("--delta", type=_PROBABILITY, default=0.01, help="failure probability")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("sample", help="draw near-uniform satisfying assignments")
    _add_common(p)
    p.add_argument("--eps", type=_float_in(0.0, 0.5), required=True)
    p.add_argument("--count", type=_int_from(1), default=1)
    p.add_argument("--workers", type=_int_from(1), default=1)
    p.add_argument("--c-t", type=_POSITIVE, dest="c_t")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("count", help="approximate the satisfying-assignment count")
    _add_common(p)
    p.add_argument("--delta", type=_PROBABILITY, required=True)
    p.add_argument("--theta-const", type=_POSITIVE, dest="theta_const")
    p.add_argument("--c-n", type=_POSITIVE, dest="c_n")
    p.add_argument("--c-t", type=_POSITIVE, dest="c_t")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check-projection", help="admissibility report for a scheme")
    _add_common(p)
    p.set_defaults(func=cmd_check_projection)
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (CSPError, RegimeError) as exc:
        return _fail(str(exc), USAGE_ERROR)
    except ConstructionError as exc:
        return _fail(str(exc), RESULT_ERROR)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
