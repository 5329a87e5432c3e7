import ast
import re
from pathlib import Path

import numpy as np
import pytest

import lllsample
from lllsample.counting import approx_count
from lllsample.csp import evaluate, parse_dimacs
from lllsample.bundled import load_bundled
from lllsample.dynamics import main_sample
from lllsample.projection import construct_projection, full_marking_scheme


def test_unary_only_instance_pins_solution():
    csp = parse_dimacs("p cnf 2 2\n-1 0\n-2 0\n")
    scheme = full_marking_scheme(csp)
    for seed in range(5):
        res = main_sample(csp, scheme, 0.1, seed=seed, c_t=0.05)
        assert res.ok and res.assignment == (0, 0)


def test_unsatisfiable_instance_errors_cleanly():
    csp = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    scheme = full_marking_scheme(csp)
    res = main_sample(csp, scheme, 0.1, seed=0, c_t=0.01)
    assert res.error == "I2" and res.assignment is None


def test_count_deterministic_under_seed():
    csp, scheme = load_bundled("sat62")
    e1 = approx_count(csp, scheme, 0.2, seed=123)
    e2 = approx_count(csp, scheme, 0.2, seed=123)
    assert e1.estimate == e2.estimate and e1.stages == e2.stages


def test_count_abort_cli_exit_code(tmp_path, capsys):
    from lllsample.cli import dispatch

    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    code = dispatch(
        ["count", "--input", str(unsat), "--delta", "0.2", "--seed", "1",
         "--case-hint", "case2"]
    )
    out = capsys.readouterr().out
    assert code == 1 and '"error"' in out


def test_stage_draws_fifteen_constraints():
    # 15 disjoint clauses through one stage's many-chain sampler: every
    # returned row is a satisfying assignment
    from lllsample.counting import _stage_draws

    n = 32
    cons = [((i, i + 1), (0, 0)) for i in range(0, 30, 2)]
    from conftest import uniform_csp

    csp = uniform_csp(n, 2, cons)
    assert csp.m == 15
    scheme = full_marking_scheme(csp)
    rows, errors = _stage_draws(csp, scheme, 0.3, 5, seed=1, eta=0.25, c_t=0.002)
    assert errors == 0 and rows.shape == (5, n)
    for row in rows:
        assert evaluate(csp, [int(x) for x in row]) == []


def test_count_aborts_when_regime_lost_and_too_large():
    from lllsample.counting import CountingError
    from lllsample.projection import identity_scheme
    from conftest import uniform_csp

    # two blocks: the second would run the chain outside the regime
    csp = uniform_csp(21, 2, [((0, 1), (0, 0)), ((1, 2), (0, 0))])
    with pytest.raises(CountingError) as err:
        approx_count(csp, identity_scheme(csp), 0.2, seed=0)
    assert err.value.stage == 0


def test_count_of_one_block_runs_when_regime_lost_and_too_large():
    # identity blocks put a 2-clause outside the regime (b = 1), but one
    # block is the exact first stage alone, which runs no chain
    from lllsample.projection import identity_scheme
    from conftest import uniform_csp

    csp = uniform_csp(21, 2, [((0, 1), (0, 0))])
    est = approx_count(csp, identity_scheme(csp), 0.2, seed=0)
    assert [stage.get("sampler") for stage in est.stages] == [None, "exact"]
    assert abs(est.estimate / (3 * 2**19) - 1) <= 0.2


def test_find_failure_exit_code(tmp_path, capsys):
    from lllsample.cli import dispatch

    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    code = dispatch(["find", "--input", str(unsat), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    import json

    assert json.loads(out)["success"] is False


def test_scalar_sampler_beyond_batch_limits():
    # a few hundred variables, sparse clauses: exercises the scalar chain and
    # lift end to end at a size the enumeration oracle cannot reach
    rng = np.random.default_rng(55)
    n, lines = 300, []
    vars_pool = list(rng.permutation(n))
    clauses = [sorted(vars_pool[i : i + 3]) for i in range(0, 90, 3)]
    for trio in clauses:
        signs = rng.integers(0, 2, 3)
        lines.append(
            " ".join(str((v + 1) * (1 if s == 0 else -1)) for v, s in zip(trio, signs))
            + " 0"
        )
    text = f"p cnf {n} {len(clauses)}\n" + "\n".join(lines) + "\n"
    csp = parse_dimacs(text)
    scheme = construct_projection(csp, seed=9)
    res = main_sample(csp, scheme, 0.2, seed=10, c_t=0.01)
    assert res.ok
    assert evaluate(csp, res.assignment) == []


def test_zero_variable_instance_samples_the_empty_assignment():
    # p cnf 0 0 has one solution, the empty assignment; neither driver runs a step
    from lllsample.batch import BatchSampler

    csp = parse_dimacs("p cnf 0 0\n")
    scheme = full_marking_scheme(csp)
    res = main_sample(csp, scheme, 0.1, seed=0)
    assert res.ok and res.assignment == ()
    assert res.diagnostics["steps"] == res.diagnostics["T"] == 0
    out = BatchSampler(csp, scheme, 0.1).sample(5, seed=0)
    assert out.assignments.shape == (5, 0) and out.ok.all()
    assert out.s1_steps == out.s2_steps == 0


def test_sampling_builds_no_projected_instance(monkeypatch):
    # the chain and the lift read the input's tables; project_csp is only
    # the reference definition
    import lllsample
    import lllsample.dynamics as dynamics
    from lllsample.batch import BatchSampler

    def no_projection(*args):
        raise AssertionError("a projected instance was built")

    monkeypatch.setattr(dynamics, "project_csp", no_projection)
    monkeypatch.setattr(lllsample, "project_csp", no_projection)
    for name in ("mark4", "colork4", "sat62"):
        csp, scheme = load_bundled(name)
        res = main_sample(csp, scheme, 0.1, seed=1, c_t=0.2)
        assert res.ok and evaluate(csp, res.assignment) == []
        out = BatchSampler(csp, scheme, 0.1, c_t=0.2).sample(20, seed=1)
        assert out.ok.all() and all(evaluate(csp, x) == [] for x in out.assignments.tolist())
    est = approx_count(*load_bundled("sat62"), 0.5, seed=2)
    assert [stage["method"] for stage in est.stages] == ["unconstrained-tail", "sampled", "sampled"]
    assert 0.5 * 49 < est.estimate < 1.5 * 49


def test_scheme_for_other_alphabets_is_rejected():
    # by both drivers, and by the count also where no stage is sampled
    from lllsample.batch import BatchSampler
    from lllsample.csp import CSPError
    from lllsample.projection import ProjectionScheme

    csp = parse_dimacs("p cnf 2 1\n1 2 0\n")
    for wrong in (ProjectionScheme((((0, 1),),)), ProjectionScheme((((0, 1),), ((0, 1, 2),)))):
        with pytest.raises(CSPError, match="scheme covers domains"):
            main_sample(csp, wrong, 0.1, seed=0)
        with pytest.raises(CSPError, match="scheme covers domains"):
            BatchSampler(csp, wrong, 0.1)
        with pytest.raises(CSPError, match="scheme covers domains"):
            approx_count(parse_dimacs("p cnf 2 0\n"), wrong, 0.5, seed=0)


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no guarantee of the library may
    # rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(lllsample.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_version_matches_pyproject():
    # a change to the random streams bumps both version strings together
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, flags=re.M)
    assert lllsample.__version__ == version


def test_public_surface():
    # what the package exports and the CLI offers; a name that only tests
    # need belongs in tests/reference.py
    from lllsample.cli import build_parser

    assert set(lllsample.__all__) == {
        "AdmissibilityReport", "AtomicCSP", "AtomicConstraint",
        "BatchSampler", "CSPError", "ConstructionError", "CountEstimate", "CountingError",
        "InternalError", "ParseError", "ProjectionScheme", "RegimeError", "SampleResult",
        "SamplerConfig", "approx_count", "build_coloring_csp", "chain_length",
        "check_admissibility", "component_threshold", "compute_b", "construct_projection",
        "count_satisfying", "counting_eps", "degree_stats", "enumerate_satisfying", "evaluate",
        "find_assignment", "full_marking_scheme", "identity_scheme", "inv_sample",
        "main_sample", "moser_tardos", "parse_dimacs", "parse_hypergraph", "project_csp",
        "rejection_budget", "tv_empirical", "write_dimacs",
        # submodules the imports above bind
        "batch", "counting", "csp", "dynamics", "oracle", "projection", "resample",
    }
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {"find", "sample", "count", "check-projection"}
