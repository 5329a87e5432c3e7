import argparse
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import lllsample.cli as cli
from lllsample.cli import dispatch
from lllsample.csp import AtomicConstraint, AtomicCSP, parse_dimacs
from lllsample.dynamics import main_sample
from lllsample.projection import ProjectionScheme, construct_projection
from conftest import pinned_hypergraphs, random_kcnf_text


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "two.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    return str(path)


@pytest.fixture
def collapsed_scheme_file(tmp_path):
    scheme = ProjectionScheme((((0, 1),), ((0, 1),)), eta=0.25)
    path = tmp_path / "scheme.json"
    path.write_text(scheme.to_json())
    return str(path)


def _run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_sample_basic(capsys, cnf_file, collapsed_scheme_file):
    code, payload = _run(
        capsys,
        ["sample", "--input", cnf_file, "--eps", "0.1", "--eta", "0.25",
         "--seed", "42", "--scheme", collapsed_scheme_file],
    )
    assert code == 0
    assert payload["error"] is None
    assert payload["assignment"] in [[0, 1], [1, 0], [1, 1]]
    manifest = payload["manifest"]
    assert manifest["seed"] == 42 and manifest["epsilon"] == 0.1
    assert manifest["scheme_source"].startswith("file:")


def test_sample_deterministic_output(capsys, cnf_file):
    code1, p1 = _run(capsys, ["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "7"])
    code2, p2 = _run(capsys, ["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "7"])
    assert code1 == code2 == 0 and p1 == p2


def test_sample_multi_count(capsys, cnf_file):
    code, payload = _run(
        capsys,
        ["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "3", "--count", "4"],
    )
    assert code == 0 and len(payload["results"]) == 4
    # the four chains share one sampler, and each equals a main_sample of its own
    with open(cnf_file, "rb") as fh:
        csp = parse_dimacs(fh.read())
    scheme = construct_projection(csp, seed=[3, 0])
    expect = []
    for i in range(4):
        res = main_sample(csp, scheme, 0.1, seed=[3, 1, i])
        expect.append({"assignment": list(res.assignment), "error": res.error,
                       "diagnostics": res.diagnostics})
    assert payload["results"] == json.loads(json.dumps(expect))


def test_sample_auto_seed_echoed(capsys, cnf_file):
    code, payload = _run(capsys, ["sample", "--input", cnf_file, "--eps", "0.1"])
    assert code == 0 and isinstance(payload["manifest"]["seed"], int)


def test_sample_error_i1_exit_code(capsys, tmp_path):
    # long chain of pairwise-overlapping clauses, fully collapsed scheme:
    # every clause is unsatisfied in the constant projected state, forming one
    # component larger than the size threshold -> deterministic I1
    n = 1501
    lines = [f"p cnf {n} {n - 1}"] + [f"{i} {i + 1} 0" for i in range(1, n)]
    cnf = tmp_path / "chain.cnf"
    cnf.write_text("\n".join(lines) + "\n")
    scheme = ProjectionScheme(tuple(((0, 1),) for _ in range(n)))
    sfile = tmp_path / "collapsed.json"
    sfile.write_text(scheme.to_json())
    code, payload = _run(
        capsys,
        ["sample", "--input", str(cnf), "--eps", "0.49", "--seed", "1",
         "--scheme", str(sfile), "--c-t", "0.0001"],
    )
    assert code == 1
    assert payload["error"] == "I1"


def test_internal_error_is_not_a_usage_error(cnf_file, collapsed_scheme_file, monkeypatch):
    # a lift that fails its own verification is a defect: it must surface as
    # InternalError, not as exit code 2 for bad input
    import numpy as np

    import lllsample.dynamics as dynamics
    from lllsample.csp import InternalError

    def accept_anything(csp, scheme, Y, comp, rng, budget):
        n, P = Y.shape
        return (np.arange(n), np.zeros((n, P), dtype=np.int64), np.ones(P, dtype=bool),
                np.ones(P, dtype=np.int64))

    monkeypatch.setattr(dynamics, "reject", accept_anything)
    with pytest.raises(InternalError):
        dispatch(["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "1",
                  "--scheme", collapsed_scheme_file])


def test_find(capsys, cnf_file):
    code, payload = _run(capsys, ["find", "--input", cnf_file, "--seed", "5"])
    assert code == 0 and payload["success"]
    assert payload["assignment"] != [0, 0]


@pytest.mark.parametrize("argv", [
    ["find", "--delta", "1e-320"],
    ["check-projection", "--construction-delta", "1e-320"],
], ids=["find", "check-projection"])
def test_subnormal_delta_runs(capsys, cnf_file, argv):
    # 1/delta is inf below about 5.6e-309; the attempt count uses -log(delta)
    code, payload = _run(capsys, argv + ["--input", cnf_file, "--seed", "5"])
    assert code == 0 and payload is not None


@pytest.mark.parametrize("delta", ["1e-170", "1e-320"])
def test_count_at_an_underflowing_delta_is_a_usage_error(capsys, cnf_file, collapsed_scheme_file,
                                                         delta):
    # delta^2, and with it the stage accuracy, is 0 at these delta
    code = dispatch(["count", "--input", cnf_file, "--delta", delta, "--seed", "1",
                     "--scheme", collapsed_scheme_file])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "underflows" in captured.err and "Traceback" not in captured.err


def test_count(capsys, cnf_file, collapsed_scheme_file):
    code, payload = _run(
        capsys,
        ["count", "--input", cnf_file, "--delta", "0.2", "--seed", "9",
         "--scheme", collapsed_scheme_file],
    )
    assert code == 0
    assert payload["estimate"] == pytest.approx(3.0, rel=0.25)
    assert payload["manifest"]["delta"] == 0.2


def test_count_delta_near_one(capsys, cnf_file, collapsed_scheme_file):
    # counting_eps(1, 0.95) is 2.2; the capped stage accuracy keeps it running
    code, payload = _run(
        capsys,
        ["count", "--input", cnf_file, "--delta", "0.95", "--seed", "3",
         "--scheme", collapsed_scheme_file],
    )
    assert code == 0 and payload["eps_stage"] < 0.5
    assert 1 - 0.95 <= payload["estimate"] / 3 <= 1 + 0.95


def test_count_past_float_range_is_strict_json(capsys, tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 1100 1\n1 2 3 0\n")
    scheme = tmp_path / "marking.json"
    scheme.write_text(ProjectionScheme((((0, 1),),) * 1100).to_json())
    code = dispatch(["count", "--input", str(cnf), "--delta", "0.5", "--seed", "1",
                     "--scheme", str(scheme)])

    def reject(name):
        raise ValueError(f"non-finite number {name} in output")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0 and payload["estimate"] is None
    assert abs(payload["log_estimate"] - math.log(7 * 2**1097)) <= math.log(1.5)


def test_check_projection_hypergraph(capsys, tmp_path):
    hyp = tmp_path / "edge.hyp"
    hyp.write_text("0 1 2\n")
    code, payload = _run(
        capsys,
        ["check-projection", "--input", str(hyp), "--format", "hypergraph",
         "--q", "16", "--seed", "2"],
    )
    assert code == 0
    report = payload["report"]
    assert set(report) >= {"a1", "a2", "a3", "a4", "kappa", "zeta"}
    assert payload["manifest"]["scheme_source"].startswith("auto:")


def test_pretty_output_multiline(capsys, cnf_file):
    code = dispatch(["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "1",
                     "--pretty"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") > 3
    json.loads(out)


def test_check_projection_identity_scheme_strict_json(capsys, tmp_path, cnf_file):
    # identity blocks give b = 1: the report carries non-finite internal
    # margins, but the JSON surface must stay strict (no Infinity tokens)
    from lllsample.csp import parse_dimacs
    from lllsample.projection import identity_scheme

    scheme = identity_scheme(parse_dimacs(open(cnf_file).read()))
    sfile = tmp_path / "ident.json"
    sfile.write_text(scheme.to_json())
    code = dispatch(["check-projection", "--input", cnf_file, "--scheme", str(sfile)])
    out = capsys.readouterr().out
    assert code == 0 and "Infinity" not in out
    payload = json.loads(out)
    assert payload["report"]["a1"]["pass"] is False


def test_check_projection_a2_past_float_range(capsys, tmp_path):
    # a star of 100 edges 4-coloured under blocks {0,1},{2,3}: the A2
    # left-hand side leaves the float range, which is a failing A2, not a
    # traceback
    hyp = tmp_path / "star.hyp"
    hyp.write_text("".join(f"0 {i}\n" for i in range(1, 101)))
    sfile = tmp_path / "halves.json"
    sfile.write_text(ProjectionScheme((((0, 1), (2, 3)),) * 101).to_json())
    code, payload = _run(
        capsys,
        ["check-projection", "--input", str(hyp), "--format", "hypergraph", "--q", "4",
         "--scheme", str(sfile)],
    )
    assert code == 0
    a2 = payload["report"]["a2"]
    assert a2["pass"] is False and a2["worst_lhs"] is None


def _check_projection_inputs():
    """name -> (input text, or an AtomicCSP the CLI is handed in place of a
    parsed file, the arguments after the input)."""
    sixteen_colours = ["--format", "hypergraph", "--q", "16"]
    hyp = {name: "".join(" ".join(map(str, e)) + "\n" for e in edges)
           for name, edges in pinned_hypergraphs().items()}
    gen = np.random.default_rng(43)
    clauses = [(gen.choice(60, size=6, replace=False) + 1) * gen.choice([-1, 1], size=6)
               for _ in range(25)]
    cnf = "p cnf 60 25\n" + "".join(" ".join(map(str, c.tolist())) + " 0\n" for c in clauses)
    domains = [int(a) for a in gen.choice([2, 3, 5, 7, 9, 16], 30)]
    cons = []
    for _ in range(12):
        vs = sorted(int(v) for v in gen.choice(30, size=int(gen.integers(4, 7)), replace=False))
        cons.append(AtomicConstraint(tuple(vs), tuple(int(gen.integers(domains[v])) for v in vs)))
    mixed = AtomicCSP(n=30, domains=tuple(domains), constraints=tuple(cons))
    return {
        "colouring": (hyp["colouring"], sixteen_colours),
        "case2": (cnf, []),
        "case5": (mixed, []),
        "tie": (hyp["tie"], sixteen_colours),
    }


# sha256 of check-projection's stdout: the report, the scheme and the manifest
CHECK_PROJECTION_DIGESTS = {
    "case2": "1d95508ec06423b90bbb80b0a558999bf1dbfee8c5d7ceefe22d4620534423b2",
    "case5": "626849a43e50e743bc5d9660205fac5d6d6bdb3ee30d01de99e61044f2ad1a62",
    "colouring": "4cb39d90404f55b6c5b3f9578b59979b17866819ab7ce6cff1144e1b5b4580b7",
    "tie": "53f89e4e65d0a2cec672cf015c99c837c1e9f62fbf49fe68d82a8740a403094a",
}


@pytest.mark.parametrize("name", sorted(CHECK_PROJECTION_DIGESTS))
def test_check_projection_output_is_pinned(capsys, monkeypatch, tmp_path, name):
    source, argv = _check_projection_inputs()[name]
    monkeypatch.chdir(tmp_path)  # the manifest names the input as given
    if isinstance(source, AtomicCSP):
        monkeypatch.setattr(cli, "_load_csp", lambda args: source)
    else:
        (tmp_path / name).write_text(source)
    assert dispatch(["check-projection", "--input", name, "--seed", "3", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_PROJECTION_DIGESTS[name]


@pytest.mark.parametrize("argv", [
    ["check-projection"],
    ["sample", "--eps", "0.1"],
    ["count", "--delta", "0.5"],
], ids=["check-projection", "sample", "count"])
def test_scheme_csp_mismatch_is_usage_error(capsys, tmp_path, cnf_file, argv):
    from lllsample.projection import ProjectionScheme

    wrong = ProjectionScheme((((0, 1),),))  # one variable, CSP has two
    sfile = tmp_path / "wrong.json"
    sfile.write_text(wrong.to_json())
    assert dispatch([*argv, "--input", cnf_file, "--scheme", str(sfile), "--seed", "1"]) == 2
    assert "scheme covers domains" in capsys.readouterr().err


def test_sample_zero_variables(capsys, tmp_path):
    empty = tmp_path / "empty.cnf"
    empty.write_text("p cnf 0 0\n")
    code, payload = _run(capsys, ["sample", "--input", str(empty), "--eps", "0.1", "--seed", "1"])
    assert code == 0
    assert payload["assignment"] == [] and payload["error"] is None
    assert payload["diagnostics"]["steps"] == 0


def test_usage_errors(capsys, tmp_path):
    assert dispatch(["sample", "--input", "missing.cnf", "--eps", "0.1"]) == 2
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert dispatch(["sample", "--input", str(bad), "--eps", "0.1"]) == 2
    assert dispatch(["sample", "--eps", "0.1"]) == 2  # missing --input
    assert dispatch(["nonsense"]) == 2
    hyp = tmp_path / "edge.hyp"
    hyp.write_text("0 1\n")
    assert dispatch(["sample", "--input", str(hyp), "--format", "hypergraph",
                     "--eps", "0.1"]) == 2  # missing --q


@pytest.mark.parametrize("argv, message", [
    (["find", "--eta", "0.3"], "unrecognized arguments: --eta 0.3"),
    (["sample", "--eps", "0.1", "--q", "5"], "--q applies to hypergraph input only"),
    (["count", "--delta", "0.5", "--format", "cnf", "--q", "5"],
     "--q applies to hypergraph input only"),
], ids=["find-eta", "sample-cnf-q", "count-cnf-q"])
def test_options_the_run_would_not_read_are_usage_errors(capsys, cnf_file, argv, message):
    # find constructs no scheme, so it takes no --eta, and CNF input has no
    # colours; neither value may be accepted and written into the manifest
    code = dispatch([*argv, "--input", cnf_file, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err


@pytest.mark.parametrize("command", [["sample", "--eps", "0.1"], ["count", "--delta", "0.5"],
                                     ["check-projection"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("option", [["--case-hint", "case3"], ["--construction-delta", "0.1"]],
                         ids=lambda argv: argv[0])
def test_construction_options_with_a_scheme_file_are_usage_errors(
        capsys, cnf_file, collapsed_scheme_file, command, option):
    # a scheme read from a file is not constructed: the hint or delta would be
    # dropped while the run exits 0
    code = dispatch([*command, *option, "--input", cnf_file, "--scheme", collapsed_scheme_file,
                     "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{option[0]} applies to a constructed scheme" in captured.err


def test_construction_options_with_a_scheme_file_are_refused_before_the_input_is_read(
        capsys, tmp_path, collapsed_scheme_file):
    # the usage error comes first, as for --q, not a parse error of the input
    bad = tmp_path / "bad.cnf"
    bad.write_bytes(b"p cnf 2 1\n1 \xff 0\n")
    assert dispatch(["sample", "--eps", "0.1", "--case-hint", "case3", "--input", str(bad),
                     "--scheme", collapsed_scheme_file]) == 2
    err = capsys.readouterr().err
    assert "--case-hint applies to a constructed scheme" in err and "UTF-8" not in err


@pytest.mark.parametrize("name, data, extra", [
    ("bad.cnf", b"p cnf 2 1\n1 \xff 0\n", []),
    ("bad.hyp", b"0 1\n\xfe 2\n", ["--format", "hypergraph", "--q", "3"]),
])
def test_input_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, name, data, extra):
    path = tmp_path / name
    path.write_bytes(data)
    assert dispatch(["sample", "--input", str(path), "--eps", "0.1", *extra]) == 2
    assert "line 2: input is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("name, data, extra", [
    ("big.cnf", "p cnf 100000000000 0\n", []),
    ("big.hyp", "0 100000000000\n", ["--format", "hypergraph", "--q", "3"]),
])
def test_too_many_variables_is_a_usage_error(capsys, tmp_path, name, data, extra):
    path = tmp_path / name
    path.write_text(data)
    assert dispatch(["count", "--input", str(path), "--delta", "0.5", *extra]) == 2
    assert "past the limit" in capsys.readouterr().err


@pytest.mark.parametrize("q, message", [("10000000000000", "past the limit"),
                                        (str(2**64), "fewer than 2**63")])
def test_colour_count_past_the_limit_is_a_usage_error(capsys, tmp_path, q, message):
    # refused before any per-constraint table is built
    path = tmp_path / "edges.hyp"
    path.write_text("0 1\n1 2\n")
    tracemalloc.start()
    try:
        code = dispatch(["sample", "--input", str(path), "--format", "hypergraph", "--q", q,
                         "--eps", "0.1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err
    assert peak < 4 * 2**20


def test_scheme_file_errors_are_usage_errors(capsys, tmp_path, cnf_file):
    missing = str(tmp_path / "missing.json")
    assert dispatch(["check-projection", "--input", cnf_file, "--scheme", missing]) == 2
    assert "cannot read" in capsys.readouterr().err
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert dispatch(["check-projection", "--input", cnf_file, "--scheme", str(empty)]) == 2
    assert "malformed scheme" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--eps", "0.5"],
    ["sample", "--eps", "0"],
    ["sample", "--eps", "nan"],
    ["count", "--delta", "1"],
    ["find", "--delta", "-0.1"],
    ["sample", "--eps", "0.1", "--construction-delta", "1.5"],
    ["sample", "--eps", "0.1", "--c-t", "-1"],
    ["sample", "--eps", "0.1", "--seed", "-3"],
    ["sample", "--eps", "0.1", "--count", "0"],
    ["sample", "--eps", "0.1", "--count", "-2"],
    ["sample", "--eps", "0.1", "--workers", "0"],
])
def test_out_of_range_options_are_usage_errors(capsys, cnf_file, argv):
    assert dispatch([*argv, "--input", cnf_file]) == 2


@pytest.mark.parametrize("argv, name", [
    (["sample", "--eps", "0.1", "--eta", "1000"], "eta"),
    (["sample", "--eps", "0.1", "--c-t", "1e307"], "c_t"),
    (["sample", "--eps", "0.1", "--c-t", "1e30"], "c_t"),
    (["count", "--delta", "0.5", "--eta", "1000"], "eta"),
    (["count", "--delta", "0.5", "--c-t", "1e307"], "c_t"),
    (["count", "--delta", "0.5", "--c-n", "1e308"], "c_n"),
    (["count", "--delta", "0.5", "--c-n", "1e307"], "c_n"),
], ids=["sample-eta", "sample-c_t-inf", "sample-c_t-int64", "count-eta", "count-c_t",
        "count-c_n-inf", "count-c_n-int64"])
def test_schedule_constants_past_range_are_usage_errors(capsys, cnf_file, collapsed_scheme_file,
                                                        argv, name):
    # a rejection budget or chain length past the float range, or a count
    # numpy cannot hold, is a regime error naming the constant; the
    # collapsed scheme keeps count on the sampling path
    code = dispatch([*argv, "--input", cnf_file, "--seed", "1", "--scheme",
                     collapsed_scheme_file])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"({name} = " in captured.err


def test_internal_value_error_is_not_a_usage_error(cnf_file, monkeypatch):
    import lllsample.dynamics as dynamics

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(dynamics, "glauber_run", broken)
    with pytest.raises(ValueError, match="internal defect"):
        dispatch(["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "1"])


def test_sample_worker_pool_matches_sequential(capsys, cnf_file):
    code1, seq = _run(
        capsys,
        ["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "8", "--count", "3"],
    )
    code2, par = _run(
        capsys,
        ["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "8", "--count", "3",
         "--workers", "2"],
    )
    assert code1 == code2 == 0
    assert seq == par  # ordered by chain index, independent of the pool


def test_env_override_ct(capsys, cnf_file):
    # the manifest records the constant the user set, and the chain runs with it
    code, payload = _run(
        capsys, ["sample", "--input", cnf_file, "--eps", "0.1", "--seed", "4", "--c-t", "0.5"]
    )
    assert code == 0
    assert payload["manifest"]["overrides"]["c_t"] == 0.5
    assert payload["diagnostics"]["c_t"] == 0.5


def _replay_argv(manifest: dict) -> list[str]:
    """The command line that the manifest records."""
    argv = [manifest["command"], "--input", manifest["input"], "--format", manifest["format"],
            "--seed", str(manifest["seed"])]
    for name in ("q", "eta", "epsilon", "delta"):
        if manifest.get(name) is not None:
            argv += [f"--{'eps' if name == 'epsilon' else name}", repr(manifest[name])]
    for name, value in manifest["overrides"].items():
        argv += [f"--{name.replace('_', '-')}", repr(value)]
    return argv


def test_manifest_replays_a_construction_delta(capsys, monkeypatch, tmp_path):
    # --construction-delta sets the construction's attempt count: here the
    # case2 construction succeeds on its 10th attempt, and fails after the 5
    # of the default; the manifest records the value, so the run replays
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.cnf").write_text(random_kcnf_text([0, 110], 200, 110, 12))
    argv = ["check-projection", "--input", "k.cnf", "--seed", "3"]
    assert dispatch(argv) == 1 and capsys.readouterr().out == ""
    assert dispatch([*argv, "--construction-delta", "1e-9"]) == 0
    out = capsys.readouterr().out
    manifest = json.loads(out)["manifest"]
    assert manifest["overrides"] == {"construction_delta": 1e-9}
    assert dispatch(_replay_argv(manifest)) == 0
    assert capsys.readouterr().out == out


def test_every_option_is_recorded_in_the_manifest():
    # an option the manifest leaves out can change a run that the manifest
    # then does not replay; these change no output, or scheme_source names them
    neutral = {"help", "pretty", "workers", "count", "scheme", "case_hint"}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    required = {"sample": ["--eps", "0.1"], "count": ["--delta", "0.5"]}
    for command, p in sub.choices.items():
        args = parser.parse_args([command, "--input", "x.cnf", "--seed", "1",
                                  *required.get(command, [])])
        base = cli._manifest(args, command, cli._resolve_seed(args), None)
        for action in p._actions:
            if action.dest in neutral:
                continue
            changed = argparse.Namespace(**{**vars(args), action.dest: object()})
            manifest = cli._manifest(changed, command, cli._resolve_seed(changed), None)
            assert manifest != base, f"{command}: the manifest leaves out {action.dest}"
