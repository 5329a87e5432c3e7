import contextlib
import copy
import gc
import hashlib
import itertools
import json
import pickle
import re
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lllsample import csp as csp_module
from lllsample.csp import (
    MAX_VARIABLES,
    AtomicConstraint,
    AtomicCSP,
    CSPArrays,
    CSPError,
    ParseError,
    ParserWarning,
    build_coloring_csp,
    degree_stats,
    evaluate,
    parse_dimacs,
    parse_hypergraph,
    write_dimacs,
)
from lllsample.batch import BatchSampler
from lllsample.counting import approx_count
from lllsample.dynamics import Sampler, explore, project_csp
from lllsample.projection import ProjectionScheme, check_admissibility, construct_projection
from lllsample.oracle import count_satisfying
from lllsample.resample import find_assignment
from conftest import random_kcnf_text, star_instance, uniform_csp
from reference import incidence, violated_by_partial


def test_parse_basic_clause():
    csp = parse_dimacs("p cnf 2 1\n1 -2 0")
    assert csp.n == 2 and csp.m == 1
    c = csp.constraints[0]
    assert c.vars == (0, 1) and c.forbidden == (0, 1)


def test_parse_no_clauses():
    csp = parse_dimacs("p cnf 3 0")
    assert csp.n == 3 and csp.m == 0


def test_parse_tautology_dropped_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        csp = parse_dimacs("p cnf 1 1\n1 -1 0")
    assert csp.n == 1 and csp.m == 0
    assert any(issubclass(w.category, ParserWarning) for w in caught)


def test_parse_duplicate_literal_deduplicated():
    csp = parse_dimacs("p cnf 2 1\n1 1 2 0")
    assert csp.constraints[0].vars == (0, 1)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_dimacs("p cnf 2 1\n1 3 0")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("p dnf 2 1\n1 2 0")
    with pytest.raises(ParseError, match="declares"):
        parse_dimacs("p cnf 2 2\n1 2 0")
    with pytest.raises(ParseError, match="unterminated"):
        parse_dimacs("p cnf 2 1\n1 2")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("1 2 0")


def test_parse_comments_and_multi_clause_lines():
    csp = parse_dimacs("c comment\np cnf 3 2\n1 2 0 -2 3 0\n")
    assert csp.m == 2
    assert csp.constraints[1].forbidden == (1, 0)


def test_evaluate_and_partial():
    csp = uniform_csp(2, 2, [((0, 1), (0, 1))])
    assert evaluate(csp, (0, 1)) == [0]
    assert evaluate(csp, (0, 0)) == []
    assert violated_by_partial(csp, (None, None)) == [0]
    assert violated_by_partial(csp, (1, None)) == []
    assert violated_by_partial(csp, (0, None)) == [0]
    with pytest.raises(CSPError):
        evaluate(csp, (0, None))
    ones = uniform_csp(2, 2, [((0, 1), (1, 1))])
    assert violated_by_partial(ones, (1, None)) == [0]


def test_no_constraints_evaluate_empty():
    csp = uniform_csp(2, 2, [])
    assert evaluate(csp, (1, 0)) == []
    assert violated_by_partial(csp, (None, None)) == []


def test_degree_stats_examples():
    one = uniform_csp(3, 2, [((0, 1, 2), (0, 0, 0))])
    assert degree_stats(one)[:2] == (1, 3)
    disjoint = uniform_csp(4, 2, [((0, 1), (0, 0)), ((2, 3), (0, 0))])
    assert degree_stats(disjoint)[0] == 1
    hub = uniform_csp(4, 2, [((0, 1), (0, 0)), ((0, 2), (0, 0)), ((0, 3), (0, 0))])
    assert degree_stats(hub)[0] == 3
    assert degree_stats(uniform_csp(2, 2, [])) == (0, 0, [])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_degree_matches_quadratic_scan(data):
    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(0, 24))
    q = data.draw(st.sampled_from([None, 2, 3]))  # None: random clauses, else a q-colouring
    cons = []
    for _ in range(m if q is None else m // 3):
        k = data.draw(st.integers(1, min(3, n)))
        vars_ = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))))
        if q is None:
            cons.append((vars_, tuple(data.draw(st.integers(0, 1)) for _ in vars_)))
        else:  # q constraints on the edge, each listing its variables in a shuffled order
            cons += [(data.draw(st.permutations(vars_)), (color,) * k) for color in range(q)]
    if cons:  # constraints repeated verbatim, anywhere in the order
        cons = data.draw(st.permutations(cons + data.draw(st.lists(st.sampled_from(cons),
                                                                   max_size=6))))
    csp = uniform_csp(n, q or 2, cons)
    delta, _, degrees = degree_stats(csp)
    brute = [
        sum(1 for other in csp.constraints if set(c.vars) & set(other.vars))
        for c in csp.constraints
    ]
    assert degrees == brute
    assert delta == (max(brute) if brute else 0)


def test_degree_stats_on_stars():
    # hubs of high degree: the counts match the pairwise scan, and a hub in
    # each of m constraints costs no table of m rows by m
    small = star_instance(2, 3, 30, n_stars=3)
    brute = [sum(1 for other in small.constraints if set(c.vars) & set(other.vars))
             for c in small.constraints]
    assert degree_stats(small) == (30, 3, brute)
    hub = star_instance(2, 3, 2000, n_stars=1)
    tracemalloc.start()
    try:
        assert degree_stats(hub)[0] == 2000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # (m, k * m) 32-bit neighbour ids would take 48 MB


def test_find_assignment_memory_follows_the_input_on_a_hub():
    # one variable in all 2,000 constraints: the constraints by variable take
    # memory by the sum of arities, not n rows as wide as the hub's degree
    hub = star_instance(2, 3, 2000, n_stars=1)
    hub.arrays
    tracemalloc.start()
    try:
        result = find_assignment(hub, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.success and result.resamples > 0
    assert peak < 8 * 2**20  # a padded (n + 1, 2000) table of ids would take 62 MB


def _hub_sampler():
    """A Sampler on a star of 1,000 constraints at one hub variable, under a
    scheme of singletons, with inc_flat already built."""
    hub = star_instance(2, 3, 1000, n_stars=1)
    assert _by_variable(hub) == incidence(hub)
    return Sampler(hub, ProjectionScheme((((0,), (1,)),) * hub.n), 0.1)


def test_step_tables_are_filled_in_place_on_a_hub():
    # the batch driver's tables by variable are as wide as the hub's degree;
    # they are written once, from the flat index, with no second padded copy
    sampler = _hub_sampler()
    tracemalloc.start()
    try:
        tables = sampler.step_tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.shape == (1000, sampler.csp.n + 1) for t in tables)
    assert peak < 1.25 * sum(t.nbytes for t in tables)  # 2.3 times from padded incidence tables


def test_explore_memory_follows_the_input_on_a_hub():
    # a component grows through the variables of its constraints, with no
    # padded (m, degree) table of neighbours
    sampler = _hub_sampler()
    m, P = sampler.csp.m, 10
    seed = np.zeros((m, P), dtype=bool)
    seed[np.arange(P), np.arange(P)] = True
    tracemalloc.start()
    try:
        comp = explore(sampler.csp, np.ones((m, P), dtype=bool), seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.all()  # every constraint holds the hub
    assert peak < 8 * 2**20  # the (m, 1000) table of neighbours alone takes 8 MB


def test_parse_memory_follows_the_input(workload_cnfs):
    # the kcnf-solve operation's 4-CNF, 231 kB of text: clause by clause,
    # parsing peaked at 5.7 MB and kept 4.4 MB at 0.9.0; the numpy path
    # drops its temporaries as it goes
    parse_dimacs(random_kcnf_text([22, 5], 100, 400, 4))  # numpy's first-call set-up
    tracemalloc.start()
    try:
        csp = parse_dimacs(workload_cnfs["4-cnf"])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csp.m == 10000
    assert peak < 6.0 * 2**20 and kept < 4.6 * 2**20


def _by_variable(csp):
    """Each variable's constraint ids, as lists, read from CSPArrays.inc_flat."""
    ids, offsets = csp.arrays.inc_flat
    return [ids[i:j].tolist() for i, j in zip(offsets[:-1], offsets[1:])]


def _table_digest(csp):
    digest = hashlib.sha256()
    a = csp.arrays
    for table in (a.domains, a.vc, a.forb, a.arity):
        digest.update(repr(table.shape).encode() + np.ascontiguousarray(table, np.int64).tobytes())
    digest.update(json.dumps(_by_variable(csp)).encode())
    return digest.hexdigest()


# sha256 over the tables and each variable's constraint ids of parse_dimacs
# on random CNFs of the kcnf-solve benchmark's sizes, and for the 8-CNF over
# those of project_csp under a case2 scheme.  Recorded at 0.9.0, before parsing built its tables
# with numpy.
PARSE_DIGESTS = {
    "4-cnf": "0c18471787b7536a725ca63281eae2abce8993965bd56dd4fb2fb5f46d3a9236",
    "8-cnf": "501aa6b11d6af54538fbe01b789ff78eacb69293b6ae15af8635bc1148fe886f",
    "8-cnf projected": "ac3b0ceb7bca5563ebe228cfbb6c44233b3cbae884378f28497942820ed61b71",
}


@pytest.fixture(scope="module")
def workload_cnfs():
    return {"4-cnf": random_kcnf_text([22, 4], 5000, 10000, 4),
            "8-cnf": random_kcnf_text([22, 8], 5000, 2000, 8)}


@pytest.mark.parametrize("part", sorted(PARSE_DIGESTS))
def test_parsing_is_pinned_at_workload_scale(part, workload_cnfs):
    csp = parse_dimacs(workload_cnfs[part.split()[0]])
    if part.endswith("projected"):
        csp = project_csp(csp, construct_projection(csp, seed=[22, 1]))
    assert _table_digest(csp) == PARSE_DIGESTS[part]


def _tables(csp):
    a = csp.arrays
    return [t.tolist() for t in (a.domains, a.vc, a.forb, a.arity)]


def _projected(csp, scheme):
    """project_csp(csp, scheme) from its definition, built from its constraints."""
    return AtomicCSP(csp.n, scheme.q_sizes(), [
        AtomicConstraint(c.vars, tuple(map(scheme.project_value, c.vars, c.forbidden)))
        for c in csp.constraints], allow_unit_domains=True)


def _count_instance():
    """6 disjoint 5-clauses at n=30, built from their tables, and a scheme
    that keeps two variables of each clause movable: a count of blocks 5 + 1,
    whose second stage runs the chain."""
    rng = np.random.default_rng(0)
    lines = ["p cnf 30 6"] + [" ".join(str((5 * j + i + 1) * (1 if rng.integers(2) else -1))
                                       for i in range(5)) + " 0" for j in range(6)]
    a = parse_dimacs("\n".join(lines) + "\n").arrays
    csp = AtomicCSP._of_arrays(30, (2,) * 30, a.vc, a.forb, a.arity)
    return csp, ProjectionScheme(tuple(((0, 1),) if ch == "c" else ((0,), (1,))
                                       for ch in "iiccc" * 6))


def test_setup_path_builds_no_constraint_objects(workload_cnfs):
    # the kcnf-solve set-up and operation, a colouring's set-up, a single
    # chain with busy steps, a count through a chain stage and the readers
    # of an instance read the tables alone; the constraints, built when
    # first read, are those of the clause-by-clause reader and the
    # definitions of the projection and of a colouring
    built = []
    make, check = csp_module._constraint, AtomicConstraint.__post_init__

    def spy_make(*args):
        built.append(args)
        return make(*args)

    def spy_check(self):
        built.append(self)
        check(self)

    edges = [(0, 1, 2), (2, 3, 4), (4, 5, 0)]
    counted, count_scheme = _count_instance()
    text12 = random_kcnf_text(1, 200, 60, 12)
    with mock.patch.object(csp_module, "_constraint", spy_make), \
            mock.patch.object(AtomicConstraint, "__post_init__", spy_check):
        csp8 = parse_dimacs(workload_cnfs["8-cnf"])
        scheme = construct_projection(csp8, seed=[22, 1])
        check_admissibility(csp8, scheme, 0.25)
        pcsp = project_csp(csp8, scheme)
        csp4 = parse_dimacs(workload_cnfs["4-cnf"])
        assert find_assignment(csp4, np.random.default_rng(5)).success
        coloring = build_coloring_csp(edges, 4)
        construct_projection(coloring, seed=[22, 1])
        csp12 = parse_dimacs(text12)
        sampler = Sampler(csp12, construct_projection(csp12, seed=[1, 1]), 0.1, c_t=0.05)
        x = sampler.sample_one(seed=1).assignment
        assert any(entry is not None for entry in sampler.groups.entries)  # _draw_entries ran
        est = approx_count(counted, count_scheme, 0.5, seed=0, c_t=0.01)
        assert [stage["sampler"] for stage in est.stages[1:]] == ["exact", "chain"]
        readers = (count_satisfying(coloring), evaluate(coloring, [0] * 6), evaluate(csp12, x),
                   write_dimacs(csp12), degree_stats(csp12))
        assert not built
    expect8 = csp_module._dimacs_clauses(workload_cnfs["8-cnf"])
    expect12 = csp_module._dimacs_clauses(text12)
    expect_coloring = AtomicCSP(6, (4,) * 6, [AtomicConstraint(sorted(e), (color,) * 3)
                                              for e in edges for color in range(4)])
    assert readers == (count_satisfying(expect_coloring), [0, 4, 8], [], write_dimacs(expect12),
                       degree_stats(expect12))
    for csp, expect in ((csp8, expect8), (pcsp, _projected(expect8, scheme)),
                        (csp4, csp_module._dimacs_clauses(workload_cnfs["4-cnf"])),
                        (coloring, expect_coloring), (csp12, expect12)):
        assert _by_variable(csp) == incidence(expect) and _tables(csp) == _tables(expect)
        assert "constraints" not in csp.__dict__
        assert csp.constraints == expect.constraints and csp == expect
        assert csp.arrays.degrees == expect.arrays.degrees


def test_batch_driver_builds_no_constraint_objects():
    # the batch driver reads a table-built instance's tables alone
    csp = parse_dimacs(random_kcnf_text(3, 300, 30, 10))
    assert "arrays" in csp.__dict__  # built from its tables
    sampler = BatchSampler(csp, construct_projection(csp, seed=1), 0.1, c_t=0.01)
    sampler.step_tables
    assert sampler.sample(20, seed=1).ok.all()
    assert "constraints" not in csp.__dict__


def _table_built():
    """(instance, the same built from its constraints) of each kind the
    library builds from tables: a DIMACS input past _TABLES_FROM_CHARS, and
    its projection."""
    text = random_kcnf_text([7], 120, 50, 8)
    assert len(text) >= csp_module._TABLES_FROM_CHARS
    expect = csp_module._dimacs_clauses(text)
    scheme = construct_projection(expect, seed=3)
    return [(lambda: parse_dimacs(text), expect),
            (lambda: project_csp(parse_dimacs(text), scheme), _projected(expect, scheme))]


@pytest.mark.parametrize("kind", [0, 1], ids=["parsed", "projected"])
def test_table_built_instances_behave_like_any_other(kind):
    build, expect = _table_built()[kind]
    for read in (False, True):
        csp = build()
        if read:
            csp.constraints
        copies = [pickle.loads(pickle.dumps(csp)), copy.deepcopy(csp)]
        for got in (csp, *copies):
            assert ("constraints" in got.__dict__) == read and got.m == expect.m
            assert (got.arrays is csp.arrays) == (got is csp) and _tables(got) == _tables(expect)
            assert got == expect and hash(got) == hash(expect) and repr(got) == repr(expect)
            assert _by_variable(got) == incidence(expect)
            assert evaluate(got, [0] * got.n) == evaluate(expect, [0] * got.n)
            assert not hasattr(got, "vars")


def test_tables_do_not_keep_their_instance_alive():
    # CSPArrays is plain data with no reference back to its instance: with
    # the cycle collector off, an instance dies once dropped, built from its
    # constraints or from its tables, while its tables and the index by
    # variable, degrees and mask derived from them stay in use; degree_stats
    # builds no index by variable, so the test reads inc_flat itself
    text = random_kcnf_text([7], 120, 50, 8)
    builds = [lambda: csp_module._dimacs_clauses(text), lambda: parse_dimacs(text)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build in builds:
            csp = build()
            a, stats = csp.arrays, degree_stats(csp)
            ids, offsets = a.inc_flat
            instance = weakref.ref(csp)
            del csp
            assert instance() is None
            expect = build()
            assert stats == degree_stats(expect) and a.degrees == expect.arrays.degrees
            assert a.constrained.tolist() == [len(at) > 0 for at in incidence(expect)]
            assert [ids[i:j].tolist() for i, j in zip(offsets, offsets[1:])] == incidence(expect)
    finally:
        if enabled:
            gc.enable()


def test_set_up_builds_no_index_by_variable():
    # parse, construct, check, project and a single chain read the (k, m)
    # tables alone; only the many-chain driver's step tables and the
    # resampling solver build the flat index inc_flat
    text = random_kcnf_text([7], 120, 50, 8)
    csp = parse_dimacs(text)
    scheme = construct_projection(csp, seed=3)
    check_admissibility(csp, scheme, 0.25)
    pcsp = project_csp(csp, scheme)
    assert Sampler(csp, scheme, 0.25, c_t=0.02).sample_one(seed=1).ok
    assert "inc_flat" not in csp.arrays.__dict__ and "inc_flat" not in pcsp.arrays.__dict__
    BatchSampler(csp, scheme, 0.25, c_t=0.02).sample(2, seed=1)
    assert "inc_flat" in csp.arrays.__dict__
    again = parse_dimacs(text)
    assert find_assignment(again, np.random.default_rng(1)).success
    assert "inc_flat" in again.arrays.__dict__


def test_sampler_on_a_table_built_instance_pickles():
    # CLI sample --workers ships the sampler to its workers
    build, expect = _table_built()[0]
    csp = build()
    scheme = construct_projection(expect, seed=4)
    sampler = Sampler(csp, scheme, 0.25, c_t=0.02)
    shipped = pickle.loads(pickle.dumps(sampler))
    assert "constraints" not in shipped.csp.__dict__ and shipped.csp == expect
    outcome = [s.sample_one(seed=9).assignment for s in (sampler, shipped)]
    assert outcome == [Sampler(expect, scheme, 0.25, c_t=0.02).sample_one(seed=9).assignment] * 2


def _parse_outcome(text, tables_from):
    """What parse_dimacs makes of text when inputs of tables_from characters
    or more try the numpy path first: the instance, its index by variable and tables,
    or the ParseError's message and line; and the warnings, in order."""
    with mock.patch.object(csp_module, "_TABLES_FROM_CHARS", tables_from), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            csp = parse_dimacs(text)
        except ParseError as exc:
            result = ("ParseError", str(exc), exc.line)
        else:
            result = (csp, _by_variable(csp), _tables(csp))
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_paths_agree(text):
    by_clause = _parse_outcome(text, float("inf"))
    assert _parse_outcome(text, 0) == by_clause
    assert _parse_outcome(text, csp_module._TABLES_FROM_CHARS) == by_clause
    return by_clause


# tokens that int() and numpy read differently, or that make a document
# malformed; "{n+1}" is a literal just out of range
_DIMACS_TRAPS = ["x", "-", "+", "--1", "+5", "1_000", "\u0663", "99999999999999999999",
                 "-99999999999999999999", "0", "1", "5-", "1.5", "0x1", "\u00a0", "\x1f", "%",
                 "c", "p", "p cnf 3 1", "{n+1}", "-{n+1}"]


@st.composite
def _dimacs_documents(draw):
    """(text, regular): a random DIMACS document, regular when it has no
    inserted trap and its header counts its clauses."""
    n = draw(st.integers(1, 12))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5), max_size=30))
    tokens = [str(lit) for clause in clauses for lit in clause + [0]]
    traps = draw(st.lists(st.tuples(st.integers(0, len(tokens)), st.sampled_from(_DIMACS_TRAPS)),
                          max_size=2))
    for at, trap in traps:
        tokens.insert(at, trap.replace("{n+1}", str(n + 1)))
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n", " \n", "\r\n", "\nc note\n"]),
                         min_size=len(tokens), max_size=len(tokens)))
    extra = draw(st.sampled_from([0, 0, 0, 1, -1]))
    text = (draw(st.sampled_from(["", "c " + "x" * csp_module._TABLES_FROM_CHARS + "\n"]))
            + f"p cnf {n} {len(clauses) + extra}\n" + "".join(map(str.__add__, tokens, seps))
            + draw(st.sampled_from(["", "\n%\n0\n"])))
    return text, not traps and extra == 0


@given(_dimacs_documents())
@settings(max_examples=300, deadline=None)
def test_table_and_clause_parsers_agree(document):
    # the numpy path gives the clause-by-clause parser's instance, or leaves
    # the input to it: same tables, index by variable, errors and warnings
    text, regular = document
    result, caught = _assert_paths_agree(text)
    if regular and not caught:
        assert csp_module._dimacs_tables(text) == result[0]


_FILLER = "1 -2 3 0\n" * 400  # past _TABLES_FROM_CHARS


_TRAPS_AT_SCALE = [
    # lines of whitespace alone: numpy reads "  " as [0]
    ("p cnf 3 0\n" + "  \t \n" * 1000, 0),
    ("p cnf 3 1\n" + "  \t \n" * 1000, ("header declares 1 clauses but 0 found", None)),
    ("p cnf 3 401\n" + _FILLER + "1 \x1f 2 0\n", 401),
    # numpy clamps past int64
    ("p cnf 3 401\n" + _FILLER + "99999999999999999999 0\n",
     ("line 402: literal 99999999999999999999 out of range (n=3)", 402)),
    ("p cnf 3 401\n" + _FILLER + "-99999999999999999999 0\n",
     ("line 402: literal -99999999999999999999 out of range (n=3)", 402)),
    # int() reads these, numpy only "+5"
    ("p cnf 1000 401\n" + _FILLER + "1_000 0\n", 401),
    ("p cnf 5 401\n" + _FILLER + "+5 -1 0\n", 401),
    ("p cnf 5 401\n" + _FILLER + "\u0663 -\u0661 0\n", 401),
    # a lone sign: numpy reads it as 0 or as the next number's sign
    ("p cnf 5 401\n" + _FILLER + "- 5 0\n", ("line 402: bad token '-'", 402)),
    ("p cnf 5 401\n" + _FILLER + "5 0 -\n", ("line 402: bad token '-'", 402)),
    # the clause-by-clause reader's errors, among many clauses
    ("p cnf 3 401\n" + _FILLER + "1 x 0\n", ("line 402: bad token 'x'", 402)),
    ("p cnf 3 400\n" + _FILLER + "x\n", ("line 402: bad token 'x'", 402)),
    ("p cnf 3 401\n" + _FILLER + "1 4 0\n", ("line 402: literal 4 out of range (n=3)", 402)),
    ("p cnf 3 402\n" + _FILLER + "1 0 0\n", ("line 402: empty clause", 402)),
    ("p cnf 3 401\n" + _FILLER + "1 0 2\n", ("line 402: unterminated clause at end of input", 402)),
    ("p cnf 3 400\n" + _FILLER + "p cnf 3 400\n", ("line 402: duplicate problem line", 402)),
    # SATLIB's trailer
    ("p cnf 3 400\n" + _FILLER + "%\n0\n\n", 400),
    ("p cnf 3 401\n" + _FILLER + "%\n0\n\n", ("header declares 401 clauses but 400 found", None)),
    # a tautology among many clauses: dropped with a warning naming its line
    ("p cnf 3 801\n" + _FILLER + "2 -2 0\n" + _FILLER, 800),
]
_TRAP_IDS = ["blank", "blank-miscounted", "unit-separator", "past-int64", "past-int64-negative",
             "underscore", "plus-sign", "non-ascii-digits", "lone-sign", "trailing-sign",
             "bad-token", "bad-token-after-last-clause", "out-of-range", "empty-clause", "unterminated", "duplicate-header", "trailer",
             "trailer-miscounted", "tautology"]


@pytest.mark.parametrize("text, expect", _TRAPS_AT_SCALE, ids=_TRAP_IDS)
def test_parser_traps_at_scale(text, expect):
    result, caught = _assert_paths_agree(text)
    assert result[0].m == expect if isinstance(expect, int) else result[1:] == expect
    assert caught == ([(ParserWarning, "line 402: tautological clause dropped")]
                      if "2 -2" in text else [])


def _fromstring_before_2(fromstring):
    """np.fromstring as numpy before 2.0 reads text: a token it cannot read
    ends the read with a DeprecationWarning, and the numbers before it are
    returned."""
    def read(string, dtype, sep):
        try:
            return fromstring(string, dtype=dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end due to unmatched data",
                          DeprecationWarning, stacklevel=2)
            numbers = itertools.takewhile(re.compile("[+-]?[0-9]+").fullmatch, string.split())
            return np.array(list(map(int, numbers)), dtype=dtype)
    return read


@pytest.mark.parametrize("text, expect", _TRAPS_AT_SCALE, ids=_TRAP_IDS)
def test_parser_traps_under_numpy_before_2(text, expect):
    # a partial read is left to the clause-by-clause reader, and its warning
    # reaches no caller
    with mock.patch.object(np, "fromstring", _fromstring_before_2(np.fromstring)):
        test_parser_traps_at_scale(text, expect)


def test_dimacs_round_trip():
    text = "p cnf 4 3\n1 -2 0\n-3 4 0\n2 3 4 0\n"
    csp = parse_dimacs(text)
    again = parse_dimacs(write_dimacs(csp))
    assert again.n == csp.n
    assert sorted((c.vars, c.forbidden) for c in again.constraints) == sorted(
        (c.vars, c.forbidden) for c in csp.constraints
    )


def test_satlib_trailer_ends_the_formula():
    # SATLIB's files end with a line "%" and then a line "0", which is no clause
    body = "p cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
    assert parse_dimacs(body + "%\n0\n\n") == parse_dimacs(body)
    with pytest.raises(ParseError, match="declares 3 clauses but 2 found"):
        parse_dimacs(body.replace("p cnf 3 2", "p cnf 3 3") + "%\n0\n\n")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_dimacs_round_trip_random(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 8))
    cons = []
    for _ in range(m):
        k = data.draw(st.integers(1, n))
        vars_ = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))))
        forb = tuple(data.draw(st.integers(0, 1)) for _ in vars_)
        cons.append((vars_, forb))
    csp = uniform_csp(n, 2, cons)
    again = parse_dimacs(write_dimacs(csp))
    assert again.n == csp.n
    assert sorted((c.vars, c.forbidden) for c in again.constraints) == sorted(
        (c.vars, c.forbidden) for c in csp.constraints
    )


def test_input_that_is_not_utf8_is_a_parse_error():
    # the error names the first line that does not decode, as the parser
    # counts lines; text before it is unaffected
    for text, line in [(b"p cnf 2 1\n1 \xff 0\n", 2), (b"\xc3(", 1),
                       (b"c \xe2\x82\xac\r\np cnf 1 1\r\n1 0 \x80\n", 3)]:
        with pytest.raises(ParseError, match="not UTF-8") as caught:
            parse_dimacs(text)
        assert caught.value.line == line
    with pytest.raises(ParseError, match="line 3: input is not UTF-8"):
        parse_hypergraph(b"0 1 # \xe2\x82\xac\n1 2\n\xfe 3\n")
    assert parse_hypergraph("0 1 # \u20ac\n".encode()) == [(0, 1)]


def test_variable_count_past_the_limit_is_refused_before_allocating():
    # the refusal comes before any per-variable table: nothing near n is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 2: header declares 100000000000 variables"):
            parse_dimacs("c big\np cnf 100000000000 0\n")
        with pytest.raises(CSPError, match="past the limit"):
            build_coloring_csp(parse_hypergraph("0 100000000000\n"), 3)
        with pytest.raises(CSPError, match="past the limit"):
            build_coloring_csp([(0, 1)], 3, n=MAX_VARIABLES + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_colour_count_past_the_limit_is_refused_before_allocating():
    # edges times colours is the constraint count: past MAX_VARIABLES, or a
    # colour count past int64, is refused before any per-constraint table
    edges = [(0, 1), (1, 2, 3)]
    tracemalloc.start()
    try:
        for q, message in ((10**13, "20000000000000 constraints, past the limit of 10000000"),
                           (MAX_VARIABLES // 2 + 1, "10000002 constraints, past the limit"),
                           (2**63, f"need at least 2 colors and fewer than 2**63, got {2**63}")):
            with pytest.raises(CSPError, match=re.escape(message)):
                build_coloring_csp(edges, q)
        with pytest.raises(CSPError, match=re.escape("fewer than 2**63")):
            build_coloring_csp([], 2**64, n=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert build_coloring_csp([], 10**13, n=2).domains == (10**13, 10**13)


# Fuzz inputs are parser words, small integers, random bytes and whitespace,
# or a valid document with a few short edits that insert no ASCII digit.  So
# every integer in them stays small, and so does every parsed instance.
def _fuzz_input(words, documents):
    token = st.one_of(st.sampled_from(words), st.integers(-9, 9).map(lambda i: b"%d" % i),
                      st.binary(max_size=3))
    separator = st.sampled_from([b" ", b"\t", b"\n", b"\r\n", b" \n"])
    soup = st.lists(st.tuples(token, separator), max_size=30).map(
        lambda parts: b"".join(t + sep for t, sep in parts))
    no_digit = st.binary(max_size=3).filter(lambda b: not any(48 <= c <= 57 for c in b))
    edits = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3), no_digit), max_size=3)

    def edited(doc, edits):
        for at, cut, new in edits:
            at %= len(doc) + 1
            doc = doc[:at] + new + doc[at + cut:]
        return doc

    return st.one_of(soup, st.builds(edited, st.sampled_from(documents), edits))


def _parses_or_names_a_line(parse, data):
    """parse(data), or None after a ParseError whose line, when set, is one
    of the input's lines."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParserWarning)
            return parse(data)
    except ParseError as exc:
        if exc.line is not None:
            assert 1 <= exc.line <= len(data.decode("utf-8", "replace").splitlines())
        return None


@given(_fuzz_input([b"p cnf", b"p", b"c", b"%", b"0", b"1 -2 0", b"x"],
                   [b"p cnf 3 2\n1 -2 0\n2 3 -1 0\n", b"c x\np cnf 4 1\n-4 1 1 0\n",
                    b"p cnf 2 0\n", b"p cnf 3 1\n1 -1 0\n"]))
@settings(max_examples=300, deadline=None)
def test_dimacs_parser_fuzz(data):
    csp = _parses_or_names_a_line(parse_dimacs, data)
    assert csp is None or all(size == 2 for size in csp.domains)


@given(_fuzz_input([b"#", b"# 1 2", b"0 1", b"-1", b"x"],
                   [b"0 1 2\n2 3\n", b"# edges\n0 1  # one\n\n1 2 3\n"]))
@settings(max_examples=300, deadline=None)
def test_hypergraph_parser_fuzz(data):
    # a parsed edge list may still be no colouring instance (a repeated or a
    # lone vertex): CSPError, not a parse failure
    edges = _parses_or_names_a_line(parse_hypergraph, data)
    if edges is not None:
        with contextlib.suppress(CSPError):
            build_coloring_csp(edges, q=3)


def test_coloring_builder():
    csp = build_coloring_csp([(0, 1, 2)], q=2)
    assert csp.m == 2
    assert {c.forbidden for c in csp.constraints} == {(0, 0, 0), (1, 1, 1)}
    assert build_coloring_csp([(0, 1), (1, 2)], q=3).m == 6
    assert degree_stats(build_coloring_csp([(0, 1, 2)], q=2))[0] == 2
    with pytest.raises(CSPError):
        build_coloring_csp([(0, 0, 1)], q=2)
    with pytest.raises(CSPError):
        build_coloring_csp([()], q=2)
    with pytest.raises(CSPError):
        build_coloring_csp([(0,)], q=2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coloring_tables_match_its_constraints(data):
    # mixed edge sizes, so padded columns, and vertices in any order
    n, q = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 4))
    edges = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=4,
                                        unique=True), max_size=6))
    csp = build_coloring_csp(edges, q, n=n)
    expect = AtomicCSP(n, (q,) * n, [AtomicConstraint(tuple(sorted(e)), (color,) * len(e))
                                     for e in edges for color in range(q)])
    assert csp == expect and _by_variable(csp) == incidence(expect)
    built = CSPArrays.build(expect)
    for name in ("domains", "vc", "forb", "arity"):
        table, want = getattr(csp.arrays, name), getattr(built, name)
        assert table.dtype == want.dtype and table.flags.c_contiguous
        assert table.tolist() == want.tolist()


def test_hypergraph_parser():
    edges = parse_hypergraph("# comment\n0 1 2\n2 3 4  # trailing\n\n")
    assert edges == [(0, 1, 2), (2, 3, 4)]
    with pytest.raises(ParseError):
        parse_hypergraph("0 x 2")


def test_constraint_validation():
    with pytest.raises(CSPError):
        AtomicConstraint((0, 0), (1, 1))
    with pytest.raises(CSPError):
        AtomicConstraint((0,), (0, 1))
    with pytest.raises(CSPError):
        AtomicConstraint((), ())
    with pytest.raises(CSPError):
        uniform_csp(1, 1, [])
    with pytest.raises(CSPError):
        uniform_csp(2, 2, [((0, 5), (0, 0))])
    with pytest.raises(CSPError):
        uniform_csp(2, 2, [((0, 1), (0, 2))])


def _first_problem(n, domains, constraints, min_size):
    """The first problem of an instance in the order it is checked: each
    alphabet, then each (constraint, position) in turn, as 0.9.0 did."""
    if n != len(domains):
        return f"n={n} but {len(domains)} domains given"
    for v, size in enumerate(domains):
        if size < min_size:
            return f"variable {v} has alphabet size {size} < {min_size}"
    for cid, (vars_, forbidden) in enumerate(constraints):
        for v, value in zip(vars_, forbidden):
            if not 0 <= v < n:
                return f"constraint {cid} references variable {v} out of range"
            if not 0 <= value < domains[v]:
                return f"constraint {cid} forbids value {value} outside alphabet of variable {v}"
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_instance_check_names_the_first_bad_position(data):
    n = data.draw(st.integers(0, 5))
    unit = data.draw(st.booleans())
    # mostly valid entries, so that one bad entry is often the only one
    size = st.one_of(st.integers(2, 4), st.integers(2, 4), st.integers(0, 4))
    domains = tuple(data.draw(st.lists(size, min_size=n, max_size=n + (n < 3))))
    var = st.integers(0, n - 1) if n else st.nothing()
    var = st.one_of(var, var, var, st.sampled_from([-1, n]))
    value = st.one_of(st.integers(0, 1), st.integers(0, 1), st.integers(-1, 3))
    cons = [(tuple(vs), tuple(data.draw(value) for _ in vs))
            for vs in data.draw(st.lists(st.lists(var, min_size=1, max_size=3, unique=True),
                                         max_size=6))]
    expect = _first_problem(n, domains, cons, 1 if unit else 2)
    vc = np.full((max((len(vs) for vs, _ in cons), default=0), len(cons)), n, dtype=np.int64)
    forb = np.full(vc.shape, -2, dtype=np.int64)
    for cid, (vs, fs) in enumerate(cons):
        vc[: len(vs), cid], forb[: len(fs), cid] = vs, fs
    arity = np.array([len(vs) for vs, _ in cons] + [-1], dtype=np.int64)
    for build in (lambda: AtomicCSP(n, domains, [AtomicConstraint(*c) for c in cons], unit),
                  lambda: AtomicCSP._of_arrays(n, domains, vc, forb, arity,
                                               allow_unit_domains=unit)):
        if expect is None:
            csp = build()
            by_objects = AtomicCSP(n, domains, [AtomicConstraint(*c) for c in cons], unit)
            assert csp == by_objects and _by_variable(csp) == incidence(by_objects)
        else:
            with pytest.raises(CSPError) as caught:
                build()
            assert str(caught.value) == expect


@pytest.mark.parametrize("domains, cons, message", [
    ((2, 4), [((1,), (3,)), ((0,), (3,))], "constraint 1 forbids value 3 outside alphabet of variable 0"),
    ((2, 2), [((0, 2), (0, 0))], "constraint 0 references variable 2 out of range"),
    ((2, 2), [((0,), (0,)), ((-1, 1), (0, 0))], "constraint 1 references variable -1 out of range"),
    ((2, 2), [((1, 0), (0, -1))], "constraint 0 forbids value -1 outside alphabet of variable 0"),
    ((2, 3), [((1, 0), (2, 2)), ((0,), (5,))], "constraint 0 forbids value 2 outside alphabet of variable 0"),
    ((2, 1), [], "variable 1 has alphabet size 1 < 2"),
])
def test_instance_check_messages(domains, cons, message):
    with pytest.raises(CSPError, match=f"^{message}$"):
        AtomicCSP(len(domains), domains, [AtomicConstraint(*c) for c in cons])


def test_inc_forb_lists_each_variables_forbidden_value():
    # under a scheme of singletons the step tables list each variable's
    # constraints and the value each forbids there, unprojected
    csp = parse_dimacs("p cnf 4 3\n1 -2 0\n-2 3 4 0\n-1 -4 0\n")
    inc, inc_forb, _ = Sampler(csp, ProjectionScheme((((0,), (1,)),) * csp.n), 0.1).step_tables
    for v, at in enumerate(incidence(csp)):
        cids = [cid for cid in inc[:, v].tolist() if cid < csp.m]
        assert cids == at
        expect = [csp.constraints[cid].forbidden_at(v) for cid in cids]
        assert inc_forb[:, v].tolist() == expect + [-2] * (inc.shape[0] - len(cids))
    assert (inc_forb[:, csp.n] == -2).all()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flat_index_lists_each_variables_constraints(data):
    # mixed arities, so padded columns, and variables in no constraint; the
    # batch driver's step tables, gathered from the flat index, under a
    # scheme with blocks of two and three values, so that they hold
    # projected forbidden values
    n = data.draw(st.integers(1, 8))
    cons = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4),
                                       unique=True), max_size=12))
    forbidden = [data.draw(st.lists(st.integers(0, 2), min_size=len(c), max_size=len(c)))
                 for c in cons]
    csp = uniform_csp(n, 3, list(zip(cons, forbidden)))
    ids, offsets = csp.arrays.inc_flat
    by_var = incidence(csp)
    assert offsets.shape == (n + 1,) and ids.shape == (sum(map(len, cons)),)
    assert [ids[offsets[v]:offsets[v + 1]].tolist() for v in range(n)] == by_var
    partitions = [((0, 1), (2,)), ((0,), (1, 2)), ((0, 1, 2),), ((0,), (1,), (2,))]
    scheme = ProjectionScheme(tuple(data.draw(st.sampled_from(partitions)) for _ in range(n)))
    tables = Sampler(csp, scheme, 0.1).step_tables
    d = max(map(len, by_var))
    assert [t.shape for t in tables] == [(d, n + 1)] * 3
    for v, at in enumerate(by_var + [[]]):
        cs, pad = [csp.constraints[cid] for cid in at], [-2] * (d - len(at))
        assert tables[0][:, v].tolist() == list(at) + [csp.m] * len(pad)
        assert tables[1][:, v].tolist() == [scheme.project_value(v, c.forbidden_at(v))
                                            for c in cs] + pad
        assert tables[2][:, v].tolist() == [c.arity - 1 for c in cs] + pad
