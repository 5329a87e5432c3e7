import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lllsample.csp import (
    MAX_VARIABLES,
    AtomicConstraint,
    AtomicCSP,
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
from lllsample.resample import find_assignment
from conftest import star_instance, uniform_csp
from reference import violated_by_partial


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


def test_inc_forb_lists_each_variables_forbidden_value():
    csp = parse_dimacs("p cnf 4 3\n1 -2 0\n-2 3 4 0\n-1 -4 0\n")
    a = csp.arrays
    for v in range(csp.n):
        cids = [cid for cid in a.inc[v].tolist() if cid < csp.m]
        assert cids == list(csp.dep_index[v])
        expect = [csp.constraints[cid].forbidden_at(v) for cid in cids]
        assert a.inc_forb[v].tolist() == expect + [-2] * (a.inc.shape[1] - len(cids))
    assert (a.inc_forb[csp.n] == -2).all()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flat_index_lists_each_variables_constraints(data):
    # mixed arities, so padded columns, and variables in no constraint
    n = data.draw(st.integers(1, 8))
    cons = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4),
                                       unique=True), max_size=12))
    csp = uniform_csp(n, 2, [(c, [0] * len(c)) for c in cons])
    ids, offsets = csp.arrays.inc_flat
    assert offsets.shape == (n + 1,) and ids.shape == (sum(map(len, cons)),)
    assert [ids[offsets[v]:offsets[v + 1]].tolist() for v in range(n)] == list(
        map(list, csp.dep_index))
