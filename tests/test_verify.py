import dataclasses
import functools
import itertools
import random
import time
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synthsel.verify as verify
from synthsel.sygus import (
    App,
    BoolLit,
    BVLit,
    Candidate,
    FunctionSignature,
    Hole,
    IntLit,
    Ite,
    Sort,
    SynthQuery,
    Var,
    BOOL,
    INT,
    parse_define_fun,
    parse_query,
    parse_term_text,
    print_define_fun,
    print_query,
    print_term,
    subterms,
)
from synthsel.verify import (
    DivisionByZero,
    EvaluationError,
    SearchConfig,
    SolverLaunchError,
    VerificationResult,
    Verifier,
    check_candidate_external,
    check_candidate_internal,
    compile_template,
    compile_term,
    domain_columns,
    emit_smtlib,
    evaluate,
    grid_columns,
    substitute_solution,
    sweep_columns,
)

from conftest import MAX2_SOLUTION, MAX2_TEXT, MAX3_SOLUTION, deep_query_text
from reference import (first_violated_constraint, grid_domain, reference_sweep,
                       reference_whole_domain)

# max3's answer minus (mod v0 1), which is 0 everywhere: `mod` is outside
# the LIA decision procedure, so the checker sweeps every grid and sample
# point and its Valid is bounded
MAX3_SWEPT = ("(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int (- "
              "(ite (>= v0 v1) (ite (>= v0 v2) v0 v2) (ite (>= v1 v2) v1 v2)) "
              "(mod v0 1)))")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

ENV = {"v0": INT, "v1": INT}


def _ev(text, assignment, env=None):
    return evaluate(parse_term_text(text, env or ENV), assignment)


def test_evaluate_max_semantics():
    t = "(ite (>= v0 v1) v0 v1)"
    assert _ev(t, {"v0": 3, "v1": 5}) == 5
    assert _ev(t, {"v0": 7, "v1": 5}) == 7


def test_evaluate_arithmetic():
    assert _ev("(+ v0 1)", {"v0": 41}) == 42
    assert _ev("(* v0 (- v1))", {"v0": 6, "v1": -7}) == 42


def test_evaluate_euclidean_div_mod():
    # remainder is always nonnegative
    assert _ev("(div v0 v1)", {"v0": 7, "v1": 2}) == 3
    assert _ev("(div v0 v1)", {"v0": -7, "v1": 2}) == -4
    assert _ev("(mod v0 v1)", {"v0": -7, "v1": 2}) == 1
    assert _ev("(div v0 v1)", {"v0": 7, "v1": -2}) == -3
    assert _ev("(mod v0 v1)", {"v0": 7, "v1": -2}) == 1


def test_evaluate_division_by_zero():
    with pytest.raises(DivisionByZero):
        _ev("(div v0 v1)", {"v0": 1, "v1": 0})


def test_evaluate_unbound_variable():
    with pytest.raises(EvaluationError, match="unbound"):
        _ev("(+ v0 v1)", {"v0": 1})


def test_evaluate_arbitrary_precision():
    big = 10 ** 30
    assert _ev("(* v0 v0)", {"v0": big}) == big * big


def test_evaluate_bv():
    env = {"a": None, "b": None}
    from synthsel.sygus import Sort
    env = {"a": Sort.bitvec(8), "b": Sort.bitvec(8)}
    t = parse_term_text("(bvadd a b)", env)
    assert evaluate(t, {"a": 250, "b": 10}, env) == 4  # wraps at 256
    t2 = parse_term_text("(bvult a b)", env)
    assert evaluate(t2, {"a": 3, "b": 7}, env) is True


# ---------------------------------------------------------------------------
# internal checker
# ---------------------------------------------------------------------------

def test_internal_finds_counterexample(max3_query):
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    res = check_candidate_internal(max3_query, cand)
    assert res.is_counterexample
    ce = res.assignment_dict()
    assert ce["v1"] > ce["v0"] or ce["v2"] > ce["v0"]
    # re-evaluating the counterexample falsifies the conjunction
    phi = substitute_solution(max3_query, cand)
    assert evaluate(phi, ce) is False


def test_internal_valid_max3(max3_query):
    cand = parse_define_fun(MAX3_SWEPT)
    res = check_candidate_internal(max3_query, cand)
    assert res.is_valid
    assert res.bounded


def test_internal_valid_max3_is_exact(max3_query):
    res = check_candidate_internal(max3_query, parse_define_fun(MAX3_SOLUTION))
    assert res == VerificationResult.valid(bounded=False)
    assert res.provenance == "internal"


def test_internal_empty_constraints_valid():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
""")
    cand = parse_define_fun("(define-fun f ((x Int)) Int 0)")
    assert check_candidate_internal(q, cand).is_valid


def test_internal_unsupported_logic_unknown():
    q = parse_query("""(set-logic LRA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= (f x) x))
(check-synth)
""")
    cand = parse_define_fun("(define-fun f ((x Int)) Int x)")
    assert check_candidate_internal(q, cand).is_unknown


def test_internal_grid_deterministic(max3_query):
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v1)")
    a = check_candidate_internal(max3_query, cand, SearchConfig(seed=5))
    b = check_candidate_internal(max3_query, cand, SearchConfig(seed=5))
    assert a == b


def test_internal_division_by_zero_skipped():
    # constraint forces div-by-zero at v1=0; such points cannot witness
    # falsification and the rest of the space satisfies the constraint
    q = parse_query("""(set-logic LIA)
(synth-fun f ((v0 Int) (v1 Int)) Int)
(declare-var v0 Int)
(declare-var v1 Int)
(constraint (= (* (f v0 v1) v1) (* (div (* v0 v1) v1) v1)))
(check-synth)
""")
    cand = parse_define_fun("(define-fun f ((v0 Int) (v1 Int)) Int v0)")
    assert check_candidate_internal(q, cand).is_valid


def test_internal_sweep_skips_points_where_an_unread_argument_raises():
    # at x = 0 a short-circuit `and` would stop at (>= x 1) and call the
    # point falsified, but evaluate divides by zero there: it is skipped,
    # and x = 3 (10 mod 3 = 1) is the first real counterexample
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (or (< x 0) (and (>= (f x) 1) (= (mod 10 x) 0))))
(check-synth)
""")
    cand = parse_define_fun("(define-fun f ((x Int)) Int x)")
    res = check_candidate_internal(q, cand)
    assert res.is_counterexample, res
    assert res.assignment_dict() == {"x": 3}


# ---------------------------------------------------------------------------
# emit_smtlib + external client (stub solver)
# ---------------------------------------------------------------------------

def test_emit_smtlib_shape(max3_query):
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    script = emit_smtlib(max3_query, cand)
    assert script.count("declare-const") == 3
    assert "(assert (not (and" in script
    assert script.strip().endswith("(get-model)")
    assert "(check-sat)" in script


def test_emit_smtlib_empty_constraints():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
""")
    cand = parse_define_fun("(define-fun f ((x Int)) Int 0)")
    assert "(assert (not true))" in emit_smtlib(q, cand)


def test_external_unsat_is_valid(max3_query, stub_solver_factory):
    cmd = stub_solver_factory("unsat_solver", "unsat\n")
    cand = parse_define_fun(MAX3_SOLUTION)
    res = check_candidate_external(max3_query, cand, [cmd])
    assert res.is_valid and not res.bounded
    assert res.provenance.startswith("external:")


def test_external_sat_gives_counterexample(max3_query, stub_solver_factory):
    model = ("sat\n((define-fun v0 () Int 0)\n"
             " (define-fun v1 () Int 1)\n"
             " (define-fun v2 () Int 0))\n")
    cmd = stub_solver_factory("sat_solver", model)
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    res = check_candidate_external(max3_query, cand, [cmd])
    assert res.is_counterexample
    assert res.assignment_dict() == {"v0": 0, "v1": 1, "v2": 0}


def test_external_bogus_model_downgraded(max3_query, stub_solver_factory):
    # model satisfies the constraints, so it cannot be a counterexample
    model = ("sat\n((define-fun v0 () Int 5)\n"
             " (define-fun v1 () Int 1)\n"
             " (define-fun v2 () Int 0))\n")
    cmd = stub_solver_factory("bogus_solver", model)
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    res = check_candidate_external(max3_query, cand, [cmd])
    assert res.is_unknown


_MIXED_QUERY = """(set-logic ALL)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(declare-var b Bool)
(declare-var w (_ BitVec 8))
(constraint (=> (and b (= w #x05)) (= (f x) x)))
(check-synth)
"""
_X, _B, _W = ("(define-fun x () Int (- 3))", "(define-fun b () Bool true)",
              "(define-fun w () (_ BitVec 8) #b00000101)")


@pytest.mark.parametrize("model", [
    f"({_X} {_B} {_W})",
    f"(model {_X} {_B} {_W.replace('#b00000101', '#x05')})",
    f"{_X}\n{_B}\n{_W.replace('#b00000101', '(_ bv5 8)')}",
    # an auxiliary function, with parameters, is skipped unread
    f"((define-fun k!0 ((a Int)) Int (k!1 a)) {_X} {_B} {_W})",
])
def test_external_model_shapes(model, stub_solver_factory):
    cmd = stub_solver_factory("model_solver", f"sat\n{model}\n")
    cand = parse_define_fun("(define-fun f ((x Int)) Int 0)")
    res = check_candidate_external(parse_query(_MIXED_QUERY), cand, [cmd])
    assert res.is_counterexample, res.reason
    assert res.assignment_dict() == {"x": -3, "b": True, "w": 5}


@pytest.mark.parametrize("x, b, w", [
    ("(define-fun x () Bool true)", _B, _W),         # the wrong sort
    ("(define-fun x () Int #b101)", _B, _W),         # a bitvector for an Int
    (_X, _B, "(define-fun w () (_ BitVec 8) 5)"),    # a numeral for a BitVec
    (_X, _B, "(define-fun w () (_ BitVec 8) #b101)"),  # the wrong width
    ("(define-fun x () Int (+ 1 2))", _B, _W),       # not a literal
    (_X, _B, "(define-fun w () (_ BitVec 8) v)"),    # not a term
    (_X, "", _W),                                     # a missing universal
])
def test_external_malformed_model_is_unknown(x, b, w, stub_solver_factory):
    cmd = stub_solver_factory("model_solver", f"sat\n({x} {b} {w})\n")
    cand = parse_define_fun("(define-fun f ((x Int)) Int 0)")
    res = check_candidate_external(parse_query(_MIXED_QUERY), cand, [cmd])
    assert res.is_unknown
    assert res.reason.startswith("malformed model:")


def test_external_unknown(max3_query, stub_solver_factory):
    cmd = stub_solver_factory("unknown_solver", "unknown\n")
    cand = parse_define_fun(MAX3_SOLUTION)
    assert check_candidate_external(max3_query, cand, [cmd]).is_unknown


def test_external_missing_binary_raises(max3_query):
    cand = parse_define_fun(MAX3_SOLUTION)
    with pytest.raises(SolverLaunchError):
        check_candidate_external(max3_query, cand,
                                 ["/nonexistent/solver-binary"])


def test_external_deadline(max3_query, stub_solver_factory):
    cmd = stub_solver_factory("slow_solver", "unsat\n", sleep=5.0)
    cand = parse_define_fun(MAX3_SOLUTION)
    res = check_candidate_external(max3_query, cand, [cmd],
                                   deadline=time.monotonic() + 0.3)
    assert res.is_unknown


def test_emitted_script_reparses(max3_query):
    # the negated conjunction inside the script parses back as a term
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    script = emit_smtlib(max3_query, cand)
    for line in script.splitlines():
        if line.startswith("(assert "):
            inner = line[len("(assert "):-1]
            term = parse_term_text(inner, dict(max3_query.universals))
            assert print_term(term) == inner


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

def test_verifier_internal_only(max3_query):
    v = Verifier()
    cand = parse_define_fun(MAX3_SWEPT)
    res = v.check(max3_query, cand)
    assert res.is_valid and res.bounded


def test_verifier_internal_only_exact(max3_query):
    res = Verifier().check(max3_query, parse_define_fun(MAX3_SOLUTION))
    assert res.is_valid and not res.bounded


def test_verifier_external_confirms(max3_query, stub_solver_factory):
    cmd = stub_solver_factory("confirm_solver", "unsat\n")
    v = Verifier(solver_command=(cmd,))
    cand = parse_define_fun(MAX3_SOLUTION)
    res = v.check(max3_query, cand)
    assert res.is_valid and not res.bounded


def test_verifier_external_unknown_blocks_validity(max3_query,
                                                   stub_solver_factory):
    cmd = stub_solver_factory("shrug_solver", "unknown\n")
    v = Verifier(solver_command=(cmd,))
    cand = parse_define_fun(MAX3_SOLUTION)
    assert v.check(max3_query, cand).is_unknown


def test_verifier_internal_counterexample_skips_external(max3_query):
    # internal finds the counterexample first; the external command is absent
    # but never needed
    v = Verifier(solver_command=("/nonexistent/solver-binary",))
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    assert v.check(max3_query, cand).is_counterexample


def test_verifier_expired_deadline_is_unknown(max3_query):
    # the swept max3 answer sweeps ~285k points; a deadline already past must
    # stop it at once instead of returning Valid after the whole grid
    cand = parse_define_fun(MAX3_SWEPT)
    started = time.monotonic()
    res = Verifier().check(max3_query, cand, started - 1.0)
    assert res.is_unknown and res.reason == "deadline"
    assert time.monotonic() - started < 0.05
    assert Verifier().check(max3_query, cand, time.monotonic() + 60.0).is_valid


def test_verifier_expired_deadline_is_unknown_for_an_exact_answer(max3_query):
    # the clock is read before the first chunk, so an exact Valid is not
    # given past the deadline either
    cand = parse_define_fun(MAX3_SOLUTION)
    res = Verifier().check(max3_query, cand, time.monotonic() - 1.0)
    assert res == VerificationResult.unknown("deadline")
    res = Verifier().check(max3_query, cand, time.monotonic() + 60.0)
    assert res == VerificationResult.valid(bounded=False)


def test_exact_verdict_reads_the_clock_once(max3_query, monkeypatch):
    # one chunk of the grid, then the proof: no further reading
    cand = parse_define_fun(MAX3_SOLUTION)
    seen = []
    monkeypatch.setattr(verify.time, "monotonic", lambda: seen.append(0) or 0.0)
    res = check_candidate_internal(max3_query, cand, SearchConfig(), deadline=1.0)
    assert res == VerificationResult.valid(bounded=False)
    assert len(seen) == 1


def test_sweep_stops_when_the_deadline_passes_midway(max3_query, monkeypatch):
    cand = parse_define_fun(MAX3_SWEPT)
    config = SearchConfig()
    # 269 chunks of grid, so the 271st read of the clock falls in the samples
    for k in (0, 1, 100, 270):
        reads = itertools.count(1)
        monkeypatch.setattr(verify.time, "monotonic",
                            lambda: 2.0 if next(reads) > k else 0.0)
        res = check_candidate_internal(max3_query, cand, config, deadline=1.0)
        assert res == VerificationResult.unknown("deadline"), k
        assert next(reads) == k + 2  # it stopped at the first late reading
    seen = []
    monkeypatch.setattr(verify.time, "monotonic", lambda: seen.append(0) or 0.0)
    assert check_candidate_internal(max3_query, cand, config, deadline=1.0).is_valid
    points = (2 * config.grid_bound + 1) ** 3 + config.random_samples
    assert len(seen) >= points / verify._DEADLINE_EVERY


# ---------------------------------------------------------------------------
# the memoised random sweep points
# ---------------------------------------------------------------------------

def _fresh_draw(sorts, seed, samples, bound):
    """The sweep points as the per-point loop drew them."""
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        point = []
        for s in sorts:
            if s == BOOL:
                point.append(rng.random() < 0.5)
            elif s == INT:
                point.append(rng.randint(-bound, bound))
            else:
                point.append(rng.randrange(1 << s.width))
        points.append(tuple(point))
    return points


@pytest.mark.parametrize("sorts,bound", [
    ((INT,), 1_000_000),
    ((BOOL, INT, Sort.bitvec(8)), 50),
    ((Sort.bitvec(64), INT, BOOL), 7),
    ((INT, INT), 1 << 70),
])
def test_sweep_columns_equal_fresh_draw(sorts, bound):
    for seed in (0, 5):
        columns = sweep_columns(sorts, seed, 300, bound)
        assert list(zip(*columns)) == _fresh_draw(sorts, seed, 300, bound)
        assert sweep_columns(sorts, seed, 300, bound) is columns
        for s, column in zip(sorts, columns):
            assert isinstance(column, array) == (s in (INT, Sort.bitvec(8))
                                                 and bound < 1 << 63)


@pytest.mark.parametrize("sorts", [
    (INT,),
    (BOOL, INT, Sort.bitvec(8)),
    (Sort.bitvec(64), INT, BOOL),
    (Sort.bitvec(2), Sort.bitvec(4)),
])
def test_grid_columns_in_product_order(sorts):
    for bound in (1, 5):
        columns = grid_columns(sorts, bound)
        assert list(zip(*columns)) == list(itertools.product(
            *[grid_domain(s, bound) for s in sorts]))
        assert grid_columns(sorts, bound) is columns
        for s, column in zip(sorts, columns):
            assert isinstance(column, array) == (s != BOOL and s != Sort.bitvec(64))


# ---------------------------------------------------------------------------
# the compiled evaluator against the tree walker
# ---------------------------------------------------------------------------

BV4 = Sort.bitvec(4)
VAR_SORTS = {"x": INT, "y": INT, "p": BOOL, "q": BOOL, "u": BV4, "w": BV4}
VAR_NAMES = tuple(VAR_SORTS)


def _leaves(sort):
    names = [Var(n) for n, s in VAR_SORTS.items() if s == sort]
    if sort == INT:
        lits = st.builds(IntLit, st.integers(-2, 2))
    elif sort == BOOL:
        lits = st.builds(BoolLit, st.booleans())
    else:
        lits = st.builds(BVLit, st.integers(0, 15), st.just(4))
    return st.one_of(st.sampled_from(names), lits)


# a Bool leaf that raises on every point, so eager connectives show
_RAISES = App(">=", (App("div", (Var("y"), IntLit(0))), IntLit(0)))


def _app(op, *arg_strategies):
    return st.tuples(*arg_strategies).map(lambda args: App(op, args))


def _nary(op, sub, lo=2, hi=4):
    return st.lists(sub, min_size=lo, max_size=hi).map(lambda args: App(op, tuple(args)))


@functools.lru_cache(maxsize=None)
def terms(sort, depth):
    """Well-sorted terms of `sort` up to `depth`: division and mod by small
    divisors (often zero), n-ary and/or/=>/= whose arguments may raise,
    lazy ite, and applications of an uninterpreted f (which always raise)."""
    if depth == 0:
        if sort == BOOL:
            return st.one_of(_leaves(sort), _leaves(sort), st.just(_RAISES))
        return _leaves(sort)
    i, b, v = terms(INT, depth - 1), terms(BOOL, depth - 1), terms(BV4, depth - 1)
    same = terms(sort, depth - 1)
    ite = st.builds(Ite, b, same, same)
    if sort == INT:
        return st.one_of(
            _leaves(INT), ite, _nary("+", i), _nary("-", i, 1), _nary("*", i),
            _app("div", i, i), _app("mod", i, i), _app("f", i), _app("f", _app("f", i)))
    if sort == BOOL:
        # connectives half the time, so eager arguments meet raising ones
        return st.one_of(
            st.one_of(ite, _nary("=", b), _nary("and", b), _nary("or", b),
                      _nary("=>", b), _app("not", b)),
            st.one_of(_leaves(BOOL), _app(">=", i, i), _app("<=", i, i),
                      _app(">", i, i), _app("<", i, i), _nary("=", i), _nary("=", v),
                      _app("bvult", v, v), _app("f", i)))
    return st.one_of(
        _leaves(BV4), ite, *(_app(op, v, v) for op in
                             ("bvadd", "bvsub", "bvand", "bvor", "bvxor")),
        _app("bvnot", v))


def _outcome(run):
    try:
        value = run()
    except EvaluationError:
        return "raises"
    return type(value), value


points = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.booleans(),
                   st.booleans(), st.integers(0, 15), st.integers(0, 15))


@settings(max_examples=400)
@given(st.sampled_from([INT, BOOL, BOOL, BV4]).flatmap(lambda s: terms(s, 3)),
       st.lists(points, min_size=1, max_size=4), st.booleans())
def test_compiled_evaluator_matches_evaluate(term, envs, with_sorts):
    # without sorts, a bitvector operation whose spine ends in a variable
    # cannot be sized: both must raise there
    sorts = VAR_SORTS if with_sorts else None
    compiled = compile_term(term, VAR_NAMES, sorts)
    for env in envs:
        assignment = dict(zip(VAR_NAMES, env))
        assert (_outcome(lambda: compiled(env))
                == _outcome(lambda: evaluate(term, assignment, sorts))), print_term(term)


@given(st.sampled_from(["and", "or", "=>", "="]),
       st.lists(st.one_of(_leaves(BOOL), _app(">=", _leaves(INT), _leaves(INT))),
                min_size=1, max_size=3),
       st.integers(1, 3), points)
def test_compiled_connectives_raise_on_any_raising_argument(op, args, at, env):
    # arguments are evaluated before the connective applies, so one that
    # raises after any prefix (which could decide an `and` or `or`) raises
    args.insert(at, _RAISES)
    term = App(op, tuple(args))
    assert _outcome(lambda: evaluate(term, dict(zip(VAR_NAMES, env)), VAR_SORTS)) == "raises"
    assert _outcome(lambda: compile_term(term, VAR_NAMES, VAR_SORTS)(env)) == "raises"


@pytest.mark.parametrize("op", ["and", "or", "=>", "="])
def test_compiled_connectives_over_holes_evaluate_every_hole(op):
    # a hole's function may raise, so a connective over holes takes the
    # eager form whatever its first arguments decide
    make = compile_template(App(op, (Hole("B"),) * 3), VAR_NAMES, VAR_SORTS, (None,) * 3)
    raising = compile_term(_RAISES, VAR_NAMES, VAR_SORTS)
    env = (1, 1, False, False, 0, 0)
    for first, second in itertools.product((True, False), repeat=2):
        constants = [compile_term(BoolLit(v), VAR_NAMES) for v in (first, second)]
        for kids in ([*constants, raising], [constants[0], raising, constants[1]]):
            assert _outcome(lambda: make(*kids)(env)) == "raises", (first, second)


def test_compiled_ite_is_lazy():
    env = {"x": INT}
    cases = {
        "(ite true x (div x 0))": (int, 3),          # the branch not taken
        "(ite (= x 3) (div x 0) x)": "raises",
        "(=> (>= x 0) (>= x 1) (< x 9))": (bool, True),
        "(- x 1 1)": (int, 1),
    }
    for text, want in cases.items():
        term = parse_term_text(text, env)
        assert _outcome(lambda: compile_term(term, ["x"], env)((3,))) == want, text
        assert _outcome(lambda: evaluate(term, {"x": 3}, env)) == want, text
    unbound = compile_term(Var("z"), ["x"])
    with pytest.raises(EvaluationError):
        unbound((1,))


# ---------------------------------------------------------------------------
# the generated sweep against a point-by-point walk with evaluate
# ---------------------------------------------------------------------------

_NO_ARGS = FunctionSignature("g", (), INT)


@st.composite
def _constraint_and_universals(draw):
    """A constraint and 1-3 universals, mostly among its variables: those
    it uses beyond them are unbound."""
    phi = draw(terms(BOOL, 3))
    used = [n for n in VAR_NAMES if Var(n) in set(subterms(phi))]
    return phi, draw(st.lists(st.sampled_from(used or list(VAR_NAMES)),
                              min_size=1, max_size=3, unique=True))


@settings(max_examples=300, deadline=None)
@given(_constraint_and_universals(),
       st.builds(SearchConfig, grid_bound=st.integers(1, 3),
                 random_samples=st.integers(0, 200),
                 random_bound=st.sampled_from([3, 1000]),
                 seed=st.integers(0, 3), max_grid_vars=st.integers(0, 3)),
       st.sampled_from([1, 5, 1024]))
# p = false comes first: the ite takes w, and then u, which is unbound and
# so has no sort, leaves bvadd without a width
@example((App("bvult", (App("bvadd", (Ite(Var("p"), Var("u"), Var("w")), Var("w"))),
                        BVLit(8, 4))), ["p", "w"]),
         SearchConfig(grid_bound=1, random_samples=10), 1024)
def test_sweep_matches_a_point_by_point_walk(case, config, every):
    # division and mod take variable divisors, which are often zero on the grid
    phi, names = case
    universals = tuple((n, VAR_SORTS[n]) for n in names)
    query = SynthQuery("LIA", _NO_ARGS, universals, (phi,))
    cand = Candidate("g", (), INT, IntLit(0))
    with mock.patch.object(verify, "_DEADLINE_EVERY", every), \
            mock.patch.object(verify, "proves_valid", lambda phi, universals: False):
        got = check_candidate_internal(query, cand, config)
    assert got == reference_sweep(phi, universals, config), print_term(phi)


def _up_to_bounded(verdict):
    return dataclasses.replace(verdict, bounded=False)


@settings(max_examples=150, deadline=None)
@given(_constraint_and_universals(),
       st.builds(SearchConfig, grid_bound=st.integers(1, 3),
                 random_samples=st.integers(0, 200),
                 random_bound=st.sampled_from([3, 1000]),
                 seed=st.integers(0, 3), max_grid_vars=st.integers(0, 3)),
       st.sampled_from([1, 5, 1024]))
def test_sweep_with_the_decision_procedure_matches_a_point_by_point_walk(
        case, config, every):
    # an exact Valid only where the walk finds no counterexample either
    phi, names = case
    universals = tuple((n, VAR_SORTS[n]) for n in names)
    query = SynthQuery("LIA", _NO_ARGS, universals, (phi,))
    cand = Candidate("g", (), INT, IntLit(0))
    with mock.patch.object(verify, "_DEADLINE_EVERY", every):
        got = check_candidate_internal(query, cand, config)
    want = reference_sweep(phi, universals, config)
    assert _up_to_bounded(got) == _up_to_bounded(want), print_term(phi)


# ---------------------------------------------------------------------------
# the exact whole-domain step for BV formulas
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fragment_terms(sort, depth, width, variables):
    """Well-sorted terms of the BV fragment over `variables` ((name, sort)
    pairs) whose bitvectors all have `width`."""
    bv = Sort.bitvec(width)
    names = [Var(n) for n, s in variables if s == sort]
    lits = (st.builds(BoolLit, st.booleans()) if sort == BOOL
            else st.builds(BVLit, st.integers(0, (1 << width) - 1), st.just(width)))
    leaf = st.one_of(st.sampled_from(names), lits) if names else lits
    if depth == 0:
        return leaf
    b = _fragment_terms(BOOL, depth - 1, width, variables)
    v = _fragment_terms(bv, depth - 1, width, variables)
    ite = st.builds(Ite, b, *(2 * [b if sort == BOOL else v]))
    if sort == BOOL:
        return st.one_of(leaf, ite, _nary("=", b), _nary("=", v), _nary("and", b),
                         _nary("or", b), _nary("=>", b), _app("not", b), _app("bvult", v, v))
    return st.one_of(leaf, ite, _app("bvnot", v),
                     *(_app(op, v, v) for op in ("bvadd", "bvsub", "bvand", "bvor", "bvxor")))


@st.composite
def _fragment_case(draw):
    """A BV-fragment formula over 1-2 BitVec universals of one width in 1..8
    and an optional Bool universal."""
    bv = Sort.bitvec(draw(st.integers(1, 8)))
    universals = (("u", bv), ("w", bv))[:draw(st.integers(1, 2))]
    if draw(st.booleans()):
        universals += (("p", BOOL),)
    return draw(_fragment_terms(BOOL, 3, bv.width, universals)), universals


@settings(max_examples=150, deadline=None)
@given(_fragment_case(),
       st.builds(SearchConfig, grid_bound=st.integers(1, 3),
                 random_samples=st.integers(0, 200),
                 seed=st.integers(0, 3), max_grid_vars=st.integers(0, 3)),
       st.sampled_from([1, 5, 1024]))
# two 8-bit universals and a Bool one make 2^17 points, past the cap: the
# sweep's points miss u = #xc8, w = #x03, so the Valid stays bounded
@example((App("=>", (Var("p"), App("not", (App("and", (
             App("=", (Var("u"), BVLit(0xC8, 8))), App("=", (Var("w"), BVLit(3, 8))))),)))),
          (("u", Sort.bitvec(8)), ("w", Sort.bitvec(8)), ("p", BOOL))),
         SearchConfig(grid_bound=1, random_samples=10), 1024)
def test_whole_domain_step_matches_a_walk_over_the_domain(case, config, every):
    phi, universals = case
    query = SynthQuery("BV", _NO_ARGS, universals, (phi,))
    cand = Candidate("g", (), INT, IntLit(0))
    with mock.patch.object(verify, "_DEADLINE_EVERY", every):
        got = check_candidate_internal(query, cand, config)
    small = sum(s.width or 1 for _, s in universals) <= 16
    reference = reference_whole_domain if small else reference_sweep
    assert got == reference(phi, universals, config), print_term(phi)


_BV8 = "(_ BitVec 8)"


def _bv_query(constraints, bools=()):
    return parse_query(
        f"(set-logic BV)\n(synth-fun f ((x {_BV8}) (y {_BV8})) {_BV8})\n"
        f"(declare-var x {_BV8})\n(declare-var y {_BV8})\n"
        + "".join(f"(declare-var {b} Bool)\n" for b in bools)
        + "".join(f"(constraint {c})\n" for c in constraints) + "(check-synth)\n")


def _bv_answer(body):
    return parse_define_fun(f"(define-fun f ((x {_BV8}) (y {_BV8})) {_BV8} {body})")


def test_an_answer_wrong_only_off_the_swept_points_is_refuted_there():
    # wrong only at x = #xc8, y = #x03: off the grid (0..64 per variable)
    # and not among the 10,000 samples, so the sweep alone found it Valid
    query = _bv_query(["(= (bvand (f x y) x) (f x y))", "(= (f x y) (bvand x y))"])
    cand = _bv_answer("(ite (and (= x #xc8) (= y #x03)) x (bvand x y))")
    phi = substitute_solution(query, cand)
    assert reference_sweep(phi, query.universals, SearchConfig()) == \
        VerificationResult.valid(bounded=True)
    verdict = check_candidate_internal(query, cand)
    assert verdict == VerificationResult.counterexample({"x": 0xC8, "y": 0x03}, 1)
    assert first_violated_constraint(query, cand, verdict.assignment_dict()) == 1


def test_whole_domain_cap_is_two_to_the_sixteen_points():
    constraint = "(=> p (= (f x y) (bvand y x)))"
    exact = check_candidate_internal(_bv_query([constraint.replace("p", "true")]),
                                     _bv_answer("(bvand x y)"))
    assert exact == VerificationResult.valid(bounded=False)
    bounded = check_candidate_internal(_bv_query([constraint], bools=["p"]),
                                       _bv_answer("(bvand x y)"))
    assert bounded == VerificationResult.valid(bounded=True)
    bv8 = Sort.bitvec(8)
    assert len(domain_columns((bv8, bv8))[0]) == 1 << 16
    assert domain_columns((bv8, bv8, BOOL)) is None


_U, _W, _P = Var("u"), Var("w"), Var("p")
_HUGE = IntLit(10 ** 20)


@pytest.mark.parametrize("phi, universals", [
    # an operator outside the fragment, in a branch the sweep never takes
    (Ite(BoolLit(True), App("=", (_U, _U)), App(">=", (_U, _W))),
     (("u", BV4), ("w", BV4))),
    # an Int literal past int64
    (App("=", (Ite(_P, _HUGE, IntLit(0)), Ite(_P, _HUGE, IntLit(0)))), (("p", BOOL),)),
    # a literal wider than the columns' dtype
    (App("=", (App("bvadd", (_U, BVLit(256, 12))),) * 2), (("u", BV4),)),
    (App("=", (Var("x"), Var("x"))), (("x", INT),)),
], ids=["operator", "int-literal", "wide-literal", "int-universal"])
def test_outside_the_whole_domain_fragment_the_sweep_decides(phi, universals):
    query = SynthQuery("BV", _NO_ARGS, universals, (phi,))
    got = check_candidate_internal(query, Candidate("g", (), INT, IntLit(0)), _SMALL)
    assert got == VerificationResult.valid(bounded=True)


def test_whole_domain_columns_are_in_product_order():
    sorts = (Sort.bitvec(3), BOOL, Sort.bitvec(2))
    columns = domain_columns(sorts)
    want = list(itertools.product(range(8), (False, True), range(4)))
    assert [tuple(c[i].item() for c in columns) for i in range(len(want))] == want
    assert [c.dtype for c in columns] == [np.uint8, np.bool_, np.uint8]
    assert domain_columns((Sort.bitvec(9), Sort.bitvec(7)))[0].dtype == np.uint16
    assert domain_columns((INT,)) is None


# ---------------------------------------------------------------------------
# one verdict per candidate per query
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """The candidates `check_candidate_internal` is called with."""
    calls = []
    real = verify.check_candidate_internal

    def spy(query, cand, *args):
        calls.append(cand)
        return real(query, cand, *args)

    monkeypatch.setattr(verify, "check_candidate_internal", spy)
    return calls


_MAX2_V0 = "(define-fun f ((v0 Int) (v1 Int)) Int v0)"


def test_verifier_checks_a_repeated_candidate_once(max2_query, counted):
    v = Verifier()
    wrong = v.check(max2_query, parse_define_fun(_MAX2_V0))
    assert wrong.is_counterexample
    # an equal candidate read again is the same candidate
    assert v.check(max2_query, parse_define_fun(_MAX2_V0)) == wrong
    right = v.check(max2_query, parse_define_fun(MAX2_SOLUTION))
    assert right == VerificationResult.valid(bounded=False)
    assert v.check(max2_query, parse_define_fun(MAX2_SOLUTION)) == right
    assert len(counted) == 2


def test_verifier_memo_is_per_query_object(max2_query, counted):
    v = Verifier()
    cand = parse_define_fun(_MAX2_V0)
    v.check(max2_query, cand)
    v.check(parse_query(MAX2_TEXT), cand)  # an equal query, another object
    v.check(max2_query, cand)
    assert len(counted) == 3


def test_verifier_never_keeps_unknown(max2_query, counted):
    v = Verifier()
    cand = parse_define_fun(MAX2_SOLUTION)
    assert v.check(max2_query, cand, time.monotonic() - 1.0).is_unknown
    assert v.check(max2_query, cand).is_valid
    assert len(counted) == 2


def test_verifier_kept_verdict_past_the_deadline_is_unknown(max2_query, counted):
    v = Verifier()
    cand = parse_define_fun(_MAX2_V0)
    assert v.check(max2_query, cand).is_counterexample
    res = v.check(max2_query, cand, time.monotonic() - 1.0)
    assert res == VerificationResult.unknown("deadline")
    assert v.check(max2_query, cand, time.monotonic() + 60.0).is_counterexample
    assert len(counted) == 1


@pytest.mark.parametrize("levels", [250, 400])
def test_too_deep_a_formula_is_unknown(max2_query, levels, stub_solver_factory):
    # CPython compiles at most 200 nested parentheses, and at 400 levels
    # substitution passes the recursion limit
    body = "(+ 0 " * levels + "(ite (>= v0 v1) v0 v1)" + ")" * levels
    cand = parse_define_fun(f"(define-fun f ((v0 Int) (v1 Int)) Int {body})")
    assert check_candidate_internal(max2_query, cand) == \
        VerificationResult.unknown("formula nested too deeply")
    # an internal Unknown goes on to the external solver, whose script
    # substitutes the candidate too
    cmd = stub_solver_factory("unsat_solver", "unsat\n")
    external = Verifier(solver_command=(cmd,)).check(max2_query, cand)
    if levels == 250:
        assert external.is_valid
    else:
        assert external == VerificationResult.unknown("formula nested too deeply",
                                                      provenance=f"external:{cmd}")


def test_too_deep_a_query_is_unknown():
    # the sweep's source nests past CPython's parser limits (MemoryError)
    query = parse_query(deep_query_text(250))
    cand = parse_define_fun("(define-fun f ((x Int)) Int x)")
    assert Verifier().check(query, cand) == \
        VerificationResult.unknown("formula nested too deeply")


# ---------------------------------------------------------------------------
# a counterexample names the first constraint it violates
# ---------------------------------------------------------------------------

# constraint templates over {x} and {y} (the universals, or literals in a
# closed query) and a literal {k}; `div` by {y} is often zero
_TEMPLATES = {
    "LIA": (("(>= (f {x} {y}) {x})", "(>= (f {x} {y}) {y})",
             "(or (= (f {x} {y}) {x}) (= (f {x} {y}) {y}))", "(<= (f {x} {y}) (+ {x} {k}))",
             "(=> (> {x} {k}) (= (f {x} {y}) {y}))", "(>= (div (f {x} {y}) {y}) {k})",
             "(= (f {x} {y}) (f {y} {x}))", "(< (f (f {x} {y}) {y}) (+ {k} {x}))"),
            ("a", "b", "(+ a {k})", "(ite (>= a b) a b)", "(- a b)", "{k}",
             "(ite (> a {k}) b a)")),
    "BV": (("(bvult (f {x} {y}) (bvor {x} {k}))", "(= (bvand (f {x} {y}) {x}) (f {x} {y}))",
            "(=> (bvult {x} {k}) (= (f {x} {y}) {x}))", "(not (= (f {x} {y}) {k}))",
            "(bvult {y} (bvadd (f {x} {y}) #x01))", "(= (f {x} {y}) (f {y} {x}))"),
           ("a", "b", "(bvadd a {k})", "(bvand a b)", "(bvor a b)", "{k}", "(bvnot a)")),
}
_SORT_TEXT = {"LIA": "Int", "BV": "(_ BitVec 8)"}
_SMALL = SearchConfig(grid_bound=3, random_samples=200, random_bound=20)


def _literal(logic, value):
    if logic == "BV":
        return f"#x{value:02x}"
    return str(value) if value >= 0 else f"(- {-value})"


def _random_case(rng, closed):
    """A query with 2-4 constraints and a candidate, most often wrong."""
    logic = rng.choice(("LIA", "BV"))
    constraints, bodies = _TEMPLATES[logic]
    sort = _SORT_TEXT[logic]

    def lit():
        return _literal(logic, rng.randrange(256) if logic == "BV" else rng.randrange(-3, 6))

    x, y = (lit(), lit()) if closed else ("x", "y")
    text = (f"(set-logic {logic})\n(synth-fun f ((a {sort}) (b {sort})) {sort})\n"
            + ("" if closed else f"(declare-var x {sort})\n(declare-var y {sort})\n")
            + "".join(f"(constraint {rng.choice(constraints).format(x=x, y=y, k=lit())})\n"
                      for _ in range(rng.randint(2, 4)))
            + "(check-synth)\n")
    body = rng.choice(bodies).format(k=lit())
    return (parse_query(text),
            parse_define_fun(f"(define-fun f ((a {sort}) (b {sort})) {sort} {body})"))


def _assert_names_the_oracle_constraint(query, cand, verdict):
    if not verdict.is_counterexample:
        assert verdict.violated is None
        return None
    want = first_violated_constraint(query, cand, verdict.assignment_dict())
    assert want is not None
    assert verdict.violated == want, (print_query(query), print_define_fun(cand))
    return want


@pytest.mark.parametrize("closed", [False, True], ids=["sweep", "closed-query"])
def test_counterexample_names_the_first_violated_constraint(closed):
    rng = random.Random(5)
    named = []
    for _ in range(150):
        query, cand = _random_case(rng, closed)
        verdict = check_candidate_internal(query, cand, _SMALL)
        named.append(_assert_names_the_oracle_constraint(query, cand, verdict))
    # most candidates are wrong, and often not first on constraint 0
    assert sum(i is not None for i in named) >= 60
    assert sum(i is not None and i > 0 for i in named) >= 20


def test_external_counterexample_names_the_first_violated_constraint(stub_solver_factory):
    rng = random.Random(6)
    named = []
    for n in range(16):
        query, cand = _random_case(rng, closed=False)
        logic = query.logic
        point = {v: rng.randrange(256) if logic == "BV" else rng.randrange(-3, 4)
                 for v, _ in query.universals}
        model = "".join(f"(define-fun {v} () {_SORT_TEXT[logic]} {_literal(logic, point[v])})"
                        for v in point)
        cmd = stub_solver_factory(f"solver{n}", f"sat\n({model})\n")
        verdict = check_candidate_external(query, cand, [cmd])
        if verdict.is_counterexample:
            assert verdict.assignment_dict() == point
        named.append(_assert_names_the_oracle_constraint(query, cand, verdict))
    assert sum(i is not None for i in named) >= 5
    assert sum(i is not None and i > 0 for i in named) >= 2
