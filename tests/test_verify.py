import functools
import itertools
import random
import time
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from synthsel.sygus import (
    App,
    BoolLit,
    BVLit,
    Hole,
    IntLit,
    Ite,
    Sort,
    Var,
    BOOL,
    INT,
    parse_define_fun,
    parse_query,
    parse_term_text,
    print_term,
)
from synthsel.verify import (
    DivisionByZero,
    EvaluationError,
    SearchConfig,
    SolverLaunchError,
    Verifier,
    check_candidate_external,
    check_candidate_internal,
    compile_template,
    compile_term,
    emit_smtlib,
    evaluate,
    substitute_solution,
    sweep_columns,
)

from conftest import MAX3_SOLUTION


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
    cand = parse_define_fun(MAX3_SOLUTION)
    res = check_candidate_internal(max3_query, cand)
    assert res.is_valid
    assert res.bounded


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
    cand = parse_define_fun(MAX3_SOLUTION)
    res = v.check(max3_query, cand)
    assert res.is_valid and res.bounded


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
    # the correct max3 sweeps ~285k points; a deadline already past must stop
    # it at once instead of returning Valid after the whole grid
    cand = parse_define_fun(MAX3_SOLUTION)
    started = time.monotonic()
    res = Verifier().check(max3_query, cand, started - 1.0)
    assert res.is_unknown and res.reason == "deadline"
    assert time.monotonic() - started < 0.05
    assert Verifier().check(max3_query, cand, time.monotonic() + 60.0).is_valid


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
    build = compile_template(App(op, (Hole("B"),) * 3), VAR_NAMES, VAR_SORTS)
    raising = (compile_term(_RAISES, VAR_NAMES, VAR_SORTS), None)
    env = (1, 1, False, False, 0, 0)
    for first, second in itertools.product((True, False), repeat=2):
        constants = [(compile_term(BoolLit(v), VAR_NAMES), None) for v in (first, second)]
        for kids in ([*constants, raising], [constants[0], raising, constants[1]]):
            assert _outcome(lambda: build(kids)[0](env)) == "raises", (first, second)


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
