"""The LIA decision procedure against the point-by-point walk of
`reference.py`: a formula it proves has no counterexample on the grid and
the samples, and the internal checker's verdict is the walk's up to the
bounded flag."""

import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from synthsel.lia import proves_valid
from synthsel.sygus import (App, BoolLit, Candidate, FunctionSignature, IntLit, Ite,
                            SynthQuery, Var, BOOL, INT, map_children, parse_define_fun,
                            parse_query, parse_term_text, print_term, substitute_solution,
                            subterms)
from synthsel.verify import SearchConfig, VerificationResult, check_candidate_internal

from conftest import MAX2_SOLUTION, MAX2_TEXT, MAX3_SOLUTION, MAX3_TEXT
from reference import reference_proves_valid, reference_sweep

NAMES = ("x", "y", "z")
# a small grid and a few samples near it keep the walk cheap; the literals
# below are small, so falsifying points lie near the origin
CONFIG = SearchConfig(grid_bound=3, random_samples=100, random_bound=20)


def _up_to_bounded(verdict):
    return dataclasses.replace(verdict, bounded=False)


def _assert_agrees(phi, universals):
    """The procedure against the walk, and the checker against both."""
    proved = proves_valid(phi, universals)
    want = reference_sweep(phi, universals, CONFIG)
    assert not want.is_unknown
    if proved:
        assert want.is_valid, print_term(phi)
    query = SynthQuery("LIA", FunctionSignature("g", (), INT), universals, (phi,))
    got = check_candidate_internal(query, Candidate("g", (), INT, IntLit(0)), CONFIG)
    assert _up_to_bounded(got) == _up_to_bounded(want), print_term(phi)
    if got.is_valid:
        assert got.bounded == (not proved)
    return proved


# ---------------------------------------------------------------------------
# Random linear formulas
# ---------------------------------------------------------------------------

def _nary(op, sub, lo=2, hi=3):
    return st.lists(sub, min_size=lo, max_size=hi).map(lambda args: App(op, tuple(args)))


@functools.lru_cache(maxsize=None)
def _formulas(n, sort, depth):
    """Linear terms of `sort` over the first n names: ite, n-ary + - = and
    =>, not, products with a constant side and Bool-argument =."""
    variables = st.sampled_from([Var(v) for v in NAMES[:n]])
    if sort == INT:
        leaf = st.one_of(variables, variables, st.builds(IntLit, st.integers(-3, 3)))
    else:
        leaf = st.builds(BoolLit, st.booleans())
    if depth == 0:
        return leaf
    i, b = _formulas(n, INT, depth - 1), _formulas(n, BOOL, depth - 1)
    if sort == INT:
        constant = st.builds(IntLit, st.integers(-3, 3))
        scaled = st.one_of(st.tuples(constant, i), st.tuples(i, constant))
        return st.one_of(leaf, st.builds(Ite, b, i, i), _nary("+", i), _nary("-", i, 1),
                         scaled.map(lambda args: App("*", args)))
    return st.one_of(
        st.builds(Ite, b, b, b), _nary("and", b), _nary("or", b), _nary("=>", b),
        _nary("=", b), st.builds(lambda t: App("not", (t,)), b),
        *(st.builds(lambda x, y, op=op: App(op, (x, y)), i, i)
          for op in ("<=", "<", ">=", ">")),
        _nary("=", i))


@st.composite
def _phi(draw, n):
    """A formula over the first n names: a random one (mostly falsified),
    or a tautology built from random parts (which the procedure should
    prove through ite paths and opposite literals)."""
    t, u = draw(_formulas(n, BOOL, 2)), draw(_formulas(n, BOOL, 2))
    return draw(st.sampled_from([
        t,
        App("or", (t, App("not", (t,)))),
        App("=>", (App("and", (t, u)), t)),
        App("=", (t, t)),
        App("=>", (t, u, t)),
    ]))


@st.composite
def _cases(draw):
    """A formula over 1-3 Int universals."""
    n = draw(st.integers(1, 3))
    return draw(_phi(n)), tuple((v, INT) for v in NAMES[:n])


@st.composite
def _conjunctions(draw):
    """Two to four formulas over 1-3 Int universals, conjoined flat or with
    the first ones in an `and` of their own."""
    n = draw(st.integers(1, 3))
    parts = draw(st.lists(_phi(n), min_size=2, max_size=4))
    if len(parts) > 2 and draw(st.booleans()):
        parts = [App("and", tuple(parts[:-1])), parts[-1]]
    return App("and", tuple(parts)), tuple((v, INT) for v in NAMES[:n])


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_decision_procedure_agrees_with_the_walk(case):
    _assert_agrees(*case)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_cases(), _conjunctions()))
def test_decision_procedure_agrees_with_the_whole_dnf(case):
    # refuting a conjunction part by part gives the answers of the
    # procedure that builds the whole DNF first
    assert proves_valid(*case) == reference_proves_valid(*case), print_term(case[0])


# ---------------------------------------------------------------------------
# Answers and their single-site mutations
# ---------------------------------------------------------------------------

_MIN2 = """(set-logic LIA)
(synth-fun f ((a Int) (b Int)) Int)
(declare-var a Int)
(declare-var b Int)
(constraint (<= (f a b) a))
(constraint (<= (f a b) b))
(constraint (or (= a (f a b)) (= b (f a b))))
(check-synth)
"""

_CLAMP = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (<= (f x) x))
(constraint (<= (f x) 7))
(constraint (or (= (f x) x) (= (f x) 7)))
(check-synth)
"""

_INV = """(set-logic LIA)
(synth-inv inv ((x Int)))
(define-fun pre ((x Int)) Bool (= x 0))
(define-fun trans ((x Int) (x! Int)) Bool (= x! (+ x 2)))
(define-fun post ((x Int)) Bool (>= x (- 0 3)))
(inv-constraint inv pre trans post)
(check-synth)
"""

ANSWERS = [
    (_MIN2, "(define-fun f ((a Int) (b Int)) Int (ite (<= a b) a b))"),
    (_CLAMP, "(define-fun f ((x Int)) Int (ite (>= x 7) 7 x))"),
    (MAX2_TEXT, MAX2_SOLUTION),
    (MAX3_TEXT, MAX3_SOLUTION),
    (_INV, "(define-fun inv ((x Int)) Bool (>= x 0))"),
]


def _replaced(term, index, new):
    """`term` with its index-th node in preorder replaced by `new`."""
    counter = itertools.count()

    def walk(t):
        return new if next(counter) == index else map_children(t, walk)

    return walk(term)


_FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}


def _mutants(body):
    """Every single-site mutation: an ite replaced by one of its branches, a
    comparison made strict or not, an integer literal moved by one."""
    for index, t in enumerate(subterms(body)):
        if isinstance(t, Ite):
            news = [t.then_branch, t.else_branch]
        elif isinstance(t, App) and t.op in _FLIP:
            news = [App(_FLIP[t.op], t.args)]
        elif isinstance(t, IntLit):
            news = [IntLit(t.value - 1), IntLit(t.value + 1)]
        else:
            continue
        for new in news:
            yield _replaced(body, index, new)


_NAMES = ["min2", "clamp", "max2", "max3", "inv"]


@pytest.mark.parametrize("text, answer", ANSWERS, ids=_NAMES)
def test_decision_procedure_proves_the_answers(text, answer):
    query = parse_query(text)
    phi = substitute_solution(query, parse_define_fun(answer))
    assert _assert_agrees(phi, query.universals)


@pytest.mark.parametrize("text, answer", ANSWERS, ids=_NAMES)
def test_mutated_answers_agree_with_the_walk(text, answer):
    query = parse_query(text)
    cand = parse_define_fun(answer)
    mutants = list(_mutants(cand.body))
    assert mutants
    falsified = 0
    for body in mutants:
        phi = substitute_solution(query, dataclasses.replace(cand, body=body))
        proved = _assert_agrees(phi, query.universals)
        falsified += not proved
    assert falsified  # each answer has a mutant that is wrong


# ---------------------------------------------------------------------------
# What it proves, and where it says it cannot tell
# ---------------------------------------------------------------------------

_XYZ = {"x": INT, "y": INT, "z": INT}


def _proves(text, env=None):
    env = env or _XYZ
    return proves_valid(parse_term_text(text, env), tuple(env.items()))


@pytest.mark.parametrize("text", [
    "(=> (and (<= x y) (<= y z)) (<= x z))",                      # elimination
    "(or (<= (* 2 x) 0) (>= (* 2 x) 2))",                         # 2x is never 1
    "(not (= (* 2 x) (+ (* 4 y) 1)))",                            # parity
    "(=> (and (< x y) (< y (+ x 2))) (= y (+ x 1)))",             # no integer between
    "(= (ite (>= x y) x y) (ite (< x y) y x))",
    "(=> (>= x 0) (=> (>= y 0) (>= (+ x y) 0)))",
    "(= (- x y (- y)) x)",                                        # n-ary minus
])
def test_proves_valid_formulas(text):
    assert _proves(text)


@pytest.mark.parametrize("text", [
    "(>= x 0)",
    "(=> (and (<= x y) (<= y z)) (< x z))",
    "(or (< (* 2 x) 0) (> (* 2 x) 0))",
])
def test_does_not_prove_falsifiable_formulas(text):
    assert not _proves(text)


def test_a_real_solution_without_an_integer_one_proves_nothing():
    # 3 <= 11x + 13y <= 21 and -8 <= 7x - 9y <= 6 has rational solutions
    # but no integer one (Pugh, CACM 1992): the formula is valid over the
    # integers, and elimination over the rationals cannot show it
    text = ("(not (and (<= 3 (+ (* 11 x) (* 13 y))) (<= (+ (* 11 x) (* 13 y)) 21)"
            " (<= (- 8) (- (* 7 x) (* 9 y))) (<= (- (* 7 x) (* 9 y)) 6)))")
    assert not _proves(text)
    phi = parse_term_text(text, _XYZ)
    universals = (("x", INT), ("y", INT))
    assert reference_sweep(phi, universals, CONFIG) == VerificationResult.valid(bounded=True)


@pytest.mark.parametrize("text, env", [
    ("(>= (* x y) (* x y))", _XYZ),                         # non-linear
    ("(>= (mod x 2) 0)", _XYZ),
    ("(= (* 2 (div x 2)) (- x (mod x 2)))", _XYZ),
    ("(or b (not b))", {"x": INT, "b": BOOL}),              # a Bool universal
])
def test_outside_the_fragment_is_not_proved(text, env):
    assert not _proves(text, env)


def test_an_unbound_variable_or_a_function_is_not_proved():
    valid = parse_term_text("(>= (+ x 1) x)", _XYZ)
    assert proves_valid(valid, (("x", INT),))
    assert not proves_valid(valid, (("y", INT),))
    applied = App(">=", (App("g", (Var("x"),)), App("g", (Var("x"),))))
    assert not proves_valid(applied, (("x", INT),))


def _clauses(k):
    # the conjunction of k clauses (x >= i or y <= i): its DNF has 2^k conjuncts
    return App("and", tuple(App("or", (App(">=", (Var("x"), IntLit(i))),
                                       App("<=", (Var("y"), IntLit(i)))))
                            for i in range(k)))


def test_gives_up_past_the_conjunct_cap():
    # p or not p is valid; past 256 conjuncts the procedure says it cannot tell
    universals = (("x", INT), ("y", INT))
    for k, proved in ((3, True), (9, False)):
        p = _clauses(k)
        phi = App("or", (p, App("not", (p,))))
        assert proves_valid(phi, universals) == reference_proves_valid(phi, universals) == proved


def test_the_conjunct_cap_counts_every_part_of_a_conjunction():
    # each part's negation is one conjunct that elimination refutes; the
    # cap is on the total over the parts, as for the whole DNF
    transitive = parse_term_text("(=> (and (<= x y) (<= y z)) (<= x z))", _XYZ)
    universals = tuple(_XYZ.items())
    for parts, proved in ((256, True), (257, False)):
        phi = App("and", (transitive,) * parts)
        assert proves_valid(phi, universals) == reference_proves_valid(phi, universals) == proved
