"""The one-pass SyGuS front end against the reference parser of
`reference.py`: equal queries, or the same error with the same message, on
generated query texts, on their mutations and on every benchmark file."""

import re
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from synthsel.sygus import ParseError, SygusError, parse_define_fun, parse_query, terms

from conftest import MAX3_TEXT

BENCHMARKS = sorted((Path(__file__).parent.parent / "benchmarks").glob("*.sl"))


def _outcome(parse, text):
    try:
        return parse(text)
    except SygusError as exc:
        return type(exc), str(exc)


def _assert_same(text, parse, reference_parse):
    assert _outcome(parse, text) == _outcome(reference_parse, text), text


# ---------------------------------------------------------------------------
# Generated queries
# ---------------------------------------------------------------------------

# Terms are drawn by sort, so most are well sorted; a leaf of another sort
# now and then, a function applied to one argument too few or to arguments
# of the other sort, and the mutations below make the rest ill sorted.
_LEAVES = {"I": ("0", "1", "12", "-3", "(- 4)"), "B": ("true", "false"),
           "W": ("#b00000101", "#xff", "(_ bv3 8)")}
_OTHER_SORT = {"I": ("true", "#xff", "(f 1)"), "B": ("1", "(- 4)"), "W": ("#b0101", "1")}


@lru_cache(maxsize=None)
def _terms(sort, ints, bools, bvs, fn, depth):
    """Text of a term of `sort` ("I", "B" or "W") over the named variables;
    `fn` holds (name, argument sorts, result sort) of the function under
    synthesis and of each macro that may be applied."""
    variables = {"I": ints, "B": bools, "W": bvs}[sort]
    leaf = st.sampled_from((variables + _LEAVES[sort]) * 6 + _OTHER_SORT[sort])
    if depth == 0:
        return leaf

    def sub(s):
        return _terms(s, ints, bools, bvs, fn, depth - 1)

    def app(op, *sorts):
        return st.tuples(*map(sub, sorts)).map(
            lambda args: "(" + " ".join((op,) + args) + ")")

    def applications(result):
        # each function or macro also applied to arguments of the other sort
        return [app(name, *(s if right else "B" if s == "I" else "I" for s in sorts))
                for name, sorts, ret in fn if ret == result for right in (True, False)]

    apps = {
        "I": [app("+", "I", "I"), app("-", "I"), app("-", "I", "I", "I"),
              app("*", "I", "I"), app("div", "I", "I"), app("mod", "I", "I"),
              app("ite", "B", "I", "I")]
             + applications("I"),
        "B": [app(">=", "I", "I"), app("<", "I", "I"), app("=", "I", "I", "I"),
              app("and", "B", "B"), app("or", "B", "B", "B"), app("not", "B"),
              app("=>", "B", "B"), app("ite", "B", "B", "B"),
              app("bvult", "W", "W"), app("=", "W", "W")]
             + applications("B"),
        "W": [app("bvadd", "W", "W"), app("bvand", "W", "W"), app("bvnot", "W"),
              app("ite", "B", "W", "W")],
    }[sort]
    return st.one_of(leaf, *apps)


_GRAMMARS = [""] * 6 + [
    " ((I Int (x y 0 1 (+ I I) (ite B I I))) (B Bool ((>= I I) (not B))))",
    " ((I Int) (B Bool)) ((I Int (x (- 3) (- I) (f I I))) (B Bool (true (< I I))))",
    " ((I Int) (B Bool)) ((I Int (x y 0 (- I) (+ I I) (ite B I I))) (B Bool (true (< I I))))",
    " ((I Int (x y (+ I B) (ite B I I))) (B Bool (true (>= I I))))",  # (+ I B) is ill-sorted
    " ((I Int (x y (+ I I) (>= I I))))",  # a rule of another sort
    " ((B Bool (true (>= I I))) (I Int (x y)))",  # a start symbol of another sort
    " ((I Int ((Constant Int) x)))",
    " ((I Int (x (+ J I))))",  # J is no nonterminal
    " ((I Int (x z)))",  # z is not a parameter
]
_FN = (("f", ("I", "I"), "I"),)
_MACRO = (("m", ("I", "I"), "I"), ("p", ("I",), "B"))


@st.composite
def _synth_fun_query(draw):
    depth = draw(st.integers(1, 3))
    ints, bools, bvs = ("x", "y"), ("b",), ("w",)
    macro_body = draw(_terms(draw(st.sampled_from("IIIIB")), ("a", "c"), (), (), _FN, depth))
    pred_body = draw(_terms("B", ("a",), (), (), (), depth))
    lines = ["(set-logic LIA)"]
    macros_first = draw(st.booleans())  # f is undeclared in their bodies then
    macros = [f"(define-fun m ((a Int) (c Int)) Int {macro_body})",
              f"(define-fun p ((a Int)) Bool {pred_body})"]
    if macros_first:
        lines += macros
    lines.append(f"(synth-fun f ((x Int) (y Int)) Int{draw(st.sampled_from(_GRAMMARS))})")
    lines += ["(declare-var x Int)", "(declare-var y Int)", "(declare-var b Bool)",
              "(declare-var w (_ BitVec 8))"]
    if not macros_first:
        lines += macros
    for _ in range(draw(st.integers(0, 3))):
        sort = draw(st.sampled_from("BBBBI"))
        constraint = draw(_terms(sort, ints, bools, bvs, _FN + _MACRO, depth))
        lines.append(f"(constraint {constraint})")
    if draw(st.booleans()):  # the macros applied to terms of either sort
        arg = _terms(draw(st.sampled_from("IB")), ints, bools, bvs, _FN, depth - 1)
        lines.append(f"(constraint (=> (p {draw(arg)}) (= (m {draw(arg)} y) (f x y))))")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


# Each variant but the first gives inv-constraint macros that do not fit
# the invariant: pre of another arity or with a Bool parameter, post of
# sort Int, trans of the wrong arity, or a state variable declared Bool.
_STATE = ("x", "y", "x!", "y!")
# per variant: pre's parameter list, its Int and its Bool parameters, post's
# sort, trans's parameters (all Int) and a line put before synth-inv
_INV_VARIANTS = {
    "fits": ("((x Int) (y Int))", ("x", "y"), (), "B", _STATE, ""),
    "pre-arity": ("((x Int) (y Int) (z Int))", ("x", "y", "z"), (), "B", _STATE, ""),
    "pre-bool": ("((x Bool) (y Int))", ("y",), ("x",), "B", _STATE, ""),
    "post-int": ("((x Int) (y Int))", ("x", "y"), (), "I", _STATE, ""),
    "trans-arity": ("((x Int) (y Int))", ("x", "y"), (), "B", _STATE[:3], ""),
    "state-bool": ("((x Int) (y Int))", ("x", "y"), (), "B", _STATE,
                   "(declare-var x Bool)\n"),
}


@st.composite
def _inv_query(draw):
    depth = draw(st.integers(1, 2))
    inv = (("inv", ("I", "I"), "B"),)
    kind = draw(st.sampled_from(["fits"] * 5 + list(_INV_VARIANTS)[1:]))
    pre_params, pre_ints, pre_bools, post_sort, trans_vars, declared = _INV_VARIANTS[kind]
    trans_params = "(" + " ".join(f"({v} Int)" for v in trans_vars) + ")"
    pre = draw(_terms("B", pre_ints, pre_bools, (), inv, depth))
    trans = draw(_terms("B", trans_vars, (), (), (), depth))
    post = draw(_terms(post_sort, ("x", "y"), (), (), (), depth))
    post_ret = {"B": "Bool", "I": "Int"}[post_sort]
    return f"""; an invariant query
(set-logic LIA)
{declared}(synth-inv inv ((x Int) (y Int)))
(define-fun pre {pre_params} Bool {pre})
(define-fun trans {trans_params} Bool
  {trans})
(define-fun post ((x Int) (y Int)) {post_ret} {post})
(inv-constraint inv pre trans post)
(check-synth)
"""


_ATOM = re.compile(r"[^\s();]+")


@st.composite
def _mutated(draw, queries):
    """A query text, and now and then one mutation of it: a dropped or extra
    parenthesis, an undeclared atom, an atom of another sort, or a
    non-ASCII numeral."""
    text = draw(queries)
    kind = draw(st.sampled_from(["none"] * 4 + ["drop", "extra", "atom"]))
    if kind == "drop":
        parens = [i for i, ch in enumerate(text) if ch in "()"]
        i = draw(st.sampled_from(parens))
        return text[:i] + text[i + 1:]
    if kind == "extra":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from("()")) + text[i:]
    if kind == "atom":
        m = draw(st.sampled_from(list(_ATOM.finditer(text))))
        atom = draw(st.sampled_from(["zz", "b", "x", "true", "w", "7", "²", "1²", "#x٣"]))
        return text[:m.start()] + atom + text[m.end():]
    return text


@settings(max_examples=400)
@given(_mutated(st.one_of(_synth_fun_query(), _inv_query())))
def test_parse_query_matches_the_reference_parser(text):
    _assert_same(text, parse_query, reference.parse_query)


@settings(max_examples=150)
@given(_mutated(_terms("I", ("x", "y"), (), (), (), 2)
                .map(lambda body: f"(define-fun g ((x Int) (y Int)) Int {body})")))
def test_parse_define_fun_matches_the_reference_parser(text):
    _assert_same(text, parse_define_fun, reference.parse_define_fun)


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_files_match_the_reference_parser(path):
    _assert_same(path.read_text(encoding="utf-8"), parse_query, reference.parse_query)


# ---------------------------------------------------------------------------
# Each term is sorted once, while it is read
# ---------------------------------------------------------------------------

_DEFINE_FUN_QUERY = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(define-fun twice ((a Int)) Int (* 2 a))
(define-fun pos ((a Int)) Bool (ite (> a 0) true false))
(constraint (>= (f x) (twice x)))
(constraint (=> (pos x) (pos (f x))))
(check-synth)
"""


def _count_infer_sort(monkeypatch):
    calls = []
    infer_sort = terms.infer_sort

    def counted(*args):
        calls.append(args)
        return infer_sort(*args)

    monkeypatch.setattr(terms, "infer_sort", counted)
    return calls


@pytest.mark.parametrize("text", [
    MAX3_TEXT, _DEFINE_FUN_QUERY,
    *(p.read_text(encoding="utf-8") for p in BENCHMARKS if p.name == "counter_inv.sl"),
])
def test_a_well_sorted_query_is_not_walked_again_for_its_sorts(monkeypatch, text):
    calls = _count_infer_sort(monkeypatch)
    parse_query(text)
    assert calls == []


def test_a_macro_applied_to_another_sort_is_rejected_where_it_is_applied():
    # (id true) would inline to `true`, a Bool: the application is sorted by
    # id's signature, before the body is inlined
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(define-fun id ((a Int)) Int a)
(constraint (and (id true) (>= (f x) x)))
(check-synth)
"""
    with pytest.raises(ParseError) as raised:
        parse_query(text)
    assert str(raised.value) == ("argument 0 of 'id' has sort Bool, expected Int "
                                 "(line 5, column 19)")
    _assert_same(text, parse_query, reference.parse_query)


_ILL_SORTED_TERMS = {
    # the first ill-sorted node in reading order, children before their
    # operator: (+ x b) is reported, not the constraint's `and` around it
    "argument": ("(and (>= (+ x b) 0) true)",
                 "'+' expects Int arguments, got Bool (line 6, column 23)"),
    "ite-condition": ("(= (f x) (ite x 1 0))",
                      "ite condition must be Bool, got Int (line 6, column 23)"),
    "ite-branches": ("(= (f x) (ite b 1 b))",
                     "ite branches disagree: Int vs Bool (line 6, column 23)"),
    "function-argument": ("(>= (f b) 0)",
                          "argument 0 of 'f' has sort Bool, expected Int "
                          "(line 6, column 18)"),
    "equality": ("(= x b)", "'=' arguments disagree: Int vs Bool (line 6, column 14)"),
    # a sort error before a later reading error wins
    "before-an-undeclared-symbol": ("(and (not x) zz)",
                                    "'not' expects Bool arguments, got Int "
                                    "(line 6, column 19)"),
}


@pytest.mark.parametrize("constraint, message", _ILL_SORTED_TERMS.values(),
                         ids=_ILL_SORTED_TERMS)
def test_a_sort_error_is_raised_at_the_first_ill_sorted_node(constraint, message):
    text = f"""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(declare-var b Bool)

(constraint {constraint})
(check-synth)
"""
    with pytest.raises(ParseError) as raised:
        parse_query(text)
    assert str(raised.value) == message
    _assert_same(text, parse_query, reference.parse_query)


@pytest.mark.parametrize("text, message", [
    ("(define-fun f ((x Int)) Int (+ x (> x 0)))",
     "'+' expects Int arguments, got Bool (line 1, column 30)"),
    ("(define-fun f ((x Int)) Int\n  (> x 0))",
     "define-fun 'f' body has sort Bool, declared Int (line 1, column 2)"),
])
def test_a_define_fun_answer_of_another_sort_is_rejected_with_its_position(text, message):
    with pytest.raises(ParseError) as raised:
        parse_define_fun(text)
    assert str(raised.value) == message
    _assert_same(text, parse_define_fun, reference.parse_define_fun)


_INV_PROBE = """(set-logic LIA)
(synth-inv inv ((x Int)))
(define-fun pre {pre})
(define-fun trans ((x Int) (x! Int)) Bool (= x! (+ x 1)))
(define-fun post ((x Int)) {post})
(inv-constraint inv pre trans post)
(check-synth)
"""
_INV_MISFITS = {
    "pre-of-two-parameters": ("", dict(pre="((x Int) (y Int)) Bool (= x y)"),
                              "'pre' expects 2 arguments, got 1 (line 6, column 2)"),
    "pre-of-a-Bool": ("", dict(pre="((x Bool)) Bool x"),
                      "argument 0 of 'pre' has sort Int, expected Bool (line 6, column 2)"),
    "post-of-sort-Int": ("", dict(post="Int (+ x 1)"),
                         "'post' returns Int, not Bool (line 6, column 2)"),
    "state-declared-Bool": ("(declare-var x Bool)\n", {},
                            "argument 0 of 'inv' has sort Bool, expected Int "
                            "(line 7, column 2)"),
}


@pytest.mark.parametrize("declared, macros, message", _INV_MISFITS.values(),
                         ids=_INV_MISFITS)
def test_inv_constraint_macros_that_do_not_fit_the_invariant_are_rejected(
        declared, macros, message):
    text = declared + _INV_PROBE.format(**{"pre": "((x Int)) Bool (= x 0)",
                                           "post": "Bool (>= x 0)", **macros})
    with pytest.raises(ParseError) as raised:
        parse_query(text)
    assert str(raised.value) == message
    _assert_same(text, parse_query, reference.parse_query)


@pytest.mark.parametrize("text", [
    "(define-fun and ((a Int) (b Int)) Bool (> a b))",
    "(define-fun + ((a Bool)) Bool a)",
])
def test_a_define_fun_may_not_redefine_an_operator(text):
    query = f"(set-logic LIA)\n{text}\n(synth-fun f ((x Int)) Int)\n(check-synth)\n"
    with pytest.raises(ParseError, match="define-fun redefines the operator"):
        parse_query(query)
    _assert_same(query, parse_query, reference.parse_query)
    _assert_same(text, parse_define_fun, reference.parse_define_fun)


_SORT_REJECTIONS = {
    "rule-of-another-sort": " ((I Int (x y (+ I I) (>= I I))))",
    "hole-of-another-sort": " ((I Int (x (ite B I I) B)) (B Bool (true (>= I I))))",
    "start-of-another-sort": " ((B Bool ((>= I I))) (I Int (x y)))",
    "rule-of-another-width": " ((I Int (x (bvadd W W))) (W (_ BitVec 8) (#x01)))",
}


@pytest.mark.parametrize("grammar", _SORT_REJECTIONS.values(), ids=_SORT_REJECTIONS)
def test_ill_sorted_grammars_match_the_reference_parser(grammar):
    text = f"""(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int{grammar})
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f x y) x))
(check-synth)
"""
    with pytest.raises(SygusError, match="sort"):
        parse_query(text)
    _assert_same(text, parse_query, reference.parse_query)


def test_a_repeated_parameter_matches_the_reference_parser():
    text = MAX3_TEXT.replace("(v1 Int) (v2 Int)", "(v1 Int) (v0 Int)", 1)
    with pytest.raises(SygusError, match="parameter 'v0' declared twice"):
        parse_query(text)
    _assert_same(text, parse_query, reference.parse_query)
