"""The one-pass SyGuS front end against the reference parser of
`reference.py`: equal queries, or the same error with the same message, on
generated query texts, on their mutations and on every benchmark file."""

import re
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from synthsel.sygus import SygusError, parse_define_fun, parse_query, terms
from synthsel.sygus import parser as sygus_parser

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


@st.composite
def _inv_query(draw):
    depth = draw(st.integers(1, 2))
    inv = (("inv", ("I", "I"), "B"),)
    pre = draw(_terms("B", ("x", "y"), (), (), inv, depth))
    trans = draw(_terms("B", ("x", "y", "x!", "y!"), (), (), (), depth))
    post = draw(_terms("B", ("x", "y"), (), (), (), depth))
    return f"""; an invariant query
(set-logic LIA)
(synth-inv inv ((x Int) (y Int)))
(define-fun pre ((x Int) (y Int)) Bool {pre})
(define-fun trans ((x Int) (y Int) (x! Int) (y! Int)) Bool
  {trans})
(define-fun post ((x Int) (y Int)) Bool {post})
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
# Sorts are inferred while the terms are read
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
    monkeypatch.setattr(sygus_parser, "infer_sort", counted)
    return calls


@pytest.mark.parametrize("text", [
    MAX3_TEXT, _DEFINE_FUN_QUERY,
    *(p.read_text(encoding="utf-8") for p in BENCHMARKS if p.name == "counter_inv.sl"),
])
def test_a_well_sorted_query_is_not_walked_again_for_its_sorts(monkeypatch, text):
    calls = _count_infer_sort(monkeypatch)
    parse_query(text)
    assert calls == []


def test_a_macro_applied_to_another_sort_is_sorted_by_infer_sort(monkeypatch):
    # (id true) inlines to `true`: the walk has no sort for it, and
    # infer_sort on the finished term finds Bool, as it always did
    calls = _count_infer_sort(monkeypatch)
    query = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(define-fun id ((a Int)) Int a)
(constraint (and (id true) (>= (f x) x)))
(check-synth)
""")
    assert len(query.constraints) == 1 and calls


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
