import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from synthsel.sygus import (
    App,
    ArityError,
    BoolLit,
    BVLit,
    Candidate,
    GrammarError,
    IntLit,
    Ite,
    ParseError,
    SygusError,
    UnsupportedError,
    Var,
    BOOL,
    INT,
    apply_candidate,
    default_grammar,
    grammar_for_query,
    infer_sort,
    parse_define_fun,
    parse_query,
    parse_term_text,
    parse_user_grammar,
    print_define_fun,
    print_query,
    print_term,
    read_sexprs,
    substitute_solution,
    subterms,
)
from synthsel.sygus.grammar import Hole, Production, fill_holes, min_completion_costs
from synthsel.sygus.parser import _position

import reference
from conftest import MAX2_TEXT, MAX3_TEXT
from reference import Token, _head


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_figure_query(max3_query):
    q = max3_query
    assert q.logic == "LIA"
    assert q.synth_fun.name == "f"
    assert len(q.synth_fun.params) == 3
    assert all(s == INT for _, s in q.synth_fun.params)
    assert len(q.universals) == 3
    assert len(q.constraints) == 4


def test_parse_empty_constraints():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
"""
    q = parse_query(text)
    assert q.constraints == ()


def test_parse_arity_error():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= x))
(check-synth)
"""
    with pytest.raises(ParseError, match=">="):
        parse_query(text)


def test_parse_undeclared_symbol():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(constraint (>= (f y) y))
(check-synth)
"""
    with pytest.raises(ParseError, match="undeclared"):
        parse_query(text)


def test_parse_error_carries_position():
    text = "(set-logic LIA)\n(bogus-command)\n"
    with pytest.raises(UnsupportedError, match="line 2"):
        parse_query(text)


@pytest.mark.parametrize("sort, where", [
    ("(Array Int Int)", "'(Array Int Int)' (line 2, column 19)"),
    ("(_ BitVec)", "'(_ BitVec)' (line 2, column 19)"),
    ("Real", "'Real' (line 2, column 18)"),
])
def test_an_unsupported_parameter_sort_is_reported_with_its_line_and_column(sort, where):
    text = f"(set-logic LIA)\n(synth-fun f ((x {sort})) Int)\n(check-synth)\n"
    with pytest.raises(UnsupportedError) as info:
        parse_query(text)
    assert str(info.value) == f"unsupported sort {where}"


def test_multiple_synth_funs_rejected():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(synth-fun g ((x Int)) Int)
(check-synth)
"""
    with pytest.raises(UnsupportedError, match="one function"):
        parse_query(text)


def test_comments_stripped():
    text = """; header comment
(set-logic LIA) ; trailing
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= (f x) x)) ; note
(check-synth)
"""
    q = parse_query(text)
    assert len(q.constraints) == 1


def test_constraint_must_be_bool():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (+ x 1))
(check-synth)
"""
    with pytest.raises(ParseError, match="Bool"):
        parse_query(text)


def test_round_trip_corpus(max3_query, max2_query):
    for q in (max3_query, max2_query):
        reparsed = parse_query(print_query(q))
        assert reparsed.constraints == q.constraints
        assert reparsed.synth_fun == q.synth_fun
        assert reparsed.universals == q.universals
        assert print_query(reparsed) == print_query(q)


def test_inv_constraint_desugars():
    text = """(set-logic LIA)
(synth-inv inv ((x Int)))
(define-fun pre ((x Int)) Bool (= x 0))
(define-fun trans ((x Int) (x! Int)) Bool (= x! (+ x 1)))
(define-fun post ((x Int)) Bool (>= x 0))
(inv-constraint inv pre trans post)
(check-synth)
"""
    q = parse_query(text)
    assert q.from_inv_constraint
    assert len(q.constraints) == 3
    assert [n for n, _ in q.universals] == ["x", "x!"]
    assert q.synth_fun.return_sort == BOOL
    # the desugared query still round-trips
    again = parse_query(print_query(q))
    assert again.constraints == q.constraints


def test_define_fun_macro_inlined():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(define-fun twice ((a Int)) Int (* 2 a))
(constraint (>= (f x) (twice x)))
(check-synth)
"""
    q = parse_query(text)
    assert print_term(q.constraints[0]) == "(>= (f x) (* 2 x))"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def test_app_arity_checked_on_construction():
    with pytest.raises(ArityError):
        App("not", (Var("a"), Var("b")))
    with pytest.raises(SygusError):
        App("ite", (Var("a"), Var("b"), Var("c")))


def test_infer_sort():
    env = {"x": INT, "p": BOOL}
    assert infer_sort(parse_term_text("(+ x 1)", env), env) == INT
    assert infer_sort(parse_term_text("(ite p x (- x))", env), env) == INT
    assert infer_sort(parse_term_text("(and p (>= x 0))", env), env) == BOOL


def test_candidate_validates_body():
    with pytest.raises(SygusError, match="undeclared"):
        Candidate("f", (("x", INT),), INT, Var("y"))
    with pytest.raises(SygusError):
        Candidate("f", (("x", INT),), BOOL, Var("x"))
    # unknown operator symbols never make it into a candidate
    with pytest.raises(SygusError):
        parse_define_fun("(define-fun f ((x Int)) Int (frobnicate x))")


def test_print_define_fun_fixpoint():
    text = "(define-fun f ((v0 Int) (v1 Int)) Int (ite (>= v0 v1) v0 v1))"
    cand = parse_define_fun(text)
    assert print_define_fun(cand) == text
    assert parse_define_fun(print_define_fun(cand)) == cand


def test_print_projection_candidate():
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    assert print_define_fun(cand) == \
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)"


def test_substitute_solution_projection(max3_query):
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    phi = substitute_solution(max3_query, cand)
    assert "f" not in print_term(phi).replace("false", "")
    assert print_term(phi).startswith("(and (>= v0 v0)")


def test_substitute_solution_no_occurrence():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= x 0))
(check-synth)
"""
    q = parse_query(text)
    cand = parse_define_fun("(define-fun f ((x Int)) Int x)")
    assert print_term(substitute_solution(q, cand)) == "(>= x 0)"


def test_substitute_solution_nested(max3_query):
    env = dict(max3_query.universals)
    nested = parse_term_text("(>= (f (f v0 v0 v0) v1 v2) v0)", env,
                             max3_query.synth_fun)
    cand = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    assert print_term(apply_candidate(nested, cand)) == "(>= v0 v0)"


def test_substitute_signature_mismatch(max3_query):
    cand = parse_define_fun("(define-fun f ((v0 Int)) Int v0)")
    with pytest.raises(SygusError, match="signature"):
        substitute_solution(max3_query, cand)


def test_substitute_empty_constraints_gives_true():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
"""
    q = parse_query(text)
    cand = parse_define_fun("(define-fun f ((x Int)) Int 0)")
    assert print_term(substitute_solution(q, cand)) == "true"


def test_negative_literal_round_trip():
    env = {"x": INT}
    t = parse_term_text("(+ x (- 5))", env)
    assert print_term(t) == "(+ x (- 5))"
    t2 = parse_term_text("(+ x -5)", env)
    assert print_term(t2) == "(+ x (- 5))"


# ---------------------------------------------------------------------------
# Grammars
# ---------------------------------------------------------------------------

def test_default_grammar_lia_productions(max3_query):
    g = grammar_for_query(max3_query)
    assert g.start == "I"
    labels_i = {str(p.template) if not p.holes else None
                for p in g.productions["I"]}
    # parameters plus the {0, 1} pool as leaves
    assert {"v0", "v1", "v2", "0", "1"} <= {s for s in labels_i if s}
    assert len(g.productions["I"]) == 9
    assert len(g.productions["B"]) == 6


def test_default_grammar_literal_pool():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= (f x) 7))
(check-synth)
"""
    q = parse_query(text)
    g = grammar_for_query(q)
    leaves = {str(p.template) for p in g.productions["I"] if not p.holes}
    assert leaves == {"x", "0", "1", "7"}


def test_default_grammar_no_params():
    from synthsel.sygus import FunctionSignature

    sig = FunctionSignature("f", (), INT)
    g = default_grammar("LIA", sig)
    leaves = {str(p.template) for p in g.productions["I"] if not p.holes}
    assert leaves == {"0", "1"}


def test_default_grammar_unsupported_logic():
    from synthsel.sygus import FunctionSignature

    sig = FunctionSignature("f", (("x", INT),), INT)
    with pytest.raises(UnsupportedError):
        default_grammar("STRINGS", sig)


def test_default_grammar_depth2_terms_well_sorted(max3_query):
    """Every depth-bounded derivation of the default grammar is a well-sorted
    term of the right sort."""
    g = grammar_for_query(max3_query)
    env = dict(max3_query.synth_fun.params)

    def expand(nt, depth):
        for p in g.productions[nt]:
            if not p.holes:
                yield p.template
            elif depth > 0:
                import itertools
                child_options = [list(expand(h, depth - 1)) for h in p.holes]
                for combo in itertools.product(*child_options):
                    yield fill_holes(p.template, list(combo))

    count = 0
    for term in expand("I", 1):
        assert infer_sort(term, env) == INT
        count += 1
    assert count > 9  # leaves plus one level of composites


def test_default_grammar_derivable():
    g = default_grammar("LIA",
                        parse_query(MAX3_TEXT).synth_fun)
    costs = min_completion_costs(g)
    assert set(costs) == {"I", "B"}
    assert all(math.isfinite(c) for c in costs.values())


_BV_BOOL_RELATIONS = ["B -> (= W W)", "B -> (bvult W W)", "B -> (and B B)",
                      "B -> (or B B)", "B -> (not B)"]


@pytest.mark.parametrize("text, start, expected", [
    pytest.param("""(set-logic LIA)
(synth-fun f ((x Int) (p Bool) (y Int)) Int)
(declare-var x Int)
(declare-var p Bool)
(declare-var y Int)
(constraint (>= (f x p y) 7))
(constraint (or p (= (f x p y) (- x 3))))
(constraint (> (f x p y) (- 5)))
(constraint (<= (f x p y) 100))
(check-synth)
""", "I", [
        ["I -> x", "I -> y", "I -> (- 5)", "I -> 0", "I -> 1", "I -> 3", "I -> 7",
         "I -> 100", "I -> (+ I I)", "I -> (- I I)", "I -> (* I I)",
         "I -> (ite B I I)"],
        ["B -> p", "B -> (>= I I)", "B -> (<= I I)", "B -> (= I I)",
         "B -> (and B B)", "B -> (or B B)", "B -> (not B)"],
    ], id="lia-int-literals"),
    pytest.param("""(set-logic LIA)
(synth-fun f ((x Int) (p Bool)) Bool)
(declare-var x Int)
(declare-var p Bool)
(constraint (= (f x p) (and p (>= x 2))))
(check-synth)
""", "B", [
        ["I -> x", "I -> 0", "I -> 1", "I -> 2", "I -> (+ I I)", "I -> (- I I)",
         "I -> (* I I)", "I -> (ite B I I)"],
        ["B -> p", "B -> (>= I I)", "B -> (<= I I)", "B -> (= I I)",
         "B -> (and B B)", "B -> (or B B)", "B -> (not B)"],
    ], id="lia-bool-param"),
    pytest.param("""(set-logic BV)
(synth-fun f ((a (_ BitVec 8)) (c (_ BitVec 4)) (b (_ BitVec 8))) (_ BitVec 8))
(declare-var a (_ BitVec 8))
(declare-var b (_ BitVec 8))
(declare-var c (_ BitVec 4))
(constraint (= (f a c b) (bvand a #x0f)))
(constraint (= (bvor c #b1010) (bvor #b1010 c)))
(check-synth)
""", "W", [
        ["W -> a", "W -> b", "W -> #b00000000", "W -> #b00000001",
         "W -> #b00001111", "W -> (bvadd W W)", "W -> (bvsub W W)",
         "W -> (bvand W W)", "W -> (bvor W W)", "W -> (bvxor W W)",
         "W -> (bvnot W)", "W -> (ite B W W)"],
        _BV_BOOL_RELATIONS,
    ], id="bv-word-literals-of-two-widths"),
    # a declared change: the Bool parameter joins B (it used to be dropped,
    # so no BV function could read it)
    pytest.param("""(set-logic BV)
(synth-fun f ((a (_ BitVec 4)) (p Bool)) Bool)
(declare-var a (_ BitVec 4))
(declare-var p Bool)
(constraint (= (f a p) (and p (bvult a #x3))))
(check-synth)
""", "B", [
        ["W -> a", "W -> #b0000", "W -> #b0001", "W -> #b0011", "W -> (bvadd W W)",
         "W -> (bvsub W W)", "W -> (bvand W W)", "W -> (bvor W W)",
         "W -> (bvxor W W)", "W -> (bvnot W)", "W -> (ite B W W)"],
        ["B -> p"] + _BV_BOOL_RELATIONS,
    ], id="bv-bool-param"),
])
def test_default_grammar_productions_in_order(text, start, expected):
    g = grammar_for_query(parse_query(text))
    assert g.start == start
    assert [[str(p) for p in prods] for prods in g.productions.values()] == expected


def test_user_grammar_unit_production_inlined():
    sig = parse_query(MAX2_TEXT).synth_fun
    g = parse_user_grammar(
        "((Start Int (I)) (I Int (v0 v1 (+ I I))))", sig)
    # Start's unit production was replaced by I's concrete templates
    assert all(not isinstance(p.template, Hole)
               for p in g.productions["Start"])
    assert len(g.productions["Start"]) == 3


def test_fill_holes_rejects_a_wrong_number_of_subterms():
    template = App("+", (Hole("I"), Ite(Hole("B"), Hole("I"), IntLit(1))))
    kids = [Var("x"), BoolLit(True), IntLit(2)]
    assert print_term(fill_holes(template, kids)) == "(+ x (ite true 2 1))"
    for n in range(3):
        with pytest.raises(GrammarError, match="too few"):
            fill_holes(template, kids[:n])
    with pytest.raises(GrammarError, match="too many"):
        fill_holes(template, kids + [IntLit(3)])


def test_user_grammar_rejects_unknown_symbol():
    sig = parse_query(MAX2_TEXT).synth_fun
    with pytest.raises(GrammarError):
        parse_user_grammar("((I Int (zz)))", sig)


def test_bv_grammar():
    text = """(set-logic BV)
(synth-fun f ((a (_ BitVec 8)) (b (_ BitVec 8))) (_ BitVec 8))
(declare-var a (_ BitVec 8))
(declare-var b (_ BitVec 8))
(constraint (= (f a b) (bvand a b)))
(check-synth)
"""
    q = parse_query(text)
    g = grammar_for_query(q)
    assert g.start == "W"
    ops = {p.template.op for p in g.productions["W"]
           if isinstance(p.template, App)}
    assert {"bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvnot"} <= ops


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_names = st.sampled_from(["v0", "v1", "v2"])


def _terms(depth=2):
    leaf = st.one_of(
        st.integers(-5, 5).map(IntLit),
        st.booleans().map(BoolLit),
        _names.map(Var),
    )
    leaf_int = st.one_of(st.integers(-5, 5).map(IntLit), _names.map(Var))

    def int_term(d):
        if d == 0:
            return leaf_int
        sub = int_term(d - 1)
        return st.one_of(
            leaf_int,
            st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub)
              .map(lambda t: App(t[0], (t[1], t[2]))),
        )

    return int_term(depth)


@given(_terms())
def test_print_parse_round_trip_random_terms(term):
    env = {"v0": INT, "v1": INT, "v2": INT}
    assert parse_term_text(print_term(term), env) == term


# templates whose hole tokens ("N0", "N1", "Start") differ from every other
# token, so a hole can be found in the printed text by its name
_HOLE_TOKEN = re.compile(r"\b(?:N0|N1|Start)\b")


def _templates():
    leaf = st.one_of(st.sampled_from(["N0", "N1", "Start"]).map(Hole),
                     st.integers(-5, 5).map(IntLit), _names.map(Var))
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub)
          .map(lambda t: App(t[0], t[1:])),
        st.tuples(st.sampled_from(["not", "-"]), sub)
          .map(lambda t: App(t[0], t[1:])),
        st.tuples(sub, sub, sub).map(lambda t: Ite(*t)),
    ), max_leaves=10)


@given(_templates(), st.data())
def test_fill_holes_replaces_printed_holes_left_to_right(template, data):
    n = len(_HOLE_TOKEN.findall(print_term(template)))
    kids = data.draw(st.lists(_terms(1), min_size=n, max_size=n))
    printed = iter([print_term(k) for k in kids])
    expected = _HOLE_TOKEN.sub(lambda m: next(printed), print_term(template))
    assert print_term(fill_holes(template, kids)) == expected


@given(_templates())
def test_production_holes_are_the_printed_holes_in_order(template):
    assert list(Production("N0", template).holes) == \
        _HOLE_TOKEN.findall(print_term(template))


def _tokenize_by_characters(text):
    """The character-at-a-time lexer the regular expression replaced."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(Token(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            tokens.append(Token(text[start:i], line, start_col))
    return tokens


def _as_tokens(sexpr, text):
    """The reader's output with each atom's offset turned into a Token."""
    if isinstance(sexpr, tuple):
        return Token(sexpr[0], *_position(text, sexpr[1]))
    return [_as_tokens(x, text) for x in sexpr]


def _read_or_error(read):
    try:
        return read()
    except ParseError as exc:
        return str(exc), exc.line, exc.col


@given(st.text(alphabet="();\n \t\r\x0b\x0c\x1c\x85\xa0\u2028ab-#1", max_size=60)
       | st.text(max_size=40))
def test_tokenize_matches_the_character_lexer(text):
    # every atom's text, line and column, the nesting and the token count
    # match the character lexer read by the reference reader, and so does
    # the error of an unbalanced text; without its parentheses, every text
    # is read
    for source in (text, text.replace("(", " ").replace(")", " ")):
        tokens = _tokenize_by_characters(source)

        def read():
            exprs, count = read_sexprs(source)
            return _as_tokens(exprs, source), count

        assert _read_or_error(read) == _read_or_error(
            lambda: (reference.read_sexprs(tokens), len(tokens)))


# ---------------------------------------------------------------------------
# One term reader: numerals, indexed literals, grammar rules
# ---------------------------------------------------------------------------

def _max2_with(constraint="(= (f x y) x)", declare=""):
    return f"""(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
{declare}
(constraint {constraint})
(check-synth)
"""


@pytest.mark.parametrize("atom", ["²", "-²", "1²", "#x٣", "#x1_0", "#x+f", "#b", "#b12"])
def test_a_numeral_is_ascii_digits(atom):
    # str.isdigit() accepts '²', and int() then raised ValueError instead of
    # a SygusError; int(_, 16) accepts '٣', '_' and a sign
    with pytest.raises(ParseError, match="undeclared symbol"):
        parse_query(_max2_with(f"(= (f x y) {atom})"))


@pytest.mark.parametrize("text, message", [
    # line 6 is the constraint; an empty list is placed at its own '('
    (_max2_with("(and () true)"), "empty application (line 6, column 18)"),
    (_max2_with("(and (() 1) true)"), "expected an operator symbol (line 6, column 18)"),
    (_max2_with("(= (f x y) x)") + "()\n", "expected a command (line 8, column 1)"),
    (_max2_with("(= (f x y) x)") + "  ( ; a comment\n (\n))\n",
     "expected a command (line 8, column 3)"),
])
def test_an_empty_list_error_has_a_position(text, message):
    with pytest.raises(ParseError) as info:
        parse_query(text)
    assert str(info.value) == message


def test_an_empty_list_in_a_term_or_define_fun_has_a_position():
    with pytest.raises(ParseError, match=r"^empty application \(line 2, column 3\)$"):
        parse_term_text("(+ 1\n  ())", {"x": INT})
    with pytest.raises(ParseError, match=r"^empty application \(line 1, column 34\)$"):
        parse_define_fun("(define-fun f ((x Int)) Int (+ x ()))")


@pytest.mark.parametrize("width", ["²", "٣", "-8", "8.0"])
def test_a_bitvector_width_is_a_numeral(width):
    with pytest.raises(UnsupportedError):
        parse_query(_max2_with(declare=f"(declare-var z (_ BitVec {width}))"))


def test_a_corpus_run_skips_a_file_with_a_non_ascii_numeral(tmp_path):
    from synthsel.cli import main

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "max2.sl").write_text(MAX2_TEXT)
    (corpus / "superscript.sl").write_text(_max2_with("(= (f x y) ²)"))
    out_dir = tmp_path / "out"
    code = main(["run", str(corpus), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--seed", "3",
                 "--state", str(tmp_path / "state.jsonl"), "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [Path(r["query_id"]).name for r in report["records"]] == ["max2.sl"]
    assert [Path(p).name for p in report["skipped"]] == ["superscript.sl"]


_BV_QUERY = """(set-logic BV)
(synth-fun g ((w (_ BitVec 8))) (_ BitVec 8))
(declare-var w (_ BitVec 8))
(constraint (= (g w) (bvadd w (_ bv5 8))))
(check-synth)
"""


def test_indexed_bitvector_literal_round_trips_through_print_query():
    q = parse_query(_BV_QUERY)
    assert BVLit(5, 8) in set(subterms(q.constraints[0]))
    printed = print_query(q)
    assert "(bvadd w #b00000101)" in printed
    again = parse_query(printed)
    assert again.constraints == q.constraints
    assert print_query(again) == printed


@pytest.mark.parametrize("grammar", [
    "((I Int (x y 0 (+ I I) (ite B I I))) (B Bool ((>= I I) (not B))))",
    "((I Int) (B Bool)) ((I Int (x y 1 (- I) (ite B I I))) (B Bool (true (< I I))))",
], ids=["v1", "v2"])
def test_a_user_grammar_round_trips_through_print_query(grammar):
    # style 4 and the few-shot block print queries, user grammar included
    q = parse_query(f"""(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
  {grammar})
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f x y) x))
(check-synth)
""")
    printed = print_query(q)
    assert f"(synth-fun f ((x Int) (y Int)) Int {grammar})\n" in printed
    again = parse_query(printed)
    assert again.user_grammar == q.user_grammar is not None
    assert again.user_grammar_sexpr == q.user_grammar_sexpr == grammar
    assert again.constraints == q.constraints
    assert print_query(again) == printed


@pytest.mark.parametrize("literal", ["(_ bv256 8)", "(_ bv5 0)", "(_ bv² 8)",
                                     "(_ bv5 ²)", "(_ bv 8)", "(_ bv5)",
                                     "(_ BitVec 8)", "(_ bvx5 8)"])
def test_indexed_literal_must_be_a_bitvector_in_range(literal):
    with pytest.raises(ParseError):
        parse_query(_BV_QUERY.replace("(_ bv5 8)", literal))


def test_grammar_folds_a_negated_numeral_into_one_literal():
    sig = parse_query(_max2_with()).synth_fun
    g = parse_user_grammar("((I Int (x (- 3) (- I))) (W (_ BitVec 8) ((_ bv5 8))))", sig)
    templates = [p.template for nt in ("I", "W") for p in g.productions[nt]]
    assert templates == [Var("x"), IntLit(-3), App("-", (Hole("I"),)), BVLit(5, 8)]
    assert [str(p) for nt in ("I", "W") for p in g.productions[nt]] == \
        ["I -> x", "I -> (- 3)", "I -> (- I)", "W -> #b00000101"]


@pytest.mark.parametrize("rules, error", [
    ("((I Int ((Constant Int))))", UnsupportedError),
    ("((I Int (x (Variable Int))))", UnsupportedError),
    ("((I Int ((+ x (Constant Int)))))", GrammarError),  # nested: not a term
    ("((I Int ((+ x))))", GrammarError),
    ("((I Int ((ite x x))))", GrammarError),
    ("((I Int ((frob x))))", GrammarError),
    ("((I Int (())))", GrammarError),
    ("((I Int (((+) x))))", GrammarError),
    ("((I Int ((+ x ²))))", GrammarError),
])
def test_grammar_rule_errors(rules, error):
    sig = parse_query(_max2_with()).synth_fun
    with pytest.raises(error) as raised:
        parse_user_grammar(rules, sig)
    assert type(raised.value) is error


# parse_user_grammar's own term reader from before grammar rules were read by
# the query parser, kept as the oracle of the differential test below (it
# shares the reference parser's reading of a single literal token).

def _frozen_to_template(nonterminals, params):
    from reference import _parse_literal
    from synthsel.sygus.terms import is_operator

    def to_template(sexpr):
        if isinstance(sexpr, Token):
            if sexpr.text in nonterminals:
                return Hole(sexpr.text)
            lit = _parse_literal(sexpr)
            if lit is not None:
                return lit
            if sexpr.text in params:
                return Var(sexpr.text)
            raise GrammarError(f"grammar references unknown symbol {sexpr.text!r}")
        if not sexpr or not isinstance(sexpr[0], Token):
            raise GrammarError("malformed grammar term")
        op = sexpr[0].text
        if op in ("Constant", "Variable", "InputVariable", "LocalVariable"):
            raise UnsupportedError(f"grammar generator {op!r} is not supported")
        args = tuple(to_template(a) for a in sexpr[1:])
        if op == "ite":
            if len(args) != 3:
                raise GrammarError("ite expects 3 arguments in grammar")
            return Ite(args[0], args[1], args[2])
        if not is_operator(op):
            raise GrammarError(f"grammar references unknown operator {op!r}")
        return App(op, args)

    return to_template


def _frozen_user_grammar(text, signature):
    """(grammar, None) or (None, (error, failing entry or None)). A rule is
    well-sorted as `reference.rule_sort` reads it, and the start symbol has
    the return sort, or the rules are a GrammarError."""
    from synthsel.sygus.grammar import Grammar, _inline_unit_productions
    from reference import parse_sort, read_sexprs, rule_sort, tokenize

    (groups,) = read_sexprs(tokenize(text))
    raw_rules = {g[0].text: list(g[2]) for g in groups}
    sorts = {g[0].text: parse_sort(g[1]) for g in groups}
    if next(iter(sorts.values())) != signature.return_sort:
        return None, (GrammarError("start symbol of another sort"), None)
    params = dict(signature.params)
    to_template = _frozen_to_template(raw_rules, params)
    templates = {}
    for nt, entries in raw_rules.items():
        templates[nt] = []
        for entry in entries:
            try:
                template = to_template(entry)
            except SygusError as exc:
                return None, (exc, entry)
            if rule_sort(template, params, sorts) != sorts[nt]:
                return None, (GrammarError("ill-sorted rule"), entry)
            templates[nt].append(template)
    try:
        _inline_unit_productions(templates)
        return Grammar(
            start=next(iter(raw_rules)),
            sorts=sorts,
            productions={nt: tuple(Production(nt, t) for t in temps)
                         for nt, temps in templates.items()}), None
    except SygusError as exc:
        return None, (exc, None)


_NONTERMINALS = ["N0", "N1", "N2"]
_GENERATORS = ("Constant", "Variable")
# Mostly well-formed rules; each kind of error shows up now and then. `(- n)`
# now folds for every literal n but prints as before only for a numeral
# n > 0, so unary minus is drawn over those and over non-literals.
_RULE_ATOMS = st.sampled_from(
    (_NONTERMINALS + ["x", "y", "0", "1", "7", "-4", "(- 4)", "(- 12)",
                      "(- N1)", "(- x)", "true", "false"]) * 2
    + ["zz"])
_RULE_APPS = st.sampled_from(
    [("+", 2), ("*", 2), (">=", 2), ("=", 2), ("and", 2), ("not", 1),
     ("ite", 3), ("+", 3)] * 12
    + [("+", 1), ("ite", 2), ("frob", 1), ("Constant", 1), ("Variable", 0)])
_RULE_TERMS = st.recursive(
    _RULE_ATOMS,
    lambda kids: _RULE_APPS.flatmap(lambda app: st.lists(
        kids, min_size=app[1], max_size=app[1]).map(
            lambda args: "(" + " ".join([app[0], *args]) + ")")),
    max_leaves=4)
_RULE_ENTRIES = st.lists(
    st.sampled_from([_RULE_TERMS] * 29 + [st.sampled_from(["(Constant Int)",
                                                            "(Variable Int)"])]
                    ).flatmap(lambda entry: entry),
    min_size=1, max_size=3)


@settings(max_examples=200)
@given(st.lists(_RULE_ENTRIES, min_size=3, max_size=3))
def test_user_grammar_matches_its_former_reader(rule_lists):
    sig = parse_query(_max2_with()).synth_fun
    text = "(" + " ".join(f"({nt} Int ({' '.join(entries)}))"
                          for nt, entries in zip(_NONTERMINALS, rule_lists)) + ")"
    expected, failure = _frozen_user_grammar(text, sig)
    if failure is None:
        got = parse_user_grammar(text, sig)
        # `(- n)` is now the literal -n, so `-4` and `(- 4)` are one template
        # that unit inlining keeps once; each still prints as before
        def printed(g):
            return {nt: list(dict.fromkeys(map(str, prods)))
                    for nt, prods in g.productions.items()}
        assert printed(got) == printed(expected)
        assert got.start == expected.start and got.sorts == expected.sorts
        return
    exc, entry = failure
    if isinstance(exc, ArityError):
        want = GrammarError  # read by the query parser: a rule error like any other
    elif isinstance(exc, UnsupportedError) and _head(entry) not in _GENERATORS:
        want = GrammarError  # a generator nested inside a term
    else:
        want = type(exc)
    with pytest.raises(SygusError) as raised:
        parse_user_grammar(text, sig)
    assert type(raised.value) is want, (text, exc)
