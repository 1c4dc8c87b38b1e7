import itertools
import math
import random
import time
from pathlib import Path

import pytest

from synthsel import enumerator, verify
from synthsel.enumerator import (
    EnumeratorConfig,
    SearchStatus,
    astar_synthesize,
    cegis_solve,
    edge_cost,
    initial_example,
    min_completion_costs,
)
from synthsel.sygus import (
    App,
    BoolLit,
    Candidate,
    Grammar,
    GrammarError,
    IntLit,
    Ite,
    Var,
    BOOL,
    INT,
    grammar_for_query,
    parse_query,
    print_term,
    subterms,
    substitute_solution,
)
from synthsel.sygus.grammar import Hole, Production
from synthsel.sygus.parser import parse_term_text
from synthsel.verify import EvaluationError, SearchConfig, Verifier, evaluate

from conftest import PartialProgram, deep_query_text, heuristic, random_small_grammar
from reference import (KEEP_ALL, NormalForms, cons_choices, derivations, grid_domain,
                       reference_astar, reference_cegis, reference_sweep,
                       reference_whole_domain)

ROOT = Path(__file__).resolve().parent.parent


def _deadline(seconds: float) -> float:
    return time.monotonic() + seconds


# ---------------------------------------------------------------------------
# edge costs and the heuristic
# ---------------------------------------------------------------------------

def test_edge_cost_counts_productions(max3_query):
    g = grammar_for_query(max3_query)
    assert edge_cost("I", g) == 9
    assert edge_cost("B", g) == 6
    with pytest.raises(KeyError):
        edge_cost("Z", g)


def test_min_completion_costs_lia(max3_query):
    g = grammar_for_query(max3_query)
    mc = min_completion_costs(g)
    assert mc == {"I": 9.0, "B": 24.0}  # B -> rel of two leaf Is


def test_heuristic_complete_is_zero(max3_query):
    g = grammar_for_query(max3_query)
    assert heuristic(PartialProgram((0,), (), 9.0), g) == 0.0


def test_heuristic_single_pending(max3_query):
    g = grammar_for_query(max3_query)
    assert heuristic(PartialProgram((), ("I",), 0.0), g) == 9.0
    assert heuristic(PartialProgram((), ("B", "I"), 0.0), g) == 33.0


def test_single_production_grammar_costs():
    rng = random.Random(0)
    from synthsel.sygus import Grammar, IntLit, INT
    from synthsel.sygus.grammar import Production

    g = Grammar(start="N", sorts={"N": INT},
                productions={"N": (Production("N", IntLit(7)),)})
    assert edge_cost("N", g) == 1
    assert min_completion_costs(g) == {"N": 1.0}


def _brute_min_completion(grammar, nt, depth, _memo=None):
    """Minimal derivation cost over derivations of bounded depth, computed by
    exhaustive expansion (memoized on (nt, depth) to stay affordable)."""
    if _memo is None:
        _memo = {}
    if depth <= 0:
        return math.inf
    key = (nt, depth)
    if key in _memo:
        return _memo[key]
    best = math.inf
    base = edge_cost(nt, grammar)
    for p in grammar.productions[nt]:
        total = base
        for h in p.holes:
            total += _brute_min_completion(grammar, h, depth - 1, _memo)
        best = min(best, total)
    _memo[key] = best
    return best


def test_mc_matches_bruteforce_on_default_grammar(max3_query):
    g = grammar_for_query(max3_query)
    mc = min_completion_costs(g)
    for nt in g.productions:
        assert mc[nt] == _brute_min_completion(g, nt, 3)


def test_heuristic_admissible_on_random_grammars():
    rng = random.Random(2024)
    for _ in range(20):
        g = random_small_grammar(rng)
        mc = min_completion_costs(g)
        # every partial reachable in <= 3 leftmost expansions
        frontier = [PartialProgram((), (g.start,), 0.0)]
        for _ in range(3):
            nxt = []
            for state in frontier:
                if not state.pending:
                    continue
                nt = state.pending[0]
                for i, p in enumerate(g.productions[nt]):
                    nxt.append(PartialProgram(
                        state.choices + (i,),
                        p.holes + state.pending[1:],
                        state.cost + edge_cost(nt, g)))
            frontier = nxt
            for state in frontier:
                h = heuristic(state, g, mc)
                true_min = sum(_brute_min_completion(g, nt, 8)
                               for nt in state.pending)
                assert h <= true_min + 1e-9


# ---------------------------------------------------------------------------
# A* synthesis
# ---------------------------------------------------------------------------

def test_astar_empty_examples_returns_cheapest(max2_query):
    g = grammar_for_query(max2_query)
    res = astar_synthesize(g, [], max2_query, _deadline(10))
    assert res.status is SearchStatus.SOLVED
    # cheapest complete derivation is a lone leaf; FIFO ties pick the first
    # production, which is the first parameter
    assert res.candidate.body == Var("v0")


def test_astar_consistent_with_examples(max2_query):
    g = grammar_for_query(max2_query)
    examples = [{"v0": 0, "v1": 1}, {"v0": 1, "v1": 0}, {"v0": 2, "v1": 2}]
    res = astar_synthesize(g, examples, max2_query, _deadline(30))
    assert res.status is SearchStatus.SOLVED
    phi = substitute_solution(max2_query, res.candidate)
    for ex in examples:
        assert evaluate(phi, ex) is True


def test_astar_zero_deadline_times_out(max2_query):
    g = grammar_for_query(max2_query)
    res = astar_synthesize(g, [], max2_query, time.monotonic() - 1.0)
    assert res.status is SearchStatus.TIMEOUT


def test_astar_finite_grammar_exhausts():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int ((I Int)) ((I Int (0))))
(declare-var x Int)
(constraint (= (f x) 1))
(check-synth)
"""
    q = parse_query(text)
    g = grammar_for_query(q)
    res = astar_synthesize(g, [{"x": 0}], q, _deadline(5))
    assert res.status is SearchStatus.EXHAUSTED


def test_astar_frontier_cap_is_its_own_stop_reason(max3_query):
    g = grammar_for_query(max3_query)
    config = EnumeratorConfig(max_frontier=1000)
    # examples that rule out every cheap candidate force a deep search,
    # so the frontier cap must end it, reported apart from the deadline
    examples = [
        {"v0": 0, "v1": 0, "v2": 0},
        {"v0": 5, "v1": 1, "v2": 1},
        {"v0": 1, "v1": 5, "v2": 1},
        {"v0": 1, "v1": 1, "v2": 5},
        {"v0": 2, "v1": 3, "v2": 9},
    ]
    res = astar_synthesize(g, examples, max3_query, _deadline(30), config)
    assert res.status is SearchStatus.FRONTIER_CAP
    assert res.candidate is None and res.expansions > 0


# ---------------------------------------------------------------------------
# CEGIS
# ---------------------------------------------------------------------------

def test_initial_example_all_zeros(max3_query):
    assert initial_example(max3_query) == {"v0": 0, "v1": 0, "v2": 0}


def test_cegis_solves_max2(max2_query):
    g = grammar_for_query(max2_query)
    verifier = Verifier()
    res = cegis_solve(max2_query, g, _deadline(100), verifier)
    assert res.status is SearchStatus.SOLVED
    assert verifier.check(max2_query, res.candidate).is_valid


def test_cegis_empty_constraints_returns_first_program():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
""")
    g = grammar_for_query(q)
    res = cegis_solve(q, g, _deadline(10), Verifier())
    assert res.status is SearchStatus.SOLVED
    assert res.iterations == 1
    assert len(res.counterexamples) == 1  # only the seed example


def test_cegis_unsatisfiable_grammar_never_wrong():
    text = """(set-logic LIA)
(synth-fun f ((x Int)) Int ((I Int)) ((I Int (0))))
(declare-var x Int)
(constraint (= (f x) 1))
(check-synth)
"""
    q = parse_query(text)
    g = grammar_for_query(q)
    res = cegis_solve(q, g, _deadline(10), Verifier())
    assert res.status in (SearchStatus.EXHAUSTED, SearchStatus.TIMEOUT)
    assert res.candidate is None


def test_cegis_deadline_respected(max3_query):
    g = grammar_for_query(max3_query)
    start = time.monotonic()
    res = cegis_solve(max3_query, g, start + 1.5, Verifier())
    elapsed = time.monotonic() - start
    assert res.status is SearchStatus.TIMEOUT
    assert elapsed < 4.0  # deadline plus bounded overshoot


def test_cegis_ends_at_once_on_a_query_too_deep_to_check():
    # every candidate's tree walk passes the recursion limit, so the first
    # one ends the phase instead of the search spending its whole slice
    query = parse_query(deep_query_text(600))
    start = time.monotonic()
    res = cegis_solve(query, grammar_for_query(query), start + 5.0, Verifier())
    assert res.status is SearchStatus.TOO_DEEP
    assert res.status.value == "formula nested too deeply"
    assert (res.iterations, res.dequeued_complete) == (1, 1)
    assert time.monotonic() - start < 1.0


def test_cegis_sums_search_counters_over_phases(max2_query, monkeypatch):
    phases = []
    search = enumerator.astar_synthesize

    def recorded(*args, **kwargs):
        phases.append(search(*args, **kwargs))
        return phases[-1]

    monkeypatch.setattr(enumerator, "astar_synthesize", recorded)
    res = cegis_solve(max2_query, grammar_for_query(max2_query), _deadline(60),
                      Verifier())
    assert res.status is SearchStatus.SOLVED and res.iterations == len(phases) > 1
    assert res.expansions == sum(p.expansions for p in phases)
    assert res.dequeued_complete == sum(p.dequeued_complete for p in phases)


@pytest.mark.parametrize("text, body", [
    pytest.param("""(set-logic LIA)
(synth-fun f ((I Int) (B Int)) Int)
(declare-var I Int)
(declare-var B Int)
(constraint (>= (f I B) I))
(constraint (>= (f I B) B))
(constraint (or (= I (f I B)) (= B (f I B))))
(check-synth)
""", "(ite (>= I B) I B)", id="lia-max2"),
    pytest.param("""(set-logic LIA)
(synth-fun f ((I Int) (B Bool)) Int)
(declare-var I Int)
(declare-var B Bool)
(constraint (= (f I B) (ite B I 0)))
(check-synth)
""", "(ite B I 0)", id="lia-bool-param"),
    pytest.param("""(set-logic BV)
(synth-fun f ((W (_ BitVec 4)) (B (_ BitVec 4))) (_ BitVec 4))
(declare-var W (_ BitVec 4))
(declare-var B (_ BitVec 4))
(constraint (= (f W B) (bvand W B)))
(check-synth)
""", "(bvand W B)", id="bv"),
])
def test_parameters_may_share_a_nonterminals_name(text, body):
    q = parse_query(text)
    res = cegis_solve(q, grammar_for_query(q), _deadline(60), Verifier())
    assert res.status is SearchStatus.SOLVED
    assert print_term(res.candidate.body) == body


# ---------------------------------------------------------------------------
# the compiled consistency check against the reference (tree-walking) check
# ---------------------------------------------------------------------------

def _both_paths(monkeypatch, run):
    """`run()` on the compiled check, then on the reference check alone."""
    compiled = run()
    with monkeypatch.context() as m:
        m.setattr(enumerator, "_compiled_check", enumerator._reference_check)
        reference = run()
    return compiled, reference


def _summary(res):
    return (res.status, res.candidate, res.expansions, res.dequeued_complete,
            res.pruned, getattr(res, "iterations", None))


def _min2_text(rng):
    a, b = rng.sample("abuvxy", 2)
    call = f"(f {a} {b})"
    return (f"(set-logic LIA)\n(synth-fun f (({a} Int) ({b} Int)) Int)\n"
            f"(declare-var {a} Int)\n(declare-var {b} Int)\n"
            f"(constraint (<= {call} {a}))\n(constraint (<= {call} {b}))\n"
            f"(constraint (or (= {a} {call}) (= {b} {call})))\n(check-synth)\n")


def _clamp_text(rng):
    x, c = rng.choice("abuvxy"), rng.randint(2, 9)
    op = rng.choice(("<=", ">="))
    call = f"(f {x})"
    return (f"(set-logic LIA)\n(synth-fun f (({x} Int)) Int)\n(declare-var {x} Int)\n"
            f"(constraint ({op} {call} {x}))\n(constraint ({op} {call} {c}))\n"
            f"(constraint (or (= {call} {x}) (= {call} {c})))\n(check-synth)\n")


@pytest.mark.parametrize("make", [lambda rng: None, _min2_text, _clamp_text])
def test_compiled_cegis_matches_reference(make, max2_query, monkeypatch):
    rng = random.Random(11)
    queries = [max2_query] if make(rng) is None else [
        parse_query(make(random.Random(seed))) for seed in range(3)]
    for q in queries:
        g = grammar_for_query(q)
        compiled, reference = _both_paths(
            monkeypatch, lambda: cegis_solve(q, g, _deadline(60), Verifier()))
        assert compiled.status is SearchStatus.SOLVED
        assert _summary(compiled) == _summary(reference)
        assert compiled.counterexamples == reference.counterexamples


# constraints over f(x) for the random grammars; the last two put f or div
# inside an argument of f: the phase goes to the reference check whenever
# such an argument fails to evaluate on an example (f always, div at x = 0)
_CONSTRAINTS = (
    "(>= (f x) x)", "(= (f x) (+ x 3))", "(<= (f x) 4)",
    "(or (= (f x) 2) (>= (f (+ x 1)) x))", "(=> (>= x 0) (= (f x) (* 2 x)))",
    "(= (ite (>= x 0) (f x) (f (- 0 x))) (f 1))", "(not (= (f x) (f 0) (f 2)))",
    "(= (f (f x)) x)", "(>= (f (div 4 x)) 1)",
)


def _random_typed_grammar(rng):
    """Int/Bool grammars over the parameter x with division, mod, ite and
    nested templates, so compiled candidates raise, short-circuit and mix.
    One or two literals, often 0 and 1, and comparisons and a true literal
    among the Bool rules, so every rule family of `NormalForms` can apply."""
    I, B = Hole("I"), Hole("B")
    # a binary production keeps the frontier growing, so max_frontier ends
    # every search that finds nothing
    literals = rng.sample([0, 1, rng.choice((-2, -1, 2))], rng.randrange(1, 3))
    ints = [Var("x"), *map(IntLit, literals), App("+", (I, I))]
    ints += rng.sample([App("-", (I, I)), App("*", (I, I)),
                        App("div", (I, I)), App("mod", (I, I)), Ite(B, I, I),
                        App("+", (I, App("*", (IntLit(2), I)))), App("-", (I,))],
                       rng.randrange(1, 5))
    bools = [App(">=", (I, I))]
    bools += rng.sample([App("=", (I, I)), App("and", (B, B)), App("or", (B, B)),
                         App("not", (B,)), App("=>", (B, B, B)), App("<", (I, I)),
                         App(">", (I, I)), BoolLit(True)], rng.randrange(0, 4))
    return Grammar(start="I", sorts={"I": INT, "B": BOOL}, productions={
        "I": tuple(Production("I", t) for t in ints),
        "B": tuple(Production("B", t) for t in bools)})


def _random_phase(rng):
    constraints = rng.sample(_CONSTRAINTS, rng.randrange(1, 4))
    q = parse_query("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var x Int)\n"
                    + "".join(f"(constraint {c})\n" for c in constraints)
                    + "(check-synth)\n")
    examples = [{"x": rng.randrange(-4, 5)} for _ in range(rng.randrange(1, 4))]
    return _random_typed_grammar(rng), q, examples


def test_compiled_astar_matches_reference_on_random_grammars(monkeypatch):
    rng = random.Random(7)
    config = EnumeratorConfig(max_frontier=3000)
    for _ in range(40):
        g, q, examples = _random_phase(rng)
        compiled, reference = _both_paths(
            monkeypatch, lambda: astar_synthesize(g, examples, q, _deadline(60), config))
        assert compiled.status is not SearchStatus.TIMEOUT
        assert _summary(compiled) == _summary(reference)


def test_compiled_check_matches_reference_per_program():
    # past the first accepted program too: random derivations, both checks.
    # A program is a leaf under a tail cons; consecutive programs share that
    # cell object (leaf siblings of a run) or not, so the compiled check's
    # memo of the last tail is both kept and replaced
    rng = random.Random(3)
    kept = replaced = 0
    for _ in range(40):
        g, q, examples = _random_phase(rng)
        frontier = enumerator.Frontier(g, q)
        flat, by_nt = frontier.flat, frontier.by_nt
        compiled = enumerator._compiled_check(frontier, examples)
        reference = enumerator._reference_check(frontier, examples)
        tails, last = [], None  # (tail cons, leaves of the last nonterminal)
        for _ in range(60):
            if not tails or rng.random() < 0.4:
                choices, pending = [], [g.start]
                while pending and len(choices) < 12:
                    nt = pending.pop(0)
                    idx = rng.choice(by_nt[nt])
                    choices.append(idx)
                    pending[:0] = flat[idx].holes
                if pending:
                    continue
                tails.append((cons_choices(choices[:-1]),
                              [i for i in by_nt[nt] if not flat[i].holes]))
            tail, leaves = rng.choice(tails[-3:])
            kept += tail is last
            replaced += tail is not last
            last = tail
            program = (rng.choice(leaves), tail)
            assert compiled(program) == reference(program)
    assert kept > 100 and replaced > 100


def _counting_compiles(monkeypatch, fails=lambda template: False):
    """Record the templates `compile_template` is asked for; a template for
    which `fails` holds raises as one nested too deeply would."""
    compiled = []

    def compile_template(template, *args):
        compiled.append(template)
        if fails(template):
            raise EvaluationError("formula nested too deeply")
        return verify.compile_template(template, *args)

    monkeypatch.setattr(enumerator, "compile_template", compile_template)
    return compiled


def test_a_production_is_compiled_when_a_check_first_uses_it(max2_query, monkeypatch):
    compiled = _counting_compiles(monkeypatch)
    g = grammar_for_query(max2_query)
    frontier = enumerator.Frontier(g, max2_query)
    assert frontier.makers and not compiled
    check = enumerator._compiled_check(frontier, [{"v0": 1, "v1": 3}])
    v0, plus = (frontier.flat.index(p) for p in frontier.flat
                if print_term(p.template) in ("v0", "(+ I I)"))
    assert check(cons_choices([v0])) is None
    assert [print_term(t) for t in compiled] == ["v0"]
    assert check(cons_choices([plus, v0, v0])) is None  # (+ v0 v0) = 2 < v1
    assert check(cons_choices([plus, v0, v0])) is None
    assert [print_term(t) for t in compiled] == ["v0", "(+ I I)"]
    # a whole solve compiles each production it checks once
    compiled.clear()
    cegis_solve(max2_query, g, _deadline(60), Verifier())
    assert len(compiled) == len(set(compiled)) < len(frontier.flat)


def test_a_production_that_fails_to_compile_sends_every_later_check_to_the_tree_walker(
        max2_query, monkeypatch):
    # (+ I I) fails, early in the first phase: every program checked from
    # then on, in this phase and the later ones, is checked by the reference
    # check, so no other production compiles and the solve is the one the
    # reference check alone makes
    g = grammar_for_query(max2_query)
    reference = _both_paths(monkeypatch, lambda: cegis_solve(max2_query, g, _deadline(60),
                                                             Verifier()))[1]
    plus = App("+", (Hole("I"), Hole("I")))
    compiled = _counting_compiles(monkeypatch, lambda t: t == plus)
    res = cegis_solve(max2_query, g, _deadline(60), Verifier())
    assert _summary(res) == _summary(reference)
    assert res.status is SearchStatus.SOLVED and isinstance(res.candidate.body, Ite)
    assert compiled.count(plus) == 1 and compiled[-1] == plus


# ---------------------------------------------------------------------------
# the lazy search against the eager one
# ---------------------------------------------------------------------------

def _lazy_matches_eager(g, q, examples, config=EnumeratorConfig()):
    lazy = astar_synthesize(g, examples, q, _deadline(60), config)
    eager = reference_astar(g, examples, q, _deadline(60), config)
    assert lazy.status is not SearchStatus.TIMEOUT
    assert _summary(lazy) == _summary(eager)
    return lazy


@pytest.mark.parametrize("cap", [1000, 3000])
def test_lazy_astar_matches_eager_on_random_grammars(cap):
    # the cap must fire at the same pop: it counts children not yet pushed
    rng = random.Random(13)
    statuses = {_lazy_matches_eager(*_random_phase(rng), EnumeratorConfig(cap)).status
                for _ in range(40)}
    assert {SearchStatus.SOLVED, SearchStatus.FRONTIER_CAP} <= statuses


def test_lazy_astar_matches_eager_on_the_enum_corpus_first_phases(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    for gen in inputs.enum_corpus(1, ROOT / "benchmarks"):
        q = parse_query(gen.text)
        res = _lazy_matches_eager(grammar_for_query(q), q, [initial_example(q)])
        assert res.status is SearchStatus.SOLVED


def test_lazy_astar_matches_eager_on_max3_at_a_small_cap(max3_query, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    res = _lazy_matches_eager(grammar_for_query(max3_query), max3_query,
                              list(inputs.MAX3_COUNTEREXAMPLES), EnumeratorConfig(20_000))
    assert res.status is SearchStatus.FRONTIER_CAP and res.dequeued_complete > 0


# ---------------------------------------------------------------------------
# a run of leaf siblings stopped by the deadline, then resumed
# ---------------------------------------------------------------------------

class _Clock:
    """The enumerator's `time`: `monotonic()` reads 0 on every call but the
    `stop`-th, which is past a deadline of 1."""

    def __init__(self, stop: int = 0):
        self.calls, self.stop = 0, stop

    def monotonic(self) -> float:
        self.calls += 1
        return 2.0 if self.calls == self.stop else 0.0


def _leafy_phase(constraint):
    # five leaves per run: each leaf after the first has its deadline check
    I = Hole("I")
    ints = [Var("x"), IntLit(0), IntLit(1), IntLit(2), IntLit(3),
            App("+", (I, I)), App("-", (I, I))]
    g = Grammar(start="I", sorts={"I": INT},
                productions={"I": tuple(Production("I", t) for t in ints)})
    q = parse_query("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var x Int)\n"
                    f"(constraint {constraint})\n(check-synth)\n")
    return g, q, [{"x": 0}, {"x": 2}, {"x": -3}]


@pytest.mark.parametrize("constraint, cap, status", [
    ("(= (f x) (+ x 5))", 4_000_000, SearchStatus.SOLVED),
    ("(= (f x) (* x 3))", 400, SearchStatus.FRONTIER_CAP),
])
def test_a_leaf_run_stopped_at_each_deadline_check_resumes_as_one_search(
        constraint, cap, status, monkeypatch):
    g, q, examples = _leafy_phase(constraint)
    config = EnumeratorConfig(cap)
    eager = reference_astar(g, examples, q, _deadline(60), config)
    clock = _Clock()
    monkeypatch.setattr(enumerator, "time", clock)
    whole = astar_synthesize(g, examples, q, 1.0, config)
    assert whole.status is status
    assert _summary(whole) == _summary(eager)
    for stop in range(1, clock.calls + 1):
        monkeypatch.setattr(enumerator, "time", _Clock(stop))
        frontier = enumerator.Frontier(g, q)
        first = astar_synthesize(g, examples, q, 1.0, config, frontier)
        rest = astar_synthesize(g, examples, q, 1.0, config, frontier)
        assert first.status is SearchStatus.TIMEOUT
        assert ((rest.status, rest.candidate, first.expansions + rest.expansions,
                 first.dequeued_complete + rest.dequeued_complete)
                == _summary(whole)[:4]), stop


# ---------------------------------------------------------------------------
# equivalence reduction against the rules over derivation trees, unpruned
# search and brute-force enumeration
# ---------------------------------------------------------------------------

def _leftmost(choices):
    out = []
    while choices is not None:
        idx, choices = choices
        out.append(idx)
    return tuple(reversed(out))


def _checked_programs(g, q, cap, monkeypatch):
    """The complete programs the search checks, as leftmost choices, and
    the cost below which it has popped every program: a check that
    accepts nothing lets it run to the cap."""
    checked = []

    def recording(frontier, examples):
        return lambda choices: checked.append(_leftmost(choices))

    with monkeypatch.context() as m:
        m.setattr(enumerator, "_compiled_check", recording)
        frontier = enumerator.Frontier(g, q)
        res = astar_synthesize(g, [], q, _deadline(60), EnumeratorConfig(cap), frontier)
    assert res.status in (SearchStatus.FRONTIER_CAP, SearchStatus.EXHAUSTED)
    assert res.dequeued_complete == len(checked) == len(set(checked))
    return checked, (math.inf if res.status is SearchStatus.EXHAUSTED
                     else frontier.last_priority)


def _query_over(params, ret="Int", grammar=""):
    decls = "".join(f"(declare-var {n} {s})\n" for n, s in params)
    plist = " ".join(f"({n} {s})" for n, s in params)
    return parse_query(f"(set-logic {'BV' if 'BitVec' in ret else 'LIA'})\n"
                       f"(synth-fun f ({plist}) {ret} {grammar})\n{decls}(check-synth)\n")


_BV8 = "(_ BitVec 8)"
# rules in every form: = with true, not, <= with its >=, and the BV operators
_RULE_GRAMMAR = """((I Int) (B Bool) (W (_ BitVec 8)))
  ((I Int (x 0 1 (+ I I) (- I I) (* I I) (ite B I I)))
   (B Bool (true (= I I) (<= I I) (>= I I) (and B B) (not B) (= W W)))
   (W (_ BitVec 8) (w #x00 (bvadd W W) (bvsub W W) (bvxor W W) (bvor W W) (bvand W W))))"""
# per rule family, with operands at other nonterminals beside: * with the
# literals 0 and 1 (J has a 1 but no 0), bvand and bvnot, and ite conditions
# over every comparison, not and the Bool literals
_MUL_GRAMMAR = """((I Int) (J Int))
  ((I Int (x 0 1 (* I I) (+ I J) (* J I)))
   (J Int (y 1 (* J I))))"""
_BVNOT_GRAMMAR = """((W (_ BitVec 8)) (V (_ BitVec 8)))
  ((W (_ BitVec 8) (w #x00 #x01 (bvand W W) (bvnot W) (bvnot V) (bvand V W)))
   (V (_ BitVec 8) (#xff (bvnot W))))"""
_CONDITION_GRAMMAR = """((I Int) (J Int) (B Bool))
  ((I Int (x 0 (+ I J) (ite B I I) (ite B I J)))
   (J Int (y 1))
   (B Bool (true false (< I I) (> I J) (<= I I) (>= I I) (= I I) (not B))))"""
# no rule applies: operands at other nonterminals, no 0 where (- I I) is,
# and (<= I J) without (>= J I)
_NO_RULE_GRAMMAR = """((I Int) (J Int) (Z Int) (B Bool))
  ((I Int (x 1 (+ J Z) (+ I J) (- I I) (ite B I J)))
   (J Int (y 2))
   (Z Int (0 3))
   (B Bool ((<= I J) (>= I J))))"""


_XY = [("x", "Int"), ("y", "Int")]
_FAMILIES = [(_XY, "Int", _MUL_GRAMMAR, 32.0), ([("w", _BV8)], _BV8, _BVNOT_GRAMMAR, 36.0),
             (_XY, "Int", _CONDITION_GRAMMAR, 36.0)]


def _rule_cases(max2_query):
    """(grammar, query, cost budget for brute-force enumeration)."""
    rng = random.Random(5)
    cases = [(grammar_for_query(max2_query), max2_query, 40.0)]
    bv = _query_over([("x", _BV8)], _BV8)
    cases.append((grammar_for_query(bv), bv, 50.0))
    ruled = _query_over([("x", "Int"), ("w", _BV8)], "Int", _RULE_GRAMMAR)
    cases.append((grammar_for_query(ruled), ruled, 36.0))
    for params, ret, grammar, budget in _FAMILIES:
        q = _query_over(params, ret, grammar)
        cases.append((grammar_for_query(q), q, budget))
    for _ in range(6):
        g, q, _ = _random_phase(rng)
        cases.append((g, q, 30.0))
    for _ in range(6):
        g = random_small_grammar(rng)
        cases.append((g, _query_over([("x", "Int")]), 20.0))
    return cases


def test_the_search_checks_exactly_the_programs_the_tree_rules_keep(max2_query,
                                                                     monkeypatch):
    # per program, not only per count: every program cheaper than where the
    # search stopped is checked if and only if no node of its tree rewrites
    pruned_somewhere = 0
    for g, q, _ in _rule_cases(max2_query):
        nf = NormalForms(g)
        checked, below = _checked_programs(g, q, 20_000, monkeypatch)
        budget = min(below - 1, 60.0)
        trees = derivations(g, g.start, budget)
        kept = {tuple(nf.preorder(t)) for _, t in trees if nf.kept(t)}
        assert {c for c in checked if nf.cost(nf.tree(c)) <= budget} == kept
        pruned_somewhere += len(trees) > len(kept)
    assert pruned_somewhere >= 10


@pytest.mark.parametrize("family, pruned, kept", [
    (0, ["(* x 1)", "(* 1 x)", "(* x 0)", "(* 0 x)", "(* y 0)", "(+ x (* y 1))"],
     ["(* y x)", "(+ x (* y 0))", "(+ x (* 1 x))", "(* x (+ x y))"]),
    (1, ["(bvnot (bvnot w))", "(bvand w #x00)", "(bvand #x00 w)", "(bvand w w)",
         "(bvand (bvnot w) #x00)"],
     ["(bvnot w)", "(bvand w #x01)", "(bvand #xff w)", "(bvnot (bvnot #xff))"]),
    (2, ["(ite true x 0)", "(ite false x 0)", "(ite (>= x x) x 0)", "(ite (<= x x) x 0)",
         "(ite (= x x) x 0)", "(ite (< x x) x 0)", "(ite (not (>= x 0)) x 0)",
         "(ite (not true) x 0)"],
     ["(ite (>= x 0) x 0)", "(ite (< x 0) x 0)", "(ite (> x y) x 0)",
      "(ite true x y)", "(ite (>= x x) x y)", "(ite (not (>= x 0)) x y)"]),
])
def test_each_rule_family_prunes_its_forms_and_only_at_its_nonterminal(
        family, pruned, kept, monkeypatch):
    # `(bvnot (bvnot #xff))` is kept: #xff derives from V, not from W
    params, ret, grammar, _ = _FAMILIES[family]
    q = _query_over(params, ret, grammar)
    g = grammar_for_query(q)
    nf = NormalForms(g)
    checked, below = _checked_programs(g, q, 20_000, monkeypatch)
    programs = {nf.term(nf.tree(c)) for c in checked}
    env = dict(q.synth_fun.params)
    pruned, kept = ({parse_term_text(t, env) for t in ts} for ts in (pruned, kept))
    assert all(nf.cost_of(t, g.start) < below for t in pruned | kept)
    assert not programs & pruned
    assert kept <= programs


def _equal_everywhere(q, t, u):
    """t and u agree on the sweep (on the whole domain for a BitVec query),
    and u evaluates, to t's value, wherever t does on the grid."""
    phi = App("=", (t, u))
    names = {v.name for v in subterms(phi) if isinstance(v, Var)}
    universals = [(n, s) for n, s in q.synth_fun.params if n in names]
    sorts = dict(universals)
    if universals and all(s.width for _, s in universals):
        assert reference_whole_domain(phi, universals,
                                      SearchConfig(random_samples=0)).is_valid
    else:
        assert reference_sweep(phi, universals,
                               SearchConfig(grid_bound=3, random_samples=20)).is_valid
    grid = [dict(zip(sorts, point)) for point in itertools.product(
        *[grid_domain(s, 3) for s in sorts.values()])]
    for point in grid:
        try:
            value = evaluate(t, point, sorts)
        except EvaluationError:
            continue
        assert evaluate(u, point, sorts) == value


def test_every_pruned_term_has_a_kept_equivalent_that_costs_no_more(max2_query):
    # for every nonterminal: the normal form of each pruned derivation is
    # kept, derives from the same nonterminal, costs no more, and agrees
    # with it wherever the pruned term evaluates
    pruned = 0
    for g, q, budget in _rule_cases(max2_query):
        nf = NormalForms(g)
        for nt in g.productions:
            for cost, tree in derivations(g, nt, budget):
                if nf.kept(tree):
                    continue
                pruned += 1
                norm = nf.normalize(tree)
                assert nf.kept(norm) and nf.derives(norm, nt)
                assert nf.cost(norm) <= cost
                _equal_everywhere(q, nf.term(tree), nf.term(norm))
    assert pruned > 1000


def _min_cost(g, q, examples, budget):
    """Brute-force minimum-cost enumeration: the cost of the cheapest
    program consistent with the examples, inf if none costs at most budget."""
    nf = NormalForms(g)
    check = enumerator._reference_check(enumerator.Frontier(g, q), examples)
    return next((cost for cost, tree in derivations(g, g.start, budget)
                 if check(cons_choices(nf.preorder(tree))) is not None), math.inf)


def _pruned_cost_matches(g, q, examples, config=EnumeratorConfig(), brute=45.0):
    """The pruned phase's answer costs what the unpruned search's and the
    brute-force minimum cost; returns the pruned result and that cost."""
    frontier = enumerator.Frontier(g, q)
    pruned = astar_synthesize(g, examples, q, _deadline(60), config, frontier)
    full = reference_astar(g, examples, q, _deadline(60), config, keep=KEEP_ALL)
    nf = NormalForms(g)
    if full.status is SearchStatus.SOLVED:
        assert pruned.status is SearchStatus.SOLVED
        assert nf.cost_of(full.candidate.body, g.start) == frontier.last_priority
    if pruned.status is not SearchStatus.SOLVED:
        return pruned, None
    cost = frontier.last_priority
    assert nf.cost_of(pruned.candidate.body, g.start) == cost
    if cost <= brute:
        assert _min_cost(g, q, examples, cost) == cost
    return pruned, cost


def test_pruned_search_returns_the_minimum_cost_on_random_grammars():
    rng = random.Random(17)
    config = EnumeratorConfig(max_frontier=3000)
    costs = [_pruned_cost_matches(*_random_phase(rng), config)[1] for _ in range(40)]
    assert sum(c is not None and c <= 45.0 for c in costs) >= 10


def test_pruned_phases_return_the_minimum_cost_on_the_enum_corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    brute = 0
    for gen in inputs.enum_corpus(1, ROOT / "benchmarks"):
        q = parse_query(gen.text)
        g = grammar_for_query(q)
        solved = cegis_solve(q, g, _deadline(60), Verifier())
        res, cost = _pruned_cost_matches(g, q, list(solved.counterexamples), brute=52.0)
        assert res.candidate == solved.candidate
        brute += cost <= 52.0
    assert brute == 25


@pytest.mark.parametrize("constraint, body", [
    ("(= (f x y) y)", "(+ y 0)"),
    ("(= (f x y) 0)", "(- x x)"),
    ("(= (f x y) (+ x y))", "(+ x y)"),
    ("(and (>= (f x y) x) (>= (f x y) y) (or (= (f x y) x) (= (f x y) y)))",
     "(ite (>= x y) x y)"),
])
def test_no_rule_applies_across_nonterminals_or_without_its_result(constraint, body,
                                                                   monkeypatch):
    q = parse_query("(set-logic LIA)\n(synth-fun f ((x Int) (y Int)) Int "
                    f"{_NO_RULE_GRAMMAR})\n(declare-var x Int)\n(declare-var y Int)\n"
                    f"(constraint {constraint})\n(check-synth)\n")
    g = grammar_for_query(q)
    res = cegis_solve(q, g, _deadline(60), Verifier())
    assert res.status is SearchStatus.SOLVED and res.pruned == 0
    assert print_term(res.candidate.body) == body
    examples = list(res.counterexamples)
    lazy = astar_synthesize(g, examples, q, _deadline(60))
    assert _summary(lazy) == _summary(
        reference_astar(g, examples, q, _deadline(60), keep=KEEP_ALL))
    _pruned_cost_matches(g, q, examples)


# ---------------------------------------------------------------------------
# one frontier resumed across the CEGIS phases against a fresh search each
# ---------------------------------------------------------------------------

def _resumed_matches_restarted(q, monkeypatch, g=None, config=EnumeratorConfig()):
    """Solve q by resuming one lazy frontier and by restarting every phase
    with the eager search; the solves must agree exactly, and the resumed
    counters must equal those of the restarted last phase, which pops again
    all that the resumed phases popped once. Returns the resumed result."""
    g = g or grammar_for_query(q)
    resumed = cegis_solve(q, g, _deadline(60), Verifier(), config)
    phases = []

    def recorded(*args, **kwargs):
        phases.append(reference_astar(*args, **kwargs))
        return phases[-1]

    with monkeypatch.context() as m:
        m.setattr(enumerator, "astar_synthesize", recorded)
        restarted = reference_cegis(q, g, _deadline(60), Verifier(), config)

    def solve(r):
        return (r.status, r.candidate, r.iterations, r.counterexamples,
                r.provenance, r.bounded)

    assert solve(resumed) == solve(restarted)
    assert len(phases) == restarted.iterations
    assert ((resumed.expansions, resumed.dequeued_complete)
            == (phases[-1].expansions, phases[-1].dequeued_complete))
    return resumed


@pytest.mark.parametrize("name", ["max2", "double_pbe", "counter_inv"])
def test_resumed_cegis_matches_restarted_on_bundled_queries(name, monkeypatch):
    q = parse_query((ROOT / "benchmarks" / f"{name}.sl").read_text())
    assert _resumed_matches_restarted(q, monkeypatch).status is SearchStatus.SOLVED


def test_resumed_cegis_matches_restarted_on_the_enum_corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    generated = [gen for gen in inputs.enum_corpus(1, ROOT / "benchmarks")
                 if gen.family != "bundled"]
    results = [_resumed_matches_restarted(parse_query(gen.text), monkeypatch)
               for gen in generated]
    assert all(r.status is SearchStatus.SOLVED for r in results)
    assert sum(r.iterations > 1 for r in results) > len(results) // 2


@pytest.mark.parametrize("make", [_min2_text, _clamp_text])
def test_resumed_cegis_matches_restarted_on_generated_queries(make, monkeypatch):
    for seed in range(3):
        res = _resumed_matches_restarted(parse_query(make(random.Random(seed))),
                                         monkeypatch)
        assert res.status is SearchStatus.SOLVED and res.iterations > 1


def test_resumed_cegis_matches_restarted_when_the_grammar_runs_out(monkeypatch):
    # 1 passes x = 0, the counterexample x = 1 refutes it, and the resumed
    # phase finds nothing after it
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int ((I Int)) ((I Int (0 1 2 x))))
(declare-var x Int)
(constraint (= (f x) (+ x 1)))
(check-synth)
""")
    res = _resumed_matches_restarted(q, monkeypatch)
    assert res.status is SearchStatus.EXHAUSTED and res.iterations == 2


def test_resumed_cegis_matches_restarted_on_random_grammars(monkeypatch):
    # searches that reach the cap, candidates that divide by zero, and
    # phases that fall back to the reference check (f (div 4 x) at x = 0)
    rng = random.Random(7)
    config = EnumeratorConfig(max_frontier=3000)
    seen = set()
    for _ in range(40):
        g, q, _ = _random_phase(rng)
        res = _resumed_matches_restarted(q, monkeypatch, g, config)
        fallback = any("(div 4 x)" in print_term(c) for c in q.constraints)
        seen.add((res.status, res.iterations > 1, fallback))
    assert {(SearchStatus.SOLVED, True, False), (SearchStatus.FRONTIER_CAP, True, False),
            (SearchStatus.FRONTIER_CAP, True, True)} <= seen


def _bv_query(constraint):
    bv8 = "(_ BitVec 8)"
    return parse_query(f"(set-logic BV)\n(synth-fun f ((x {bv8}) (y {bv8})) {bv8})\n"
                       f"(declare-var x {bv8})\n(declare-var y {bv8})\n"
                       f"(constraint {constraint})\n(check-synth)\n")


# the bitvector targets of the benchmark corpus
_BV_TARGETS = ("(bvand x (bvnot y))", "(bvor x (bvnot y))", "(bvand (bvnot x) y)",
               "(bvxor x (bvnot y))", "(bvnot (bvand x y))")


@pytest.mark.parametrize("target", _BV_TARGETS)
def test_compiled_cegis_matches_reference_on_bitvectors(target, monkeypatch):
    # the default BV grammar's masks come through holes (bvadd/bvnot of a kid)
    q = _bv_query(f"(= (f x y) {target})")
    g = grammar_for_query(q)
    compiled, reference = _both_paths(
        monkeypatch, lambda: cegis_solve(q, g, _deadline(60), Verifier()))
    assert compiled.status is SearchStatus.SOLVED
    assert _summary(compiled) == _summary(reference)
    assert compiled.counterexamples == reference.counterexamples


def test_compiled_check_matches_reference_per_bitvector_program():
    # bvult against #x80 accepts about half the programs, so a missing or
    # wrong mask (bvadd/bvsub wrap-around, bvnot) changes decisions
    rng = random.Random(5)
    q = _bv_query("(bvult (f x y) #x80)")
    g = grammar_for_query(q)
    frontier = enumerator.Frontier(g, q)
    flat, by_nt = frontier.flat, frontier.by_nt
    decided = set()
    for _ in range(10):
        examples = [{"x": rng.randrange(256), "y": rng.randrange(256)}
                    for _ in range(rng.randrange(1, 4))]
        compiled = enumerator._compiled_check(frontier, examples)
        reference = enumerator._reference_check(frontier, examples)
        for _ in range(40):
            choices, pending = [], [g.start]
            while pending and len(choices) < 12:
                idx = rng.choice(by_nt[pending.pop(0)])
                choices.append(idx)
                pending[:0] = flat[idx].holes
            if not pending:
                got = compiled(cons_choices(choices))
                assert got == reference(cons_choices(choices))
                decided.add(got is None)
    assert decided == {True, False}


_BV8, _BV16 = "(_ BitVec 8)", "(_ BitVec 16)"


def _two_widths_query(synth_fun, constraint):
    return parse_query(f"(set-logic BV)\n{synth_fun}\n(declare-var x {_BV8})\n"
                       f"(declare-var y {_BV16})\n(constraint {constraint})\n(check-synth)\n")


def test_compiled_check_matches_reference_per_program_of_two_widths():
    # an 8-bit and a 16-bit nonterminal, each under bvult: a hole takes its
    # nonterminal's width
    q = _two_widths_query(
        f"(synth-fun f ((x {_BV8}) (y {_BV16})) Bool\n"
        f"  ((B Bool) (W {_BV8}) (V {_BV16}))\n"
        f"  ((B Bool ((bvult W W) (bvult V V) (not B)))\n"
        f"   (W {_BV8} (x #x80 (bvadd W W) (bvsub W W) (bvnot W)))\n"
        f"   (V {_BV16} (y #x8000 (bvadd V V) (bvsub V V) (bvnot V)))))",
        "(f x y)")
    g = grammar_for_query(q)
    rng = random.Random(11)
    frontier = enumerator.Frontier(g, q)
    flat, by_nt = frontier.flat, frontier.by_nt
    decided = set()
    for _ in range(20):
        examples = [{"x": rng.randrange(1 << 8), "y": rng.randrange(1 << 16)}
                    for _ in range(rng.randrange(1, 4))]
        compiled = enumerator._compiled_check(frontier, examples)
        reference = enumerator._reference_check(frontier, examples)
        for _ in range(40):
            choices, pending = [], [g.start]
            while pending and len(choices) < 12:
                idx = rng.choice(by_nt[pending.pop(0)])
                choices.append(idx)
                pending[:0] = flat[idx].holes
            if not pending:
                got = compiled(cons_choices(choices))
                assert got == reference(cons_choices(choices)), choices
                decided.add(got is None)
    assert decided == {True, False}


def test_a_rule_of_another_width_is_rejected_when_read():
    # the 8-bit nonterminal has a 16-bit rule, which SyGuS forbids:
    # (bvadd y y) is well-sorted alone but wraps at 2^16, not 2^8
    with pytest.raises(GrammarError, match=r"in the rules for 'W': y is not of "
                                           r"sort \(_ BitVec 8\)"):
        _two_widths_query(f"(synth-fun f ((x {_BV8}) (y {_BV16})) {_BV8}\n"
                          f"  ((W {_BV8} (x y (bvadd W W) (bvnot W)))))",
                          "(bvult (f x y) #x80)")


_SORTED_ATOMS = {"I": ("x", "0", "1", "I"), "B": ("b", "true", "B"),
                 "W": ("w", "#x01", "W")}
_SORTED_APPS = {"I": (("+", "II"), ("-", "I"), ("ite", "BII")),
                "B": ((">=", "II"), ("=", "WW"), ("bvult", "WW"), ("not", "B"),
                      ("and", "BB")),
                "W": (("bvadd", "WW"), ("bvnot", "W"), ("ite", "BWW"))}
_NT_SORTS = {"I": "Int", "B": "Bool", "W": _BV8}


def _random_rule(rng, sort, depth):
    """A rule of `sort`, but now and then a leaf of another sort."""
    if rng.random() < 0.04:
        sort = rng.choice("IBW")
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_SORTED_ATOMS[sort])
    op, args = rng.choice(_SORTED_APPS[sort])
    return f"({op} {' '.join(_random_rule(rng, a, depth - 1) for a in args)})"


def _random_sorted_query(rng):
    """A query whose grammar has an Int, a Bool and an 8-bit nonterminal,
    the start one first; its rules are mostly, but not always, well-sorted."""
    order = rng.sample("IBW", 3)
    groups = []
    for nt in order:
        rules = {rng.choice(_SORTED_ATOMS[nt][:-1])}  # a leaf: no nonterminal is dead
        rules.update(_random_rule(rng, nt, 2) for _ in range(rng.randrange(1, 5)))
        groups.append(f"({nt} {_NT_SORTS[nt]} ({' '.join(sorted(rules))}))")
    return (f"(set-logic BV)\n(synth-fun f ((x Int) (b Bool) (w {_BV8})) "
            f"{_NT_SORTS[order[0]]} ({' '.join(groups)}))\n"
            f"(declare-var x Int)\n(check-synth)\n")


def test_every_program_of_a_grammar_the_reader_accepts_is_well_sorted(monkeypatch):
    # the accepted program's Candidate is built without a guard: each of the
    # first complete programs of a grammar that passes the reader sorts
    rng = random.Random(13)
    accepted = rejected = 0
    while accepted < 15:
        try:
            q = parse_query(_random_sorted_query(rng))
        except GrammarError as exc:
            rejected += "is not of sort" in str(exc)
            continue
        accepted += 1
        g = grammar_for_query(q)
        fn = q.synth_fun
        frontier = enumerator.Frontier(g, q)
        built = []

        def check(choices):
            term = enumerator._fold_choices(choices, frontier.arity, frontier.fills)
            built.append(Candidate(fn.name, fn.params, fn.return_sort, term))
            return built[-1] if len(built) >= 500 else None

        monkeypatch.setattr(enumerator, "_compiled_check", lambda *_: check)
        res = astar_synthesize(g, [], q, _deadline(60), frontier=frontier)
        # a chain of one-hole rules nests a level every few pops, and its
        # program may pass the recursion limit before the 500th; a sort
        # error would leave astar_synthesize as an exception
        assert res.status in (SearchStatus.SOLVED, SearchStatus.EXHAUSTED,
                              SearchStatus.TOO_DEEP)
        too_deep = res.status is SearchStatus.TOO_DEEP
        assert len(built) == res.dequeued_complete - too_deep
    assert rejected > 0


def test_enumerator_outcome_reports_counters_and_stop_reason(max2_query):
    from synthsel.orchestrator import SolverDeployer
    from synthsel.budget import ScheduleEntry
    from synthsel.bandit import SolverId

    entry = ScheduleEntry(SolverId.enumerator(), time=60.0, cost=100.0)
    outcome = SolverDeployer(Verifier())._deploy_enumerator(max2_query, entry)
    res = cegis_solve(max2_query, grammar_for_query(max2_query), _deadline(60),
                      Verifier())
    assert outcome.detail == (
        f"cegis solved: {res.iterations} iterations, {res.expansions} expansions, "
        f"{res.dequeued_complete} candidates, {res.pruned} pruned")
    assert res.pruned > 0


# ---------------------------------------------------------------------------
# Where the search gives up
# ---------------------------------------------------------------------------

_NEGATIONS = """(set-logic LIA)
(synth-fun f ((x Int)) Int ((I Int (x (- I)))))
(declare-var x Int)
(constraint {constraint})
(check-synth)
"""


def test_a_search_past_the_recursion_limit_is_recorded_as_unsolved():
    # every program is x under n negations, none is x + 1: the search nests
    # one level per expansion until a check passes the recursion limit
    from synthsel.config import RunConfig
    from synthsel.orchestrator import SolverDeployer, new_state, solve_query

    query = parse_query(_NEGATIONS.format(constraint="(= (f x) (+ x 1))"))
    config = RunConfig(selector="fixed:enumerator", time_budget=30.0, seed=0)
    record = solve_query(query, "q", config, new_state(config, 0),
                         SolverDeployer(Verifier()))
    assert not record.solved
    (outcome,) = record.outcomes
    assert outcome.detail.startswith("cegis formula nested too deeply: 1 iterations")
    assert outcome.time < 10.0


def test_the_tree_walking_check_gives_up_past_the_recursion_limit():
    # f applied to f keeps the phase on the tree walker, which lets a
    # RecursionError through: the search, not the program, is at fault
    query = parse_query(_NEGATIONS.format(constraint="(= (f (f x)) (+ x 2))"))
    g = grammar_for_query(query)
    frontier = enumerator.Frontier(g, query)
    check = enumerator._compiled_check(frontier, [initial_example(query)])
    res = astar_synthesize(g, [initial_example(query)], query, _deadline(30),
                           frontier=frontier)
    assert res.status is SearchStatus.TOO_DEEP and res.candidate is None
    assert check.__qualname__.startswith("_reference_check")


class _StubVerifier(Verifier):
    """A verifier whose verdict on every candidate is `verdict(deadline)`."""

    def __init__(self, verdict):
        super().__init__()
        self.verdict = verdict
        self.calls = 0

    def check(self, query, cand, deadline=None):
        self.calls += 1
        return self.verdict(deadline)


def test_cegis_gives_up_on_an_unknown_verdict(max2_query):
    from synthsel.verify import VerificationResult

    verifier = _StubVerifier(lambda _: VerificationResult.unknown("stub"))
    res = cegis_solve(max2_query, grammar_for_query(max2_query), _deadline(30), verifier)
    assert res.status is SearchStatus.TIMEOUT and res.candidate is None
    assert res.iterations == verifier.calls == 1
    assert res.counterexamples == (initial_example(max2_query),)


def test_cegis_gives_up_when_the_verifier_repeats_a_counterexample():
    # with no constraints every program passes the examples and the debug
    # check has nothing to falsify; the stub returns the example already held
    from synthsel.verify import VerificationResult

    query = parse_query("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
                        "(declare-var x Int)\n(check-synth)\n")
    verifier = _StubVerifier(
        lambda _: VerificationResult.counterexample(initial_example(query), 0))
    res = cegis_solve(query, grammar_for_query(query), _deadline(30), verifier)
    assert res.status is SearchStatus.TIMEOUT and res.candidate is None
    assert res.iterations == verifier.calls == 1
    assert res.counterexamples == (initial_example(query),)


def test_cegis_gives_up_when_the_verifier_repeats_a_counterexample_on_max2(max2_query):
    # the second phase's candidate holds on {v0: 0, v1: 1}, so the repeat
    # cannot falsify it: the loop must stop before checking that it does
    from synthsel.verify import VerificationResult

    repeated = {"v0": 0, "v1": 1}
    verifier = _StubVerifier(lambda _: VerificationResult.counterexample(repeated, 0))
    res = cegis_solve(max2_query, grammar_for_query(max2_query), _deadline(30), verifier)
    assert res.status is SearchStatus.TIMEOUT and res.candidate is None
    assert res.iterations == verifier.calls == 2
    assert res.counterexamples == (initial_example(max2_query), repeated)


def test_cegis_gives_up_on_a_counterexample_that_arrives_after_the_deadline(max2_query):
    real = Verifier()
    refuted = []

    class Late(Verifier):
        def check(self, query, cand, deadline=None):
            verdict = real.check(query, cand, deadline)
            refuted.append(verdict)
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
            return verdict

    res = cegis_solve(max2_query, grammar_for_query(max2_query), _deadline(1.0), Late())
    (verdict,) = refuted
    assert verdict.is_counterexample
    assert res.status is SearchStatus.TIMEOUT and res.candidate is None
    assert res.iterations == 1
    assert res.counterexamples == (initial_example(max2_query), verdict.assignment_dict())
