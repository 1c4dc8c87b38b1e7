"""Built-in symbolic solver: CEGIS with an A* synthesis phase.

The A* search runs over sentential forms of the grammar. Each state pairs the
derivation so far (production choices in leftmost order) with the stack of
unexpanded nonterminals; expanding the leftmost nonterminal by a production
costs that nonterminal's edge cost, and the heuristic sums the minimal
completion cost of every pending nonterminal.

A node is expanded lazily: its children wait in one heap entry, cheapest
first, and popping a child pushes its next sibling. Both halves of a state
are cons cells, `(idx, parent)` for the derivation (last choice first) and
`(nt, rest)` for the pending stack, shared by siblings and built only when
a child is popped.

A complete program's last choice is a leaf under a parent that left nothing
pending, and that leaf's leaf siblings are provably the next pops: the search
checks them as one run, without a heap round-trip per sibling. The check
runs the compiled evaluator (`verify.compile_template`, one generated
function per grammar production, compiled when a check first uses it) and
folds the siblings' shared tail once into frames, the productions on the
path to the rightmost leaf, which each leaf fills; the tree-walking
evaluator stays as the fallback and the test oracle.

One `Frontier` serves every CEGIS phase of a solve. The pop order does not
depend on the examples, and a program rejected on some examples stays
rejected when more are added, so each phase goes on from the entry after
the candidate the verifier just refuted instead of popping every earlier
entry again; a fresh A* on all the examples would return the same program.

Equivalence reduction (`reduction`, after Smith and Albarghouthi, VMCAI
2019) prunes a state as soon as one of its finished subterms is not in
normal form: it is never checked and never expanded. Its rules are derived
once per grammar, when the `Frontier` is built. Each pruned term has a kept
equivalent from the same nonterminal that costs no more, so A* still
returns a minimum-cost consistent program, though among programs of equal
cost it may return another one than a search without the rules.

The constraints are compiled once per solve, in its first phase, into one
predicate over the universals and f's results (`Frontier.constraints`);
each phase evaluates only f's arguments on its own examples.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence, Tuple, TypeVar

from .reduction import KEEP_ALL, Choices, leaf_test, normal_form_rules
from .sygus import (App, Candidate, Grammar, SynthQuery, Term, Var, conjoin, fill_holes,
                    map_children, substitute_solution)
from .sygus.terms import BOOL
from .verify import (Assignment, EvaluationError, Verifier, compile_template,
                     compile_term, evaluate)

T = TypeVar("T")


class SearchStatus(Enum):
    SOLVED = "solved"
    EXHAUSTED = "exhausted"
    TIMEOUT = "timeout"
    FRONTIER_CAP = "frontier cap"
    TOO_DEEP = "formula nested too deeply"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    candidate: Optional[Candidate] = None
    expansions: int = 0
    dequeued_complete: int = 0
    pruned: int = 0  # pops not in normal form: neither checked nor expanded


@dataclass(frozen=True)
class EnumeratorConfig:
    # frontier size cap in entries, not bytes: an expansion of n productions
    # adds n children whether or not they sit in the heap yet, a pop removes
    # one; breach ends the search
    max_frontier: int = 4_000_000


_NOT_ONE_TERM = "choice sequence does not form one complete term"


def _frames(tail: Choices, arity: Sequence[int], build: Sequence[Callable[..., T]]
            ) -> list[Tuple[Callable[..., T], list]]:
    """Fold a derivation that lacks only its last choice. That choice is the
    program's rightmost leaf, so what is left is the path down to it: per
    production on that path, innermost first, a frame of its function and
    the results for its holes before the last, which the leaf fills.

    The walk is the bottom-up one of the whole derivation, from the head of
    the cons (the last choice) back to the root, calling each production's
    function on the results for its holes (preorder) from a stack; the
    missing leaf sits below that stack, so a production with one hole more
    than the stack holds takes the whole stack and becomes a frame."""
    frames: list = []
    stack: list = []
    while tail is not None:
        idx, tail = tail
        n = arity[idx]
        if n == 0:
            stack.append(build[idx]())
        elif n <= len(stack):
            kids = stack[-n:][::-1]
            del stack[-n:]
            stack.append(build[idx](*kids))
        elif n == len(stack) + 1:
            frames.append((build[idx], stack[::-1]))
            stack.clear()
        else:
            raise ValueError(_NOT_ONE_TERM)
    if stack:
        raise ValueError(_NOT_ONE_TERM)
    return frames


def _fill(frames: Sequence[Tuple[Callable[..., T], list]], leaf: T) -> T:
    for make, kids in frames:
        leaf = make(*kids, leaf)
    return leaf


def _fold_choices(choices: Choices, arity: Sequence[int],
                  build: Sequence[Callable[..., T]]) -> T:
    """Rebuild a complete derivation bottom-up: its head, the last choice,
    is a leaf that fills the frames of the rest."""
    if choices is None or arity[choices[0]]:
        raise ValueError(_NOT_ONE_TERM)
    idx, tail = choices
    return _fill(_frames(tail, arity, build), build[idx]())


class Frontier:
    """The state of one A* search, kept across the CEGIS phases of a solve:
    the heap, the next free FIFO tie, the frontier's size and the last
    popped priority, with what A* builds on the grammar's tables: the
    child chains, `pushes`, `fills`, `makers` and the compiled
    `constraints`, none of which depend on the examples.

    The heap holds one entry per expansion whose children are not all
    popped: its cheapest child not yet popped. An expansion reserves one
    tie per production, in grammar order, so a child pushed when its elder
    sibling pops keeps the tie an eager push would have given it. `size`
    counts the entries an eager frontier would hold: +n for an expansion
    of n productions, -1 per pop; `max_frontier` caps it. A complete
    program's leaf siblings are popped as one run without the heap (see
    `astar_synthesize`); where the run stops, its next sibling is pushed
    with its reserved tie, so the heap and `size` are as one pop at a time
    would leave them.

    A child is a chain cell `(idx, holes' heuristic, position in grammar
    order, next sibling, pruned)`: `pruned` flags a choice that the
    normal-form rules reject on its own or under the production whose
    first hole it fills (`hole_chain`). `pushes` holds per production what
    its expansion pushes on the pending stack, bottom first: its holes'
    nonterminals and the tests of its operands, each of which goes on as a
    closing marker with the production's choice cell (see `reduction`).

    `makers` holds one compiled function per production, with each hole at
    its nonterminal's width, compiled when the check first calls it. The
    check walks the tree instead for nested `f` applications and
    constraints too deep to compile."""

    def __init__(self, grammar: Grammar, query: SynthQuery):
        self.grammar = grammar
        self.query = query
        flat, mc = grammar.flat, grammar.min_costs
        # _fold_choices over fills rebuilds a program's term, over makers its function
        self.fills = [lambda *kids, t=p.template: fill_holes(t, kids) for p in flat]
        holes_mc = [sum(mc[h] for h in p.holes) for p in flat]
        closers, dead, dead_under = normal_form_rules(grammar)
        self.pushes: list = [p.holes[::-1] for p in flat]
        for idx, marks in closers.items():
            items: list = list(flat[idx].holes)
            for at, test in marks:
                items.insert(at, test)
            self.pushes[idx] = items[::-1]

        def chain(nt: str, pruned: set[int]) -> tuple:
            # the children in (priority, tie) order: by the holes'
            # heuristic, then by grammar order
            sibling = None
            for pos, idx in sorted(enumerate(grammar.by_nt[nt]), reverse=True,
                                   key=lambda e: (holes_mc[e[1]], e[0])):
                sibling = (idx, holes_mc[idx], pos, sibling, idx in pruned)
            return sibling

        self.first_child = {nt: chain(nt, dead) for nt in grammar.by_nt}
        # per production the chain of its first hole's children, one per
        # distinct set of pruned choices
        chains = {(nt, frozenset()): first for nt, first in self.first_child.items()}
        self.hole_chain = [None] * len(flat)
        for idx, p in enumerate(flat):
            if p.holes:
                key = p.holes[0], dead_under.get(idx, frozenset())
                if key not in chains:
                    chains[key] = chain(key[0], dead | key[1])
                self.hole_chain[idx] = chains[key]
        # per nonterminal its children per expansion, also its `edge_cost`
        self.n_children = {nt: len(idxs) for nt, idxs in grammar.by_nt.items()}
        # a heap entry is (priority, tie, child, parent) for the next child
        # of an expansion; parent is (choices, rest, cost, heuristic, base):
        # the parent's choices and its pending stack without the expanded
        # nonterminal, the edge cost spent with that expansion, the
        # heuristic without it, and the first tie reserved for its children.
        # The start state's entry has neither.
        self.heap: list = [(mc[grammar.start], 0, None, None)]
        self.tie = 1  # FIFO among equal priorities
        self.size = 1  # entries an eager frontier would hold
        self.last_priority = -math.inf

    @functools.cached_property
    def makers(self) -> list:
        """`compile_template`'s maker per production, a `_Stub` until its
        first call. If a production fails to compile, every slot becomes one
        that raises `_Uncompiled`, and every later check walks the tree."""
        fn, sorts = self.query.synth_fun, self.grammar.sorts
        names, params = fn.param_names, dict(fn.params)
        return [_Stub(self, idx, functools.partial(
            compile_template, p.template, names, params, [sorts[h].width for h in p.holes]))
                for idx, p in enumerate(self.grammar.flat)]

    @functools.cached_property
    def constraints(self) -> Optional[Tuple[Callable, list[App]]]:
        """The constraints as one compiled predicate over the universals'
        values and the results of f's applications, and those applications
        (`_invocations`), built in the solve's first phase; None where they
        nest too deeply to compile, which sends every phase to the tree
        walker."""
        query = self.query
        try:
            phi, slots, calls = _invocations(query)
            sorts = dict(query.universals)
            sorts.update((slot, query.synth_fun.return_sort) for slot in slots)
            return compile_term(phi, [n for n, _ in query.universals] + slots, sorts), calls
        except (RecursionError, EvaluationError):
            return None


class _Stub:
    """A production's slot in `Frontier.makers` until its first call, which
    compiles the maker, puts it in the slot and calls it. It holds the
    frontier weakly, so the frontier's makers and their stubs form no
    reference cycle and die with the frontier."""

    __slots__ = ("frontier", "idx", "build")

    def __init__(self, frontier: Frontier, idx: int, build: Callable[[], Callable]):
        self.frontier, self.idx, self.build = weakref.ref(frontier), idx, build

    def __call__(self, *kids):
        makers = self.frontier().makers
        maker = makers[self.idx]  # a frame may hold the stub after it compiled
        if maker is self:
            try:
                maker = self.build()
            except (RecursionError, EvaluationError):
                makers[:] = [_uncompiled] * len(makers)
                raise _Uncompiled from None
            makers[self.idx] = maker
        return maker(*kids)


class _Uncompiled(Exception):
    """A maker of the frontier's grammar failed to compile."""


def _uncompiled(*kids):
    raise _Uncompiled


# ---------------------------------------------------------------------------
# Consistency of a complete program with the phase's examples
# ---------------------------------------------------------------------------

Check = Callable[[Choices], Optional[Candidate]]
_NO_TAIL = object()  # a memo key that no tail is, not even None


def _reference_check(frontier: Frontier, examples: Sequence[Assignment]) -> Check:
    """The tree-walking check: sort-check the program as a Candidate,
    substitute it into the constraints and evaluate them on every example.
    Division by zero and any other failure reject the program, except a
    `RecursionError`: the constraints nest too deeply for every program."""
    query = frontier.query
    fn = query.synth_fun
    sorts = dict(query.universals)

    def consistent(term: Term) -> Optional[Candidate]:
        cand = Candidate(fn.name, fn.params, fn.return_sort, term)
        if not examples or not query.constraints:
            return cand
        phi = substitute_solution(query, cand)
        for ex in examples:
            try:
                if not evaluate(phi, ex, sorts):
                    return None
            except EvaluationError:
                return None  # division by zero etc. fails the example
        return cand

    def check(choices: Choices) -> Optional[Candidate]:
        try:
            return consistent(_fold_choices(choices, frontier.grammar.arity, frontier.fills))
        except RecursionError:
            raise
        except Exception:
            return None

    return check


def _invocations(query: SynthQuery) -> Tuple[Term, list[str], list[App]]:
    """The constraints with every application of f replaced by a slot
    variable, the slot names and the applications, in slot order."""
    fn = query.synth_fun
    slots: dict[Term, str] = {}

    def replace(t: Term) -> Term:
        if isinstance(t, App) and t.op == fn.name:
            return Var(slots.setdefault(t, f"#{len(slots)}"))
        return map_children(t, replace)

    try:
        phi = conjoin([replace(c) for c in query.constraints])
    finally:
        del replace  # its closure cell holds it: no cycle left for the collector
    return phi, list(slots.values()), list(slots)


def _points(query: SynthQuery, calls: Sequence[App], examples: Sequence[Assignment]
            ) -> Optional[list]:
    """Per example the universals' values and the arguments of each
    application of f in `calls`.

    None when an argument fails to evaluate on some example: always when it
    applies f, and when it divides by zero or nests past the recursion
    limit. The tree walker evaluates an argument only where the body reads
    its parameter, so such an argument raises there or not depending on the
    body. An argument that evaluates has one value wherever it is read, so
    its precomputed value is exact.
    """
    names = [n for n, _ in query.universals]
    sorts = dict(query.universals)
    per_example = []
    for ex in examples:
        try:
            values = tuple(ex[n] for n in names)
            points = [tuple(evaluate(a, ex, sorts) for a in call.args) for call in calls]
        except (KeyError, EvaluationError, RecursionError):
            return None
        per_example.append((values, points))
    return per_example


def _compiled_check(frontier: Frontier, examples: Sequence[Assignment]) -> Check:
    """The same decisions as `_reference_check`, compiled: the body is
    evaluated at the precomputed invocation points of f and the constraints
    by one predicate over the examples' values and f's results. The
    predicate is the frontier's, compiled once per solve; each phase
    evaluates f's arguments on its own examples. A program whose compiled
    evaluation raises, every program of a phase where an argument of f
    fails to evaluate or the constraints nest too deeply to compile, and
    every program checked after a production failed to compile goes to the
    reference check; only an accepted program is rebuilt as a term."""
    reference = _reference_check(frontier, examples)
    query = frontier.query
    if not examples or not query.constraints:
        return reference
    fn = query.synth_fun
    makers = frontier.makers
    if makers[0] is _uncompiled:  # a production failed to compile in an earlier phase
        return reference
    form = frontier.constraints
    if form is None:
        return reference
    pred, calls = form
    per_example = _points(query, calls, examples)
    if per_example is None:
        return reference
    arity, fills = frontier.grammar.arity, frontier.fills
    # a one-slot memo of the frames of the last tail: the leaf siblings of a
    # run share their tail cons, so it is folded once per parent
    memo: list = [_NO_TAIL, []]

    def check(choices: Choices) -> Optional[Candidate]:
        idx, tail = choices
        try:
            if tail is not memo[0]:
                memo[:] = tail, _frames(tail, arity, makers)
            body = _fill(memo[1], makers[idx]())
        except _Uncompiled:
            return reference(choices)
        try:
            for values, points in per_example:
                if not pred(values + tuple(map(body, points))):
                    return None
        except Exception:
            return reference(choices)
        return Candidate(fn.name, fn.params, fn.return_sort,
                         _fold_choices(choices, arity, fills))

    return check


# ---------------------------------------------------------------------------
# A* synthesis phase
# ---------------------------------------------------------------------------

def astar_synthesize(grammar: Grammar,
                     examples: Sequence[Assignment],
                     query: SynthQuery,
                     deadline: float,
                     config: EnumeratorConfig = EnumeratorConfig(),
                     frontier: Optional[Frontier] = None) -> SearchResult:
    """Return the first dequeued complete program consistent with every
    constraint on every example; priority is spent cost plus heuristic, ties
    FIFO. `deadline` is absolute (time.monotonic); checked on every expansion.
    A check that passes the recursion limit ends the search as TOO_DEEP.
    A popped state with a subterm not in normal form is pruned: counted,
    never checked and never expanded.

    Without `frontier` the search starts from the start symbol; with one it
    goes on from where that frontier's last phase stopped. The counters are
    this phase's own pops.
    """
    if frontier is None:
        frontier = Frontier(grammar, query)
    assert frontier.grammar is grammar and frontier.query is query
    mc, arity, first_child = grammar.min_costs, grammar.arity, frontier.first_child
    n_children, pushes, hole_chain = frontier.n_children, frontier.pushes, frontier.hole_chain
    heap, tie, size = frontier.heap, frontier.tie, frontier.size
    check = _compiled_check(frontier, examples)
    last_priority = frontier.last_priority
    max_frontier = config.max_frontier
    expansions = completes = pruned = 0
    status, cand = SearchStatus.EXHAUSTED, None
    tested = closing = None  # the last parent whose leaves closed terms, their test
    keep_all = KEEP_ALL

    # A child pushed late gets the priority an eager push would have given
    # it, from the same sums. Every edge cost is a count of productions and
    # every heuristic a sum of them, so priorities are integer-valued floats
    # that add exactly: siblings with different heuristics get different
    # priorities, and ordering them by (heuristic, grammar position) is
    # their (priority, tie) order.
    #
    # A complete program's last choice is a leaf whose parent left nothing
    # pending, so its leaf siblings (holes' heuristic 0) come next in its
    # chain with the same priority, `cost + g`, and higher ties reserved by
    # the same expansion. Every other heap entry has a larger priority, or
    # the same priority and a tie outside that expansion's block: not below
    # it, as the popped leaf was the minimum, so above it. Hence each next
    # leaf sibling is the next pop, and the run checks it without the heap
    # round-trip. It counts each sibling as a pop (the cap need not be
    # checked again: `size` only falls) and checks the deadline before each,
    # as the loop top does; where the run stops, the next sibling goes on
    # the heap with its reserved tie, as its elder's pop would have pushed it.
    while heap:
        if time.monotonic() > deadline:
            status = SearchStatus.TIMEOUT
            break
        if size > max_frontier:
            status = SearchStatus.FRONTIER_CAP
            break
        priority, _, child, parent = heappop(heap)
        size -= 1
        assert priority >= last_priority - 1e-9, "priority queue pops regressed"
        last_priority = priority

        if child is None:  # the start state
            choices, pending, cost, g = None, (grammar.start, None), 0.0, priority
            first = first_child[grammar.start]
        else:
            idx, h, _, sibling, dead = child
            choices, pending, cost, g, base = parent
            lo, banned = keep_all
            if not arity[idx] and pending is not None and pending[0].__class__ is not str:
                # the leaf closes the terms whose markers top the stack; its
                # leaf siblings are the next pops and share the test
                if parent is not tested:
                    tested, closing = parent, leaf_test(pending, choices)
                lo, banned, pending = closing
            if pending is None and not arity[idx]:
                while True:  # a leaf run of complete programs, left only by a break
                    if dead or idx < lo or idx in banned:
                        pruned += 1
                    else:
                        completes += 1
                        try:
                            cand = check((idx, choices))
                        except RecursionError:
                            status = SearchStatus.TOO_DEEP
                            break
                        if cand is not None:
                            status = SearchStatus.SOLVED
                            break
                    if sibling is None or arity[sibling[0]]:
                        break
                    if time.monotonic() > deadline:
                        status = SearchStatus.TIMEOUT
                        break
                    idx, _, _, sibling, dead = sibling
                    size -= 1
                if sibling is not None:
                    heappush(heap, (cost + (g + sibling[1]), base + sibling[2], sibling, parent))
                if status is SearchStatus.EXHAUSTED:
                    continue
                break
            if sibling is not None:
                heappush(heap, (cost + (g + sibling[1]), base + sibling[2], sibling, parent))
            if dead or idx < lo or idx in banned:
                pruned += 1
                continue
            choices = (idx, choices)
            if arity[idx]:
                g += h
                for item in pushes[idx]:
                    pending = ((item if item.__class__ is str else (item, choices)),
                               pending)
                first = hole_chain[idx]
            else:
                first = first_child[pending[0]]

        expansions += 1
        nt, rest = pending
        n = n_children[nt]
        cost += n
        g -= mc[nt]
        parent = (choices, rest, cost, g, tie)
        heappush(heap, (cost + (g + first[1]), tie + first[2], first, parent))
        size += n
        tie += n

    frontier.tie, frontier.size, frontier.last_priority = tie, size, last_priority
    return SearchResult(status, cand, expansions, completes, pruned)


# ---------------------------------------------------------------------------
# CEGIS loop
# ---------------------------------------------------------------------------

def initial_example(query: SynthQuery) -> Assignment:
    """The all-zeros assignment over the universal variables."""
    return {name: False if sort == BOOL else 0 for name, sort in query.universals}


@dataclass(frozen=True)
class CegisResult:
    status: SearchStatus
    candidate: Optional[Candidate] = None
    iterations: int = 0
    counterexamples: Tuple[Assignment, ...] = ()
    provenance: str = ""  # of the verdict that accepted the candidate
    # of the one A* search that every phase resumes: each pop counts once
    expansions: int = 0
    dequeued_complete: int = 0
    bounded: bool = False  # the accepting verdict searched only a finite region
    pruned: int = 0
    # why CEGIS gave up where no deadline passed: the verifier's Unknown or
    # its repeated counterexample
    reason: str = ""


def cegis_solve(query: SynthQuery, grammar: Grammar, deadline: float,
                verifier: Verifier,
                config: EnumeratorConfig = EnumeratorConfig()) -> CegisResult:
    """Alternate A* synthesis against the accumulated counterexample set with
    full verification of each candidate; a verifier Unknown, and a
    counterexample the verifier repeats, counts as a timeout for this
    solver (never an unverified answer), with the cause in `reason`.

    Every phase resumes one frontier after the candidate just refuted: the
    counterexample falsifies that candidate and every earlier pop was
    rejected on fewer examples, so a restarted search would pop them all
    again only to return the same program."""
    examples: list[Assignment] = [initial_example(query)]
    sorts = dict(query.universals)
    frontier = Frontier(grammar, query)
    iterations = expansions = completes = pruned = 0

    def finish(status: SearchStatus, cand: Optional[Candidate] = None,
               provenance: str = "", bounded: bool = False, reason: str = "") -> CegisResult:
        return CegisResult(status, cand, iterations, tuple(examples), provenance,
                           expansions, completes, bounded, pruned, reason)

    while True:
        result = astar_synthesize(grammar, examples, query, deadline, config, frontier)
        iterations += 1
        expansions += result.expansions
        completes += result.dequeued_complete
        pruned += result.pruned
        if result.status is not SearchStatus.SOLVED:
            return finish(result.status)
        cand = result.candidate
        assert cand is not None
        verdict = verifier.check(query, cand, deadline)
        if verdict.is_valid:
            return finish(SearchStatus.SOLVED, cand, verdict.provenance, verdict.bounded)
        if verdict.is_counterexample:
            ce = verdict.assignment_dict()
            if ce in examples:
                # no progress possible: the verifier repeated itself
                return finish(SearchStatus.TIMEOUT, reason="verifier repeated a counterexample")
            if __debug__ and query.constraints:
                # the new counterexample must falsify the candidate it refutes
                phi = substitute_solution(query, cand)
                try:
                    assert not evaluate(phi, ce, sorts)
                except EvaluationError:
                    pass
            examples.append(ce)
            if time.monotonic() > deadline:
                return finish(SearchStatus.TIMEOUT)
            continue
        # verifier unknown: give up without claiming an answer
        return finish(SearchStatus.TIMEOUT, reason=f"verifier unknown: {verdict.reason}")
