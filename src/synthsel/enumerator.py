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
function per grammar production) and folds the siblings' shared tail once
into frames, the productions on the path to the rightmost leaf, which each
leaf fills; the tree-walking evaluator stays as the fallback and the test
oracle.

One `Frontier` serves every CEGIS phase of a solve. The pop order does not
depend on the examples, and a program rejected on some examples stays
rejected when more are added, so each phase goes on from the entry after
the candidate the verifier just refuted instead of popping every earlier
entry again; a fresh A* on all the examples would return the same program.

Equivalence reduction (Smith and Albarghouthi, "Program Synthesis with
Equivalence Reduction", VMCAI 2019) prunes a state as soon as one of its
finished subterms is not in normal form: it is never checked and never
expanded. The rules are derived once per grammar, when the `Frontier` is
built, and apply only to flat templates, `(op N M)`, `(not N)` and
`ite(B, N, M)`, whose arguments are all holes:

- commutativity of `+ * and or =` and `bvadd bvand bvor bvxor`, where both
  holes are at one nonterminal: the kept order has the left operand's
  choice sequence lexicographically no greater than the right one's;
- `(op a a)` is `a` for `and or bvand bvor`, `0` for `- bvsub bvxor`, and
  `(= a a)` is `true`: pruned where that result derives from the
  production's own nonterminal (for `a`, both holes are that nonterminal;
  for `0` and `true`, a literal production of it);
- `(op a 0)` is `a` for `+ - bvadd bvsub bvor bvxor`, and `(0 op a)` is `a`
  for the commutative ones among them, where `a`'s hole is the
  production's nonterminal;
- `ite(c, a, a)` is `a` and `(not (not b))` is `b`, on the same condition;
- `(<= a b)` is `(>= b a)` where the nonterminal also has `(>= M N)`.

Every pruned term has a kept one that is equivalent on every input, derives
from the same nonterminal, costs no more and evaluates without raising
wherever the pruned one does (each rewrite lowers the cost, the count of
`<=` nodes or the choice sequence, so rewriting ends at a kept term). So
A* still returns a minimum-cost consistent program, but among programs of
equal cost it may return another one than a search without the rules. The
rules do not depend on the examples, so the frontier's resume across CEGIS
phases stays sound.

The tests run where they cost least. A rule that the choice alone decides,
`<=`, and one that the choice and the production whose first hole it fills
decide, `(not (not ·))` and `(0 op ·)`, is a flag on that child in the
child chain. A rule over whole operands pushes a closing marker under the
production's holes on the pending stack, holding the production's own
choice cell; the leaf that closes its last operand finds the marker on top
of the stack and tests the operands, whose choices lie between that cell
and the leaf's.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence, Tuple, TypeVar

from .sygus import (App, BoolLit, BVLit, Candidate, Grammar, Hole, IntLit, Ite,
                    SynthQuery, Term, Var, conjoin, fill_holes, map_children,
                    substitute_solution)
from .sygus.grammar import Production, edge_cost, min_completion_costs
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


def _flat_productions(grammar: Grammar) -> Tuple[list[Production], dict[str, list[int]]]:
    flat: list[Production] = []
    by_nt: dict[str, list[int]] = {}
    for nt, prods in grammar.productions.items():
        by_nt[nt] = []
        for p in prods:
            by_nt[nt].append(len(flat))
            flat.append(p)
    return flat, by_nt


Choices = Optional[Tuple[int, "Choices"]]  # (last production, earlier ones)
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


# ---------------------------------------------------------------------------
# Equivalence reduction: the normal-form rules of a grammar
# ---------------------------------------------------------------------------

_COMMUTATIVE = frozenset({"+", "*", "and", "or", "=", "bvadd", "bvand", "bvor", "bvxor"})
_IDEMPOTENT = frozenset({"and", "or", "bvand", "bvor"})  # (op a a) = a
_SELF_INVERSE = frozenset({"-", "bvsub", "bvxor"})  # (op a a) = 0
_ZERO_UNIT = frozenset({"+", "-", "bvadd", "bvsub", "bvor", "bvxor"})  # (op a 0) = a
_FLIPPED = {"<=": ">="}  # (<= a b) = (>= b a)

# A closer's test of the leaves that may close its term, from the term's
# choice cell and the choices before that leaf: a leaf is kept when it is no
# less than the bound and not banned
LeafTest = Tuple[int, frozenset]
Closer = Callable[["Choices", "Choices"], LeafTest]
_KEEP_ALL: LeafTest = (-1, frozenset())


def _shape(p: Production) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """(op, hole nonterminals) of a production whose template's arguments
    are all holes, op "ite" for an Ite; None for any other production."""
    t = p.template
    if isinstance(t, App):
        op, args = t.op, t.args
    elif isinstance(t, Ite):
        op, args = "ite", (t.cond, t.then_branch, t.else_branch)
    else:
        return None
    if p.holes and len(args) == len(p.holes) and all(isinstance(a, Hole) for a in args):
        return op, p.holes
    return None


def _operands(start: "Choices", tail: "Choices") -> list[int]:
    """The choices after `start` up to `tail`, last first."""
    rev = []
    while tail is not start:
        idx, tail = tail
        rev.append(idx)
    return rev


def _first_operand(rev: Sequence[int], k: int, arity: Sequence[int]) -> int:
    """Where the first of the whole operands in `rev[:k]` (last choice
    first) starts: that operand is `rev[j:k]`."""
    need = 1
    while need:
        k -= 1
        need += arity[rev[k]] - 1
    return k


def _binary_closer(arity: Sequence[int], ordered: bool, distinct: bool,
                   zeros: frozenset) -> Closer:
    """The leaf test of `(op a b)`: b's last leaf must keep b's choice
    sequence lexicographically no less than a's (`ordered`; a whole term's
    sequence is no prefix of another's, so the swap of a pruned term is
    less), b unlike a (`distinct`) and b no lone zero (`zeros`)."""
    def test(start: "Choices", tail: "Choices") -> LeafTest:
        rev = _operands(start, tail)
        k = _first_operand(rev, len(rev), arity)
        a, b = rev[k:][::-1], rev[:k][::-1]  # a and b without its leaf, leftmost first
        banned = frozenset() if k else zeros
        if len(a) > k and a[:k] == b:  # the leaf a[k] keeps b level with a
            if distinct and len(a) == k + 1:
                banned = banned | {a[k]}
            return (a[k] if ordered else -1), banned
        return (len(arity) if ordered and a > b else -1), banned
    return test


def _branch_closer(arity: Sequence[int]) -> Closer:
    """The leaf test of `ite(c, a, b)`: b unlike a."""
    def test(start: "Choices", tail: "Choices") -> LeafTest:
        rev = _operands(start, tail)
        k = _first_operand(rev, len(rev), arity)
        j = _first_operand(rev, k, arity)
        a, b = rev[j:k][::-1], rev[:j][::-1]  # a and b without its leaf
        if len(a) == j + 1 and a[:j] == b:
            return -1, frozenset({a[j]})
        return _KEEP_ALL
    return test


def _leaf_test(markers: tuple, tail: Choices) -> Tuple[int, frozenset, tuple]:
    """The leaf test of every term whose closing marker tops the pending
    stack `markers`, for the leaves after `tail`, and the stack under
    those markers."""
    lo, banned = _KEEP_ALL
    while markers is not None and markers[0].__class__ is not str:
        (test, start), markers = markers
        bound, more = test(start, tail)
        lo, banned = max(lo, bound), banned | more
    return lo, banned, markers


def _normal_form_rules(flat: Sequence[Production], by_nt: dict[str, list[int]],
                       arity: Sequence[int]
                       ) -> Tuple[list[Optional[Closer]], set[int], dict[int, frozenset]]:
    """Per production, the leaf test of its term's closing leaf (or None);
    the productions pruned wherever they are chosen; and
    per production the choices pruned in its first hole."""
    shapes: list = []
    zero: dict[str, frozenset] = dict.fromkeys(by_nt, frozenset())  # its 0 literals
    true: set[str] = set()  # the nonterminals with a true literal
    for idx, p in enumerate(flat):
        t = p.template
        shapes.append(_shape(p))
        if isinstance(t, (IntLit, BVLit)) and t.value == 0:
            zero[p.nonterminal] |= {idx}
        elif isinstance(t, BoolLit) and t.value is True:
            true.add(p.nonterminal)
    closers: list[Optional[Closer]] = [None] * len(flat)
    dead: set[int] = set()
    dead_under: dict[int, frozenset] = {}
    for idx, shape in enumerate(shapes):
        if shape is None:
            continue
        (op, holes), n = shape, flat[idx].nonterminal
        if op == "ite":
            if holes[1] == holes[2] == n:
                closers[idx] = _branch_closer(arity)
        elif op == "not":
            dead_under[idx] = frozenset(i for i in by_nt[holes[0]]
                                        if shapes[i] == ("not", (n,)))
        elif len(holes) == 2:
            a, b = holes
            if op in _FLIPPED and any(shapes[i] == (_FLIPPED[op], (b, a)) for i in by_nt[n]):
                dead.add(idx)
                continue
            ordered = op in _COMMUTATIVE and a == b
            distinct = a == b and ((op in _IDEMPOTENT and a == n)
                                   or (op in _SELF_INVERSE and bool(zero[n]))
                                   or (op == "=" and n in true))
            zeros = zero[b] if op in _ZERO_UNIT and a == n else frozenset()
            if op in _ZERO_UNIT and op in _COMMUTATIVE and b == n:
                dead_under[idx] = zero[a]
            if ordered or distinct or zeros:
                closers[idx] = _binary_closer(arity, ordered, distinct, zeros)
    return closers, dead, {i: d for i, d in dead_under.items() if d}


class Frontier:
    """The state of one A* search, kept across the CEGIS phases of a solve:
    the heap, the next free FIFO tie, the frontier's size and the last
    popped priority, with the grammar tables and `makers`, which do not
    depend on the examples.

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
    first hole it fills (`hole_chain`). `closers` holds per production the
    test of its operands, or None (see the module docstring).

    `makers` holds one compiled function per production, built once per
    grammar with each hole at its nonterminal's width. The check walks the
    tree instead for nested `f` applications and constraints too deep to
    compile."""

    def __init__(self, grammar: Grammar, query: SynthQuery):
        self.grammar = grammar
        self.query = query
        self.mc = min_completion_costs(grammar)
        self.flat, self.by_nt = _flat_productions(grammar)
        self.costs = {nt: edge_cost(nt, grammar) for nt in grammar.productions}
        self.arity = [len(p.holes) for p in self.flat]
        self.holes_reversed = [p.holes[::-1] for p in self.flat]
        # _fold_choices over fills rebuilds a program's term, over makers its function
        self.fills = [lambda *kids, t=p.template: fill_holes(t, kids) for p in self.flat]
        holes_mc = [sum(self.mc[h] for h in p.holes) for p in self.flat]
        self.closers, dead, dead_under = _normal_form_rules(self.flat, self.by_nt,
                                                            self.arity)

        def chain(nt: str, pruned: set[int]) -> tuple:
            # the children in (priority, tie) order: by the holes'
            # heuristic, then by grammar order
            sibling = None
            for pos, idx in sorted(enumerate(self.by_nt[nt]), reverse=True,
                                   key=lambda e: (holes_mc[e[1]], e[0])):
                sibling = (idx, holes_mc[idx], pos, sibling, idx in pruned)
            return sibling

        self.first_child = {nt: chain(nt, dead) for nt in self.by_nt}
        # per production the chain of its first hole's children, one per
        # distinct set of pruned choices
        chains = {(nt, frozenset()): first for nt, first in self.first_child.items()}
        self.hole_chain = [None] * len(self.flat)
        for idx, p in enumerate(self.flat):
            if p.holes:
                key = p.holes[0], dead_under.get(idx, frozenset())
                if key not in chains:
                    chains[key] = chain(key[0], dead | key[1])
                self.hole_chain[idx] = chains[key]
        self.n_children = {nt: len(idxs) for nt, idxs in self.by_nt.items()}
        # a heap entry is (priority, tie, child, parent) for the next child
        # of an expansion; parent is (choices, rest, cost, heuristic, base):
        # the parent's choices and its pending stack without the expanded
        # nonterminal, the edge cost spent with that expansion, the
        # heuristic without it, and the first tie reserved for its children.
        # The start state's entry has neither.
        self.heap: list = [(self.mc[grammar.start], 0, None, None)]
        self.tie = 1  # FIFO among equal priorities
        self.size = 1  # entries an eager frontier would hold
        self.last_priority = -math.inf

    @functools.cached_property
    def makers(self) -> list:
        """`compile_template`'s maker per production."""
        fn, sorts = self.query.synth_fun, self.grammar.sorts
        return [compile_template(p.template, fn.param_names, dict(fn.params),
                                 [sorts[h].width for h in p.holes]) for p in self.flat]


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
            return consistent(_fold_choices(choices, frontier.arity, frontier.fills))
        except RecursionError:
            raise
        except Exception:
            return None

    return check


def _invocations(query: SynthQuery, examples: Sequence[Assignment]
                 ) -> Optional[Tuple[Term, list[str], list]]:
    """The constraints with every application of f replaced by a slot
    variable, the slot names, and per example the universals' values and the
    arguments of each slot's application.

    None when an argument fails to evaluate on some example: always when it
    applies f, and when it divides by zero. The tree walker evaluates an
    argument only where the body reads its parameter, so such an argument
    raises there or not depending on the body. An argument that evaluates
    has one value wherever it is read, so its precomputed value is exact.
    """
    fn = query.synth_fun
    slots: dict[Term, str] = {}

    def replace(t: Term) -> Term:
        if isinstance(t, App) and t.op == fn.name:
            return Var(slots.setdefault(t, f"#{len(slots)}"))
        return map_children(t, replace)

    phi = conjoin([replace(c) for c in query.constraints])
    names = [n for n, _ in query.universals]
    sorts = dict(query.universals)
    per_example = []
    for ex in examples:
        try:
            values = tuple(ex[n] for n in names)
            points = [tuple(evaluate(a, ex, sorts) for a in call.args) for call in slots]
        except (KeyError, EvaluationError):
            return None
        per_example.append((values, points))
    return phi, list(slots.values()), per_example


def _compiled_check(frontier: Frontier, examples: Sequence[Assignment]) -> Check:
    """The same decisions as `_reference_check`, compiled: the body is
    evaluated at the precomputed invocation points of f and the constraints
    by one predicate over the examples' values and f's results. A program
    whose compiled evaluation raises, and every program of a phase where an
    argument of f fails to evaluate or the constraints nest too deeply to
    compile, goes to the reference check; only an accepted program is
    rebuilt as a term."""
    reference = _reference_check(frontier, examples)
    query = frontier.query
    if not examples or not query.constraints:
        return reference
    fn = query.synth_fun
    try:
        makers = frontier.makers
        found = _invocations(query, examples)
        if found is None:
            return reference
        phi, slots, per_example = found
        sorts = dict(query.universals)
        sorts.update((slot, fn.return_sort) for slot in slots)
        pred = compile_term(phi, [n for n, _ in query.universals] + slots, sorts)
    except (RecursionError, EvaluationError):
        return reference
    arity, fills = frontier.arity, frontier.fills
    # a one-slot memo of the frames of the last tail: the leaf siblings of a
    # run share their tail cons, so it is folded once per parent
    memo: list = [_NO_TAIL, []]

    def check(choices: Choices) -> Optional[Candidate]:
        idx, tail = choices
        if tail is not memo[0]:
            memo[:] = tail, _frames(tail, arity, makers)
        body = _fill(memo[1], makers[idx]())
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
    mc, costs, first_child = frontier.mc, frontier.costs, frontier.first_child
    n_children, arity = frontier.n_children, frontier.arity
    holes_reversed, hole_chain = frontier.holes_reversed, frontier.hole_chain
    closers = frontier.closers
    heap, tie, size = frontier.heap, frontier.tie, frontier.size
    check = _compiled_check(frontier, examples)
    last_priority = frontier.last_priority
    max_frontier = config.max_frontier
    expansions = completes = pruned = 0
    status, cand = SearchStatus.EXHAUSTED, None
    tested = leaf_test = None  # the last parent whose leaves closed terms, their test
    keep_all = _KEEP_ALL

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
                    tested, leaf_test = parent, _leaf_test(pending, choices)
                lo, banned, pending = leaf_test
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
                closer = closers[idx]
                if closer is not None:
                    pending = ((closer, choices), pending)
                for nt in holes_reversed[idx]:
                    pending = (nt, pending)
                first = hole_chain[idx]
            else:
                first = first_child[pending[0]]

        expansions += 1
        nt, rest = pending
        cost += costs[nt]
        g -= mc[nt]
        parent = (choices, rest, cost, g, tie)
        heappush(heap, (cost + (g + first[1]), tie + first[2], first, parent))
        n = n_children[nt]
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


def cegis_solve(query: SynthQuery, grammar: Grammar, deadline: float,
                verifier: Verifier,
                config: EnumeratorConfig = EnumeratorConfig()) -> CegisResult:
    """Alternate A* synthesis against the accumulated counterexample set with
    full verification of each candidate; a verifier Unknown counts as a
    timeout for this solver (never an unverified answer).

    Every phase resumes one frontier after the candidate just refuted: the
    counterexample falsifies that candidate and every earlier pop was
    rejected on fewer examples, so a restarted search would pop them all
    again only to return the same program."""
    examples: list[Assignment] = [initial_example(query)]
    sorts = dict(query.universals)
    frontier = Frontier(grammar, query)
    iterations = expansions = completes = pruned = 0

    def finish(status: SearchStatus, cand: Optional[Candidate] = None,
               provenance: str = "", bounded: bool = False) -> CegisResult:
        return CegisResult(status, cand, iterations, tuple(examples), provenance,
                           expansions, completes, bounded, pruned)

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
                return finish(SearchStatus.TIMEOUT)
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
        return finish(SearchStatus.TIMEOUT)
