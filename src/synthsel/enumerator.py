"""Built-in symbolic solver: CEGIS with an A* synthesis phase.

The A* search runs over sentential forms of the grammar. Each state pairs the
derivation so far (production choices in leftmost order) with the queue of
unexpanded nonterminals; expanding the leftmost nonterminal by a production
costs that nonterminal's edge cost, and the heuristic sums the minimal
completion cost of every pending nonterminal.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Mapping, Optional, Sequence, Tuple

from .sygus import Candidate, Grammar, SynthQuery, Term, fill_holes, substitute_solution
from .sygus.grammar import Production
from .sygus.terms import BOOL
from .verify import Assignment, EvaluationError, Verifier, evaluate


class SearchStatus(Enum):
    SOLVED = "solved"
    EXHAUSTED = "exhausted"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    candidate: Optional[Candidate] = None
    expansions: int = 0
    dequeued_complete: int = 0


@dataclass(frozen=True)
class EnumeratorConfig:
    edge_cost_scale: float = 1.0   # proportionality constant for edge costs
    dedupe_states: bool = True
    max_seen: int = 2_000_000      # dedupe-set memory cap (entries)
    max_frontier: int = 4_000_000  # frontier memory cap; breach ends in timeout


def edge_cost(nonterminal: str, grammar: Grammar,
              scale: float = 1.0) -> float:
    """Cost of one expansion step: the number of choices at that nonterminal."""
    try:
        prods = grammar.productions[nonterminal]
    except KeyError:
        raise KeyError(f"unknown nonterminal {nonterminal!r}") from None
    return scale * len(prods)


def min_completion_costs(grammar: Grammar, scale: float = 1.0) -> dict[str, float]:
    """Least total edge cost to rewrite each nonterminal into a hole-free term
    (least fixpoint; finite because the grammar has no dead nonterminals)."""
    mc: dict[str, float] = {nt: math.inf for nt in grammar.productions}
    changed = True
    while changed:
        changed = False
        for nt, prods in grammar.productions.items():
            base = edge_cost(nt, grammar, scale)
            best = mc[nt]
            for p in prods:
                total = base + sum(mc[h] for h in p.holes)
                if total < best:
                    best = total
            if best < mc[nt]:
                mc[nt] = best
                changed = True
    stuck = [nt for nt, v in mc.items() if math.isinf(v)]
    if stuck:
        raise ValueError(f"nonterminals cannot complete: {stuck}")
    return mc


@dataclass(frozen=True)
class PartialProgram:
    """A sentential form: the productions applied so far, leftmost-first, and
    the pending nonterminals left to expand."""

    choices: Tuple[int, ...]       # indices into the grammar's production list
    pending: Tuple[str, ...]
    cost: float                    # sum of edge costs spent so far

    @property
    def is_complete(self) -> bool:
        return not self.pending


def heuristic(partial: PartialProgram, grammar: Grammar,
              mc: Optional[Mapping[str, float]] = None,
              scale: float = 1.0) -> float:
    """Estimated remaining cost: sum of minimal completion costs over the
    pending nonterminals; zero exactly when the program is complete."""
    if mc is None:
        mc = min_completion_costs(grammar, scale)
    return sum(mc[nt] for nt in partial.pending)


def _flat_productions(grammar: Grammar) -> Tuple[list[Production], dict[str, list[int]]]:
    flat: list[Production] = []
    by_nt: dict[str, list[int]] = {}
    for nt, prods in grammar.productions.items():
        by_nt[nt] = []
        for p in prods:
            by_nt[nt].append(len(flat))
            flat.append(p)
    return flat, by_nt


def reconstruct_term(choices: Sequence[int], flat: Sequence[Production]) -> Term:
    """Build the term from leftmost-order production choices: walk the choice
    list in reverse, filling each template's holes from a stack."""
    stack: list[Term] = []
    for idx in reversed(choices):
        prod = flat[idx]
        n = len(prod.holes)
        if n == 0:
            stack.append(prod.template)
        else:
            children = stack[-n:][::-1]
            del stack[-n:]
            stack.append(fill_holes(prod.template, children))
    if len(stack) != 1:
        raise ValueError("choice sequence does not form one complete term")
    return stack[0]


# ---------------------------------------------------------------------------
# A* synthesis phase
# ---------------------------------------------------------------------------

def astar_synthesize(grammar: Grammar,
                     examples: Sequence[Assignment],
                     query: SynthQuery,
                     deadline: float,
                     config: EnumeratorConfig = EnumeratorConfig()
                     ) -> SearchResult:
    """Return the first dequeued complete program consistent with every
    constraint on every example; priority is spent cost plus heuristic, ties
    FIFO. `deadline` is absolute (time.monotonic); checked on every expansion.
    """
    scale = config.edge_cost_scale
    mc = min_completion_costs(grammar, scale)
    flat, by_nt = _flat_productions(grammar)
    costs = {nt: edge_cost(nt, grammar, scale) for nt in grammar.productions}

    sorts = dict(query.universals)
    fn = query.synth_fun

    def consistent(term: Term) -> bool:
        if not examples or not query.constraints:
            return True
        cand = Candidate(fn.name, fn.params, fn.return_sort, term)
        phi = substitute_solution(query, cand)
        for ex in examples:
            try:
                if not evaluate(phi, ex, sorts):
                    return False
            except EvaluationError:
                return False  # division by zero etc. fails the example
        return True

    counter = itertools.count()  # FIFO among equal priorities
    start = PartialProgram((), (grammar.start,), 0.0)
    # heap entries carry the heuristic g so children update it in O(holes)
    frontier: list = [(mc[grammar.start], next(counter), start, mc[grammar.start])]
    seen: set[Tuple[Tuple[int, ...], Tuple[str, ...]]] = set()
    expansions = 0
    completes = 0
    last_priority = -math.inf

    while frontier:
        if time.monotonic() > deadline:
            return SearchResult(SearchStatus.TIMEOUT,
                                expansions=expansions,
                                dequeued_complete=completes)
        if len(frontier) > config.max_frontier:
            return SearchResult(SearchStatus.TIMEOUT,
                                expansions=expansions,
                                dequeued_complete=completes)
        priority, _, state, g = heappop(frontier)
        assert priority >= last_priority - 1e-9, "priority queue pops regressed"
        last_priority = priority

        if state.is_complete:
            completes += 1
            term = reconstruct_term(state.choices, flat)
            try:
                ok = consistent(term)
            except Exception:
                ok = False
            if ok:
                cand = Candidate(fn.name, fn.params, fn.return_sort, term)
                return SearchResult(SearchStatus.SOLVED, cand,
                                    expansions=expansions,
                                    dequeued_complete=completes)
            continue

        if config.dedupe_states:
            key = (state.choices, state.pending)
            if key in seen:
                continue
            if len(seen) < config.max_seen:
                seen.add(key)

        expansions += 1
        nt = state.pending[0]
        rest = state.pending[1:]
        step = costs[nt]
        g_rest = g - mc[nt]
        for idx in by_nt[nt]:
            prod = flat[idx]
            new = PartialProgram(
                choices=state.choices + (idx,),
                pending=prod.holes + rest,
                cost=state.cost + step,
            )
            new_g = g_rest + sum(mc[h] for h in prod.holes)
            heappush(frontier, (new.cost + new_g, next(counter), new, new_g))

    return SearchResult(SearchStatus.EXHAUSTED,
                        expansions=expansions, dequeued_complete=completes)


# ---------------------------------------------------------------------------
# CEGIS loop
# ---------------------------------------------------------------------------

def initial_example(query: SynthQuery) -> Assignment:
    """The all-zeros assignment over the universal variables."""
    zero: dict[str, object] = {}
    for name, sort in query.universals:
        if sort == BOOL:
            zero[name] = False
        else:
            zero[name] = 0
    return zero


@dataclass(frozen=True)
class CegisResult:
    status: SearchStatus
    candidate: Optional[Candidate] = None
    iterations: int = 0
    counterexamples: Tuple[Assignment, ...] = ()
    provenance: str = ""  # of the verdict that accepted the candidate


def cegis_solve(query: SynthQuery, grammar: Grammar, deadline: float,
                verifier: Verifier,
                config: EnumeratorConfig = EnumeratorConfig()) -> CegisResult:
    """Alternate A* synthesis against the accumulated counterexample set with
    full verification of each candidate; a verifier Unknown counts as a
    timeout for this solver (never an unverified answer)."""
    examples: list[Assignment] = [initial_example(query)]
    sorts = dict(query.universals)
    iterations = 0
    while True:
        result = astar_synthesize(grammar, examples, query, deadline, config)
        iterations += 1
        if result.status is not SearchStatus.SOLVED:
            return CegisResult(result.status, iterations=iterations,
                               counterexamples=tuple(examples))
        cand = result.candidate
        assert cand is not None
        verdict = verifier.check(query, cand, deadline)
        if verdict.is_valid:
            return CegisResult(SearchStatus.SOLVED, cand, iterations,
                               tuple(examples), verdict.provenance)
        if verdict.is_counterexample:
            ce = verdict.assignment_dict()
            if __debug__ and query.constraints:
                # the new counterexample must falsify the candidate it refutes
                phi = substitute_solution(query, cand)
                try:
                    assert not evaluate(phi, ce, sorts)
                except EvaluationError:
                    pass
            if ce in examples:
                # no progress possible: the verifier repeated itself
                return CegisResult(SearchStatus.TIMEOUT, iterations=iterations,
                                   counterexamples=tuple(examples))
            examples.append(ce)
            if time.monotonic() > deadline:
                return CegisResult(SearchStatus.TIMEOUT, iterations=iterations,
                                   counterexamples=tuple(examples))
            continue
        # verifier unknown: give up without claiming an answer
        return CegisResult(SearchStatus.TIMEOUT, iterations=iterations,
                           counterexamples=tuple(examples))
