"""Context-free grammars over terms: default full-logic grammars and user
grammars read from synth-fun bodies.

A production owns a template term in which Hole leaves mark nonterminal
positions. Expanding a sentential form replaces its leftmost hole with a
production's template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .parser import (GrammarError, GrammarRules, UnsupportedError, read_grammar_rules,
                     read_sexprs)
from .terms import (
    App,
    BVLit,
    FunctionSignature,
    Hole,
    IntLit,
    Ite,
    Sort,
    Term,
    Var,
    BOOL,
    INT,
    literal_sort,
    map_children,
    print_term,
    subterms,
)


TemplateTerm = Term  # may additionally contain Hole leaves


@dataclass(frozen=True)
class Production:
    nonterminal: str
    template: TemplateTerm
    holes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "holes", tuple(
            t.nonterminal for t in subterms(self.template) if isinstance(t, Hole)))

    def __str__(self) -> str:
        return f"{self.nonterminal} -> {print_term(self.template)}"


def fill_holes(template: TemplateTerm, subterms: Sequence[Term]) -> Term:
    """Replace holes, preorder, by the given terms; len(subterms) must match."""
    kids = iter(subterms)

    def walk(t: TemplateTerm) -> Term:
        if isinstance(t, Hole):
            kid = next(kids, None)
            if kid is None:
                raise GrammarError("too few subterms for template")
            return kid
        return map_children(t, walk)

    try:
        result = walk(template)
    finally:
        del walk  # its closure cell holds it: no cycle left for the collector
    if next(kids, None) is not None:
        raise GrammarError("too many subterms for template")
    return result


@dataclass
class Grammar:
    """4-tuple view: nonterminals V with their productions R, terminal symbols
    implicit in the templates, and a start symbol S."""

    start: str
    sorts: dict[str, Sort]
    productions: dict[str, Tuple[Production, ...]]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.start not in self.productions:
            raise GrammarError(f"start symbol {self.start!r} has no productions")
        if set(self.sorts) != set(self.productions):
            raise GrammarError("nonterminal sort map and production map disagree")
        for nt, prods in self.productions.items():
            if not prods:
                raise GrammarError(f"nonterminal {nt!r} has no productions")
            for p in prods:
                if p.nonterminal != nt:
                    raise GrammarError(f"production {p} filed under {nt!r}")
                for h in p.holes:
                    if h not in self.productions:
                        raise GrammarError(
                            f"production {p} references unknown nonterminal {h!r}")
        dead = [nt for nt, cost in min_completion_costs(self).items() if math.isinf(cost)]
        if dead:
            raise GrammarError(f"dead nonterminals (derive no terminal string): "
                               f"{sorted(dead)}")


def edge_cost(nonterminal: str, grammar: Grammar) -> float:
    """Cost of one expansion step: the number of choices at that nonterminal."""
    try:
        prods = grammar.productions[nonterminal]
    except KeyError:
        raise KeyError(f"unknown nonterminal {nonterminal!r}") from None
    return float(len(prods))


def min_completion_costs(grammar: Grammar) -> dict[str, float]:
    """Least total edge cost to rewrite each nonterminal into a hole-free term
    (least fixpoint); infinite exactly for a dead nonterminal, which no
    validated grammar has."""
    mc: dict[str, float] = {nt: math.inf for nt in grammar.productions}
    changed = True
    while changed:
        changed = False
        for nt, prods in grammar.productions.items():
            base = edge_cost(nt, grammar)
            best = mc[nt]
            for p in prods:
                total = base + sum(mc[h] for h in p.holes)
                if total < best:
                    best = total
            if best < mc[nt]:
                mc[nt] = best
                changed = True
    return mc


# ---------------------------------------------------------------------------
# Default full-logic grammars
# ---------------------------------------------------------------------------

# per logic: the word nonterminal, the word operators and the relations
_DEFAULT_RULES = {
    "LIA": ("I", ("+", "-", "*"), (">=", "<=", "=")),
    "BV": ("W", ("bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvnot"), ("=", "bvult")),
}


def default_grammar(logic: str, signature: FunctionSignature,
                    literals: Sequence[Term] = ()) -> Grammar:
    """Grammar covering the whole solution space of the logic for this
    signature. The word nonterminal derives the parameters of the word sort,
    a finite literal pool ({0, 1} plus the given literals of that sort, by
    value), the word operators and ite; B derives the Bool parameters, the
    relations over words and the connectives.
    """
    try:
        nt, operators, relations = _DEFAULT_RULES[logic]
    except KeyError:
        raise UnsupportedError(f"no default grammar for logic {logic!r}") from None
    word = INT if logic == "LIA" else _bv_word(signature)
    ret = signature.return_sort
    if ret not in (word, BOOL):
        raise UnsupportedError(f"{logic} default grammar cannot produce sort {ret}")
    W, B = Hole(nt), Hole("B")
    pool = sorted({0, 1, *(t.value for t in literals if literal_sort(t) == word)})
    word_prods: list[TemplateTerm] = [Var(n) for n, s in signature.params if s == word]
    word_prods += [IntLit(v) if word == INT else BVLit(v, word.width) for v in pool]
    word_prods += [App(op, (W,) if op == "bvnot" else (W, W)) for op in operators]
    word_prods.append(Ite(B, W, W))
    bool_prods: list[TemplateTerm] = [Var(n) for n, s in signature.params if s == BOOL]
    bool_prods += [App(op, (W, W)) for op in relations]
    bool_prods += [App("and", (B, B)), App("or", (B, B)), App("not", (B,))]
    return Grammar(
        start=nt if ret == word else "B",
        sorts={nt: word, "B": BOOL},
        productions={nt: tuple(Production(nt, t) for t in word_prods),
                     "B": tuple(Production("B", t) for t in bool_prods)},
    )


def _bv_word(signature: FunctionSignature) -> Sort:
    """The one bitvector sort of a BV signature: its return sort's, else its
    parameters'."""
    if signature.return_sort.name == "BitVec":
        return signature.return_sort
    words = {s for _, s in signature.params if s.name == "BitVec"}
    if len(words) != 1:
        raise UnsupportedError("BV default grammar needs one bitvector width")
    return words.pop()


def grammar_for_query(query) -> Grammar:
    """Default or user grammar for a parsed query."""
    if query.user_grammar is not None:
        return grammar_from_rules(query.user_grammar)
    return default_grammar(query.logic, query.synth_fun,
                           [t for c in query.constraints for t in subterms(c)
                            if isinstance(t, (IntLit, BVLit))])


# ---------------------------------------------------------------------------
# User grammars (synth-fun bodies)
# ---------------------------------------------------------------------------

def parse_user_grammar(text: str, signature: FunctionSignature) -> Grammar:
    """Read a SyGuS grammar block (see `read_grammar_rules`) into a Grammar."""
    return grammar_from_rules(read_grammar_rules(read_sexprs(text)[0],
                                                 signature, text))


def grammar_from_rules(rules: GrammarRules) -> Grammar:
    """The grammar of a block as read. Unit productions N -> M are inlined;
    (Constant S) and (Variable S) generators are not supported."""
    if rules.generator is not None:
        raise UnsupportedError(
            f"grammar generator {rules.generator!r} is not supported")
    templates = {nt: list(temps) for nt, _, temps in rules.nonterminals}
    _inline_unit_productions(templates)
    return Grammar(start=rules.nonterminals[0][0],
                   sorts={nt: sort for nt, sort, _ in rules.nonterminals},
                   productions={nt: tuple(Production(nt, t) for t in temps)
                                for nt, temps in templates.items()})


def _inline_unit_productions(templates: dict[str, list[TemplateTerm]]) -> None:
    """Replace productions of the bare form N -> M by M's non-unit templates."""
    for _ in range(len(templates) + 1):
        changed = False
        for nt, temps in templates.items():
            new: list[TemplateTerm] = []
            for t in temps:
                if isinstance(t, Hole):
                    if t.nonterminal == nt:
                        raise GrammarError(f"cyclic unit production on {nt!r}")
                    for sub in templates[t.nonterminal]:
                        if isinstance(sub, Hole):
                            changed = True
                        if sub not in new:
                            new.append(sub)
                    changed = True
                else:
                    new.append(t)
            templates[nt] = new
        if not changed:
            return
    raise GrammarError("cyclic unit productions in grammar")
