"""Context-free grammars over terms: default full-logic grammars and user
grammars read from synth-fun bodies.

A production owns a template term in which Hole leaves mark nonterminal
positions. Expanding a sentential form replaces its leftmost hole with a
production's template.
"""

from __future__ import annotations

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

    result = walk(template)
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

    @property
    def nonterminals(self) -> Tuple[str, ...]:
        return tuple(self.productions)

    def terminal_symbols(self) -> set[str]:
        """Operator and leaf tokens occurring in templates (excluding holes)."""
        out: set[str] = set()
        for prods in self.productions.values():
            for p in prods:
                for t in subterms(p.template):
                    if isinstance(t, App):
                        out.add(t.op)
                    elif isinstance(t, Ite):
                        out.add("ite")
                    elif not isinstance(t, Hole):
                        out.add(print_term(t))
        return out

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
        overlap = set(self.productions) & self.terminal_symbols()
        if overlap:
            raise GrammarError(
                f"symbols used as both nonterminal and terminal: {sorted(overlap)}")
        dead = set(self.productions) - self.derivable_nonterminals()
        if dead:
            raise GrammarError(f"dead nonterminals (derive no terminal string): "
                               f"{sorted(dead)}")

    def derivable_nonterminals(self) -> set[str]:
        """Nonterminals that can derive a hole-free term in finitely many steps."""
        done: set[str] = set()
        changed = True
        while changed:
            changed = False
            for nt, prods in self.productions.items():
                if nt in done:
                    continue
                for p in prods:
                    if all(h in done for h in p.holes):
                        done.add(nt)
                        changed = True
                        break
        return done


# ---------------------------------------------------------------------------
# Default full-logic grammars
# ---------------------------------------------------------------------------

def default_grammar(logic: str, signature: FunctionSignature,
                    int_literals: Sequence[int] = (),
                    bv_literals: Sequence[Tuple[int, int]] = ()) -> Grammar:
    """Grammar covering the whole solution space of the logic for this
    signature: parameters, a finite literal pool ({0, 1} plus the literals
    observed in the query), and the logic's operator set.
    """
    if logic == "LIA":
        return _lia_grammar(signature, int_literals)
    if logic == "BV":
        return _bv_grammar(signature, bv_literals)
    raise UnsupportedError(f"no default grammar for logic {logic!r}")


def _lia_grammar(signature: FunctionSignature,
                 int_literals: Sequence[int]) -> Grammar:
    int_prods: list[TemplateTerm] = []
    bool_prods: list[TemplateTerm] = []
    for name, sort in signature.params:
        if sort == INT:
            int_prods.append(Var(name))
        elif sort == BOOL:
            bool_prods.append(Var(name))
    pool = sorted({0, 1, *int_literals})
    int_prods.extend(IntLit(v) for v in pool)
    I, B = Hole("I"), Hole("B")
    int_prods.extend([
        App("+", (I, I)),
        App("-", (I, I)),
        App("*", (I, I)),
        Ite(B, I, I),
    ])
    bool_prods.extend([
        App(">=", (I, I)),
        App("<=", (I, I)),
        App("=", (I, I)),
        App("and", (B, B)),
        App("or", (B, B)),
        App("not", (B,)),
    ])
    if signature.return_sort == INT:
        start = "I"
    elif signature.return_sort == BOOL:
        start = "B"
    else:
        raise UnsupportedError(
            f"LIA default grammar cannot produce sort {signature.return_sort}")
    return Grammar(
        start=start,
        sorts={"I": INT, "B": BOOL},
        productions={
            "I": tuple(Production("I", t) for t in int_prods),
            "B": tuple(Production("B", t) for t in bool_prods),
        },
    )


def _bv_grammar(signature: FunctionSignature,
                bv_literals: Sequence[Tuple[int, int]]) -> Grammar:
    ret = signature.return_sort
    if ret.name == "BitVec":
        width = ret.width
    else:
        widths = {s.width for _, s in signature.params if s.name == "BitVec"}
        if len(widths) != 1:
            raise UnsupportedError("BV default grammar needs one bitvector width")
        width = widths.pop()
    assert width is not None
    word_prods: list[TemplateTerm] = [
        Var(name) for name, sort in signature.params if sort == Sort.bitvec(width)
    ]
    pool = sorted({0, 1, *(v for v, w in bv_literals if w == width)})
    word_prods.extend(BVLit(v, width) for v in pool)
    W, B = Hole("W"), Hole("B")
    word_prods.extend([
        App("bvadd", (W, W)),
        App("bvsub", (W, W)),
        App("bvand", (W, W)),
        App("bvor", (W, W)),
        App("bvxor", (W, W)),
        App("bvnot", (W,)),
        Ite(B, W, W),
    ])
    bool_prods: list[TemplateTerm] = [
        App("=", (W, W)),
        App("bvult", (W, W)),
        App("and", (B, B)),
        App("or", (B, B)),
        App("not", (B,)),
    ]
    if ret == BOOL:
        start = "B"
    elif ret == Sort.bitvec(width):
        start = "W"
    else:
        raise UnsupportedError(f"BV default grammar cannot produce sort {ret}")
    return Grammar(
        start=start,
        sorts={"W": Sort.bitvec(width), "B": BOOL},
        productions={
            "W": tuple(Production("W", t) for t in word_prods),
            "B": tuple(Production("B", t) for t in bool_prods),
        },
    )


def grammar_for_query(query) -> Grammar:
    """Default or user grammar for a parsed query."""
    if query.user_grammar is not None:
        return grammar_from_rules(query.user_grammar)
    return default_grammar(query.logic, query.synth_fun,
                           query.int_literals(), query.bv_literals())


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
