"""Equivalence reduction: the normal-form rules of a grammar, for A*.

Equivalence reduction (Smith and Albarghouthi, "Program Synthesis with
Equivalence Reduction", VMCAI 2019) prunes an A* state as soon as one of
its finished subterms is not in normal form: it is never checked and never
expanded. `normal_form_rules` derives the rules from the grammar's tables
(`Grammar.flat`, `by_nt`, `arity`) when the enumerator's `Frontier` is
built. They apply only to flat templates, `(op N M)`, `(not N)`, `(bvnot N)`
and `ite(B, N, M)`, whose arguments are all holes:

- commutativity of `+ * and or =` and `bvadd bvand bvor bvxor`, where both
  holes are at one nonterminal: the kept order has the left operand's
  choice sequence lexicographically no greater than the right one's;
- `(op a a)` is `a` for `and or bvand bvor`, `0` for `- bvsub bvxor`, and
  `(= a a)` is `true`: pruned where that result derives from the
  production's own nonterminal (for `a`, both holes are that nonterminal;
  for `0` and `true`, a literal production of it);
- `(op a 0)` is `a` for `+ - bvadd bvsub bvor bvxor`, and `(0 op a)` is `a`
  for the commutative ones among them, where `a`'s hole is the
  production's nonterminal; so are `(* a 1)` and `(* 1 a)`;
- `(op a 0)` and `(op 0 a)` are `0` for `* bvand`, where the production's
  nonterminal has a `0` literal;
- `ite(c, a, a)` is `a`, and `(not (not b))` and `(bvnot (bvnot b))` are
  `b`, on the same condition;
- with both branch holes at the production's nonterminal, `ite(c, a, b)` is
  `a` where `c` is a `true` literal or `(op x x)` for `>= <= =`, and `b`
  where `c` is a `false` literal or `(op x x)` for `< > bvult`;
  `ite((not c), a, b)` is `ite(c, b, a)`;
- `(<= a b)` is `(>= b a)` where the nonterminal also has `(>= M N)`, and
  `(< a b)` is `(> b a)` where it has `(> M N)`.

Every pruned term has a kept one that is equivalent on every input, derives
from the same nonterminal, costs no more and evaluates without raising
wherever the pruned one does (each rewrite lowers the cost, the count of
`<=` and `<` nodes or the choice sequence, so rewriting ends at a kept
term). So A* still returns a minimum-cost consistent program, but among
programs of equal cost it may return another one than a search without the
rules. The rules do not depend on the examples, so the frontier's resume
across CEGIS phases stays sound.

The tests run where they cost least. A rule that the choice alone decides,
`<=` and `<`, and one that the choice and the production whose first hole
it fills decide, is a flag on that child in the child chain: the inner
`not` or `bvnot` under its own kind, the `0` or `1` that opens a `+ * bvand`
term and so on, and a literal or `not` condition of `ite`. A rule over
whole operands pushes a closing marker on the pending stack, holding the
production's own choice cell; the leaf that closes the operands finds the
marker on top of the stack and tests them (`leaf_test`), as their choices lie between
that cell and the leaf's. Under a binary production's holes the marker
tests its operands' order, their equality and a lone literal right
operand; under an `ite`'s holes it tests the branches' equality; between
its condition's hole and its branches' holes it tests the condition for
`(op x x)`, before either branch is expanded.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .sygus import App, BoolLit, BVLit, Grammar, Hole, IntLit, Ite
from .sygus.grammar import Production

Choices = Optional[Tuple[int, "Choices"]]  # (last production, earlier ones)

_COMMUTATIVE = frozenset({"+", "*", "and", "or", "=", "bvadd", "bvand", "bvor", "bvxor"})
_IDEMPOTENT = frozenset({"and", "or", "bvand", "bvor"})  # (op a a) = a
_SELF_INVERSE = frozenset({"-", "bvsub", "bvxor"})  # (op a a) = 0
_ZERO_UNIT = frozenset({"+", "-", "bvadd", "bvsub", "bvor", "bvxor"})  # (op a 0) = a
_ONE_UNIT = frozenset({"*"})  # (op a 1) = a
_ZERO_ABSORBING = frozenset({"*", "bvand"})  # (op a 0) = 0
_NEGATION = frozenset({"not", "bvnot"})  # (op (op a)) = a
_FLIPPED = {"<=": ">=", "<": ">"}  # (<= a b) = (>= b a)
_REFLEXIVE = frozenset({">=", "<=", "=", "<", ">", "bvult"})  # (op x x) is a constant

# A closer's test of the leaves that may close its term, from the term's
# choice cell and the choices before that leaf: a leaf is kept when it is no
# less than the bound and not banned
LeafTest = Tuple[int, frozenset]
Closer = Callable[["Choices", "Choices"], LeafTest]
KEEP_ALL: LeafTest = (-1, frozenset())


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


def _twin(rev: Sequence[int], k: int, arity: Sequence[int]) -> LeafTest:
    """The leaf test that keeps the operand being closed, `rev[:j]` without
    its leaf, unlike the whole operand before it, `rev[j:k]`."""
    j = _first_operand(rev, k, arity)
    a, b = rev[j:k][::-1], rev[:j][::-1]  # leftmost first
    if len(a) == j + 1 and a[:j] == b:
        return -1, frozenset({a[j]})
    return KEEP_ALL


def _binary_closer(arity: Sequence[int], ordered: bool, distinct: bool,
                   leaves: frozenset) -> Closer:
    """The leaf test of `(op a b)`: b's last leaf must keep b's choice
    sequence lexicographically no less than a's (`ordered`; a whole term's
    sequence is no prefix of another's, so the swap of a pruned term is
    less), b unlike a (`distinct`) and b none of the lone `leaves`."""
    def test(start: "Choices", tail: "Choices") -> LeafTest:
        rev = _operands(start, tail)
        k = _first_operand(rev, len(rev), arity)
        a, b = rev[k:][::-1], rev[:k][::-1]  # a and b without its leaf, leftmost first
        banned = frozenset() if k else leaves
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
        return _twin(rev, _first_operand(rev, len(rev), arity), arity)
    return test


def _condition_closer(arity: Sequence[int], reflexive: frozenset) -> Closer:
    """The leaf test of the condition c of `ite(c, a, b)`: where c is
    `(op x y)` for a production in `reflexive`, y unlike x."""
    def test(start: "Choices", tail: "Choices") -> LeafTest:
        rev = _operands(start, tail)
        if not rev or rev[-1] not in reflexive:
            return KEEP_ALL
        return _twin(rev, len(rev) - 1, arity)
    return test


def leaf_test(markers: tuple, tail: Choices) -> Tuple[int, frozenset, tuple]:
    """The leaf test of every term whose closing marker tops the pending
    stack `markers`, for the leaves after `tail`, and the stack under
    those markers."""
    lo, banned = KEEP_ALL
    while markers is not None and markers[0].__class__ is not str:
        (test, start), markers = markers
        bound, more = test(start, tail)
        lo, banned = max(lo, bound), banned | more
    return lo, banned, markers


def normal_form_rules(grammar: Grammar
                      ) -> Tuple[dict[int, list], set[int], dict[int, frozenset]]:
    """Per production with closers, each as (position, test), the highest
    position first: its marker goes on the pending stack under the
    production's holes from that position on; the productions pruned
    wherever they are chosen; and per production the choices pruned in its
    first hole."""
    flat, by_nt, arity = grammar.flat, grammar.by_nt, grammar.arity
    shapes: list = []
    # per nonterminal, its literal productions of each value
    zero, one, true, false = ({nt: frozenset() for nt in by_nt} for _ in range(4))
    for idx, p in enumerate(flat):
        t = p.template
        shapes.append(_shape(p))
        if isinstance(t, (IntLit, BVLit)) and t.value in (0, 1):
            table = one if t.value else zero
        elif isinstance(t, BoolLit):
            table = true if t.value else false
        else:
            continue
        table[p.nonterminal] |= {idx}
    closers: dict[int, list] = {}
    dead: set[int] = set()
    dead_under: dict[int, frozenset] = {}
    for idx, shape in enumerate(shapes):
        if shape is None:
            continue
        (op, holes), n = shape, flat[idx].nonterminal
        if op == "ite":
            if holes[1] == holes[2] == n:
                c = holes[0]
                closers[idx] = [(3, _branch_closer(arity))]
                reflexive = frozenset(i for i in by_nt[c] if shapes[i] is not None
                                      and shapes[i][0] in _REFLEXIVE
                                      and arity[i] == 2
                                      and shapes[i][1][0] == shapes[i][1][1])
                if reflexive:
                    closers[idx].append((1, _condition_closer(arity, reflexive)))
                dead_under[idx] = true[c] | false[c] | frozenset(
                    i for i in by_nt[c] if shapes[i] == ("not", (c,)))
        elif op in _NEGATION:
            dead_under[idx] = frozenset(i for i in by_nt[holes[0]]
                                        if shapes[i] == (op, (n,)))
        elif len(holes) == 2:
            a, b = holes
            if op in _FLIPPED and any(shapes[i] == (_FLIPPED[op], (b, a)) for i in by_nt[n]):
                dead.add(idx)
                continue
            unit = zero if op in _ZERO_UNIT else one if op in _ONE_UNIT else None

            def lone(x: str, y: str) -> frozenset:
                # the literals of hole x that make (op y x) y or 0
                out = unit[x] if unit is not None and y == n else frozenset()
                return (out | zero[x]) if op in _ZERO_ABSORBING and zero[n] else out

            ordered = op in _COMMUTATIVE and a == b
            distinct = a == b and ((op in _IDEMPOTENT and a == n)
                                   or (op in _SELF_INVERSE and bool(zero[n]))
                                   or (op == "=" and bool(true[n])))
            leaves = lone(b, a)
            if op in _COMMUTATIVE:  # (x op y) is (y op x): x tested as it is chosen
                dead_under[idx] = lone(a, b)
            if ordered or distinct or leaves:
                closers[idx] = [(2, _binary_closer(arity, ordered, distinct, leaves))]
    return closers, dead, {i: d for i, d in dead_under.items() if d}
