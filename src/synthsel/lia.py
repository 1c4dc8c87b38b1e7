"""Exact validity for linear integer formulas: the internal checker's
decision step for LIA.

`proves_valid(phi, universals)` is True only when no integer point
falsifies `phi`. It lifts each `ite` in an Int position into path
conditions, puts the negation of `phi` in disjunctive normal form over
literals `a·x + c <= 0`, and refutes every conjunct by Fourier–Motzkin
elimination tightened for integers: a literal's coefficients are divided by
their gcd and its constant rounded up (Pugh, "The Omega test", CACM 1992;
Kroening & Strichman, *Decision Procedures*, 2nd ed., 2016, ch. 5). The
negation of a conjunction is taken one part at a time, so a part whose
negation is not refuted ends the proof before the next part is built.

Elimination over the rationals is complete for refuting only when a real
solution is missing too, so a conjunct that survives it proves nothing, and
the answer is False. It is also False for any formula outside the fragment:
a variable that is not an Int universal, a product of two non-constant
terms, `div`, `mod`, a bitvector or an uninterpreted function, or more than
MAX_CONJUNCTS conjuncts or MAX_ROWS rows at any step.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .sygus import App, BoolLit, IntLit, Ite, Sort, Term, Var, INT

MAX_CONJUNCTS = 256  # largest DNF (or list of path cases) built before giving up
MAX_ROWS = 256  # most literals one elimination step may leave

Linear = Tuple[int, ...]  # the coefficient of each universal, then the constant
Key = Tuple[int, ...]  # a literal's coefficients, with gcd 1
Conjunct = Dict[Key, int]  # key -> c of `key·x + c <= 0`, only the tightest c kept
Dnf = List[Conjunct]
Cases = List[Tuple[Dnf, Linear]]  # an Int term per path: (path condition, value)

_RELATIONS = ("<=", "<", ">=", ">", "=")
_BOOL_OPS = frozenset(("and", "or", "not", "=>") + _RELATIONS)


class _Outside(Exception):
    """The formula is outside the fragment or too large to decide."""


def proves_valid(phi: Term, universals: Sequence[Tuple[str, Sort]]) -> bool:
    """True when `phi` (Bool, over the `universals`) holds at every integer
    point; False when it does not, or when the procedure cannot tell."""
    forms, total = _NormalForms(universals), 0
    try:
        # not (and c1 c2 ...) is the disjunction of the negated parts: each
        # part's DNF is refuted before the next is built, and the first one
        # that survives answers False
        for part in _conjuncts(phi):
            dnf = forms.dnf(part, False)
            total += len(dnf)
            if total > MAX_CONJUNCTS or not all(map(_refuted, dnf)):
                return False
        return True
    except _Outside:
        return False


def _conjuncts(phi: Term) -> List[Term]:
    """The parts of `phi` under nested `and`s, left to right."""
    out, stack = [], [phi]
    while stack:
        t = stack.pop()
        if isinstance(t, App) and t.op == "and":
            stack.extend(reversed(t.args))
        else:
            out.append(t)
    return out


class _NormalForms:
    """DNFs of formulas over one set of universals. Only Int universals may
    occur; a Bool universal keeps a zero coefficient, and a formula that
    reads it is outside the fragment."""

    def __init__(self, universals: Sequence[Tuple[str, Sort]]):
        n = len(universals)
        self.index = {name: i for i, (name, sort) in enumerate(universals) if sort == INT}
        self.units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
        self.zeros = (0,) * n
        self.ites: Dict[Ite, Cases] = {}

    def dnf(self, t: Term, positive: bool) -> Dnf:
        """The DNF of t when `positive`, else of not t."""
        if isinstance(t, BoolLit):
            return [{}] if t.value == positive else []
        if isinstance(t, Ite):
            return _disjoin([_and(self.dnf(t.cond, True), self.dnf(t.then_branch, positive)),
                             _and(self.dnf(t.cond, False), self.dnf(t.else_branch, positive))])
        if not isinstance(t, App):
            raise _Outside  # a Bool variable, or an Int leaf (ill-sorted)
        op, args = t.op, t.args
        if op == "not":
            return self.dnf(args[0], not positive)
        if op in ("and", "or"):
            parts = [self.dnf(a, positive) for a in args]
            return _conjoin(parts) if (op == "and") == positive else _disjoin(parts)
        if op == "=>":  # right-associative: (not a1) or ... or (not a(n-1)) or an
            parts = [self.dnf(a, not positive) for a in args[:-1]]
            parts.append(self.dnf(args[-1], positive))
            return _disjoin(parts) if positive else _conjoin(parts)
        if op == "=" and _is_bool(args[0]):  # chained iffs, pair by pair
            iffs = [_disjoin([_and(self.dnf(a, True), self.dnf(b, positive)),
                              _and(self.dnf(a, False), self.dnf(b, not positive))])
                    for a, b in zip(args, args[1:])]
            return _conjoin(iffs) if positive else _disjoin(iffs)
        if op in _RELATIONS:
            # the path conditions partition the points, so the negation
            # keeps them and negates only each path's relation
            return _disjoin([_and(path, _relation(op, values, positive))
                             for path, values in self.paths(args)])
        raise _Outside

    def cases(self, t: Term) -> Cases:
        """The Int term `t` as (path condition, linear value) pairs: an `ite`
        splits on its condition, an operator takes every combination of its
        arguments' paths."""
        if isinstance(t, IntLit):
            return [([{}], self.zeros + (t.value,))]
        if isinstance(t, Var):
            i = self.index.get(t.name)
            if i is None:
                raise _Outside
            return [([{}], self.units[i])]
        if isinstance(t, Ite):
            known = self.ites.get(t)  # a candidate's body recurs at each application
            if known is not None:
                return known
            out = []
            for path, branch in ((self.dnf(t.cond, True), t.then_branch),
                                 (self.dnf(t.cond, False), t.else_branch)):
                if path:  # else the branch is never taken
                    for inner, value in self.cases(branch):
                        inner = _and(path, inner)
                        if inner:
                            out.append((inner, value))
            self.ites[t] = _capped(out)
            return out
        if isinstance(t, App) and t.op in ("+", "-", "*"):
            return [(path, _arithmetic(t.op, values)) for path, values in self.paths(t.args)]
        raise _Outside

    def paths(self, args: Sequence[Term]) -> List[Tuple[Dnf, List[Linear]]]:
        """Every combination of the arguments' cases: its path condition and
        the arguments' values on it."""
        out: List[Tuple[Dnf, List[Linear]]] = [([{}], [])]
        for a in args:
            cases = self.cases(a)
            out = _capped([(path, values + [value])
                           for prefix, values in out
                           for inner, value in cases
                           for path in [_and(prefix, inner)] if path])
        return out


def _is_bool(t: Term) -> bool:
    while isinstance(t, Ite):
        t = t.then_branch
    return isinstance(t, BoolLit) or (isinstance(t, App) and t.op in _BOOL_OPS)


def _arithmetic(op: str, values: List[Linear]) -> Linear:
    if op == "+":
        return tuple(map(sum, zip(*values)))
    if op == "-":
        if len(values) == 1:
            return tuple(-a for a in values[0])
        first, *rest = values
        return tuple(a - sum(r) for a, *r in zip(first, *rest))
    # "*": at most one factor that is not a constant
    scale, linear = 1, None
    for v in values:
        if any(v[:-1]):
            if linear is not None:
                raise _Outside  # non-linear
            linear = v
        else:
            scale *= v[-1]
    if linear is None:
        return values[0][:-1] + (scale,)
    return tuple(scale * a for a in linear)


def _relation(op: str, values: List[Linear], positive: bool) -> Dnf:
    """The DNF of `(op values...)` when `positive`, else of its negation."""
    if op == "=":  # chained: each adjacent pair equal
        pairs = zip(values, values[1:])
        if positive:
            return _conjoin([_and(_literal(a, b, 0), _literal(b, a, 0)) for a, b in pairs])
        return _disjoin([_literal(a, b, 1) + _literal(b, a, 1) for a, b in pairs])
    a, b = values if op in ("<=", "<") else values[::-1]  # now a <= b or a < b
    strict = op in ("<", ">")
    return _literal(a, b, strict) if positive else _literal(b, a, not strict)


def _literal(a: Linear, b: Linear, k: int) -> Dnf:
    """The DNF of `a - b + k <= 0`: one literal, or its constant verdict."""
    v = [x - y for x, y in zip(a, b)]
    key, c = _tightened(v, v.pop() + k)
    if key is None:
        return [{}] if c <= 0 else []
    return [{key: c}]


def _tightened(v: List[int], c: int) -> Tuple[Optional[Key], int]:
    """`v·x + c <= 0` over the integers with v divided by its gcd and c
    rounded up: (key, c), or (None, c) when v is zero."""
    g = math.gcd(*v)
    if g == 0:
        return None, c
    if g != 1:
        v = [x // g for x in v]
        c = -(-c // g)
    return tuple(v), c


def _capped(items: list) -> list:
    if len(items) > MAX_CONJUNCTS:
        raise _Outside
    return items


def _disjoin(parts: Sequence[Dnf]) -> Dnf:
    return _capped([c for part in parts for c in part])


def _conjoin(parts: Sequence[Dnf]) -> Dnf:
    out: Dnf = [{}]
    for part in parts:
        out = _and(out, part)
    return out


def _and(left: Dnf, right: Dnf) -> Dnf:
    if len(right) == 1 and not right[0]:
        return left
    if len(left) == 1 and not left[0]:
        return right
    out = []
    for a in left:
        for b in right:
            merged = _merge(a, b)
            if merged is not None:
                out.append(merged)
    return _capped(out)


def _merge(a: Conjunct, b: Conjunct) -> Optional[Conjunct]:
    """The conjunct a and b, or None when a literal contradicts another
    with the opposite coefficients."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for key, c in b.items():
        if not _add(out, key, c):
            return None
    return out


def _add(rows: Conjunct, key: Key, c: int) -> bool:
    """Adds `key·x + c <= 0` to `rows`; False when it contradicts the row
    with the opposite coefficients (key·x <= -c and key·x >= c')."""
    old = rows.get(key)
    if old is not None and old >= c:
        return True
    other = rows.get(tuple([-x for x in key]))
    if other is not None and other + c > 0:
        return False
    rows[key] = c
    return True


def _refuted(rows: Conjunct) -> bool:
    """Whether eliminating the variables one by one, each time the one that
    makes the fewest new rows, derives a contradiction. A derived row is a
    positive combination of two rows and is tightened like a literal, so
    every row holds at each integer point that satisfies the conjunct."""
    while rows:
        j = min(range(len(next(iter(rows)))), key=lambda i: _growth(rows, i))
        upper = [(key, c) for key, c in rows.items() if key[j] > 0]
        lower = [(key, c) for key, c in rows.items() if key[j] < 0]
        out = {key: c for key, c in rows.items() if not key[j]}
        for ku, cu in upper:
            a = ku[j]
            for kl, cl in lower:
                b = -kl[j]
                key, c = _tightened([b * x + a * y for x, y in zip(ku, kl)],
                                    b * cu + a * cl)
                if key is None:
                    if c > 0:
                        return True
                elif not _add(out, key, c):
                    return True
        if len(out) > MAX_ROWS:
            return False
        rows = out
    return False


def _growth(rows: Conjunct, i: int) -> float:
    """Rows added less rows removed by eliminating variable i; infinite when
    no row reads it."""
    up = sum(1 for key in rows if key[i] > 0)
    down = sum(1 for key in rows if key[i] < 0)
    return up * down - up - down if up or down else math.inf
