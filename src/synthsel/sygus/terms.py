"""Term trees, sorts, and printing for SyGuS-IF queries and solutions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple, Union


class SygusError(Exception):
    """Base class for everything this package raises on bad synthesis input."""


class SortError(SygusError):
    pass


class ArityError(SygusError):
    pass


@dataclass(frozen=True)
class Sort:
    name: str
    width: Optional[int] = None  # set only for BitVec

    def __str__(self) -> str:
        if self.width is not None:
            return f"(_ BitVec {self.width})"
        return self.name

    @staticmethod
    def bitvec(width: int) -> "Sort":
        if width <= 0:
            raise SortError(f"bitvector width must be positive, got {width}")
        return Sort("BitVec", width)


INT = Sort("Int")
BOOL = Sort("Bool")


# ---------------------------------------------------------------------------
# Term nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class BoolLit:
    value: bool

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class BVLit:
    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise SortError(f"bitvector width must be positive, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise SortError(
                f"bitvector literal {self.value} out of range for width {self.width}"
            )

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    op: str
    args: Tuple["Term", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if self.op == "ite":
            raise SygusError("if-then-else is the dedicated Ite node, not an App")
        sig = OPERATORS.get(self.op)
        if sig is not None and not sig.accepts_arity(len(self.args)):
            raise ArityError(
                f"operator {self.op!r} expects {sig.arity_doc()} arguments, "
                f"got {len(self.args)}"
            )

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Ite:
    cond: "Term"
    then_branch: "Term"
    else_branch: "Term"

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Hole:
    """A nonterminal occurrence inside a grammar production's template."""

    nonterminal: str

    def __str__(self) -> str:
        return self.nonterminal


Term = Union[IntLit, BoolLit, BVLit, Var, App, Ite]


def children(term: Term) -> Tuple[Term, ...]:
    """The direct subterms of `term`, left to right; a leaf has none."""
    if isinstance(term, App):
        return term.args
    if isinstance(term, Ite):
        return (term.cond, term.then_branch, term.else_branch)
    return ()


def map_children(term: Term, f: Callable[[Term], Term]) -> Term:
    """`term` rebuilt with `f` applied to each direct subterm, left to right;
    a leaf is returned as it is."""
    if isinstance(term, App):
        return App(term.op, tuple(map(f, term.args)))
    if isinstance(term, Ite):
        return Ite(f(term.cond), f(term.then_branch), f(term.else_branch))
    return term


def subterms(term: Term) -> Iterator[Term]:
    """Every node of `term`, itself included, in preorder, left to right."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (App, Ite)):  # leaves, most nodes, skip the call
            stack += children(t)[::-1]


# ---------------------------------------------------------------------------
# Operator signatures (the SMT-LIB subset this package evaluates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpSignature:
    """Arity and sort discipline for one interpreted operator.

    arg_sort None means "any sort, but all arguments equal" (=, ite branches).
    min_arity/max_arity bound the accepted argument count (max None = unbounded).
    """

    arg_sort: Optional[Sort]
    result_sort: Optional[Sort]  # None: result sort equals the argument sort
    min_arity: int
    max_arity: Optional[int]

    def accepts_arity(self, n: int) -> bool:
        if n < self.min_arity:
            return False
        return self.max_arity is None or n <= self.max_arity

    def arity_doc(self) -> str:
        if self.max_arity is None:
            return f">= {self.min_arity}"
        if self.min_arity == self.max_arity:
            return str(self.min_arity)
        return f"{self.min_arity}..{self.max_arity}"


_BV = Sort("BitVec")  # width checked separately

OPERATORS: dict[str, OpSignature] = {
    "+": OpSignature(INT, INT, 2, None),
    "-": OpSignature(INT, INT, 1, None),  # 1 argument = unary minus
    "*": OpSignature(INT, INT, 2, None),
    "div": OpSignature(INT, INT, 2, 2),
    "mod": OpSignature(INT, INT, 2, 2),
    ">=": OpSignature(INT, BOOL, 2, 2),
    "<=": OpSignature(INT, BOOL, 2, 2),
    ">": OpSignature(INT, BOOL, 2, 2),
    "<": OpSignature(INT, BOOL, 2, 2),
    "=": OpSignature(None, BOOL, 2, None),  # chained pairwise equality
    "and": OpSignature(BOOL, BOOL, 2, None),
    "or": OpSignature(BOOL, BOOL, 2, None),
    "not": OpSignature(BOOL, BOOL, 1, 1),
    "=>": OpSignature(BOOL, BOOL, 2, None),  # right-associative
    "bvadd": OpSignature(_BV, _BV, 2, 2),
    "bvsub": OpSignature(_BV, _BV, 2, 2),
    "bvand": OpSignature(_BV, _BV, 2, 2),
    "bvor": OpSignature(_BV, _BV, 2, 2),
    "bvxor": OpSignature(_BV, _BV, 2, 2),
    "bvnot": OpSignature(_BV, _BV, 1, 1),
    "bvult": OpSignature(_BV, BOOL, 2, 2),
}


def is_operator(symbol: str) -> bool:
    return symbol in OPERATORS


def infer_sort(term: Term, env: Mapping[str, Sort],
               fn_sigs: Mapping[str, "FunctionSignature"] | None = None) -> Sort:
    """Sort of `term` given variable sorts `env`; raises on ill-sorted trees.

    fn_sigs maps uninterpreted (synth-fun) names to their signatures so
    applications of the function under synthesis type-check. Each node's
    rule is `literal_sort`, `ite_sort` or `app_sort`, the rules the parser
    applies while it builds a term.
    """
    if isinstance(term, (IntLit, BoolLit, BVLit)):
        return literal_sort(term)
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise SortError(f"undeclared variable {term.name!r}") from None
    if isinstance(term, Ite):
        cond = infer_sort(term.cond, env, fn_sigs)
        _check_ite_condition(cond)  # before the branches are read
        return ite_sort(cond, infer_sort(term.then_branch, env, fn_sigs),
                        infer_sort(term.else_branch, env, fn_sigs))
    if isinstance(term, App):
        arg_sorts = [infer_sort(a, env, fn_sigs) for a in term.args]
        return app_sort(term.op, arg_sorts, fn_sigs.get(term.op) if fn_sigs else None)
    raise SortError(f"not a term: {term!r}")


def literal_sort(lit: Union[IntLit, BoolLit, BVLit]) -> Sort:
    if isinstance(lit, IntLit):
        return INT
    if isinstance(lit, BoolLit):
        return BOOL
    return Sort.bitvec(lit.width)


def _check_ite_condition(cond: Sort) -> None:
    if cond != BOOL:
        raise SortError(f"ite condition must be Bool, got {cond}")


def ite_sort(cond: Sort, then: Sort, else_: Sort) -> Sort:
    """Sort of (ite c t e) from the sorts of c, t and e."""
    _check_ite_condition(cond)
    if then != else_:
        raise SortError(f"ite branches disagree: {then} vs {else_}")
    return then


def app_sort(op: str, arg_sorts: Sequence[Sort],
             fn: Optional["FunctionSignature"] = None) -> Sort:
    """Sort of (op args...) from the arguments' sorts. `fn` is op's signature
    when op is not an interpreted operator (the function under synthesis)."""
    sig = OPERATORS.get(op)
    if sig is None:
        if fn is None:
            raise SortError(f"unknown operator {op!r}")
        if len(arg_sorts) != len(fn.params):
            raise ArityError(
                f"{op!r} expects {len(fn.params)} arguments, got {len(arg_sorts)}")
        for i, (got, (_, want)) in enumerate(zip(arg_sorts, fn.params)):
            if got is not want and got != want:
                raise SortError(
                    f"argument {i} of {op!r} has sort {got}, expected {want}")
        return fn.return_sort
    # `is` first: Sort's dataclass __eq__ is a Python call, and INT and BOOL
    # are shared instances
    if sig.arg_sort is None:
        # all arguments of the same sort
        first = arg_sorts[0]
        for s in arg_sorts[1:]:
            if s is not first and s != first:
                raise SortError(f"{op!r} arguments disagree: {first} vs {s}")
    elif sig.arg_sort is _BV:
        widths = set()
        for s in arg_sorts:
            if s.name != "BitVec":
                raise SortError(f"{op!r} expects bitvector arguments, got {s}")
            widths.add(s.width)
        if len(widths) > 1:
            raise SortError(f"{op!r} arguments have mixed widths {sorted(widths)}")
    else:
        want = sig.arg_sort
        for s in arg_sorts:
            if s is not want and s != want:
                raise SortError(f"{op!r} expects {want} arguments, got {s}")
    if sig.result_sort is None or sig.result_sort is _BV:
        return arg_sorts[0]
    return sig.result_sort


# ---------------------------------------------------------------------------
# Function signatures and candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSignature:
    name: str
    params: Tuple[Tuple[str, Sort], ...]
    return_sort: Sort

    @property
    def param_sorts(self) -> Tuple[Sort, ...]:
        return tuple(s for _, s in self.params)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.params)

    def matches(self, other: "FunctionSignature") -> bool:
        """Same name, parameter sorts and return sort; parameter names may differ."""
        return (self.name == other.name and self.param_sorts == other.param_sorts
                and self.return_sort == other.return_sort)


@dataclass(frozen=True)
class Candidate:
    """A proposed body for the function under synthesis."""

    name: str
    params: Tuple[Tuple[str, Sort], ...]
    return_sort: Sort
    body: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        env = dict(self.params)
        if len(env) != len(self.params):
            raise SygusError(f"duplicate parameter names in {self.name!r}")
        got = infer_sort(self.body, env)  # raises on any undeclared name
        if got != self.return_sort:
            raise SortError(
                f"candidate body has sort {got}, declared return sort {self.return_sort}"
            )

    @property
    def signature(self) -> FunctionSignature:
        return FunctionSignature(self.name, self.params, self.return_sort)


def substitute_vars(term: Term, binding: Mapping[str, Term]) -> Term:
    """Replace variables by terms; simultaneous, safe because terms bind nothing."""
    if isinstance(term, Var):
        return binding.get(term.name, term)
    return map_children(term, lambda t: substitute_vars(t, binding))


def apply_candidate(term: Term, cand: Candidate) -> Term:
    """Rewrite every application of cand's function to cand's body, innermost out."""
    names = cand.signature.param_names

    def walk(t: Term) -> Term:
        t = map_children(t, walk)
        if isinstance(t, App) and t.op == cand.name:
            return substitute_vars(cand.body, dict(zip(names, t.args)))
        return t

    try:
        return walk(term)
    finally:
        del walk  # its closure cell holds it: no cycle left for the collector


def conjoin(terms: Sequence[Term]) -> Term:
    if not terms:
        return BoolLit(True)
    if len(terms) == 1:
        return terms[0]
    return App("and", tuple(terms))


# ---------------------------------------------------------------------------
# Printing (fully parenthesized prefix form, single spaces)
# ---------------------------------------------------------------------------

def print_term(term: Term) -> str:
    """The term's text; a template's holes print as their nonterminal names."""
    parts: list[str] = []
    _print_into(term, parts)
    return "".join(parts)


def _print_into(term: Term, out: list[str]) -> None:
    if isinstance(term, IntLit):
        if term.value < 0:
            out.append(f"(- {-term.value})")
        else:
            out.append(str(term.value))
    elif isinstance(term, BoolLit):
        out.append("true" if term.value else "false")
    elif isinstance(term, BVLit):
        out.append("#b" + format(term.value, f"0{term.width}b"))
    elif isinstance(term, Var):
        out.append(term.name)
    elif isinstance(term, Hole):
        out.append(term.nonterminal)
    elif isinstance(term, App):
        out.append("(")
        out.append(term.op)
        for a in term.args:
            out.append(" ")
            _print_into(a, out)
        out.append(")")
    elif isinstance(term, Ite):
        out.append("(ite ")
        _print_into(term.cond, out)
        out.append(" ")
        _print_into(term.then_branch, out)
        out.append(" ")
        _print_into(term.else_branch, out)
        out.append(")")
    else:
        raise SygusError(f"not a term: {term!r}")


def print_param_list(params: Sequence[Tuple[str, Sort]]) -> str:
    return "(" + " ".join(f"({n} {s})" for n, s in params) + ")"


def print_define_fun(cand: Candidate) -> str:
    """SMT-LIB define-fun text for a candidate; parse-print-parse is a fixpoint."""
    return (
        f"(define-fun {cand.name} {print_param_list(cand.params)} "
        f"{cand.return_sort} {print_term(cand.body)})"
    )
