"""Candidate verification: one compiled evaluator, the internal checker
(a counterexample sweep with an exact step for linear integer formulas),
and an external SMT-solver subprocess client.

Terms and grammar templates become generated Python with `evaluate`'s
semantics: `compile_term`, and for the A* check `compile_template`, one
function per grammar production built once per grammar with each hole at
its nonterminal's width (the check walks the tree for nested `f`
applications and constraints too deep to compile). The sweep is one
generated loop per candidate over cached grid and sample columns.
After its first chunk finds nothing, one exact step decides the formula:
`lia.proves_valid` for LIA, and for BV one numpy evaluation over every
point of a domain of at most 2^16 points (`domain_columns`), emitted by the
same walk with a second op table. A bounded Valid is left only for BV
domains past 2^16 points, operators outside the BV fragment and LIA
formulas the decider declines. The tree walker `evaluate` is the oracle
and the single-point evaluator.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import random
import subprocess
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .lia import proves_valid
from .sygus import (
    App,
    BoolLit,
    BVLit,
    Candidate,
    Hole,
    IntLit,
    Ite,
    Sort,
    SygusError,
    SynthQuery,
    Term,
    Var,
    BOOL,
    INT,
    conjoin,
    print_term,
    substitute_solution,
)
from .sygus.parser import _head, candidate_from_sexpr, read_sexprs, substituted_constraints
from .sygus.terms import subterms

log = logging.getLogger(__name__)

Value = object  # int (Int and BitVec) or bool
Assignment = Mapping[str, Value]


class EvaluationError(SygusError):
    pass


class DivisionByZero(EvaluationError):
    pass


# ---------------------------------------------------------------------------
# Concrete evaluation (SMT-LIB LIA/BV/Bool semantics)
# ---------------------------------------------------------------------------

def _euclidean_div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("div by zero")
    r = a % abs(b)
    return (a - r) // b


def _euclidean_mod(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("mod by zero")
    return a % abs(b)


def evaluate(term: Term, assignment: Assignment,
             sorts: Optional[Mapping[str, Sort]] = None) -> Value:
    """Value of a closed-over-assignment term; Python ints carry LIA's
    unbounded integers, BitVec values live in [0, 2^w).

    `sorts` (variable name -> Sort) is needed to size bitvector operations
    whose arguments carry no literal; pure LIA/Bool terms do not need it.
    """
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, BoolLit):
        return term.value
    if isinstance(term, BVLit):
        return term.value
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Ite):
        cond = evaluate(term.cond, assignment, sorts)
        if not isinstance(cond, bool):
            raise EvaluationError("ite condition did not evaluate to Bool")
        return evaluate(term.then_branch if cond else term.else_branch,
                        assignment, sorts)
    if isinstance(term, App):
        op = term.op
        args = [evaluate(a, assignment, sorts) for a in term.args]
        if op == "+":
            return sum(args)
        if op == "-":
            if len(args) == 1:
                return -args[0]
            acc = args[0]
            for v in args[1:]:
                acc -= v
            return acc
        if op == "*":
            acc = 1
            for v in args:
                acc *= v
            return acc
        if op == "div":
            return _euclidean_div(args[0], args[1])
        if op == "mod":
            return _euclidean_mod(args[0], args[1])
        if op == ">=":
            return args[0] >= args[1]
        if op == "<=":
            return args[0] <= args[1]
        if op == ">":
            return args[0] > args[1]
        if op == "<":
            return args[0] < args[1]
        if op == "=":
            return _eq(*args)
        if op == "and":
            return all(args)
        if op == "or":
            return any(args)
        if op == "not":
            return not args[0]
        if op == "=>":
            return _implies(*args)
        if op in _BV_OPS:
            return _eval_bv(op, term, args, sorts)
        raise EvaluationError(f"cannot evaluate uninterpreted function {op!r}")
    raise EvaluationError(f"not a term: {term!r}")


_BV_OPS = {"bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvnot", "bvult"}


def _bv_width(term: Term, sorts: Optional[Mapping[str, Sort]]) -> Optional[int]:
    """Static bitvector width of a term by its leftmost spine, or None."""
    if isinstance(term, BVLit):
        return term.width
    if isinstance(term, Var) and sorts is not None:
        sort = sorts.get(term.name)
        if sort is not None and sort.width is not None:
            return sort.width
    if isinstance(term, App) and term.args:
        return _bv_width(term.args[0], sorts)
    if isinstance(term, Ite):
        return _bv_width(term.then_branch, sorts)
    return None


def _eval_bv(op: str, term: App, args: Sequence[int],
             sorts: Optional[Mapping[str, Sort]]) -> Value:
    if op == "bvult":
        return args[0] < args[1]
    width = _bv_width(term, sorts)
    if width is None:
        raise EvaluationError(f"cannot infer bitvector width for {print_term(term)}")
    mask = (1 << width) - 1
    if op == "bvadd":
        return (args[0] + args[1]) & mask
    if op == "bvsub":
        return (args[0] - args[1]) & mask
    if op == "bvand":
        return args[0] & args[1]
    if op == "bvor":
        return args[0] | args[1]
    if op == "bvxor":
        return args[0] ^ args[1]
    if op == "bvnot":
        return (~args[0]) & mask
    raise EvaluationError(f"unknown bitvector operator {op!r}")


# ---------------------------------------------------------------------------
# Compiled evaluation: generated Python source with evaluate's semantics
# ---------------------------------------------------------------------------

Compiled = Callable[[Sequence[Value]], Value]


def compile_term(term: Term, var_names: Sequence[str],
                 sorts: Optional[Mapping[str, Sort]] = None) -> Compiled:
    """Function `c` with `c(values) == evaluate(term, dict(zip(var_names,
    values)), sorts)` on well-sorted terms, raising EvaluationError exactly
    where evaluate raises: `ite` evaluates only the branch taken, every
    other operator evaluates its arguments left to right, and bitvector
    widths are fixed here by the same leftmost-spine rule as `_bv_width`."""
    return compile_template(term, var_names, sorts)()


def compile_template(template: Term, var_names: Sequence[str],
                     sorts: Optional[Mapping[str, Sort]] = None,
                     hole_widths: Sequence[Optional[int]] = ()
                     ) -> Callable[..., Compiled]:
    """The maker of a grammar production compiled once. Its j-th hole
    (preorder) is at `hole_widths[j]`, its nonterminal's width (None for Int
    and Bool, which raises where it sizes a mask). `make(*kids)` maps the
    functions of the holes' terms to the filled term's, as `fill_holes` does
    for terms; the enumerator walks the tree instead for nested `f`
    applications and constraints too deep to compile."""
    expr, used, _ = _expression(template, var_names, sorts, hole_widths)
    reads = "".join(f"        v{i} = env[{i}]\n" for i in sorted(used))
    make = _compile_source(
        f"def _make({', '.join(f'k{i}' for i in range(len(hole_widths)))}):\n"
        f"    def _f(env):\n{reads}        return {expr}\n    return _f\n")
    if not hole_widths:
        leaf = make()
        return lambda: leaf
    return make


Apply = Callable[[str, Sequence[str], Optional[int], bool], Tuple[str, bool]]


def _expression(template: Term, var_names: Sequence[str],
                sorts: Optional[Mapping[str, Sort]], hole_widths: Sequence[Optional[int]] = (),
                apply: Optional[Apply] = None) -> Tuple[str, set[int], bool]:
    """The template as a Python expression over the locals `v<i>` (the
    variable `var_names[i]`) and `k<j>(env)` (its j-th hole), the variable
    indices it reads and whether evaluating it can raise.
    `apply` is the op table: `_apply` (the default) for values, or
    `_apply_vector` for whole-domain numpy columns."""
    apply = apply or _apply
    index = {name: i for i, name in enumerate(var_names)}
    holes = itertools.count()
    used: set[int] = set()

    def emit(t: Term) -> Tuple[str, Optional[int], bool]:
        # (expression, width, whether evaluating it can raise)
        if isinstance(t, Hole):
            i = next(holes)
            return f"k{i}(env)", hole_widths[i], True
        if isinstance(t, (IntLit, BoolLit, BVLit)):
            return repr(t.value), t.width if isinstance(t, BVLit) else None, False
        if isinstance(t, Var):
            sort = sorts.get(t.name) if sorts is not None else None
            width = sort.width if sort is not None else None
            if t.name not in index:
                return _raising(f"unbound variable {t.name!r}", []), width, True
            used.add(index[t.name])
            return f"v{index[t.name]}", width, False
        if isinstance(t, Ite):
            cond, then, other = emit(t.cond), emit(t.then_branch), emit(t.else_branch)
            expr, raises = apply("ite", [cond[0], then[0], other[0]], then[1], False)
            return expr, then[1], raises or cond[2] or then[2] or other[2]
        if isinstance(t, App):
            args = [emit(a) for a in t.args]
            width = args[0][1] if args else None  # _bv_width follows args[0]
            if t.op in _BV_OPS and t.op != "bvult" and width is None:
                return (_raising(f"cannot infer bitvector width for {print_term(t)}",
                                 [a for a, _, _ in args]), None, True)
            expr, raises = apply(t.op, [a for a, _, _ in args], width,
                                 any(r for _, _, r in args[1:]))
            return expr, width, raises or any(r for _, _, r in args)
        raise EvaluationError(f"not a term: {t!r}")

    try:
        expr, _, raises = emit(template)
    finally:
        del emit  # its closure cell holds it: no cycle left for the collector
    return expr, used, raises


def _raising(message: str, args: Sequence[str]) -> str:
    """Expression evaluating `args`, then raising EvaluationError(message)."""
    return f"_raise({message!r}, {''.join(f'{a}, ' for a in args)})"


_INFIX = {"+": "+", "-": "-", "*": "*", ">=": ">=", "<=": "<=", ">": ">",
          "<": "<", "bvult": "<", "bvand": "&", "bvor": "|", "bvxor": "^"}


def _apply(op: str, args: Sequence[str], width: Optional[int],
           later_raises: bool) -> Tuple[str, bool]:
    """Expression applying `op` to the argument expressions, and whether the
    application itself can raise. `and`, `or`, `=>` and n-ary `=` take
    Python's short-circuit forms only when no argument after the first can
    raise, which then gives the same value as evaluating every argument."""
    if op == "ite":
        return f"({args[1]} if {args[0]} else {args[2]})", False
    if op == "-" and len(args) == 1:
        return f"(-{args[0]})", False
    if op in _INFIX:
        return "(" + f" {_INFIX[op]} ".join(args) + ")", False
    if op in ("div", "mod"):
        return f"_e{op}({args[0]}, {args[1]})", True
    if op == "not":
        return f"(not {args[0]})", False
    if op in ("bvadd", "bvsub", "bvnot"):
        mask = (1 << width) - 1
        if op == "bvnot":
            return f"((~{args[0]}) & {mask})", False
        return f"(({args[0]} {'+' if op == 'bvadd' else '-'} {args[1]}) & {mask})", False
    if op == "=" and (len(args) == 2 or not later_raises):
        return "(" + " == ".join(args) + ")", False
    if op in ("and", "or") and not later_raises:
        return "(" + f" {op} ".join(args) + ")", False
    if op == "=>" and not later_raises:
        expr = args[-1]
        for a in reversed(args[:-1]):
            expr = f"(not {a} or {expr})"
        return expr, False
    if op in ("and", "or"):  # a tuple display evaluates every argument first
        packed = "".join(f"{a}, " for a in args)
        return f"{'all' if op == 'and' else 'any'}(({packed}))", False
    if op in ("=", "=>"):
        return f"{'_eq' if op == '=' else '_implies'}({', '.join(args)})", False
    return _raising(f"cannot evaluate uninterpreted function {op!r}", args), True


def _apply_vector(op: str, args: Sequence[str], width: Optional[int],
                  later_raises: bool) -> Tuple[str, bool]:
    """`_apply` over numpy columns for the BV fragment: the bitvector
    operators keep their forms, `ite` is an eager `np.where` and the Bool
    operators are numpy's logical functions (`~True` is -2). Nothing in the
    fragment can raise, so evaluating every argument is exact. Any other
    operator is emitted as raising, which keeps the formula off this path."""
    if op in _BV_OPS:
        return _apply(op, args, width, later_raises)
    if op == "ite":
        return f"_np.where({', '.join(args)})", False
    if op == "not":
        return f"_np.logical_not({args[0]})", False
    if op == "=>":
        expr = args[-1]
        for a in reversed(args[:-1]):
            expr = f"_np.logical_or(_np.logical_not({a}), {expr})"
        return expr, False
    if op == "=":
        pairs = [f"({a} == {b})" for a, b in zip(args, args[1:])]
        return _apply_vector("and", pairs or ["True"], width, later_raises)
    if op in ("and", "or"):
        return functools.reduce(lambda acc, a: f"_np.logical_{op}({acc}, {a})", args), False
    return _raising(f"cannot evaluate {op!r} over the whole domain", args), True


def _eq(*args: Value) -> bool:
    return all(a == b for a, b in zip(args, args[1:]))


def _implies(*args: Value) -> Value:
    acc = args[-1]
    for v in reversed(args[:-1]):
        acc = (not v) or acc
    return acc


def _raise(message: str, *args: Value) -> Value:
    raise EvaluationError(message)


_GENERATED_GLOBALS = {"_ediv": _euclidean_div, "_emod": _euclidean_mod, "_eq": _eq,
                      "_implies": _implies, "_raise": _raise, "_DivByZero": DivisionByZero,
                      "_np": np}


@functools.lru_cache(maxsize=1024)
def _compile_source(source: str) -> Callable[..., Callable]:
    """The `_make` of generated source (a template's maker or a sweep), built
    once per distinct source: the same ones recur across CEGIS phases and queries.
    Source nested past CPython's parser limits raises EvaluationError."""
    namespace = dict(_GENERATED_GLOBALS)
    try:
        exec(source, namespace)  # noqa: S102 - generated from parsed terms; names are mangled
    except (SyntaxError, MemoryError, RecursionError):
        raise EvaluationError("formula nested too deeply") from None
    return namespace["_make"]


# ---------------------------------------------------------------------------
# Verification results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """Valid / Counterexample(assignment, violated) / Unknown(reason).

    `violated` is the index in `query.constraints` of the first constraint
    false at a counterexample's assignment.
    `bounded` marks a Valid verdict that only searched a finite input region.
    `provenance` records which checker produced the verdict.
    """

    status: str  # "valid" | "counterexample" | "unknown"
    assignment: Optional[Tuple[Tuple[str, Value], ...]] = None
    violated: Optional[int] = None
    reason: Optional[str] = None
    bounded: bool = False
    provenance: str = "internal"

    @staticmethod
    def valid(bounded: bool = False, provenance: str = "internal") -> "VerificationResult":
        return VerificationResult("valid", bounded=bounded, provenance=provenance)

    @staticmethod
    def counterexample(assignment: Assignment, violated: int,
                       provenance: str = "internal") -> "VerificationResult":
        return VerificationResult("counterexample",
                                  assignment=tuple(sorted(assignment.items())),
                                  violated=violated, provenance=provenance)

    @staticmethod
    def unknown(reason: str, provenance: str = "internal") -> "VerificationResult":
        return VerificationResult("unknown", reason=reason, provenance=provenance)

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    @property
    def is_counterexample(self) -> bool:
        return self.status == "counterexample"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def assignment_dict(self) -> dict[str, Value]:
        return dict(self.assignment or ())


# ---------------------------------------------------------------------------
# Internal bounded checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    grid_bound: int = 32        # exhaustive grid over [-B, B]^n when n <= 3
    random_samples: int = 10_000
    random_bound: int = 1_000_000
    seed: int = 0
    max_grid_vars: int = 3


def _domain_points(sort: Sort, bound: int) -> Sequence[Value]:
    if sort == BOOL:
        return (False, True)
    if sort == INT:
        return range(-bound, bound + 1)
    if sort.name == "BitVec":
        assert sort.width is not None
        return range(min(1 << sort.width, 2 * bound + 1))
    raise EvaluationError(f"cannot enumerate sort {sort}")


def _sampler(sort: Sort, rng: random.Random, bound: int) -> Callable[[], Value]:
    if sort == BOOL:
        return lambda: rng.random() < 0.5
    if sort == INT:
        return functools.partial(rng.randint, -bound, bound)
    if sort.name == "BitVec":
        assert sort.width is not None
        return functools.partial(rng.randrange, 1 << sort.width)
    raise EvaluationError(f"cannot sample sort {sort}")


def _fits_int64(sort: Sort, bound: int) -> bool:
    if sort == INT:
        return bound < 1 << 63
    return sort.width is not None and sort.width < 64


@functools.lru_cache(maxsize=16)
def sweep_columns(sorts: Tuple[Sort, ...], seed: int, samples: int,
                  bound: int) -> Tuple[Sequence[Value], ...]:
    """The seeded random sweep points, one column per variable (read only).

    Drawn once per key, point by point and variable by variable as
    `random.Random(seed)` always drew them, so every verdict is unchanged.
    Int and narrow BitVec columns are `array('q')`, Bool columns lists.
    """
    rng = random.Random(seed)
    draws = [_sampler(s, rng, bound) for s in sorts]
    columns = [array("q") if _fits_int64(s, bound) else [] for s in sorts]
    for _ in range(samples):
        for column, draw in zip(columns, draws):
            column.append(draw())
    return tuple(columns)


@functools.lru_cache(maxsize=16)
def grid_columns(sorts: Tuple[Sort, ...], bound: int) -> Tuple[Sequence[Value], ...]:
    """The exhaustive grid points in `itertools.product` order, one column per
    variable (read only), typed by `sweep_columns`' rule."""
    domains = [_domain_points(s, bound) for s in sorts]
    columns = []
    for i, sort in enumerate(sorts):
        inner = math.prod(map(len, domains[i + 1:]))
        run = itertools.chain.from_iterable(itertools.repeat(v, inner) for v in domains[i])
        column = array("q", run) if _fits_int64(sort, bound) else list(run)
        columns.append(column * math.prod(map(len, domains[:i])))
    return tuple(columns)


def _compile_sweep(phi: Term, names: Sequence[str], sorts: Mapping[str, Sort]
                   ) -> Callable[..., Optional[Tuple[Value, ...]]]:
    """`sweep(c0, c1, ...)` over one column per variable: the first point
    where `phi` is false, skipping points that divide by zero, or None."""
    expr = _expression(phi, names, sorts)[0]
    values, columns = (", ".join(f"{x}{i}" for i in range(len(names))) for x in "vc")
    loop = "v0 in c0" if len(names) == 1 else f"{values} in zip({columns})"
    return _compile_source(
        f"def _make({columns}):\n  for {loop}:\n    try:\n      if not {expr}:\n"
        f"        return ({values},)\n    except _DivByZero:\n      pass\n")


# ---------------------------------------------------------------------------
# The exact whole-domain step for small bitvector formulas
# ---------------------------------------------------------------------------

_DOMAIN_BITS = 16  # at most 2^16 points; a larger domain keeps the bounded sweep


@functools.lru_cache(maxsize=16)
def domain_columns(sorts: Tuple[Sort, ...]) -> Optional[Tuple[np.ndarray, ...]]:
    """Every point of a domain of Bool and BitVec variables in
    `itertools.product` order, one read-only column per variable, or None
    for another sort or a domain past `_DOMAIN_BITS` bits. Bool columns are
    bool; BitVec columns share uint8 when every width is at most 8 and
    uint16 otherwise, so an operator wraps in the dtype and its mask makes
    it exact."""
    if not all(s == BOOL or s.name == "BitVec" for s in sorts):
        return None
    bits = [1 if s == BOOL else s.width for s in sorts]
    if sum(bits) > _DOMAIN_BITS:
        return None
    dtype = np.uint8 if all(s == BOOL or s.width <= 8 for s in sorts) else np.uint16
    sizes = [1 << b for b in bits]
    columns = []
    for i, sort in enumerate(sorts):
        values = np.array([False, True]) if sort == BOOL else np.arange(sizes[i], dtype=dtype)
        column = np.tile(np.repeat(values, math.prod(sizes[i + 1:])), math.prod(sizes[:i]))
        column.setflags(write=False)
        columns.append(column)
    return tuple(columns)


@functools.lru_cache(maxsize=16)
def _sweep_order(sorts: Tuple[Sort, ...], config: SearchConfig) -> np.ndarray:
    """The domain index of each point the bounded sweep visits (the grid,
    then the samples), in the sweep's order; the domain fits `_DOMAIN_BITS`."""
    sizes = tuple(2 if s == BOOL else 1 << s.width for s in sorts)
    blocks = [sweep_columns(sorts, config.seed, config.random_samples, config.random_bound)]
    if len(sorts) <= config.max_grid_vars:
        blocks.insert(0, grid_columns(sorts, config.grid_bound))
    order = np.concatenate([np.ravel_multi_index([np.asarray(c, dtype=np.intp) for c in block],
                                                 sizes) for block in blocks]).astype(np.uint16)
    order.setflags(write=False)
    return order


def _whole_domain_verdict(phi: Term, parts: Sequence[Term],
                          universals: Sequence[Tuple[str, Sort]], config: SearchConfig,
                          deadline: Optional[float]) -> Optional[VerificationResult]:
    """The exact verdict of `phi` from one numpy evaluation over its whole
    domain, or None to keep the bounded sweep: for an Int universal, a
    domain past `_DOMAIN_BITS` bits, an Int literal, a literal wider than
    the columns' dtype or an operator outside the BV fragment. A
    counterexample is the first false point in the sweep's order, so it is
    the one the sweep finds, and else the first false point of the domain."""
    sorts = tuple(s for _, s in universals)
    columns = domain_columns(sorts)
    if columns is None:
        return None
    bits = 8 * max(c.itemsize for c in columns)
    if any(isinstance(t, IntLit) or isinstance(t, BVLit) and t.width > bits
           for t in subterms(phi)):
        return None
    names = [n for n, _ in universals]
    env = dict(universals)
    expr, _, raises = _expression(phi, names, env, apply=_apply_vector)
    if raises:
        return None
    if deadline is not None and time.monotonic() > deadline:
        return VerificationResult.unknown("deadline")
    try:
        holds = _compile_source(f"def _make({', '.join(f'v{i}' for i in range(len(names)))}):"
                                f"\n  return {expr}\n")
    except EvaluationError:  # nested past the parser's limits
        return None
    false = np.broadcast_to(np.logical_not(holds(*columns)), columns[0].shape)
    if not false.any():
        return VerificationResult.valid(bounded=False)
    order = _sweep_order(sorts, config)
    swept = false[order]
    at = order[swept.argmax()] if swept.any() else false.argmax()
    return _confirmed_counterexample(parts, names, tuple(c[at].item() for c in columns), env)


_DEADLINE_EVERY = 1024  # sweep points between two looks at the clock
_TOO_DEEP = VerificationResult.unknown("formula nested too deeply")


def check_candidate_internal(query: SynthQuery, cand: Candidate,
                             config: SearchConfig = SearchConfig(),
                             deadline: Optional[float] = None
                             ) -> VerificationResult:
    """Search for an input falsifying the substituted constraints.

    Exhaustive grid over [-B, B]^n for n <= max_grid_vars variables, then
    seeded random sampling over a wider range, in chunks of
    `_DEADLINE_EVERY` points. When the first chunk finds nothing, one exact
    step runs. In an LIA query `proves_valid` is asked: a proof is an exact
    Valid (bounded=False). In a BV query whose universals are BitVec or
    Bool, whose domain holds at most 2^16 points and whose formula stays in
    the BV fragment (`bvadd bvsub bvand bvor bvxor bvnot bvult`, `= and or
    not => ite`, BitVec and Bool literals), the clock is read once and the
    formula is evaluated over the whole domain: no false point is an exact
    Valid, and a false point is a counterexample, the first in the sweep's
    order if the sweep would reach one, so it is the point the sweep finds.
    Otherwise the sweep goes on from the second chunk, so every other
    counterexample and Unknown is the sweep's. A Valid the sweep reaches
    (a larger BV domain, an operator outside the fragment, or an LIA
    formula the decider declines) is bounded-confidence. Points where
    evaluation divides by zero cannot witness falsification and are
    skipped; any other evaluation failure (an unbound variable, an
    uninterpreted function, an unsized bitvector operator) ends the sweep
    with Unknown. Past the absolute `deadline` (time.monotonic) the sweep
    stops with Unknown("deadline"). A formula past CPython's nesting limits
    (the recursion limit, or the parser's limits on the sweep's source)
    gives Unknown too.
    """
    if query.logic not in ("LIA", "BV", "NIA"):
        return VerificationResult.unknown(
            f"internal checker does not evaluate logic {query.logic!r}")
    try:
        parts = substituted_constraints(query, cand)
    except SygusError as exc:
        return VerificationResult.unknown(f"substitution failed: {exc}")
    except RecursionError:
        return _TOO_DEEP

    names = [n for n, _ in query.universals]
    sorts = tuple(s for _, s in query.universals)
    env = dict(query.universals)
    if not names:
        try:
            violated = _first_false(parts, {})
        except EvaluationError:
            return VerificationResult.unknown("evaluation failed on closed query")
        return (VerificationResult.valid(bounded=False) if violated is None
                else VerificationResult.counterexample({}, violated))

    def point_columns() -> Iterator[Tuple[Sequence[Value], ...]]:
        # lazy: a counterexample on the grid needs no random points drawn
        if len(names) <= config.max_grid_vars:
            yield grid_columns(sorts, config.grid_bound)
        yield sweep_columns(sorts, config.seed, config.random_samples, config.random_bound)

    phi = conjoin(parts)
    stepped = False

    def exact_step() -> Optional[VerificationResult]:
        # once: after the first chunk, or at the end when there is no point
        nonlocal stepped
        stepped = True
        if query.logic == "BV":
            return _whole_domain_verdict(phi, parts, query.universals, config, deadline)
        if query.logic == "LIA" and proves_valid(phi, query.universals):
            return VerificationResult.valid(bounded=False)
        return None

    try:
        sweep = _compile_sweep(phi, names, env)
        for columns in point_columns():
            for start in range(0, len(columns[0]), _DEADLINE_EVERY):
                if deadline is not None and time.monotonic() > deadline:
                    return VerificationResult.unknown("deadline")
                hit = sweep(*[c[start:start + _DEADLINE_EVERY] for c in columns])
                if hit is not None:
                    return _confirmed_counterexample(parts, names, hit, env)
                verdict = None if stepped else exact_step()
                if verdict is not None:
                    return verdict
        verdict = None if stepped else exact_step()
    except EvaluationError as exc:  # unbound, uninterpreted, unsized or too deep
        return VerificationResult.unknown(str(exc))
    except RecursionError:  # in the decider, or generating the sweep's source
        return _TOO_DEEP
    if verdict is not None:
        return verdict
    return VerificationResult.valid(bounded=True)


def _first_false(parts: Sequence[Term], assignment: Assignment,
                 sorts: Optional[Mapping[str, Sort]] = None) -> Optional[int]:
    """Index of the first of the substituted constraints false at the
    assignment, or None when all hold. Every part is evaluated, as `evaluate`
    evaluates every argument of their conjunction, so any raise propagates."""
    values = [evaluate(p, assignment, sorts) for p in parts]
    return next((i for i, v in enumerate(values) if not v), None)


def _confirmed_counterexample(parts: Sequence[Term], names: Sequence[str],
                              point: Tuple[Value, ...],
                              sorts: Mapping[str, Sort]) -> VerificationResult:
    # re-check through the reference evaluator before reporting
    assignment = dict(zip(names, point))
    try:
        violated = _first_false(parts, assignment, sorts)
    except EvaluationError:
        return VerificationResult.unknown(
            "compiled sweep and evaluator disagree on a candidate counterexample")
    if violated is None:
        return VerificationResult.unknown(
            "compiled sweep produced a spurious counterexample")
    return VerificationResult.counterexample(assignment, violated)


# ---------------------------------------------------------------------------
# External SMT solver client
# ---------------------------------------------------------------------------

class SolverLaunchError(SygusError):
    """The external solver executable could not be started."""


_SMT_LOGIC = {"LIA": "QF_LIA", "NIA": "QF_NIA", "BV": "QF_BV"}


def emit_smtlib(query: SynthQuery, cand: Candidate) -> str:
    """SMT-LIB2 script asserting the negation of the substituted constraints;
    sat means the candidate is wrong and the model is a counterexample."""
    phi = substitute_solution(query, cand)
    lines = [
        f"(set-logic {_SMT_LOGIC.get(query.logic, 'ALL')})",
        "(set-option :produce-models true)",
    ]
    for name, sort in query.universals:
        lines.append(f"(declare-const {name} {sort})")
    lines.append(f"(assert (not {print_term(phi)}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def check_candidate_external(query: SynthQuery, cand: Candidate,
                             solver_command: Sequence[str],
                             deadline: Optional[float] = None
                             ) -> VerificationResult:
    """Run the solver command with the emitted script on stdin.

    sat -> Counterexample (model parsed and re-checked), unsat -> Valid,
    unknown or timeout -> Unknown. Counterexamples that fail re-evaluation
    are downgraded to Unknown rather than reported.
    """
    provenance = "external:" + " ".join(solver_command)
    try:
        script = emit_smtlib(query, cand)
    except RecursionError:
        return VerificationResult.unknown("formula nested too deeply",
                                          provenance=provenance)
    budget = None
    if deadline is not None:
        budget = max(0.05, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            list(solver_command),
            input=script.encode(),
            capture_output=True,
            timeout=budget,
        )
    except FileNotFoundError as exc:
        raise SolverLaunchError(f"cannot launch {solver_command[0]!r}: {exc}") from exc
    except subprocess.TimeoutExpired:
        return VerificationResult.unknown("solver timed out", provenance=provenance)

    out = proc.stdout.decode(errors="replace").strip()
    first, _, rest = out.partition("\n")
    verdict = first.strip()
    if verdict == "unsat":
        return VerificationResult.valid(bounded=False, provenance=provenance)
    if verdict == "unknown":
        return VerificationResult.unknown("solver returned unknown",
                                          provenance=provenance)
    if verdict != "sat":
        return VerificationResult.unknown(
            f"unrecognized solver output {verdict!r} "
            f"(stderr: {proc.stderr.decode(errors='replace')[:200]!r})",
            provenance=provenance)

    try:
        assignment = _parse_model(rest, dict(query.universals))
    except SygusError as exc:
        return VerificationResult.unknown(f"malformed model: {exc}",
                                          provenance=provenance)
    try:
        violated = _first_false(substituted_constraints(query, cand), assignment,
                                dict(query.universals))
    except EvaluationError as exc:
        return VerificationResult.unknown(
            f"cannot re-evaluate solver model: {exc}", provenance=provenance)
    if violated is None:
        return VerificationResult.unknown(
            "solver model does not falsify the constraints", provenance=provenance)
    return VerificationResult.counterexample(assignment, violated, provenance=provenance)


def _parse_model(text: str, sorts: Mapping[str, Sort]) -> dict[str, Value]:
    """Values of the universals from a get-model reply: its `(define-fun x ()
    S v)` entries, at top level or inside one wrapper list such as `(model
    ...)`. Each value must be a literal of x's declared sort."""
    assignment: dict[str, Value] = {}
    for top in read_sexprs(text)[0]:
        wrapper = isinstance(top, list) and _head(top) != "define-fun"
        for entry in top if wrapper else [top]:
            if (_head(entry) != "define-fun" or len(entry) != 5 or entry[2] != []
                    or type(entry[1]) is not tuple or entry[1][0] not in sorts):
                continue  # a wrapper's head, or a function other than a universal
            cand = candidate_from_sexpr(entry, text)
            value, sort = cand.body, sorts[cand.name]
            if cand.return_sort != sort or not isinstance(value, (IntLit, BoolLit, BVLit)):
                raise SygusError(f"value of {cand.name!r} is not a {sort} literal: "
                                 f"{print_term(value)}")
            assignment[cand.name] = value.value
    missing = set(sorts) - set(assignment)
    if missing:
        raise SygusError(f"model is missing values for {sorted(missing)}")
    return assignment


# ---------------------------------------------------------------------------
# Verification policy
# ---------------------------------------------------------------------------

@dataclass
class Verifier:
    """Internal-first verification with optional external confirmation.

    The internal checker runs first; its Valid is exact for LIA formulas the
    decision procedure proves and for BV formulas it checks over the whole
    domain (at most 2^16 points, the BV fragment), and bounded otherwise.
    When an external solver command is configured, its verdict supersedes
    an internal Valid; an external `unknown` leaves the candidate
    unconfirmed (treated as unsolved upstream).

    Each distinct candidate is checked once per query: the Valid and
    Counterexample verdicts of the last query object seen are kept, and a
    check of another query starts afresh. A kept verdict is returned only
    before the deadline; past it the answer is Unknown("deadline").
    """

    search_config: SearchConfig = field(default_factory=SearchConfig)
    solver_command: Optional[Tuple[str, ...]] = None
    _memo: Tuple[Optional[SynthQuery], Optional[dict]] = field(
        default=(None, None), init=False, repr=False, compare=False)

    def check(self, query: SynthQuery, cand: Candidate,
              deadline: Optional[float] = None) -> VerificationResult:
        seen, verdicts = self._memo
        if seen is not query:
            verdicts = {}
            self._memo = (query, verdicts)
        known = verdicts.get(cand)
        if known is not None:
            if deadline is not None and time.monotonic() > deadline:
                return VerificationResult.unknown("deadline")
            return known
        verdict = self._check(query, cand, deadline)
        if not verdict.is_unknown:
            verdicts[cand] = verdict
        return verdict

    def _check(self, query: SynthQuery, cand: Candidate,
               deadline: Optional[float]) -> VerificationResult:
        internal = check_candidate_internal(query, cand, self.search_config, deadline)
        if internal.is_counterexample or self.solver_command is None:
            return internal
        try:
            external = check_candidate_external(
                query, cand, self.solver_command, deadline)
        except SolverLaunchError as exc:
            log.warning("external solver launch failed: %s", exc)
            return internal
        # an external unknown leaves the candidate unconfirmed: report it so
        # the caller counts it as unsolved rather than trusting the bounded grid
        return external
