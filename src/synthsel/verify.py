"""Candidate verification: a concrete evaluator, a bounded internal
counterexample search, and an external SMT-solver subprocess client.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator
import random
import subprocess
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

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
    print_term,
    substitute_solution,
)
from .sygus.parser import Token, read_sexprs, tokenize

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
            return all(a == b for a, b in zip(args, args[1:]))
        if op == "and":
            return all(args)
        if op == "or":
            return any(args)
        if op == "not":
            return not args[0]
        if op == "=>":
            acc = args[-1]
            for v in reversed(args[:-1]):
                acc = (not v) or acc
            return acc
        if op in _BV_OPS:
            return _eval_bv(op, term, args, sorts)
        raise EvaluationError(f"cannot evaluate uninterpreted function {op!r}")
    raise EvaluationError(f"not a term: {term!r}")


_BV_OPS = {"bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvnot", "bvult"}


def _bv_width(term: Term, sorts: Optional[Mapping[str, Sort]]) -> int:
    """Static bitvector width of a term, following the leftmost spine."""
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
    raise EvaluationError(f"cannot infer bitvector width for {print_term(term)}")


def _eval_bv(op: str, term: App, args: Sequence[int],
             sorts: Optional[Mapping[str, Sort]]) -> Value:
    if op == "bvult":
        return args[0] < args[1]
    width = _bv_width(term, sorts)
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
# Compiled evaluation: closures with evaluate's semantics
# ---------------------------------------------------------------------------

Compiled = Callable[[Sequence[Value]], Value]
# a compiled node and the width _bv_width gives its term (None where it raises)
Node = Tuple[Compiled, Optional[int]]
Builder = Callable[[Sequence[Node]], Node]


def compile_term(term: Term, var_names: Sequence[str],
                 sorts: Optional[Mapping[str, Sort]] = None) -> Compiled:
    """Closure `c` with `c(values) == evaluate(term, dict(zip(var_names,
    values)), sorts)` on well-sorted terms, raising EvaluationError exactly
    where evaluate raises: arguments of every operator (`and`, `or`, `=>`
    and `=` included) are evaluated eagerly and left to right, `ite`
    evaluates only the branch taken, and bitvector widths are fixed here by
    the same leftmost-spine rule as `_bv_width`."""
    return compile_template(term, var_names, sorts)(())[0]


def compile_template(template: Term, var_names: Sequence[str],
                     sorts: Optional[Mapping[str, Sort]] = None) -> Builder:
    """Compile a grammar template once; the builder takes the compiled nodes
    of its holes (preorder) and returns the node of the filled term, as
    `fill_holes` does for terms. A hole-free term takes no nodes."""
    index = {name: i for i, name in enumerate(var_names)}
    holes = itertools.count()

    def comp(t: Term) -> Builder:
        if isinstance(t, Hole):
            return operator.itemgetter(next(holes))
        if isinstance(t, App):
            op, subs = t.op, [comp(a) for a in t.args]
            return lambda kids: _compiled_app(op, [s(kids) for s in subs])
        if isinstance(t, Ite):
            cond, then, other = comp(t.cond), comp(t.then_branch), comp(t.else_branch)
            return lambda kids: _compiled_ite(cond(kids), then(kids), other(kids))
        node = _compiled_leaf(t, index, sorts)
        return lambda kids: node

    return comp(template)


def _compiled_leaf(term: Term, index: Mapping[str, int],
                   sorts: Optional[Mapping[str, Sort]]) -> Node:
    if isinstance(term, (IntLit, BoolLit, BVLit)):
        value = term.value
        width = term.width if isinstance(term, BVLit) else None
        return (lambda env: value), width
    if isinstance(term, Var):
        sort = sorts.get(term.name) if sorts is not None else None
        width = sort.width if sort is not None else None
        if term.name in index:
            return operator.itemgetter(index[term.name]), width
        message = f"unbound variable {term.name!r}"

        def unbound(env: Sequence[Value]) -> Value:
            raise EvaluationError(message)
        return unbound, width
    raise EvaluationError(f"not a term: {term!r}")


def _compiled_ite(cond: Node, then: Node, other: Node) -> Node:
    c, t, e = cond[0], then[0], other[0]

    def ite(env: Sequence[Value]) -> Value:
        test = c(env)
        if test is True:
            return t(env)
        if test is False:
            return e(env)
        raise EvaluationError("ite condition did not evaluate to Bool")
    return ite, then[1]


def _compiled_app(op: str, nodes: Sequence[Node]) -> Node:
    fns = [f for f, _ in nodes]
    width = nodes[0][1] if nodes else None  # _bv_width follows args[0]
    return _app_closure(op, fns, width), width


def _app_closure(op: str, fns: Sequence[Compiled], width: Optional[int]) -> Compiled:
    a = fns[0] if fns else None
    b = fns[1] if len(fns) > 1 else None
    binary = len(fns) == 2

    def values(env: Sequence[Value]) -> list:
        return [f(env) for f in fns]

    if op in _BV_OPS and op != "bvult" and width is None:
        def no_width(env: Sequence[Value]) -> Value:
            values(env)
            raise EvaluationError(f"cannot infer bitvector width for {op!r}")
        return no_width
    mask = (1 << width) - 1 if width is not None else 0
    if op == "+":
        return (lambda env: a(env) + b(env)) if binary else (lambda env: sum(values(env)))
    if op == "-":
        if len(fns) == 1:
            return lambda env: -a(env)
        if binary:
            return lambda env: a(env) - b(env)

        def minus(env: Sequence[Value]) -> Value:
            first, *rest = values(env)
            for v in rest:
                first -= v
            return first
        return minus
    if op == "*":
        if binary:
            return lambda env: a(env) * b(env)

        def times(env: Sequence[Value]) -> Value:
            acc = 1
            for v in values(env):
                acc *= v
            return acc
        return times
    if op == "div":
        return lambda env: _euclidean_div(a(env), b(env))
    if op == "mod":
        return lambda env: _euclidean_mod(a(env), b(env))
    if op == ">=":
        return lambda env: a(env) >= b(env)
    if op == "<=":
        return lambda env: a(env) <= b(env)
    if op == ">":
        return lambda env: a(env) > b(env)
    if op in ("<", "bvult"):
        return lambda env: a(env) < b(env)
    if op == "=":
        if binary:
            return lambda env: a(env) == b(env)

        def equal(env: Sequence[Value]) -> Value:
            vs = values(env)
            return all(x == y for x, y in zip(vs, vs[1:]))
        return equal
    if op == "and":
        return (lambda env: all((a(env), b(env)))) if binary else (lambda env: all(values(env)))
    if op == "or":
        return (lambda env: any((a(env), b(env)))) if binary else (lambda env: any(values(env)))
    if op == "not":
        return lambda env: not a(env)
    if op == "=>":
        def implies(env: Sequence[Value]) -> Value:
            vs = values(env)
            acc = vs[-1]
            for v in reversed(vs[:-1]):
                acc = (not v) or acc
            return acc
        return implies
    if op == "bvadd":
        return lambda env: (a(env) + b(env)) & mask
    if op == "bvsub":
        return lambda env: (a(env) - b(env)) & mask
    if op == "bvand":
        return lambda env: a(env) & b(env)
    if op == "bvor":
        return lambda env: a(env) | b(env)
    if op == "bvxor":
        return lambda env: a(env) ^ b(env)
    if op == "bvnot":
        return lambda env: (~a(env)) & mask

    def uninterpreted(env: Sequence[Value]) -> Value:
        values(env)
        raise EvaluationError(f"cannot evaluate uninterpreted function {op!r}")
    return uninterpreted


# ---------------------------------------------------------------------------
# Verification results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """Valid / Counterexample(assignment) / Unknown(reason).

    `bounded` marks a Valid verdict that only searched a finite input region.
    `provenance` records which checker produced the verdict.
    """

    status: str  # "valid" | "counterexample" | "unknown"
    assignment: Optional[Tuple[Tuple[str, Value], ...]] = None
    reason: Optional[str] = None
    bounded: bool = False
    provenance: str = "internal"

    @staticmethod
    def valid(bounded: bool = False, provenance: str = "internal") -> "VerificationResult":
        return VerificationResult("valid", bounded=bounded, provenance=provenance)

    @staticmethod
    def counterexample(assignment: Assignment,
                       provenance: str = "internal") -> "VerificationResult":
        return VerificationResult("counterexample",
                                  assignment=tuple(sorted(assignment.items())),
                                  provenance=provenance)

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


def _compile_predicate(term: Term, var_names: Sequence[str],
                       sorts: Optional[Mapping[str, Sort]] = None
                       ) -> Callable[..., bool]:
    """Compile a Bool term into a positional Python lambda for fast sweeps."""
    names = {name: f"_v{i}" for i, name in enumerate(var_names)}

    def emit(t: Term) -> str:
        if isinstance(t, IntLit):
            return repr(t.value)
        if isinstance(t, BoolLit):
            return "True" if t.value else "False"
        if isinstance(t, BVLit):
            return repr(t.value)
        if isinstance(t, Var):
            return names[t.name]
        if isinstance(t, Ite):
            return (f"({emit(t.then_branch)} if {emit(t.cond)} "
                    f"else {emit(t.else_branch)})")
        assert isinstance(t, App)
        parts = [emit(a) for a in t.args]
        op = t.op
        if op in ("+", "*"):
            return "(" + f" {op} ".join(parts) + ")"
        if op == "-":
            if len(parts) == 1:
                return f"(-{parts[0]})"
            return "(" + " - ".join(parts) + ")"
        if op in (">=", "<=", ">", "<"):
            return f"({parts[0]} {op} {parts[1]})"
        if op == "=":
            return "(" + " == ".join(parts) + ")"
        if op == "and":
            return "(" + " and ".join(parts) + ")"
        if op == "or":
            return "(" + " or ".join(parts) + ")"
        if op == "not":
            return f"(not {parts[0]})"
        if op == "=>":
            expr = parts[-1]
            for p in reversed(parts[:-1]):
                expr = f"((not {p}) or {expr})"
            return expr
        if op == "div":
            return f"_ediv({parts[0]}, {parts[1]})"
        if op == "mod":
            return f"_emod({parts[0]}, {parts[1]})"
        if op in _BV_OPS:
            width = _bv_width(t, sorts) if op != "bvult" else 0
            mask = (1 << width) - 1
            if op == "bvult":
                return f"({parts[0]} < {parts[1]})"
            if op == "bvadd":
                return f"(({parts[0]} + {parts[1]}) & {mask})"
            if op == "bvsub":
                return f"(({parts[0]} - {parts[1]}) & {mask})"
            if op == "bvand":
                return f"({parts[0]} & {parts[1]})"
            if op == "bvor":
                return f"({parts[0]} | {parts[1]})"
            if op == "bvxor":
                return f"({parts[0]} ^ {parts[1]})"
            if op == "bvnot":
                return f"((~{parts[0]}) & {mask})"
        raise EvaluationError(f"cannot compile operator {op!r}")

    src = f"lambda {', '.join(names.values()) or '*_ignored'}: {emit(term)}"
    ns = {"_ediv": _euclidean_div, "_emod": _euclidean_mod}
    return eval(src, ns)  # noqa: S307 - source is generated from validated terms


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


_DEADLINE_EVERY = 1024  # sweep points between two looks at the clock
_EXPIRED = object()


def _first_falsifying(points: Iterable[Tuple[Value, ...]],
                      falsified: Callable[[Tuple[Value, ...]], bool],
                      deadline: Optional[float]) -> object:
    """The first falsifying point, None when there is none, or _EXPIRED when
    the deadline passes first (the clock is read every _DEADLINE_EVERY points)."""
    points = iter(points)
    while True:
        if deadline is not None and time.monotonic() > deadline:
            return _EXPIRED
        batch = list(itertools.islice(points, _DEADLINE_EVERY))
        if not batch:
            return None
        hit = next(filter(falsified, batch), None)
        if hit is not None:
            return hit


def check_candidate_internal(query: SynthQuery, cand: Candidate,
                             config: SearchConfig = SearchConfig(),
                             deadline: Optional[float] = None
                             ) -> VerificationResult:
    """Search for an input falsifying the substituted constraints.

    Exhaustive grid over [-B, B]^n for n <= max_grid_vars variables, then
    seeded random sampling over a wider range. A Valid verdict is therefore
    bounded-confidence. Points where evaluation fails (division by zero)
    cannot witness falsification and are skipped. Past the absolute
    `deadline` (time.monotonic) the sweep stops with Unknown("deadline").
    """
    if query.logic not in ("LIA", "BV", "NIA"):
        return VerificationResult.unknown(
            f"internal checker does not evaluate logic {query.logic!r}")
    try:
        phi = substitute_solution(query, cand)
    except SygusError as exc:
        return VerificationResult.unknown(f"substitution failed: {exc}")

    names = [n for n, _ in query.universals]
    sorts = [s for _, s in query.universals]
    if not names:
        try:
            ok = evaluate(phi, {})
        except EvaluationError:
            return VerificationResult.unknown("evaluation failed on closed query")
        return (VerificationResult.valid(bounded=False)
                if ok else VerificationResult.counterexample({}))

    try:
        pred = _compile_predicate(phi, names, dict(query.universals))
    except EvaluationError as exc:
        return VerificationResult.unknown(str(exc))

    def falsified(point: Tuple[Value, ...]) -> bool:
        try:
            return not pred(*point)
        except (DivisionByZero, ZeroDivisionError):
            return False
        except OverflowError:
            return False

    def random_points() -> Iterator[Tuple[Value, ...]]:
        # lazy: a counterexample on the grid needs no random points drawn
        yield from zip(*sweep_columns(tuple(sorts), config.seed,
                                      config.random_samples, config.random_bound))

    grid: Iterable[Tuple[Value, ...]] = ()
    if len(names) <= config.max_grid_vars:
        grid = itertools.product(*[_domain_points(s, config.grid_bound) for s in sorts])
    hit = _first_falsifying(itertools.chain(grid, random_points()), falsified, deadline)
    if hit is _EXPIRED:
        return VerificationResult.unknown("deadline")
    if hit is not None:
        return _confirmed_counterexample(phi, names, hit, dict(query.universals))
    return VerificationResult.valid(bounded=True)


def _confirmed_counterexample(phi: Term, names: Sequence[str],
                              point: Tuple[Value, ...],
                              sorts: Optional[Mapping[str, Sort]] = None
                              ) -> VerificationResult:
    # re-check through the reference evaluator before reporting
    assignment = dict(zip(names, point))
    try:
        holds = evaluate(phi, assignment, sorts)
    except EvaluationError:
        return VerificationResult.unknown(
            "compiled sweep and evaluator disagree on a candidate counterexample")
    if holds:
        return VerificationResult.unknown(
            "compiled sweep produced a spurious counterexample")
    return VerificationResult.counterexample(assignment)


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
    script = emit_smtlib(query, cand)
    budget = None
    if deadline is not None:
        budget = max(0.05, deadline - time.monotonic())
    provenance = "external:" + " ".join(solver_command)
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
    phi = substitute_solution(query, cand)
    try:
        holds = evaluate(phi, assignment, dict(query.universals))
    except EvaluationError as exc:
        return VerificationResult.unknown(
            f"cannot re-evaluate solver model: {exc}", provenance=provenance)
    if holds:
        return VerificationResult.unknown(
            "solver model does not falsify the constraints", provenance=provenance)
    return VerificationResult.counterexample(assignment, provenance=provenance)


def _parse_model(text: str, sorts: Mapping[str, Sort]) -> dict[str, Value]:
    """Read `(define-fun name () Sort value)` entries from a get-model reply."""
    exprs = read_sexprs(tokenize(text))
    entries: list = []
    for e in exprs:
        if isinstance(e, list) and e and isinstance(e[0], Token) \
                and e[0].text == "define-fun":
            entries.append(e)
        elif isinstance(e, list):
            for sub in e:
                if isinstance(sub, list) and sub and isinstance(sub[0], Token) \
                        and sub[0].text == "define-fun":
                    entries.append(sub)
    assignment: dict[str, Value] = {}
    for entry in entries:
        if len(entry) != 5 or not isinstance(entry[1], Token):
            continue
        name = entry[1].text
        if name not in sorts:
            continue
        assignment[name] = _model_value(entry[4], sorts[name])
    missing = set(sorts) - set(assignment)
    if missing:
        raise SygusError(f"model is missing values for {sorted(missing)}")
    return assignment


def _model_value(sexpr, sort: Sort) -> Value:
    if isinstance(sexpr, Token):
        text = sexpr.text
        if sort == BOOL:
            if text in ("true", "false"):
                return text == "true"
            raise SygusError(f"expected a Bool value, got {text!r}")
        if text.startswith("#b"):
            return int(text[2:], 2)
        if text.startswith("#x"):
            return int(text[2:], 16)
        try:
            return int(text)
        except ValueError:
            raise SygusError(f"expected a numeral, got {text!r}") from None
    if (isinstance(sexpr, list) and len(sexpr) == 2
            and isinstance(sexpr[0], Token) and sexpr[0].text == "-"):
        inner = _model_value(sexpr[1], sort)
        return -inner  # type: ignore[operator]
    if (isinstance(sexpr, list) and len(sexpr) == 3
            and isinstance(sexpr[0], Token) and sexpr[0].text == "_"
            and isinstance(sexpr[1], Token) and sexpr[1].text.startswith("bv")):
        return int(sexpr[1].text[2:])
    raise SygusError(f"cannot read model value {sexpr!r}")


# ---------------------------------------------------------------------------
# Verification policy
# ---------------------------------------------------------------------------

@dataclass
class Verifier:
    """Internal-first verification with optional external confirmation.

    The fast internal checker runs first. When an external solver command is
    configured, its verdict supersedes a bounded internal Valid; an external
    `unknown` leaves the candidate unconfirmed (treated as unsolved upstream).
    """

    search_config: SearchConfig = field(default_factory=SearchConfig)
    solver_command: Optional[Tuple[str, ...]] = None

    def check(self, query: SynthQuery, cand: Candidate,
              deadline: Optional[float] = None) -> VerificationResult:
        internal = check_candidate_internal(query, cand, self.search_config, deadline)
        if internal.is_counterexample:
            return internal
        if self.solver_command is None:
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
