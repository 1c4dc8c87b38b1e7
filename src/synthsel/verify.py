"""Candidate verification: one compiled evaluator, a bounded internal
counterexample search, and an external SMT-solver subprocess client.

`compile_term`/`compile_template` turn terms and grammar templates into
generated Python functions with `evaluate`'s semantics; they serve the A*
consistency check and the verifier sweep. The tree walker `evaluate` is the
oracle and the single-point evaluator.
"""

from __future__ import annotations

import functools
import itertools
import logging
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
    infer_sort,
    print_term,
    substitute_solution,
)
from .sygus.parser import Token, _head, candidate_from_sexpr, read_sexprs, tokenize
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
# Compiled evaluation: generated Python source with evaluate's semantics
# ---------------------------------------------------------------------------

Compiled = Callable[[Sequence[Value]], Value]
# a compiled node and the width _bv_width gives its term (None where it raises)
Node = Tuple[Compiled, Optional[int]]
Builder = Callable[[Sequence[Node]], Node]


def compile_term(term: Term, var_names: Sequence[str],
                 sorts: Optional[Mapping[str, Sort]] = None) -> Compiled:
    """Function `c` with `c(values) == evaluate(term, dict(zip(var_names,
    values)), sorts)` on well-sorted terms, raising EvaluationError exactly
    where evaluate raises: `ite` evaluates only the branch taken, every
    other operator evaluates its arguments left to right, and bitvector
    widths are fixed here by the same leftmost-spine rule as `_bv_width`."""
    return compile_template(term, var_names, sorts)(())[0]


def compile_template(template: Term, var_names: Sequence[str],
                     sorts: Optional[Mapping[str, Sort]] = None) -> Builder:
    """Compile a grammar template once; the builder takes the compiled nodes
    of its holes (preorder) and returns the node of the filled term, as
    `fill_holes` does for terms. A hole-free term takes no nodes.

    The template becomes one generated function of the values tuple in
    which a hole calls its node's function. A hole's width can size a
    bitvector mask, so the source is generated per tuple of hole widths."""
    index = {name: i for i, name in enumerate(var_names)}
    makers: dict = {}

    def build(kids: Sequence[Node]) -> Node:
        widths = tuple(w for _, w in kids)
        found = makers.get(widths)
        if found is None:
            source, width = _source(template, index, sorts, widths)
            found = makers[widths] = _compile_source(source), width
        make, width = found
        return make(*[f for f, _ in kids]), width

    if any(isinstance(t, Hole) for t in subterms(template)):
        return build
    node = build(())
    return lambda kids: node


def _source(template: Term, index: Mapping[str, int],
            sorts: Optional[Mapping[str, Sort]],
            hole_widths: Sequence[Optional[int]]) -> Tuple[str, Optional[int]]:
    """Source of `_make(k0, k1, ...)`, which returns the template's function
    of `env` given its holes' functions, and the template's width."""
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
                return f"_unbound({t.name!r})", width, True
            used.add(index[t.name])
            return f"v{index[t.name]}", width, False
        if isinstance(t, Ite):
            cond, then, other = emit(t.cond), emit(t.then_branch), emit(t.else_branch)
            return (f"({then[0]} if {cond[0]} else {other[0]})", then[1],
                    cond[2] or then[2] or other[2])
        if isinstance(t, App):
            args = [emit(a) for a in t.args]
            width = args[0][1] if args else None  # _bv_width follows args[0]
            expr, raises = _apply(t.op, [a for a, _, _ in args], width,
                                  any(r for _, _, r in args[1:]))
            return expr, width, raises or any(r for _, _, r in args)
        raise EvaluationError(f"not a term: {t!r}")

    expr, width, _ = emit(template)
    kids = ", ".join(f"k{i}" for i in range(next(holes)))
    reads = "".join(f"        v{i} = env[{i}]\n" for i in sorted(used))
    return (f"def _make({kids}):\n    def _f(env):\n{reads}"
            f"        return {expr}\n    return _f\n"), width


_INFIX = {"+": "+", "-": "-", "*": "*", ">=": ">=", "<=": "<=", ">": ">",
          "<": "<", "bvult": "<", "bvand": "&", "bvor": "|", "bvxor": "^"}


def _apply(op: str, args: Sequence[str], width: Optional[int],
           later_raises: bool) -> Tuple[str, bool]:
    """Expression applying `op` to the argument expressions, and whether the
    application itself can raise. `and`, `or`, `=>` and n-ary `=` take
    Python's short-circuit forms only when no argument after the first can
    raise, which then gives the same value as evaluating every argument."""
    if op == "-" and len(args) == 1:
        return f"(-{args[0]})", False
    if op in _BV_OPS and op != "bvult" and width is None:
        return f"_unsized({op!r}, {', '.join(args)})", True
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
    return f"_uninterpreted({op!r}, {', '.join(args)})", True


def _eq(*args: Value) -> bool:
    return all(a == b for a, b in zip(args, args[1:]))


def _implies(*args: Value) -> Value:
    acc = args[-1]
    for v in reversed(args[:-1]):
        acc = (not v) or acc
    return acc


def _unbound(name: str) -> Value:
    raise EvaluationError(f"unbound variable {name!r}")


def _unsized(op: str, *args: Value) -> Value:
    raise EvaluationError(f"cannot infer bitvector width for {op!r}")


def _uninterpreted(op: str, *args: Value) -> Value:
    raise EvaluationError(f"cannot evaluate uninterpreted function {op!r}")


_GENERATED_GLOBALS = {"_ediv": _euclidean_div, "_emod": _euclidean_mod, "_eq": _eq,
                      "_implies": _implies, "_unbound": _unbound,
                      "_unsized": _unsized, "_uninterpreted": _uninterpreted}


@functools.lru_cache(maxsize=1024)
def _compile_source(source: str) -> Callable[..., Compiled]:
    """The `_make` of generated source, built once per distinct source: the
    same templates and predicates recur across CEGIS phases and queries."""
    namespace = dict(_GENERATED_GLOBALS)
    exec(source, namespace)  # noqa: S102 - generated from parsed terms; names are mangled
    return namespace["_make"]


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
    bounded-confidence. Points where evaluation divides by zero cannot
    witness falsification and are skipped; any other evaluation failure
    (an unbound variable, an uninterpreted function, an unsized bitvector
    operator) ends the sweep with Unknown. Past the absolute `deadline`
    (time.monotonic) the sweep stops with Unknown("deadline").
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

    pred = compile_term(phi, names, dict(query.universals))

    def falsified(point: Tuple[Value, ...]) -> bool:
        try:
            return not pred(point)
        except DivisionByZero:
            return False

    def random_points() -> Iterator[Tuple[Value, ...]]:
        # lazy: a counterexample on the grid needs no random points drawn
        yield from zip(*sweep_columns(tuple(sorts), config.seed,
                                      config.random_samples, config.random_bound))

    grid: Iterable[Tuple[Value, ...]] = ()
    if len(names) <= config.max_grid_vars:
        grid = itertools.product(*[_domain_points(s, config.grid_bound) for s in sorts])
    try:
        hit = _first_falsifying(itertools.chain(grid, random_points()), falsified,
                                deadline)
    except EvaluationError as exc:  # unbound, uninterpreted or unsized
        return VerificationResult.unknown(str(exc))
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
    """Values of the universals from a get-model reply: its `(define-fun x ()
    S v)` entries, at top level or inside one wrapper list such as `(model
    ...)`. Each value must be a literal of x's declared sort."""
    assignment: dict[str, Value] = {}
    for top in read_sexprs(tokenize(text)):
        wrapper = isinstance(top, list) and _head(top) != "define-fun"
        for entry in top if wrapper else [top]:
            if (_head(entry) != "define-fun" or len(entry) != 5 or entry[2] != []
                    or not isinstance(entry[1], Token) or entry[1].text not in sorts):
                continue  # a wrapper's head, or a function other than a universal
            cand = candidate_from_sexpr(entry)
            value, sort = cand.body, sorts[cand.name]
            if (cand.return_sort != sort or not isinstance(value, (IntLit, BoolLit, BVLit))
                    or infer_sort(value, {}) != sort):
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
