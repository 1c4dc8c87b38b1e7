"""The benchmark's own answer check, independent of synthsel.verify.

A small reader and evaluator for the SyGuS-IF subset the workloads use (LIA,
8-bit BV and Bool terms, define-fun macros, synth-inv with inv-constraint).
It re-checks a printed (define-fun ...) answer against the query's
constraints on a seeded point set: a grid near zero plus random points.
Points where division by zero occurs are skipped, as the program's own
verifier does.

It also checks schedules: every slice is nonnegative, the slices sum to at
most T and C, and a zero cost slice comes with a zero time slice.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

SExpr = Union[str, list]
Sort = Union[str, tuple]  # "Int", "Bool" or ("BitVec", width)


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class BV:
    width: int
    value: int


def read_sexprs(text: str) -> list[SExpr]:
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        tokens += line.replace("(", " ( ").replace(")", " ) ").split()
    out: list[SExpr] = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise CheckError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise CheckError("unbalanced '('")
    return out


def _sort(s: SExpr) -> Sort:
    if s in ("Int", "Bool"):
        return s
    if isinstance(s, list) and len(s) == 3 and s[:2] == ["_", "BitVec"]:
        return ("BitVec", int(s[2]))
    raise CheckError(f"unsupported sort {s!r}")


def _params(s: SExpr) -> list[tuple[str, Sort]]:
    return [(p[0], _sort(p[1])) for p in s]


@dataclass
class Function:
    params: list[tuple[str, Sort]]
    body: SExpr


@dataclass
class Problem:
    fn: str
    universals: list[tuple[str, Sort]] = field(default_factory=list)
    constraints: list[SExpr] = field(default_factory=list)
    macros: dict[str, Function] = field(default_factory=dict)


def parse_problem(text: str) -> Problem:
    problem: Optional[Problem] = None
    universals: list[tuple[str, Sort]] = []
    macros: dict[str, Function] = {}
    constraints: list[SExpr] = []
    for cmd in read_sexprs(text):
        head = cmd[0]
        if head in ("synth-fun", "synth-inv"):
            problem = Problem(cmd[1])
        elif head == "declare-var":
            universals.append((cmd[1], _sort(cmd[2])))
        elif head == "define-fun":
            macros[cmd[1]] = Function(_params(cmd[2]), cmd[4])
        elif head == "constraint":
            constraints.append(cmd[1])
        elif head == "inv-constraint":
            inv, pre, trans, post = cmd[1:]
            tparams = macros[trans].params
            n = len(tparams) // 2
            for name, sort in tparams:
                if name not in dict(universals):
                    universals.append((name, sort))
            state = [p for p, _ in tparams[:n]]
            primed = [p for p, _ in tparams[n:]]
            constraints += [
                ["=>", [pre, *state], [inv, *state]],
                ["=>", ["and", [inv, *state], [trans, *state, *primed]], [inv, *primed]],
                ["=>", [inv, *state], [post, *state]],
            ]
        elif head not in ("set-logic", "check-synth"):
            raise CheckError(f"unsupported command {head!r}")
    if problem is None:
        raise CheckError("no synth-fun")
    problem.universals, problem.macros, problem.constraints = universals, macros, constraints
    return problem


def parse_answer(text: str) -> tuple[str, Function]:
    (form,) = read_sexprs(text)
    if form[0] != "define-fun" or len(form) != 5:
        raise CheckError("answer is not one define-fun")
    return form[1], Function(_params(form[2]), form[4])


def _literal(tok: str):
    if tok == "true":
        return True
    if tok == "false":
        return False
    if tok.startswith("#b"):
        return BV(len(tok) - 2, int(tok[2:], 2))
    if tok.startswith("#x"):
        return BV(4 * (len(tok) - 2), int(tok[2:], 16))
    if tok.lstrip("-").isdigit():
        return int(tok)
    return None


def _ediv(a: int, b: int) -> int:
    r = a % abs(b)  # raises ZeroDivisionError on b == 0
    return (a - r) // b


_INT_OPS = {
    "<=": lambda a: a[0] <= a[1], ">=": lambda a: a[0] >= a[1],
    "<": lambda a: a[0] < a[1], ">": lambda a: a[0] > a[1],
    "*": math.prod,
    "div": lambda a: _ediv(a[0], a[1]), "mod": lambda a: a[0] % abs(a[1]),
}

_BV_OPS = {
    "bvadd": lambda a, b: a + b, "bvsub": lambda a, b: a - b,
    "bvmul": lambda a, b: a * b, "bvand": lambda a, b: a & b,
    "bvor": lambda a, b: a | b, "bvxor": lambda a, b: a ^ b,
}


def evaluate(term: SExpr, env: dict, funcs: dict[str, Function]):
    if isinstance(term, str):
        if term in env:
            return env[term]
        value = _literal(term)
        if value is None:
            raise CheckError(f"unbound symbol {term!r}")
        return value
    op = term[0]
    if op == "_" and term[1].startswith("bv"):
        return BV(int(term[2]), int(term[1][2:]))
    if op == "ite":
        cond = evaluate(term[1], env, funcs)
        return evaluate(term[2] if cond else term[3], env, funcs)
    args = [evaluate(a, env, funcs) for a in term[1:]]
    if op in funcs:
        fn = funcs[op]
        return evaluate(fn.body, {p: v for (p, _), v in zip(fn.params, args)}, funcs)
    if op == "+":
        return sum(args)
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - sum(args[1:])
    if op in _INT_OPS:
        return _INT_OPS[op](args)
    if op == "=":
        return all(a == b for a, b in zip(args, args[1:]))
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "not":
        return not args[0]
    if op == "=>":
        return (not args[0]) or args[1]
    if op in _BV_OPS:
        w = args[0].width
        return BV(w, _BV_OPS[op](args[0].value, args[1].value) % (1 << w))
    if op == "bvnot":
        return BV(args[0].width, ~args[0].value % (1 << args[0].width))
    if op == "bvult":
        return args[0].value < args[1].value
    raise CheckError(f"unsupported operator {op!r}")


def _grid(sort: Sort, radius: int) -> list:
    if sort == "Bool":
        return [False, True]
    if sort == "Int":
        return list(range(-radius, radius + 1))
    width = sort[1]
    return [BV(width, v % (1 << width)) for v in range(-radius, radius + 1)]


def _random(sort: Sort, rng: random.Random):
    if sort == "Bool":
        return rng.random() < 0.5
    if sort == "Int":
        return rng.randint(-10_000, 10_000)
    return BV(sort[1], rng.randrange(1 << sort[1]))


# grid radius by number of universals: the grid stays near 2,000 points and
# still holds consistent transitions for the invariant queries
_RADIUS = {1: 40, 2: 20, 3: 6, 4: 3}


def points(problem: Problem, seed: int, n_random: int = 300) -> list[dict]:
    names = [n for n, _ in problem.universals]
    sorts = [s for _, s in problem.universals]
    radius = _RADIUS.get(len(names), 1)
    pts = [dict(zip(names, p))
           for p in itertools.product(*(_grid(s, radius) for s in sorts))]
    rng = random.Random(seed)
    pts += [{n: _random(s, rng) for n, s in problem.universals}
            for _ in range(n_random)]
    return pts


def check_answer(query_text: str, answer_text: str, seed: int) -> Optional[str]:
    """None when the answer satisfies every constraint on every point, else
    the reason it is rejected."""
    try:
        problem = parse_problem(query_text)
        name, fn = parse_answer(answer_text)
    except (CheckError, IndexError, ValueError) as exc:
        return f"unreadable: {exc}"
    if name != problem.fn:
        return f"answer defines {name!r}, query asks for {problem.fn!r}"
    funcs = dict(problem.macros)
    funcs[name] = fn
    for env in points(problem, seed):
        for c in problem.constraints:
            try:
                holds = evaluate(c, env, funcs)
            except ZeroDivisionError:
                continue
            except (CheckError, IndexError, TypeError, AttributeError) as exc:
                return f"cannot evaluate: {exc}"
            if holds is not True:
                return f"constraint fails at {env}"
    return None


def check_schedule(schedule: Sequence[Sequence], T: float, C: float) -> Optional[str]:
    """schedule: (solver, time, cost) triples as the report prints them."""
    eps = 1e-9
    times = [float(e[1]) for e in schedule]
    costs = [float(e[2]) for e in schedule]
    if any(t < 0 for t in times) or any(c < 0 for c in costs):
        return "negative slice"
    if sum(times) > T * (1 + eps):
        return f"time slices sum to {sum(times)} > T = {T}"
    if sum(costs) > C * (1 + eps):
        return f"cost slices sum to {sum(costs)} > C = {C}"
    for solver, t, c in schedule:
        if float(c) == 0 and float(t) != 0:
            return f"{solver} has zero cost but time {t}"
    return None
