"""Reference implementations that the fast paths are checked against.

- The SyGuS front end as it was before the one-pass reader: a per-line
  lexer that builds a Token per atom, a recursive s-expression reader and
  the term reader, which sorts each node it builds (an operator, ite or
  define-fun application) by its own `infer_sort` walk over that node, with
  each hole read as a variable of its nonterminal's sort. It shares only
  the term nodes, the query and grammar records and the grammar validation
  with `synthsel.sygus`. `inv-constraint` sorts each application it writes
  by `infer_sort` too.
- `reference_sweep`: the internal checker's search, one point at a time
  with the tree walker `evaluate`, for the generated sweep and the LIA
  decision procedure; `reference_whole_domain` goes on over every point of
  a small BitVec/Bool domain, for the exact BV step.
- `first_violated_constraint`: the constraint a counterexample violates,
  found by substituting the candidate into each constraint and walking it.
- `balanced_spans`: every balanced form at a marker, character by
  character, for the LLM answer extraction.
- `reference_astar`: the A* phase that pushes every child of an expansion
  at once, with tuple derivations and pending queues and the cap on the
  heap's length, for the search that expands each node lazily. Its `keep`
  predicate prunes a popped state; by default that is `NormalForms.keep`,
  the equivalence-reduction rules over derivation trees, whole terms
  rewritten by `NormalForms.normalize`, for the search's closing markers
  and flagged children. `KEEP_ALL` turns pruning off.
- `derivations`: every derivation of a grammar up to a cost, for
  brute-force minimum-cost enumeration.
- `reference_cegis`: the CEGIS loop that starts every A* phase afresh
  from the start symbol, for the loop that resumes one frontier.
- The k-NN selector by brute force: nearest records by a stable sort of
  Python distances, reward sums and rankings over dicts keyed by arm, and
  the schedule's two greedy walks through `fit_exponential` and
  `allocate_one`.
- Read-only views that no run needs: `knn_scores`, the selector's reward
  sums per solver over the k nearest records, and the outcome matrix's
  per-solver solve counts and solvable-query count.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (Callable, Hashable, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from synthsel import enumerator
from synthsel.bandit import BanditStore, SolveRecord, SolverId, _sums
from synthsel.budget import ScheduleEntry, allocate_one, fit_exponential
from synthsel.enumerator import (CegisResult, EnumeratorConfig, SearchResult,
                                 SearchStatus, edge_cost, initial_example,
                                 min_completion_costs)
from synthsel.orchestrator import OutcomeMatrix
from synthsel.sygus import substitute_solution
from synthsel.sygus.grammar import Grammar, fill_holes, grammar_from_rules
from synthsel.sygus.parser import (GrammarError, GrammarRules, ParseError, SynthQuery,
                                   UnsupportedError)
from synthsel.sygus.terms import (
    App, ArityError, BoolLit, BVLit, Candidate, FunctionSignature, Hole, IntLit, Ite,
    OPERATORS, Sort, SortError, SygusError, Term, Var, BOOL, INT, _BV, apply_candidate,
    is_operator, substitute_vars,
)
from synthsel.verify import (Assignment, DivisionByZero, EvaluationError, SearchConfig,
                             VerificationResult, Verifier, evaluate, sweep_columns)


class Token(NamedTuple):
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"[()]|[^\s();]+|;.*")


def tokenize(text: str) -> list[Token]:
    """Parentheses and atoms with their 1-based line and column; a `;`
    comment runs to the end of its line and yields no token."""
    return [Token(m.group(), line, m.start() + 1)
            for line, row in enumerate(text.split("\n"), 1)
            for m in _TOKEN.finditer(row) if m.group()[0] != ";"]


# ---------------------------------------------------------------------------
# S-expression reading
# ---------------------------------------------------------------------------

SExpr = Union[Token, list]


def read_sexprs(tokens: Sequence[Token]) -> list[SExpr]:
    exprs: list[SExpr] = []
    pos = 0

    def read_one() -> SExpr:
        nonlocal pos
        tok = tokens[pos]
        if tok.text == "(":
            pos += 1
            items: list[SExpr] = []
            while True:
                if pos >= len(tokens):
                    raise ParseError("unbalanced '('", tok.line, tok.col)
                if tokens[pos].text == ")":
                    pos += 1
                    return items
                items.append(read_one())
        if tok.text == ")":
            raise ParseError("unexpected ')'", tok.line, tok.col)
        pos += 1
        return tok

    while pos < len(tokens):
        exprs.append(read_one())
    return exprs


def _head(sexpr: SExpr) -> str:
    if isinstance(sexpr, list) and sexpr and isinstance(sexpr[0], Token):
        return sexpr[0].text
    return ""


def _where(sexpr: SExpr) -> Tuple[int, int]:
    if isinstance(sexpr, Token):
        return sexpr.line, sexpr.col
    if sexpr and isinstance(sexpr, list):
        return _where(sexpr[0])
    return 0, 0


def _expect_atom(sexpr: SExpr, what: str) -> Token:
    if not isinstance(sexpr, Token):
        raise ParseError(f"expected {what}", *_where(sexpr))
    return sexpr


# ---------------------------------------------------------------------------
# Sorts and terms
# ---------------------------------------------------------------------------

def parse_sort(sexpr: SExpr) -> Sort:
    if isinstance(sexpr, Token):
        if sexpr.text == "Int":
            return INT
        if sexpr.text == "Bool":
            return BOOL
        raise UnsupportedError(f"unsupported sort {sexpr.text!r} "
                               f"(line {sexpr.line}, column {sexpr.col})")
    width = _BITVEC_SORT.fullmatch(_print_sexpr(sexpr))
    if width:
        return Sort.bitvec(int(width[1]))
    line, col = _where(sexpr)
    raise UnsupportedError(f"unsupported sort {_print_sexpr(sexpr)!r} "
                           f"(line {line}, column {col})")


# numerals are ASCII digits: str.isdigit() and int() also accept '²' or '٣'
_BITVEC_SORT = re.compile(r"\(_ BitVec ([0-9]+)\)")
_BV_LITERAL = re.compile(r"#b[01]+|#x[0-9a-fA-F]+")
_INDEXED_BV_LITERAL = re.compile(r"\(_ bv([0-9]+) ([0-9]+)\)")


def _parse_literal(tok: Token) -> Optional[Term]:
    text = tok.text
    if text == "true":
        return BoolLit(True)
    if text == "false":
        return BoolLit(False)
    digits = text[1:] if text.startswith("-") else text
    if digits.isdigit() and digits.isascii():
        return IntLit(int(text))
    if text.startswith("#") and _BV_LITERAL.fullmatch(text):
        digits = text[2:]
        if text[1] == "b":
            return BVLit(int(digits, 2), len(digits))
        return BVLit(int(digits, 16), 4 * len(digits))
    return None


@dataclass
class _Macro:
    """A define-fun body, inlined at every application site."""

    signature: FunctionSignature
    body: Term

    def apply(self, args: Sequence[Term]) -> Term:
        binding = dict(zip(self.signature.param_names, args))
        return substitute_vars(self.body, binding)


@dataclass
class _TermContext:
    var_sorts: dict[str, Sort]
    synth_fun: Optional[FunctionSignature]
    macros: dict[str, _Macro]
    # a grammar's nonterminals and their sorts: such a token is read as a Hole
    nonterminals: Mapping[str, Sort] = field(default_factory=dict)


def _checked(term: Term, op_tok: Token, ctx: _TermContext,
             fn: Optional[FunctionSignature] = None) -> Term:
    """`term`, a node whose children are well-sorted, if `infer_sort` sorts
    it (each hole as a variable of its nonterminal's sort, `fn` the
    signature of a macro applied); else ParseError at its operator."""
    fn_sigs = {ctx.synth_fun.name: ctx.synth_fun} if ctx.synth_fun else {}
    if fn is not None:
        fn_sigs[fn.name] = fn
    try:
        infer_sort(_holes_as_vars(term), {**ctx.var_sorts, **ctx.nonterminals}, fn_sigs)
    except SygusError as exc:
        raise ParseError(str(exc), op_tok.line, op_tok.col) from None
    return term


def _parse_term(sexpr: SExpr, ctx: _TermContext) -> Term:
    if isinstance(sexpr, Token):
        if sexpr.text in ctx.nonterminals:
            return Hole(sexpr.text)
        lit = _parse_literal(sexpr)
        if lit is not None:
            return lit
        if sexpr.text in ctx.var_sorts:
            return Var(sexpr.text)
        raise ParseError(f"undeclared symbol {sexpr.text!r}", sexpr.line, sexpr.col)
    if not sexpr:
        raise ParseError("empty application", 0, 0)
    op_tok = _expect_atom(sexpr[0], "an operator symbol")
    op = op_tok.text
    if op == "_":  # SMT-LIB's indexed bitvector literal (_ bvN width)
        bv = _INDEXED_BV_LITERAL.fullmatch(_print_sexpr(sexpr))
        if not bv:
            raise ParseError("expected (_ bvN width)", op_tok.line, op_tok.col)
        try:
            return BVLit(int(bv[1]), int(bv[2]))
        except SygusError as exc:
            raise ParseError(str(exc), op_tok.line, op_tok.col) from None
    args = [_parse_term(a, ctx) for a in sexpr[1:]]
    if op == "ite":
        if len(args) != 3:
            raise ParseError("ite expects exactly 3 arguments", op_tok.line, op_tok.col)
        return _checked(Ite(args[0], args[1], args[2]), op_tok, ctx)
    if op == "-" and len(args) == 1 and isinstance(args[0], IntLit):
        return IntLit(-args[0].value)  # (- 5) is the literal -5
    if op in ctx.macros:
        macro = ctx.macros[op]
        if len(args) != len(macro.signature.params):
            raise ParseError(
                f"{op!r} expects {len(macro.signature.params)} arguments, got {len(args)}",
                op_tok.line, op_tok.col,
            )
        _checked(App(op, tuple(args)), op_tok, ctx, macro.signature)
        return macro.apply(args)
    if is_operator(op) or (ctx.synth_fun and op == ctx.synth_fun.name):
        try:
            term = App(op, tuple(args))
        except SygusError as exc:
            raise ParseError(str(exc), op_tok.line, op_tok.col) from None
        return _checked(term, op_tok, ctx)
    raise ParseError(f"undeclared symbol {op!r}", op_tok.line, op_tok.col)


def infer_sort(term: Term, env: Mapping[str, Sort],
               fn_sigs: Mapping[str, FunctionSignature] | None = None) -> Sort:
    """Sort of `term` given variable sorts `env`; raises on ill-sorted trees.

    fn_sigs maps uninterpreted (synth-fun) names to their signatures so
    applications of the function under synthesis type-check.
    """
    if isinstance(term, IntLit):
        return INT
    if isinstance(term, BoolLit):
        return BOOL
    if isinstance(term, BVLit):
        return Sort.bitvec(term.width)
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise SortError(f"undeclared variable {term.name!r}") from None
    if isinstance(term, Ite):
        csort = infer_sort(term.cond, env, fn_sigs)
        if csort != BOOL:
            raise SortError(f"ite condition must be Bool, got {csort}")
        tsort = infer_sort(term.then_branch, env, fn_sigs)
        esort = infer_sort(term.else_branch, env, fn_sigs)
        if tsort != esort:
            raise SortError(f"ite branches disagree: {tsort} vs {esort}")
        return tsort
    if isinstance(term, App):
        arg_sorts = [infer_sort(a, env, fn_sigs) for a in term.args]
        sig = OPERATORS.get(term.op)
        if sig is None:
            if fn_sigs and term.op in fn_sigs:
                fsig = fn_sigs[term.op]
                if len(arg_sorts) != len(fsig.param_sorts):
                    raise ArityError(
                        f"{term.op!r} expects {len(fsig.param_sorts)} arguments, "
                        f"got {len(arg_sorts)}"
                    )
                for i, (got, want) in enumerate(zip(arg_sorts, fsig.param_sorts)):
                    if got != want:
                        raise SortError(
                            f"argument {i} of {term.op!r} has sort {got}, expected {want}"
                        )
                return fsig.return_sort
            raise SortError(f"unknown operator {term.op!r}")
        if sig.arg_sort is None:
            # all arguments of the same sort
            first = arg_sorts[0]
            for s in arg_sorts[1:]:
                if s != first:
                    raise SortError(f"{term.op!r} arguments disagree: {first} vs {s}")
        elif sig.arg_sort is _BV:
            widths = set()
            for s in arg_sorts:
                if s.name != "BitVec":
                    raise SortError(f"{term.op!r} expects bitvector arguments, got {s}")
                widths.add(s.width)
            if len(widths) > 1:
                raise SortError(f"{term.op!r} arguments have mixed widths {sorted(widths)}")
        else:
            for s in arg_sorts:
                if s != sig.arg_sort:
                    raise SortError(f"{term.op!r} expects {sig.arg_sort} arguments, got {s}")
        if sig.result_sort is None:
            return arg_sorts[0]
        if sig.result_sort is _BV:
            return arg_sorts[0]
        return sig.result_sort
    raise SortError(f"not a term: {term!r}")


def read_grammar_rules(blocks: Sequence[SExpr],
                       signature: FunctionSignature) -> GrammarRules:
    """Read a grammar block in the v2 form (a predeclaration list, then the
    grouped rules) or the v1 form (the grouped rules only)."""
    if len(blocks) not in (1, 2):
        raise ParseError(f"expected 1 or 2 grammar blocks, got {len(blocks)}",
                         *_where(blocks[-1:]))
    groups = blocks[-1]
    if not (isinstance(groups, list) and groups):
        raise ParseError("malformed grammar rules", *_where(groups))
    for group in groups:
        if not (isinstance(group, list) and len(group) == 3
                and isinstance(group[0], Token) and isinstance(group[2], list)):
            raise ParseError("each grammar rule group must be (N Sort (rules...))",
                             *_where(group))
    sorts = {name.text: parse_sort(sort) for name, sort, _ in groups}
    start = groups[0][0].text
    if sorts[start] != signature.return_sort:
        raise GrammarError(f"start symbol {start!r} has sort {sorts[start]}, "
                           f"not the return sort {signature.return_sort}")
    ctx = _TermContext(dict(signature.params), None, {}, sorts)
    nonterminals = []
    for name, _, entries in groups:
        rules = []
        for entry in entries:
            if _head(entry) in ("Constant", "Variable", "InputVariable",
                                "LocalVariable"):
                return GrammarRules((), _head(entry))
            try:
                rule = _parse_term(entry, ctx)
                if rule_sort(rule, ctx.var_sorts, sorts) != sorts[name.text]:
                    raise ParseError(f"{_print_sexpr(entry)} is not of sort "
                                     f"{sorts[name.text]}", *_where(entry))
            except ParseError as exc:
                raise GrammarError(f"in the rules for {name.text!r}: {exc}") from None
            rules.append(rule)
        nonterminals.append((name.text, sorts[name.text], tuple(rules)))
    return GrammarRules(tuple(nonterminals))


def _holes_as_vars(t: Term) -> Term:
    if isinstance(t, Hole):
        return Var(t.nonterminal)
    if isinstance(t, App):
        return App(t.op, tuple(map(_holes_as_vars, t.args)))
    if isinstance(t, Ite):
        return Ite(_holes_as_vars(t.cond), _holes_as_vars(t.then_branch),
                   _holes_as_vars(t.else_branch))
    return t


def rule_sort(rule: Term, params: Mapping[str, Sort],
              nonterminals: Mapping[str, Sort]) -> Optional[Sort]:
    """A grammar rule's sort by `infer_sort`, each hole read as a variable of
    its nonterminal's sort; None when the rule is ill-sorted."""
    try:
        return infer_sort(_holes_as_vars(rule), {**params, **nonterminals})
    except SygusError:
        return None


def _parse_params(sexpr: SExpr) -> Tuple[Tuple[str, Sort], ...]:
    if not isinstance(sexpr, list):
        raise ParseError("expected a parameter list", *_where(sexpr))
    params = []
    for entry in sexpr:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError("expected (name Sort)", *_where(entry))
        name = _expect_atom(entry[0], "a parameter name").text
        if any(n == name for n, _ in params):
            raise ParseError(f"parameter {name!r} declared twice", *_where(entry))
        params.append((name, parse_sort(entry[1])))
    return tuple(params)


def parse_query(text: str) -> SynthQuery:
    """Parse SyGuS-IF source into a SynthQuery.

    The printed form of the result round-trips to a semantically identical
    query. Exactly one synth-fun is required.
    """
    tokens = tokenize(text)
    commands = read_sexprs(tokens)

    logic: Optional[str] = None
    synth_fun: Optional[FunctionSignature] = None
    grammar_sexpr: Optional[str] = None
    grammar: Optional[GrammarRules] = None
    universals: list[Tuple[str, Sort]] = []
    constraints: list[Term] = []
    macros: dict[str, _Macro] = {}
    from_inv = False
    saw_check_synth = False

    def ctx() -> _TermContext:
        return _TermContext(dict(universals), synth_fun, macros)

    for cmd in commands:
        head = _head(cmd)
        line, col = _where(cmd)
        if not head:
            raise ParseError("expected a command", line, col)
        if head == "set-logic":
            if len(cmd) != 2:
                raise ParseError("set-logic expects one argument", line, col)
            logic = _expect_atom(cmd[1], "a logic name").text
        elif head in ("declare-var", "declare-primed-var"):
            if len(cmd) != 3:
                raise ParseError(f"{head} expects a name and a sort", line, col)
            name = _expect_atom(cmd[1], "a variable name").text
            sort = parse_sort(cmd[2])
            if any(n == name for n, _ in universals):
                raise ParseError(f"variable {name!r} declared twice", line, col)
            universals.append((name, sort))
            if head == "declare-primed-var":
                universals.append((name + "!", sort))
        elif head in ("synth-fun", "synth-inv"):
            if synth_fun is not None:
                raise UnsupportedError(
                    "multiple synth-fun commands are not supported; "
                    "this tool handles exactly one function per query"
                )
            if len(cmd) < (3 if head == "synth-inv" else 4):
                raise ParseError(f"malformed {head}", line, col)
            name = _expect_atom(cmd[1], "a function name").text
            params = _parse_params(cmd[2])
            if head == "synth-inv":
                ret = BOOL
                rest = cmd[3:]
            else:
                ret = parse_sort(cmd[3])
                rest = cmd[4:]
            synth_fun = FunctionSignature(name, params, ret)
            if rest:
                grammar_sexpr = " ".join(_print_sexpr(x) for x in rest)
                grammar = read_grammar_rules(rest, synth_fun)
                if grammar.generator is None:
                    # rules that form no grammar (dead or unknown nonterminals,
                    # cyclic unit productions) make the query malformed; a
                    # generator only keeps the enumerator out
                    grammar_from_rules(grammar)
        elif head == "define-fun":
            if len(cmd) != 5:
                raise ParseError("define-fun expects name, params, sort, body",
                                 line, col)
            name = _expect_atom(cmd[1], "a function name").text
            if is_operator(name):
                raise ParseError(f"define-fun redefines the operator {name!r}", line, col)
            params = _parse_params(cmd[2])
            ret = parse_sort(cmd[3])
            local = _TermContext(dict(params), synth_fun, macros)
            body = _parse_term(cmd[4], local)
            got = infer_sort(body, dict(params),
                             {synth_fun.name: synth_fun} if synth_fun else None)
            if got != ret:
                raise ParseError(
                    f"define-fun {name!r} body has sort {got}, declared {ret}",
                    line, col,
                )
            macros[name] = _Macro(FunctionSignature(name, params, ret), body)
        elif head == "constraint":
            if len(cmd) != 2:
                raise ParseError("constraint expects one term", line, col)
            if synth_fun is None:
                raise ParseError("constraint before synth-fun", line, col)
            term = _parse_term(cmd[1], ctx())
            sort = infer_sort(term, dict(universals), {synth_fun.name: synth_fun})
            if sort != BOOL:
                raise ParseError(f"constraint must be Bool, got {sort}", line, col)
            constraints.append(term)
        elif head == "inv-constraint":
            if len(cmd) != 5:
                raise ParseError(
                    "inv-constraint expects inv, pre, trans, post", line, col)
            if synth_fun is None:
                raise ParseError("inv-constraint before synth-inv", line, col)
            names = [_expect_atom(x, "a function name").text for x in cmd[1:]]
            constraints.extend(
                _desugar_inv(names, synth_fun, macros, universals, line, col))
            from_inv = True
        elif head == "check-synth":
            saw_check_synth = True
        else:
            raise UnsupportedError(
                f"unsupported command {head!r} (line {line}, column {col})")

    if logic is None:
        raise ParseError("missing set-logic", 1, 1)
    if synth_fun is None:
        raise ParseError("missing synth-fun", 1, 1)
    if not saw_check_synth:
        raise ParseError("missing check-synth", 1, 1)

    return SynthQuery(
        logic=logic,
        synth_fun=synth_fun,
        universals=tuple(universals),
        constraints=tuple(constraints),
        user_grammar_sexpr=grammar_sexpr,
        user_grammar=grammar,
        from_inv_constraint=from_inv,
        source_token_count=len(tokens),
    )


def _desugar_inv(names: Sequence[str], inv: FunctionSignature,
                 macros: Mapping[str, _Macro],
                 universals: list[Tuple[str, Sort]],
                 line: int, col: int) -> list[Term]:
    """Rewrite (inv-constraint inv pre trans post) into three constraints.

    Universal variables are taken from trans's parameter list: the first half
    are the invariant's state variables, the second half the primed copies.
    """
    inv_name, pre_name, trans_name, post_name = names
    if inv_name != inv.name:
        raise ParseError(f"inv-constraint names unknown function {inv_name!r}",
                         line, col)
    try:
        pre, trans, post = macros[pre_name], macros[trans_name], macros[post_name]
    except KeyError as exc:
        raise ParseError(f"inv-constraint references undefined {exc.args[0]!r}",
                         line, col) from None
    n = len(inv.params)
    if len(trans.signature.params) != 2 * n:
        raise ParseError(
            f"{trans_name!r} must take {2 * n} parameters "
            f"(state and primed state)", line, col)

    declared = {name for name, _ in universals}
    for name, sort in trans.signature.params:
        if name not in declared:
            universals.append((name, sort))
            declared.add(name)

    state = [Var(name) for name, _ in trans.signature.params[:n]]
    primed = [Var(name) for name, _ in trans.signature.params[n:]]

    def inv_app(args: Sequence[Term]) -> Term:
        return App(inv.name, tuple(args))

    # every application sorts, over the universals, as Bool
    for fn, args in ((inv, state), (inv, primed), (pre.signature, state),
                     (trans.signature, state + primed), (post.signature, state)):
        try:
            sort = infer_sort(App(fn.name, tuple(args)), dict(universals), {fn.name: fn})
        except SygusError as exc:
            raise ParseError(str(exc), line, col) from None
        if sort != BOOL:
            raise ParseError(f"{fn.name!r} returns {sort}, not Bool", line, col)

    init = App("=>", (pre.apply(state), inv_app(state)))
    induct = App("=>", (
        App("and", (inv_app(state), trans.apply(state + primed))),
        inv_app(primed),
    ))
    safe = App("=>", (inv_app(state), post.apply(state)))
    return [init, induct, safe]


def _print_sexpr(sexpr: SExpr) -> str:
    if isinstance(sexpr, Token):
        return sexpr.text
    return "(" + " ".join(_print_sexpr(x) for x in sexpr) + ")"


def parse_term_text(text: str, env: Mapping[str, Sort],
                    synth_fun: Optional[FunctionSignature] = None) -> Term:
    """Parse a single term over the given variable environment."""
    exprs = read_sexprs(tokenize(text))
    if len(exprs) != 1:
        raise ParseError(f"expected exactly one term, got {len(exprs)}", 1, 1)
    ctx = _TermContext(dict(env), synth_fun, {})
    return _parse_term(exprs[0], ctx)


def parse_define_fun(text: str) -> Candidate:
    """Parse one (define-fun name ((p S)...) S body) into a Candidate."""
    exprs = read_sexprs(tokenize(text))
    if len(exprs) != 1:
        raise ParseError("expected exactly one define-fun", 1, 1)
    return candidate_from_sexpr(exprs[0])


def candidate_from_sexpr(sexpr: SExpr) -> Candidate:
    if _head(sexpr) != "define-fun" or len(sexpr) != 5:
        raise ParseError("expected (define-fun name params sort body)",
                         *_where(sexpr))
    name = _expect_atom(sexpr[1], "a function name").text
    if is_operator(name):
        raise ParseError(f"define-fun redefines the operator {name!r}", *_where(sexpr))
    params = _parse_params(sexpr[2])
    ret = parse_sort(sexpr[3])
    ctx = _TermContext(dict(params), None, {})
    body = _parse_term(sexpr[4], ctx)
    got = infer_sort(body, dict(params))
    if got != ret:
        raise ParseError(f"define-fun {name!r} body has sort {got}, declared {ret}",
                         *_where(sexpr))
    return Candidate(name, params, ret, body)


# ---------------------------------------------------------------------------
# The internal checker's search, point by point
# ---------------------------------------------------------------------------

def grid_domain(sort: Sort, bound: int) -> list:
    """One variable's grid values, in sweep order."""
    if sort == BOOL:
        return [False, True]
    if sort == INT:
        return list(range(-bound, bound + 1))
    return list(range(min(1 << sort.width, 2 * bound + 1)))


def reference_sweep(phi: Term, universals: Sequence[Tuple[str, Sort]],
                    config: SearchConfig) -> VerificationResult:
    """The grid, then the random points, walked one point at a time. `phi`
    is one formula, so a counterexample's violated index is 0."""
    names = [n for n, _ in universals]
    sorts = tuple(s for _, s in universals)
    grid = ()
    if len(names) <= config.max_grid_vars:
        grid = itertools.product(*[grid_domain(s, config.grid_bound) for s in sorts])
    samples = zip(*sweep_columns(sorts, config.seed, config.random_samples,
                                 config.random_bound))
    for point in itertools.chain(grid, samples):
        assignment = dict(zip(names, point))
        try:
            if not evaluate(phi, assignment, dict(universals)):
                return VerificationResult.counterexample(assignment, 0)
        except DivisionByZero:
            continue
        except EvaluationError as exc:
            return VerificationResult.unknown(str(exc))
    return VerificationResult.valid(bounded=True)


def reference_whole_domain(phi: Term, universals: Sequence[Tuple[str, Sort]],
                           config: SearchConfig) -> VerificationResult:
    """`reference_sweep`'s points, then every point of the BitVec/Bool
    domain in `itertools.product` order: the first false point, or an
    exact Valid when there is none."""
    swept = reference_sweep(phi, universals, config)
    if not swept.is_valid:
        return swept
    names = [n for n, _ in universals]
    domains = [[False, True] if s == BOOL else range(1 << s.width) for _, s in universals]
    for point in itertools.product(*domains):
        assignment = dict(zip(names, point))
        if not evaluate(phi, assignment, dict(universals)):
            return VerificationResult.counterexample(assignment, 0)
    return VerificationResult.valid(bounded=False)


# ---------------------------------------------------------------------------
# The LLM repair loop's walks
# ---------------------------------------------------------------------------

def first_violated_constraint(query: SynthQuery, cand: Candidate,
                              assignment: Mapping[str, object]) -> Optional[int]:
    """The index of the first constraint that `cand` substituted into it
    makes false at `assignment`, or fails to evaluate there; None if all hold."""
    sorts = dict(query.universals)
    for i, c in enumerate(query.constraints):
        try:
            if not evaluate(apply_candidate(c, cand), assignment, sorts):
                return i
        except EvaluationError:
            return i
    return None


def cons_choices(choices: Sequence[int]) -> enumerator.Choices:
    """Leftmost-order production choices as the search's cons cells, the
    last choice at the head."""
    derivation = None
    for idx in choices:
        derivation = (idx, derivation)
    return derivation


# ---------------------------------------------------------------------------
# Equivalence reduction over derivation trees
# ---------------------------------------------------------------------------

Tree = Tuple[int, tuple]  # (production index, subtrees); an unfinished node has fewer


def KEEP_ALL(choices: Tuple[int, ...]) -> bool:
    return True


class NormalForms:
    """The equivalence-reduction rules of a grammar, read off each template
    whose arguments are all holes, over derivation trees `(idx, kids)` of
    the enumerator's flat production indices:

    - `(op a b)` with both holes at one nonterminal, for a commutative op,
      is kept only when a's preorder choice sequence is no greater than b's;
    - `(op a a)` becomes a (and or bvand bvor, holes at the node's own
      nonterminal), the node's 0 (- bvsub bvxor) or its true (=);
    - `(op a 0)` becomes a (+ - bvadd bvsub bvor bvxor, a's hole at the
      node's nonterminal), as does `(0 op a)` for the commutative ones;
    - `ite(c, a, a)` becomes a and `(not (not b))` becomes b, a and b at
      the node's nonterminal;
    - `(<= a b)` becomes `(>= b a)` where the nonterminal has that rule.
    """

    COMMUTATIVE = {"+", "*", "and", "or", "=", "bvadd", "bvand", "bvor", "bvxor"}
    IDEMPOTENT = {"and", "or", "bvand", "bvor"}
    SELF_INVERSE = {"-", "bvsub", "bvxor"}
    ZERO_UNIT = {"+", "-", "bvadd", "bvsub", "bvor", "bvxor"}

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.flat, self.by_nt = enumerator._flat_productions(grammar)
        self.holes = [p.holes for p in self.flat]

    # what a production is ------------------------------------------------

    def nt(self, idx: int) -> str:
        return self.flat[idx].nonterminal

    def shape(self, idx: int) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """(op, hole nonterminals) of a template whose arguments are all
        holes, op "ite" for an Ite; else None."""
        t = self.flat[idx].template
        args = (t.cond, t.then_branch, t.else_branch) if isinstance(t, Ite) else (
            t.args if isinstance(t, App) else ())
        if not args or not all(isinstance(a, Hole) for a in args):
            return None
        return ("ite" if isinstance(t, Ite) else t.op), tuple(a.nonterminal for a in args)

    def is_zero(self, tree: Tree) -> bool:
        t = self.flat[tree[0]].template
        return isinstance(t, (IntLit, BVLit)) and t.value == 0

    def is_true(self, tree: Tree) -> bool:
        t = self.flat[tree[0]].template
        return isinstance(t, BoolLit) and t.value is True

    def leaf(self, nt: str, literal: Callable[[Tree], bool]) -> Optional[Tree]:
        """The first production of `nt` that is such a literal, as a tree."""
        return next(((i, ()) for i in self.by_nt[nt] if literal((i, ()))), None)

    def flipped(self, idx: int) -> Optional[int]:
        """For `(<= a b)`, the nonterminal's `(>= b a)` production."""
        shape = self.shape(idx)
        if shape is None or shape[0] != "<=":
            return None
        a, b = shape[1]
        for i in self.by_nt[self.nt(idx)]:
            if self.shape(i) == (">=", (b, a)):
                return i
        return None

    # trees ------------------------------------------------------------------

    def tree(self, choices: Sequence[int]) -> Tree:
        """The (partial) derivation tree of leftmost choices."""
        it = iter(choices)

        def node(idx: int) -> Tree:
            kids = []
            for _ in self.holes[idx]:
                nxt = next(it, None)
                if nxt is None:
                    break
                kids.append(node(nxt))
            return idx, tuple(kids)

        return node(next(it))

    def finished(self, tree: Tree) -> bool:
        idx, kids = tree
        return len(kids) == len(self.holes[idx]) and all(self.finished(k) for k in kids)

    def preorder(self, tree: Tree) -> list[int]:
        idx, kids = tree
        return [idx] + [i for k in kids for i in self.preorder(k)]

    def cost(self, tree: Tree) -> float:
        idx, kids = tree
        return edge_cost(self.nt(idx), self.grammar) + sum(self.cost(k) for k in kids)

    def term(self, tree: Tree) -> Term:
        idx, kids = tree
        return fill_holes(self.flat[idx].template, [self.term(k) for k in kids])

    def cost_of(self, term: Term, nt: str) -> float:
        """The least cost of a derivation of `term` from `nt` (inf if none)."""
        key = term, nt
        memo = self.__dict__.setdefault("_costs", {})
        if key not in memo:
            best = math.inf
            for i in self.by_nt[nt]:
                subs: list = []
                if _matches(self.flat[i].template, term, subs):
                    best = min(best, edge_cost(nt, self.grammar)
                               + sum(self.cost_of(t, h) for h, t in subs))
            memo[key] = best
        return memo[key]

    def derives(self, tree: Tree, nt: str) -> bool:
        """Whether the tree is a finished derivation from `nt`."""
        idx, kids = tree
        return (self.nt(idx) == nt and len(kids) == len(self.holes[idx])
                and all(self.derives(k, h) for k, h in zip(kids, self.holes[idx])))

    # the rules ------------------------------------------------------------------

    def rewrite(self, idx: int, kids: tuple) -> Optional[Tree]:
        """What a node with these (possibly partial) kids rewrites to at its
        root, or None when no rule applies. A rule that needs a kid
        finished applies only once it is; a partial node's rewrite is only
        a witness that the node is pruned (`keep`)."""
        n = self.nt(idx)
        swap = self.flipped(idx)
        if swap is not None:
            return swap, kids[::-1]
        shape = self.shape(idx)
        if shape is None:
            return None
        op, holes = shape
        done = [self.finished(k) for k in kids] + [False] * (len(holes) - len(kids))
        if op == "not" and kids and self.shape(kids[0][0]) == ("not", (n,)):
            return kids[0][1][0] if kids[0][1] else kids[0]
        if op == "ite":
            if holes[1] == holes[2] == n and done[1] and done[2] and kids[1] == kids[2]:
                return kids[1]
            return None
        if len(holes) != 2:
            return None
        a, b = holes
        if (op in self.ZERO_UNIT and op in self.COMMUTATIVE and b == n and done[0]
                and self.is_zero(kids[0])):
            return kids[1] if done[1] else kids[0]
        if not (done[0] and done[1]):
            return None
        if a == b and kids[0] == kids[1]:
            if op in self.IDEMPOTENT and a == n:
                return kids[0]
            leaf = (self.leaf(n, self.is_zero) if op in self.SELF_INVERSE else
                    self.leaf(n, self.is_true) if op == "=" else None)
            if leaf is not None:
                return leaf
        if op in self.ZERO_UNIT and a == n and self.is_zero(kids[1]):
            return kids[0]
        if (op in self.COMMUTATIVE and a == b
                and self.preorder(kids[0]) > self.preorder(kids[1])):
            return idx, kids[::-1]
        return None

    def normalize(self, tree: Tree) -> Tree:
        """The normal form of a finished tree: kids first, then the root
        rewritten until no rule applies."""
        idx, kids = tree
        tree = idx, tuple(self.normalize(k) for k in kids)
        while True:
            new = self.rewrite(*tree)
            if new is None:
                return tree
            tree = new  # a swap, or a normal subtree or leaf

    def kept(self, tree: Tree) -> bool:
        idx, kids = tree
        return all(self.kept(k) for k in kids) and self.rewrite(idx, kids) is None

    def keep(self, choices: Sequence[int]) -> bool:
        """Whether a popped state is kept: no node of its tree rewrites."""
        return not choices or self.kept(self.tree(choices))


def _matches(template: Term, term: Term, subs: list) -> bool:
    """Whether `term` fills `template`; appends (nonterminal, subterm) per hole."""
    if isinstance(template, Hole):
        subs.append((template.nonterminal, term))
        return True
    if isinstance(template, App):
        return (isinstance(term, App) and term.op == template.op
                and len(term.args) == len(template.args)
                and all(_matches(a, b, subs) for a, b in zip(template.args, term.args)))
    if isinstance(template, Ite):
        return isinstance(term, Ite) and all(
            _matches(a, b, subs) for a, b in zip(
                (template.cond, template.then_branch, template.else_branch),
                (term.cond, term.then_branch, term.else_branch)))
    return template == term


def derivations(grammar: Grammar, nt: str, budget: float) -> list[Tuple[float, Tree]]:
    """Every finished derivation tree from `nt` that costs at most
    `budget`, with its cost, cheapest first."""
    flat, by_nt = enumerator._flat_productions(grammar)
    memo: dict = {}

    def of(nt: str, budget: float) -> list:
        key = nt, budget
        if key not in memo:
            base = edge_cost(nt, grammar)
            out = []
            for idx in by_nt[nt] if base <= budget else ():
                partial = [(base, ())]
                for h in flat[idx].holes:
                    partial = [(c + kc, kids + (kt,)) for c, kids in partial
                               for kc, kt in of(h, budget - c)]
                out += [(c, (idx, kids)) for c, kids in partial]
            memo[key] = out
        return memo[key]

    return sorted(of(nt, budget), key=lambda e: e[0])


def reference_astar(grammar: Grammar, examples: Sequence[Assignment], query: SynthQuery,
                    deadline: float,
                    config: EnumeratorConfig = EnumeratorConfig(),
                    keep: Optional[Callable[[Tuple[int, ...]], bool]] = None
                    ) -> SearchResult:
    """`enumerator.astar_synthesize` from the start symbol, expanding eagerly:
    every child of an expansion is pushed at once with the next FIFO tie,
    each heap entry holds its whole derivation and pending queue as tuples,
    and `max_frontier` caps the heap's length. A popped state that `keep`
    rejects (by default `NormalForms.keep`) is counted as pruned and
    neither checked nor expanded. Programs are checked by the enumerator's
    own check."""
    keep = keep or NormalForms(grammar).keep
    frontier = enumerator.Frontier(grammar, query)
    check = enumerator._compiled_check(frontier, examples)
    mc = min_completion_costs(grammar)
    flat, by_nt = enumerator._flat_productions(grammar)
    costs = {nt: edge_cost(nt, grammar) for nt in grammar.productions}
    holes = [p.holes for p in flat]
    holes_mc = [sum(mc[h] for h in p.holes) for p in flat]
    counter = itertools.count()
    g0 = mc[grammar.start]
    # (priority, tie, choices, pending, cost spent, heuristic)
    heap: list = [(g0, next(counter), (), (grammar.start,), 0.0, g0)]
    last_priority = -math.inf
    expansions = completes = pruned = 0
    while heap:
        if time.monotonic() > deadline:
            return SearchResult(SearchStatus.TIMEOUT, None, expansions, completes, pruned)
        if len(heap) > config.max_frontier:
            return SearchResult(SearchStatus.FRONTIER_CAP, None, expansions, completes,
                                pruned)
        priority, _, choices, pending, cost, g = heappop(heap)
        assert priority >= last_priority - 1e-9, "priority queue pops regressed"
        last_priority = priority
        if not keep(choices):
            pruned += 1
            continue
        if not pending:
            completes += 1
            try:
                cand = check(cons_choices(choices))
            except RecursionError:
                return SearchResult(SearchStatus.TOO_DEEP, None, expansions, completes,
                                    pruned)
            if cand is not None:
                return SearchResult(SearchStatus.SOLVED, cand, expansions, completes,
                                    pruned)
            continue
        expansions += 1
        nt, rest = pending[0], pending[1:]
        cost += costs[nt]
        g_rest = g - mc[nt]
        for idx in by_nt[nt]:
            new_g = g_rest + holes_mc[idx]
            heappush(heap, (cost + new_g, next(counter), choices + (idx,),
                            holes[idx] + rest, cost, new_g))
    return SearchResult(SearchStatus.EXHAUSTED, None, expansions, completes, pruned)


def reference_cegis(query: SynthQuery, grammar: Grammar, deadline: float,
                    verifier: Verifier,
                    config: EnumeratorConfig = EnumeratorConfig()) -> CegisResult:
    """`enumerator.cegis_solve` with a fresh A* search per phase: each phase
    pops again, on one more example, every entry the previous phase popped.
    Calls `enumerator.astar_synthesize` through the module, so a test can
    record the phases."""
    examples: list[Assignment] = [initial_example(query)]
    sorts = dict(query.universals)
    iterations = expansions = completes = pruned = 0

    def finish(status: SearchStatus, cand: Optional[Candidate] = None,
               provenance: str = "", bounded: bool = False) -> CegisResult:
        return CegisResult(status, cand, iterations, tuple(examples), provenance,
                           expansions, completes, bounded, pruned)

    while True:
        result = enumerator.astar_synthesize(grammar, examples, query, deadline, config)
        iterations += 1
        expansions += result.expansions
        completes += result.dequeued_complete
        pruned += result.pruned
        if result.status is not SearchStatus.SOLVED:
            return finish(result.status)
        cand = result.candidate
        assert cand is not None
        verdict = verifier.check(query, cand, deadline)
        if verdict.is_valid:
            return finish(SearchStatus.SOLVED, cand, verdict.provenance, verdict.bounded)
        if verdict.is_counterexample:
            ce = verdict.assignment_dict()
            if ce in examples:
                # no progress possible: the verifier repeated itself
                return finish(SearchStatus.TIMEOUT)
            if __debug__ and query.constraints:
                # the new counterexample must falsify the candidate it refutes
                phi = substitute_solution(query, cand)
                try:
                    assert not evaluate(phi, ce, sorts)
                except EvaluationError:
                    pass
            examples.append(ce)
            if time.monotonic() > deadline:
                return finish(SearchStatus.TIMEOUT)
            continue
        # verifier unknown: give up without claiming an answer
        return finish(SearchStatus.TIMEOUT)


def balanced_spans(text: str, marker: str) -> list[str]:
    """Each balanced form that starts at `marker`, left to right; an
    unbalanced one ends the walk."""
    spans = []
    start = 0
    while True:
        idx = text.find(marker, start)
        if idx < 0:
            return spans
        depth = 0
        for j in range(idx, len(text)):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    spans.append(text[idx:j + 1])
                    start = j + 1
                    break
        else:
            return spans


# ---------------------------------------------------------------------------
# The k-NN selector by brute force
# ---------------------------------------------------------------------------

def nearest_rows(records: Sequence[SolveRecord], q: Sequence[float], k: int,
                 keep: Callable[[SolverId], bool] = lambda s: True) -> list[int]:
    """The indices of the k records nearest to `q` among those whose solver
    `keep` accepts: a stable sort by (distance, index)."""
    mine = [i for i, r in enumerate(records) if keep(r.solver)]
    mine.sort(key=lambda i: (math.sqrt(sum(
        (a - b) ** 2 for a, b in zip(records[i].features, q))), i))
    return mine[:k]


def reward_sums(rows: Sequence[int], records: Sequence[SolveRecord],
                key: Callable[[SolverId], Hashable]) -> dict:
    """The rewards of `rows`, summed in row order per arm: `key` of each
    row's solver."""
    sums: dict = {}
    for i in rows:
        arm = key(records[i].solver)
        sums[arm] = sums.get(arm, 0.0) + records[i].reward
    return sums


def reference_rank(scores: Mapping, arms: Sequence, rng: random.Random) -> list:
    """Scored arms by descending score (equal scores in shuffled order),
    then the rest shuffled."""
    present = [a for a in arms if a in scores]
    absent = [a for a in arms if a not in scores]
    rng.shuffle(present)
    present.sort(key=lambda a: -scores[a])
    rng.shuffle(absent)
    return present + absent


def reference_rank_double(records: Sequence[SolveRecord], q: Sequence[float],
                          k: int, portfolio: Sequence[SolverId],
                          rng: random.Random,
                          rngs: Mapping[str, random.Random]) -> list[SolverId]:
    """The portfolio's models in first-seen order and the enumerator last,
    ranked by sums over the k nearest records of every solver with `rng`;
    each model's styles ranked by sums over that model's own k nearest
    records with its RNG in `rngs`."""
    models = list(dict.fromkeys(s.model for s in portfolio if s.kind == "llm"))
    if SolverId.enumerator() in portfolio:
        models.append("enumerator")
    sums = reward_sums(nearest_rows(records, q, k), records,
                       lambda s: s.model or "enumerator")
    ranked = []
    for arm in reference_rank(sums, models, rng):
        if arm == "enumerator":
            ranked.append(SolverId.enumerator())
            continue
        own = nearest_rows(records, q, k, lambda s: s.model == arm)
        ranked.extend(reference_rank(
            reward_sums(own, records, lambda s: s),
            [s for s in portfolio if s.model == arm], rngs[arm]))
    return ranked


def reference_schedule(ranking: Sequence[SolverId],
                       records: Sequence[SolveRecord], q: Sequence[float],
                       k: int, T: float, C: float, delta_time: float,
                       delta_cost: float) -> Tuple[ScheduleEntry, ...]:
    """build_schedule with each solver's k nearest records found by brute
    force."""
    def walk(ranking, budget, delta, dimension):
        samples = [[v for v in (getattr(records[i], dimension) for i in
                                nearest_rows(records, q, k, lambda solver: solver == s))
                    if v > 0] for s in ranking]
        allocs = [0.0] * len(ranking)
        remaining = budget
        for i in range(len(ranking)):
            if remaining <= 0:
                break
            if samples[i]:
                want = allocate_one(fit_exponential(samples[i]), budget, delta)
            else:
                want = remaining / sum(1 for s in samples[i:] if not s)
            allocs[i] = min(want, remaining)
            remaining -= allocs[i]
        if remaining > 0:
            allocs[-1] += remaining
        return allocs

    costs = walk(ranking, C, delta_cost, "cost")
    funded = [s for s, c in zip(ranking, costs) if c > 0]
    times = iter(walk(funded, T, delta_time, "time")) if funded else iter(())
    return tuple(ScheduleEntry(s, next(times) if c > 0 else 0.0, c)
                 for s, c in zip(ranking, costs))


# ---------------------------------------------------------------------------
# Read-only views of the store and the outcome matrix
# ---------------------------------------------------------------------------

def knn_scores(store: BanditStore, features: Sequence[float], k: int
               ) -> dict[SolverId, float]:
    """Sum of rewards per solver over the k nearest records. Only solvers
    present among those neighbors appear."""
    top = store.nearest_order(features, k)[:k]
    return {store.solvers[s]: total for s, total
            in _sums(store, top, store.solver_column[top]).items()}


def solver_solve_counts(matrix: OutcomeMatrix) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in matrix.values():
        for solver, cell in row.items():
            counts.setdefault(str(solver), 0)
            if cell.solves:
                counts[str(solver)] += 1
    return counts


def solvable_queries(matrix: OutcomeMatrix) -> int:
    return sum(1 for row in matrix.values()
               if any(cell.solves for cell in row.values()))
