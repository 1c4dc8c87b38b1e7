"""SyGuS-IF reader: lexer, s-expression reader, and query construction.

Supported commands: set-logic, declare-var, synth-fun (with or without a
grammar), synth-inv, define-fun, constraint, inv-constraint, check-synth.
Comments (`;` to end of line) are stripped during lexing. inv-constraint is
rewritten into three plain constraints with the pre/trans/post macros inlined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import AbstractSet, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .terms import (
    App,
    BoolLit,
    BVLit,
    Candidate,
    FunctionSignature,
    Hole,
    IntLit,
    Ite,
    Sort,
    SygusError,
    Term,
    Var,
    BOOL,
    INT,
    apply_candidate,
    conjoin,
    infer_sort,
    is_operator,
    print_param_list,
    print_term,
    substitute_vars,
    subterms,
)


class ParseError(SygusError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})" if line else message)


class UnsupportedError(SygusError):
    pass


# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------


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
    raise UnsupportedError(f"unsupported sort at line {_where(sexpr)[0]}")


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
    # a grammar's nonterminal names: such a token is read as a Hole
    nonterminals: AbstractSet[str] = frozenset()


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
        return Ite(args[0], args[1], args[2])
    if op == "-" and len(args) == 1 and isinstance(args[0], IntLit):
        return IntLit(-args[0].value)  # (- 5) is the literal -5
    if op in ctx.macros:
        macro = ctx.macros[op]
        if len(args) != len(macro.signature.params):
            raise ParseError(
                f"{op!r} expects {len(macro.signature.params)} arguments, got {len(args)}",
                op_tok.line, op_tok.col,
            )
        return macro.apply(args)
    if is_operator(op) or (ctx.synth_fun and op == ctx.synth_fun.name):
        try:
            return App(op, tuple(args))
        except SygusError as exc:
            raise ParseError(str(exc), op_tok.line, op_tok.col) from None
    raise ParseError(f"undeclared symbol {op!r}", op_tok.line, op_tok.col)


def _parse_params(sexpr: SExpr) -> Tuple[Tuple[str, Sort], ...]:
    if not isinstance(sexpr, list):
        raise ParseError("expected a parameter list", *_where(sexpr))
    params = []
    for entry in sexpr:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError("expected (name Sort)", *_where(entry))
        name = _expect_atom(entry[0], "a parameter name").text
        params.append((name, parse_sort(entry[1])))
    return tuple(params)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthQuery:
    """One parsed synthesis problem: logic, function to synthesize, universally
    quantified variables, and the constraints the function must satisfy."""

    logic: str
    synth_fun: FunctionSignature
    universals: Tuple[Tuple[str, Sort], ...]
    constraints: Tuple[Term, ...]
    user_grammar_sexpr: Optional[str] = None
    from_inv_constraint: bool = False
    source_token_count: int = 0

    def int_literals(self) -> Tuple[int, ...]:
        """Distinct integer literals appearing in the constraints, sorted."""
        return tuple(sorted({t.value for c in self.constraints
                             for t in subterms(c) if isinstance(t, IntLit)}))

    def bv_literals(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted({(t.value, t.width) for c in self.constraints
                             for t in subterms(c) if isinstance(t, BVLit)}))


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
        elif head == "define-fun":
            if len(cmd) != 5:
                raise ParseError("define-fun expects name, params, sort, body",
                                 line, col)
            name = _expect_atom(cmd[1], "a function name").text
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


# ---------------------------------------------------------------------------
# Printing queries; standalone term/define-fun parsing
# ---------------------------------------------------------------------------

def print_query(query: SynthQuery) -> str:
    lines = [f"(set-logic {query.logic})"]
    fn = query.synth_fun
    synth = f"(synth-fun {fn.name} {print_param_list(fn.params)} {fn.return_sort}"
    if query.user_grammar_sexpr:
        synth += " " + query.user_grammar_sexpr
    lines.append(synth + ")")
    for name, sort in query.universals:
        lines.append(f"(declare-var {name} {sort})")
    for c in query.constraints:
        lines.append(f"(constraint {print_term(c)})")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


def substitute_solution(query: SynthQuery, cand: Candidate) -> Term:
    """Conjunction of the query's constraints with every application of the
    synthesized function replaced by cand's body (parameters bound to the
    application's arguments, innermost applications first)."""
    fn = query.synth_fun
    if (cand.name != fn.name or cand.return_sort != fn.return_sort
            or cand.signature.param_sorts != fn.param_sorts):
        raise SygusError(
            f"candidate signature {cand.name}{cand.signature.param_sorts} -> "
            f"{cand.return_sort} does not match synth-fun "
            f"{fn.name}{fn.param_sorts} -> {fn.return_sort}")
    return conjoin([apply_candidate(c, cand) for c in query.constraints])


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
    params = _parse_params(sexpr[2])
    ret = parse_sort(sexpr[3])
    ctx = _TermContext(dict(params), None, {})
    body = _parse_term(sexpr[4], ctx)
    return Candidate(name, params, ret, body)
