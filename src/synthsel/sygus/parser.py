"""SyGuS-IF reader: one-pass s-expression reader and query construction.

Supported commands: set-logic, declare-var, synth-fun (with or without a
grammar), synth-inv, define-fun, constraint, inv-constraint, check-synth.
Comments (`;` to end of line) are skipped while reading. inv-constraint is
rewritten into three plain constraints with the pre/trans/post macros inlined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

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
    app_sort,
    apply_candidate,
    conjoin,
    is_operator,
    ite_sort,
    literal_sort,
    print_param_list,
    print_term,
    substitute_vars,
)


class ParseError(SygusError):
    def __init__(self, message: str, line: int = 0, col: int = 0,
                 at: Optional[list] = None):
        self.message = message
        self.line = line
        self.col = col
        # a list with no atom to place the error by: `_place` finds its '('
        self.at = at
        super().__init__(f"{message} (line {line}, column {col})" if line else message)


class UnsupportedError(SygusError):
    pass


class GrammarError(SygusError):
    pass


# ---------------------------------------------------------------------------
# S-expression reading
# ---------------------------------------------------------------------------

# An atom is its text and its offset in the source; a list is a list.
Atom = Tuple[str, int]
SExpr = Union[Atom, list]

_TOKEN = re.compile(r"[()]|[^\s();]+|;.*")


def read_sexprs(text: str) -> Tuple[list[SExpr], int]:
    """The s-expressions of `text` and its token count (parentheses and
    atoms; a `;` comment runs to the end of its line and counts for
    nothing), in one scan that builds the lists on an explicit stack."""
    items: list[SExpr] = []
    parents: list[list[SExpr]] = []  # the lists enclosing `items`
    opened: list[int] = []  # offset of the '(' of `items` and of each parent
    count = 0
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == "(":
            parents.append(items)
            opened.append(m.start())
            items = []
        elif tok == ")":
            if not parents:
                raise ParseError("unexpected ')'", *_position(text, m.start()))
            parents[-1].append(items)
            items = parents.pop()
            opened.pop()
        elif tok[0] == ";":
            continue
        else:
            items.append((tok, m.start()))
        count += 1
    if opened:
        raise ParseError("unbalanced '('", *_position(text, opened[-1]))
    return items, count


def _position(text: str, offset: int) -> Tuple[int, int]:
    """1-based line and column of `offset` in `text`; only '\\n' ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _head(sexpr: SExpr) -> str:
    if type(sexpr) is list and sexpr and type(sexpr[0]) is tuple:
        return sexpr[0][0]
    return ""


def _where(sexpr: SExpr, text: str) -> Tuple[int, int]:
    """Line and column of an atom, or of a list's first atom (0, 0 if none)."""
    while type(sexpr) is list:
        if not sexpr:
            return 0, 0
        sexpr = sexpr[0]
    return _position(text, sexpr[1])


def _place(exc: ParseError, text: str, roots: Sequence[SExpr]) -> None:
    """Raises `exc` again at the '(' of its atomless list `at`, found by a
    second scan of `text` that walks `roots`, the lists read from it, in
    step; returns when `exc` has a position or names no list."""
    if exc.line or exc.at is None:
        return
    walks = [iter(roots)]
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == "(":
            node = next(walks[-1])
            if node is exc.at:
                raise ParseError(exc.message, *_position(text, m.start())) from None
            walks.append(iter(node))
        elif tok == ")":
            walks.pop()
        elif tok[0] != ";":
            next(walks[-1])


def _expect_atom(sexpr: SExpr, what: str, text: str) -> str:
    if type(sexpr) is not tuple:
        raise ParseError(f"expected {what}", *_where(sexpr, text))
    return sexpr[0]


# ---------------------------------------------------------------------------
# Sorts and terms
# ---------------------------------------------------------------------------

def parse_sort(sexpr: SExpr, text: str) -> Sort:
    if type(sexpr) is tuple:
        name = sexpr[0]
        if name == "Int":
            return INT
        if name == "Bool":
            return BOOL
        line, col = _position(text, sexpr[1])
        raise UnsupportedError(f"unsupported sort {name!r} (line {line}, column {col})")
    width = _BITVEC_SORT.fullmatch(_print_sexpr(sexpr))
    if width:
        return Sort.bitvec(int(width[1]))
    line, col = _where(sexpr, text)
    raise UnsupportedError(f"unsupported sort {_print_sexpr(sexpr)!r} "
                           f"(line {line}, column {col})")


# numerals are ASCII digits: str.isdigit() and int() also accept '²' or '٣'
_BITVEC_SORT = re.compile(r"\(_ BitVec ([0-9]+)\)")
_BV_LITERAL = re.compile(r"#b[01]+|#x[0-9a-fA-F]+")
_INDEXED_BV_LITERAL = re.compile(r"\(_ bv([0-9]+) ([0-9]+)\)")


def _parse_literal(text: str) -> Optional[Term]:
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
    text: str  # the source, for the line and column of an error
    var_sorts: dict[str, Sort]
    synth_fun: Optional[FunctionSignature]
    macros: dict[str, _Macro]
    # a grammar's nonterminals and their sorts: such a token is read as a Hole
    nonterminals: Mapping[str, Sort] = field(default_factory=dict)
    # each atom read so far under this context, with its term and sort
    leaves: dict[str, Tuple[Term, Sort]] = field(default_factory=dict)


def _parse_term(sexpr: SExpr, ctx: _TermContext) -> Tuple[Term, Sort]:
    """The term `sexpr` reads as, and its sort. Each node is sorted by its
    rule (`literal_sort`, `ite_sort`, `app_sort`; a hole has its
    nonterminal's sort) as soon as its children are read, and a rule that
    fails raises ParseError at the node's operator."""
    if type(sexpr) is tuple:
        leaf = ctx.leaves.get(sexpr[0])
        if leaf is None:
            leaf = ctx.leaves[sexpr[0]] = _parse_leaf(sexpr, ctx)
        return leaf
    if not sexpr:
        raise ParseError("empty application", at=sexpr)
    if type(sexpr[0]) is not tuple:
        raise ParseError("expected an operator symbol", *_where(sexpr, ctx.text), at=sexpr)
    op = sexpr[0][0]
    if op == "_":  # SMT-LIB's indexed bitvector literal (_ bvN width)
        bv = _INDEXED_BV_LITERAL.fullmatch(_print_sexpr(sexpr))
        if not bv:
            raise ParseError("expected (_ bvN width)", *_where(sexpr, ctx.text))
        try:
            lit = BVLit(int(bv[1]), int(bv[2]))
        except SygusError as exc:
            raise ParseError(str(exc), *_where(sexpr, ctx.text)) from None
        return lit, literal_sort(lit)
    args = []
    sorts = []
    for a in sexpr[1:]:
        arg, sort = _parse_term(a, ctx)
        args.append(arg)
        sorts.append(sort)
    if op == "-" and len(args) == 1 and isinstance(args[0], IntLit):
        return IntLit(-args[0].value), INT  # (- 5) is the literal -5
    macro = ctx.macros.get(op)
    try:
        if op == "ite":
            if len(args) != 3:
                raise SygusError("ite expects exactly 3 arguments")
            return Ite(*args), ite_sort(*sorts)
        if macro is not None:
            # sorted as an application of its signature, then inlined
            sort = app_sort(op, sorts, macro.signature)
            return macro.apply(args), sort
        if is_operator(op) or (ctx.synth_fun and op == ctx.synth_fun.name):
            return App(op, tuple(args)), app_sort(op, sorts, ctx.synth_fun)
    except SygusError as exc:
        raise ParseError(str(exc), *_where(sexpr, ctx.text)) from None
    raise ParseError(f"undeclared symbol {op!r}", *_where(sexpr, ctx.text))


def _parse_leaf(atom: Atom, ctx: _TermContext) -> Tuple[Term, Sort]:
    """An atom is a nonterminal, else a literal, else a declared variable."""
    text = atom[0]
    if text in ctx.nonterminals:
        return Hole(text), ctx.nonterminals[text]
    lit = _parse_literal(text)
    if lit is not None:
        return lit, literal_sort(lit)
    sort = ctx.var_sorts.get(text)
    if sort is not None:
        return Var(text), sort
    raise ParseError(f"undeclared symbol {text!r}", *_position(ctx.text, atom[1]))


@dataclass(frozen=True)
class GrammarRules:
    """A synth-fun's grammar block as read: (nonterminal, sort, rules) in the
    order given, the first being the start symbol, with nonterminal names in
    the rules read as holes. A generator entry such as (Constant Int) stops
    the reading; `generator` then names it and `nonterminals` is empty."""

    nonterminals: Tuple[Tuple[str, Sort, Tuple[Term, ...]], ...]
    generator: Optional[str] = None


def read_grammar_rules(blocks: Sequence[SExpr], signature: FunctionSignature,
                       text: str) -> GrammarRules:
    """Read a grammar block in the v2 form (a predeclaration list, then the
    grouped rules) or the v1 form (the grouped rules only); `text` is the
    source the blocks were read from. A rule not of its nonterminal's sort,
    or a start symbol not of the return sort, raises GrammarError."""
    if len(blocks) not in (1, 2):
        raise ParseError(f"expected 1 or 2 grammar blocks, got {len(blocks)}",
                         *_where(blocks[-1:], text))
    groups = blocks[-1]
    if not (type(groups) is list and groups):
        raise ParseError("malformed grammar rules", *_where(groups, text))
    for group in groups:
        if not (type(group) is list and len(group) == 3
                and type(group[0]) is tuple and type(group[2]) is list):
            raise ParseError("each grammar rule group must be (N Sort (rules...))",
                             *_where(group, text))
    sorts = {name: parse_sort(sort, text) for (name, _), sort, _ in groups}
    start = groups[0][0][0]
    if sorts[start] != signature.return_sort:
        raise GrammarError(f"start symbol {start!r} has sort {sorts[start]}, "
                           f"not the return sort {signature.return_sort}")
    ctx = _TermContext(text, dict(signature.params), None, {}, sorts)
    nonterminals = []
    for (name, _), _, entries in groups:
        rules = []
        for entry in entries:
            if _head(entry) in ("Constant", "Variable", "InputVariable",
                                "LocalVariable"):
                return GrammarRules((), _head(entry))
            try:
                rule, sort = _parse_term(entry, ctx)
                if sort != sorts[name]:
                    raise ParseError(f"{_print_sexpr(entry)} is not of sort {sorts[name]}",
                                     *_where(entry, text))
            except ParseError as exc:
                raise GrammarError(f"in the rules for {name!r}: {exc}") from None
            rules.append(rule)
        nonterminals.append((name, sorts[name], tuple(rules)))
    return GrammarRules(tuple(nonterminals))


def _parse_params(sexpr: SExpr, text: str) -> Tuple[Tuple[str, Sort], ...]:
    if type(sexpr) is not list:
        raise ParseError("expected a parameter list", *_where(sexpr, text))
    params = []
    for entry in sexpr:
        if not (type(entry) is list and len(entry) == 2):
            raise ParseError("expected (name Sort)", *_where(entry, text))
        name = _expect_atom(entry[0], "a parameter name", text)
        if any(n == name for n, _ in params):
            raise ParseError(f"parameter {name!r} declared twice", *_where(entry, text))
        params.append((name, parse_sort(entry[1], text)))
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
    user_grammar_sexpr: Optional[str] = None  # as printed in prompts
    user_grammar: Optional[GrammarRules] = None
    from_inv_constraint: bool = False
    source_token_count: int = 0


def parse_query(text: str) -> SynthQuery:
    """Parse SyGuS-IF source into a SynthQuery.

    The printed form of the result round-trips to a semantically identical
    query. Exactly one synth-fun is required. A query nested past the
    recursion limit raises ParseError.
    """
    commands, token_count = read_sexprs(text)
    try:
        return _query(commands, token_count, text)
    except ParseError as exc:
        _place(exc, text, commands)
        raise
    except RecursionError:
        raise ParseError("query nested too deeply") from None


def _query(commands: Sequence[SExpr], token_count: int, text: str) -> SynthQuery:
    logic: Optional[str] = None
    synth_fun: Optional[FunctionSignature] = None
    grammar_sexpr: Optional[str] = None
    grammar: Optional[GrammarRules] = None
    universals: list[Tuple[str, Sort]] = []
    constraints: list[Term] = []
    macros: dict[str, _Macro] = {}
    from_inv = False
    saw_check_synth = False
    # the constraints' context, made afresh after the universals change
    # (synth_fun is set before the first constraint and cannot change)
    constraint_ctx: Optional[_TermContext] = None

    for cmd in commands:
        head = _head(cmd)
        if not head:
            raise ParseError("expected a command", *_where(cmd, text), at=cmd)
        if head == "set-logic":
            if len(cmd) != 2:
                raise ParseError("set-logic expects one argument", *_where(cmd, text))
            logic = _expect_atom(cmd[1], "a logic name", text)
        elif head in ("declare-var", "declare-primed-var"):
            if len(cmd) != 3:
                raise ParseError(f"{head} expects a name and a sort", *_where(cmd, text))
            name = _expect_atom(cmd[1], "a variable name", text)
            sort = parse_sort(cmd[2], text)
            if any(n == name for n, _ in universals):
                raise ParseError(f"variable {name!r} declared twice", *_where(cmd, text))
            universals.append((name, sort))
            if head == "declare-primed-var":
                universals.append((name + "!", sort))
            constraint_ctx = None
        elif head in ("synth-fun", "synth-inv"):
            if synth_fun is not None:
                raise UnsupportedError(
                    "multiple synth-fun commands are not supported; "
                    "this tool handles exactly one function per query"
                )
            if len(cmd) < (3 if head == "synth-inv" else 4):
                raise ParseError(f"malformed {head}", *_where(cmd, text))
            name = _expect_atom(cmd[1], "a function name", text)
            params = _parse_params(cmd[2], text)
            if head == "synth-inv":
                ret = BOOL
                rest = cmd[3:]
            else:
                ret = parse_sort(cmd[3], text)
                rest = cmd[4:]
            synth_fun = FunctionSignature(name, params, ret)
            if rest:
                grammar_sexpr = " ".join(_print_sexpr(x) for x in rest)
                grammar = read_grammar_rules(rest, synth_fun, text)
                if grammar.generator is None:
                    # rules that form no grammar (dead or unknown nonterminals,
                    # cyclic unit productions) make the query malformed; a
                    # generator only keeps the enumerator out
                    from .grammar import grammar_from_rules  # it imports this module
                    grammar_from_rules(grammar)
        elif head == "define-fun":
            if len(cmd) != 5:
                raise ParseError("define-fun expects name, params, sort, body",
                                 *_where(cmd, text))
            macro = _define_fun(cmd, text, synth_fun, macros)
            macros[macro.signature.name] = macro
        elif head == "constraint":
            if len(cmd) != 2:
                raise ParseError("constraint expects one term", *_where(cmd, text))
            if synth_fun is None:
                raise ParseError("constraint before synth-fun", *_where(cmd, text))
            if constraint_ctx is None:
                constraint_ctx = _TermContext(text, dict(universals), synth_fun, macros)
            term, sort = _parse_term(cmd[1], constraint_ctx)
            if sort != BOOL:
                raise ParseError(f"constraint must be Bool, got {sort}", *_where(cmd, text))
            constraints.append(term)
        elif head == "inv-constraint":
            if len(cmd) != 5:
                raise ParseError("inv-constraint expects inv, pre, trans, post",
                                 *_where(cmd, text))
            if synth_fun is None:
                raise ParseError("inv-constraint before synth-inv", *_where(cmd, text))
            names = [_expect_atom(x, "a function name", text) for x in cmd[1:]]
            constraints.extend(_desugar_inv(names, synth_fun, macros, universals,
                                            *_where(cmd, text)))
            constraint_ctx = None
            from_inv = True
        elif head == "check-synth":
            saw_check_synth = True
        else:
            line, col = _where(cmd, text)
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
        source_token_count=token_count,
    )


def _desugar_inv(names: Sequence[str], inv: FunctionSignature,
                 macros: Mapping[str, _Macro],
                 universals: list[Tuple[str, Sort]],
                 line: int, col: int) -> list[Term]:
    """Rewrite (inv-constraint inv pre trans post) into three constraints.

    Universal variables are taken from trans's parameter list: the first half
    are the invariant's state variables, the second half the primed copies.
    Each application (inv on the state and on the primed state, pre and post
    on the state, trans on both) is sorted as a Bool application of its
    signature, with each variable of its universal's sort.
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
    sorts = dict(universals)

    state = [Var(name) for name, _ in trans.signature.params[:n]]
    primed = [Var(name) for name, _ in trans.signature.params[n:]]
    for fn, args in ((inv, state), (inv, primed), (pre.signature, state),
                     (trans.signature, state + primed), (post.signature, state)):
        try:
            sort = app_sort(fn.name, [sorts[v.name] for v in args], fn)
        except SygusError as exc:
            raise ParseError(str(exc), line, col) from None
        if sort != BOOL:
            raise ParseError(f"{fn.name!r} returns {sort}, not Bool", line, col)

    inv_state, inv_primed = App(inv.name, tuple(state)), App(inv.name, tuple(primed))
    init = App("=>", (pre.apply(state), inv_state))
    induct = App("=>", (App("and", (inv_state, trans.apply(state + primed))), inv_primed))
    safe = App("=>", (inv_state, post.apply(state)))
    return [init, induct, safe]


def _print_sexpr(sexpr: SExpr) -> str:
    if type(sexpr) is tuple:
        return sexpr[0]
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
    return conjoin(substituted_constraints(query, cand))


def substituted_constraints(query: SynthQuery, cand: Candidate) -> list[Term]:
    """The query's constraints, in order, each with cand substituted as in
    `substitute_solution`; raises if cand's signature is not the synth-fun's."""
    fn = query.synth_fun
    if not cand.signature.matches(fn):
        raise SygusError(
            f"candidate signature {cand.name}{cand.signature.param_sorts} -> "
            f"{cand.return_sort} does not match synth-fun "
            f"{fn.name}{fn.param_sorts} -> {fn.return_sort}")
    return [apply_candidate(c, cand) for c in query.constraints]


def parse_term_text(text: str, env: Mapping[str, Sort],
                    synth_fun: Optional[FunctionSignature] = None) -> Term:
    """Parse a single term over the given variable environment."""
    exprs, _ = read_sexprs(text)
    if len(exprs) != 1:
        raise ParseError(f"expected exactly one term, got {len(exprs)}", 1, 1)
    ctx = _TermContext(text, dict(env), synth_fun, {})
    try:
        return _parse_term(exprs[0], ctx)[0]
    except ParseError as exc:
        _place(exc, text, exprs)
        raise


def parse_define_fun(text: str) -> Candidate:
    """Parse one (define-fun name ((p S)...) S body) into a Candidate."""
    exprs, _ = read_sexprs(text)
    if len(exprs) != 1:
        raise ParseError("expected exactly one define-fun", 1, 1)
    try:
        return candidate_from_sexpr(exprs[0], text)
    except ParseError as exc:
        _place(exc, text, exprs)
        raise


def candidate_from_sexpr(sexpr: SExpr, text: str) -> Candidate:
    """The Candidate of a define-fun read from `text`."""
    if _head(sexpr) != "define-fun" or len(sexpr) != 5:
        raise ParseError("expected (define-fun name params sort body)",
                         *_where(sexpr, text))
    macro = _define_fun(sexpr, text, None, {})
    sig = macro.signature
    return Candidate(sig.name, sig.params, sig.return_sort, macro.body)


def _define_fun(sexpr: list, text: str, synth_fun: Optional[FunctionSignature],
                macros: dict[str, _Macro]) -> _Macro:
    """The signature and body of (define-fun name params sort body), the body
    read over the parameters. An operator's name, which would shadow the
    operator, and a body not of the declared sort raise."""
    name = _expect_atom(sexpr[1], "a function name", text)
    if is_operator(name):
        raise ParseError(f"define-fun redefines the operator {name!r}", *_where(sexpr, text))
    params = _parse_params(sexpr[2], text)
    ret = parse_sort(sexpr[3], text)
    body, got = _parse_term(sexpr[4], _TermContext(text, dict(params), synth_fun, macros))
    if got != ret:
        raise ParseError(f"define-fun {name!r} body has sort {got}, declared {ret}",
                         *_where(sexpr, text))
    return _Macro(FunctionSignature(name, params, ret), body)
