"""The six prompt styles and their rendering.

Each style toggles five ingredients: natural-language constraints, the
two-stage higher-resource-language (Lisp) flow, a role sentence, an emotional
paragraph, and three few-shot examples. The flag matrix is fixed; everything
else interpolates the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple, Union

from ..sygus import (App, BoolLit, BVLit, Candidate, IntLit, Ite, SynthQuery, Term,
                     Var, print_define_fun, print_query, print_term)


@dataclass(frozen=True)
class PromptStyle:
    index: int
    natural_language: bool
    higher_resource_pl: bool
    roles: bool
    emotional_stimuli: bool
    few_shot: bool

    @staticmethod
    def from_index(index: int) -> "PromptStyle":
        try:
            return STYLE_MATRIX[index]
        except KeyError:
            raise ValueError(f"prompt style must be 1..6, got {index}") from None


STYLE_MATRIX: dict[int, PromptStyle] = {
    1: PromptStyle(1, True, True, False, False, False),
    2: PromptStyle(2, True, True, False, False, True),
    3: PromptStyle(3, False, True, False, False, False),
    4: PromptStyle(4, False, False, False, False, False),
    5: PromptStyle(5, False, True, True, False, False),
    6: PromptStyle(6, True, True, True, True, False),
}

ROLE_SENTENCE = "You are a good program synthesizer"

EMOTIONAL_PARAGRAPH = (
    "You are excited to help, and you are ready to provide the best answer "
    "possible. You understand that if you fail to provide the best answer, "
    "your client will be extremely upset. Please don't fail me."
)

FEW_SHOT_COUNT = 3


@dataclass(frozen=True)
class Message:
    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass(frozen=True)
class SolvedExample:
    """A previously solved problem, kept around for few-shot prompting. The
    query and its solution are given as text, or as the parsed query and
    the candidate, printed the first time a prompt shows them."""

    query: Union[SynthQuery, str]
    solution: Union[Candidate, str]
    logic: str

    @cached_property
    def query_text(self) -> str:
        return (self.query if isinstance(self.query, str)
                else print_query(self.query))

    @cached_property
    def solution_text(self) -> str:
        return (self.solution if isinstance(self.solution, str)
                else print_define_fun(self.solution))


# ---------------------------------------------------------------------------
# Natural-language rendering of constraints
# ---------------------------------------------------------------------------

_BINARY_PHRASES = {
    ">=": "is greater than or equal to",
    "<=": "is less than or equal to",
    ">": "is greater than",
    "<": "is less than",
    "=": "equals",
    "+": "plus",
    "-": "minus",
    "*": "times",
    "div": "divided by",
    "mod": "modulo",
}


def _nl_term(term: Term, fn_name: str) -> str:
    if isinstance(term, (IntLit, BoolLit, BVLit)):
        return print_term(term)
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Ite):
        return (f"({_nl_term(term.then_branch, fn_name)} if "
                f"{_nl_term(term.cond, fn_name)}, otherwise "
                f"{_nl_term(term.else_branch, fn_name)})")
    assert isinstance(term, App)
    op, args = term.op, term.args
    if op == fn_name:
        return f"{fn_name}(" + ", ".join(_nl_term(a, fn_name) for a in args) + ")"
    rendered = [_nl_term(a, fn_name) for a in args]
    if op in _BINARY_PHRASES and len(args) == 2:
        return f"{rendered[0]} {_BINARY_PHRASES[op]} {rendered[1]}"
    if op == "-" and len(args) == 1:
        return f"the negation of {rendered[0]}"
    if op == "and":
        return " and ".join(f"({r})" for r in rendered)
    if op == "or":
        return " or ".join(f"({r})" for r in rendered)
    if op == "not":
        return f"it is not the case that ({rendered[0]})"
    if op == "=>":
        return f"if {rendered[0]} then {rendered[1]}"
    # no phrase for this operator: keep the prefix form inline
    return print_term(term)


def translate_constraints_nl(query: SynthQuery) -> str:
    """Rule-based English reading of the constraints, one numbered sentence
    per constraint."""
    if not query.constraints:
        return "There are no constraints."
    lines = []
    for i, c in enumerate(query.constraints, start=1):
        lines.append(f"{i}. {_nl_term(c, query.synth_fun.name)}.")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The two-stage higher-resource-language (Lisp) prompts
# ---------------------------------------------------------------------------

def _listing(items: Sequence[str]) -> str:
    items = list(items)
    if not items:
        return "none"
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + ", and " + items[-1]


LISP_STAGE1_HEADER = (
    "Solve the following function '{name}' with Lisp.\n"
    "Only return one function, do not use recursion or iterations. "
    "Do not return any text that isn't code. Minimise token use."
    "It's important you keep the variables and function names the same as "
    "the original function. The following is the problem that you are meant "
    "to solve: \n"
)

LISP_STAGE2_PROMPT = (
    "Please convert the Lisp function you generated into SMT-LIB format. "
    "Follow these guidelines: \n"
    "1. Start the function with `(define-fun`.\n"
    "2. Provide only the function definition, starting with `(define-fun`.\n"
    "3. Ensure the SMT-LIB function contains exactly one function definition.\n"
    "4. Avoid using iterations, bitvec, or int notations inside the body.\n"
    "5. Check the function description in the first message to ensure "
    "variable and function names are consistent.\n"
    "6. Use the assigned values from the Lisp code during translation.\n"
    "7. Do not introduce any new variables that do not exist in the Lisp "
    "function.\n"
    "8. Pay attention to types. If there are bit-vector terms, ensure they "
    "are of the same width.\n"
    "Rules for SMT-LIB: +, -, *, ite, >, =, <, >=, <=, and, or, not, true, "
    "false."
)

# fixed Lisp -> SMT-LIB translation examples shown with the second prompt
# when the style uses few-shot examples
TRANSLATION_EXAMPLES: Tuple[Tuple[str, str], ...] = (
    ("(defun solution (x y) (if (>= x y) x y))",
     "(define-fun solution ((x Int) (y Int)) Int (ite (>= x y) x y))"),
    ("(defun solution (x) (+ x 1))",
     "(define-fun solution ((x Int)) Int (+ x 1))"),
    ("(defun solution (a b) (and (>= a 0) (>= b a)))",
     "(define-fun solution ((a Int) (b Int)) Bool (and (>= a 0) (>= b a)))"),
)


def _signature_text(query: SynthQuery) -> str:
    fn = query.synth_fun
    params = " ".join(f"({n} {s})" for n, s in fn.params)
    synth_line = f"(synth-fun {fn.name} ({params}) {fn.return_sort})"
    names = [n for n, _ in fn.params]
    sorts = [str(s) for _, s in fn.params]
    uni_names = [n for n, _ in query.universals]
    uni_sorts = [str(s) for _, s in query.universals]
    return (
        f"You need to synthesise: {synth_line}. "
        f"The function is called \"{fn.name}\" and takes arguments "
        f"{_listing(names)}. These arguments are {_listing(sorts)}.\n"
        f"Write only one Lisp-like method \"defun {fn.name}\" that never "
        f"violates the SMT-LIB constraints.\n"
        f"No built-in functions in code.\n"
        f"Universally quantified variables: {_listing(uni_names)}. The type "
        f"of universally quantified variables are {_listing(uni_sorts)}."
    )


def _constraints_block(query: SynthQuery, natural_language: bool) -> str:
    if natural_language:
        return translate_constraints_nl(query)
    if not query.constraints:
        return "There are no constraints."
    return "\n".join(f"(constraint {print_term(c)})" for c in query.constraints)


def _few_shot_block(pool: Sequence[SolvedExample], logic: str) -> str:
    chosen = select_few_shot(pool, logic)
    if not chosen:
        return ""
    parts = ["Here are examples of previously solved synthesis problems:"]
    for i, ex in enumerate(chosen, start=1):
        parts.append(f"Example {i}:\n{ex.query_text.strip()}\n"
                     f"Solution {i}:\n{ex.solution_text.strip()}")
    return "\n\n".join(parts)


def select_few_shot(pool: Sequence[SolvedExample], logic: str,
                    count: int = FEW_SHOT_COUNT) -> list[SolvedExample]:
    """The most recent solved problems with the same logic tag, padded with
    the most recent others when fewer than `count` share the logic."""
    same = [ex for ex in reversed(pool) if ex.logic == logic]
    rest = [ex for ex in reversed(pool) if ex.logic != logic]
    return (same + rest)[:count]


def remember_example(pool: list[SolvedExample], example: SolvedExample,
                     count: int = FEW_SHOT_COUNT) -> None:
    """Append `example` to `pool` and drop the oldest example of its logic
    tag beyond `count`. `select_few_shot` then picks what it would from the
    whole history: an example among the `count` most recent of the other
    tags is among the `count` most recent of its own."""
    pool.append(example)
    same = [i for i, ex in enumerate(pool) if ex.logic == example.logic]
    if len(same) > count:
        del pool[same[0]]


def render_initial_prompt(query: SynthQuery, style: PromptStyle,
                          few_shot_pool: Sequence[SolvedExample] = ()
                          ) -> list[Message]:
    """The opening message sequence for a query under a style (stage 1 for
    Lisp styles; the lone prompt otherwise)."""
    fn = query.synth_fun
    parts: list[str] = []
    if style.roles:
        parts.append(ROLE_SENTENCE)
    if style.higher_resource_pl:
        body = LISP_STAGE1_HEADER.format(name=fn.name) + "\n"
        body += _signature_text(query) + "\n"
        body += "The function must follow the constraints: \n"
        body += _constraints_block(query, style.natural_language)
        parts.append(body)
    else:
        parts.append(
            "Provide a solution to the following synthesis problem. Reply "
            f"with exactly one (define-fun ...) s-expression for "
            f"\"{fn.name}\".\n\n"
            + (print_query(query) if not style.natural_language else
               _signature_text(query) + "\nThe function must follow the "
               "constraints: \n" + _constraints_block(query, True))
        )
    if style.few_shot:
        block = _few_shot_block(few_shot_pool, query.logic)
        if block:
            parts.append(block)
    if style.emotional_stimuli:
        parts.append(EMOTIONAL_PARAGRAPH)
    return [Message("user", "\n\n".join(parts))]


def render_stage2_prompt(style: PromptStyle) -> Message:
    """The Lisp-to-SMT-LIB translation request (stage 2)."""
    body = LISP_STAGE2_PROMPT
    if style.few_shot:
        examples = "\n\n".join(
            f"Translation example {i}:\nLisp: {lisp}\nSMT-LIB: {smt}"
            for i, (lisp, smt) in enumerate(TRANSLATION_EXAMPLES, start=1)
        )
        body += "\n\n" + examples
    return Message("user", body)


# ---------------------------------------------------------------------------
# Repair feedback
# ---------------------------------------------------------------------------

EXTRACTION_FEEDBACK = (
    "Your previous answer did not contain a parsable function definition. "
    "Reply with exactly one complete definition and nothing else."
)


def counterexample_feedback(assignment: dict, violated: str) -> str:
    """Feedback naming the counterexample and the violated constraint's text."""
    rendered = ", ".join(f"{k} = {_fmt_value(v)}"
                         for k, v in sorted(assignment.items()))
    return (f"Your previous answer was incorrect. On inputs {rendered or '(none)'}, "
            f"constraint {violated} is violated.")


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)
