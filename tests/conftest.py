import stat
import sys
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import settings

from synthsel.enumerator import min_completion_costs
from synthsel.llm.backends import BackendReply
from synthsel.llm.prompts import Message
from synthsel.sygus import Grammar, parse_query

# derandomized, so every run draws the same examples; no per-example time
# limit, so a slow shared machine cannot turn a pass into a flaky failure
settings.register_profile("synthsel", derandomize=True, deadline=None)
settings.load_profile("synthsel")

MAX3_TEXT = """\
(set-logic LIA)
(synth-fun f ((v0 Int) (v1 Int) (v2 Int)) Int)
(declare-var v0 Int)
(declare-var v1 Int)
(declare-var v2 Int)
(constraint (>= (f v0 v1 v2) v0))
(constraint (>= (f v0 v1 v2) v1))
(constraint (>= (f v0 v1 v2) v2))
(constraint (or (= v0 (f v0 v1 v2)) (or (= v1 (f v0 v1 v2)) (= v2 (f v0 v1 v2)))))
(check-synth)
"""

MAX2_TEXT = """\
(set-logic LIA)
(synth-fun f ((v0 Int) (v1 Int)) Int)
(declare-var v0 Int)
(declare-var v1 Int)
(constraint (>= (f v0 v1) v0))
(constraint (>= (f v0 v1) v1))
(constraint (or (= v0 (f v0 v1)) (= v1 (f v0 v1))))
(check-synth)
"""


def deep_query_text(levels: int) -> str:
    """A legal query whose one constraint nests `levels` levels of (and true ...)."""
    body = "(and true " * levels + "(>= (f x) x)" + ")" * levels
    return ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var x Int)\n"
            f"(constraint {body})\n(check-synth)\n")


MAX3_SOLUTION = ("(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int "
                 "(ite (>= v0 v1) (ite (>= v0 v2) v0 v2) (ite (>= v1 v2) v1 v2)))")

MAX2_SOLUTION = "(define-fun f ((v0 Int) (v1 Int)) Int (ite (>= v0 v1) v0 v1))"


@pytest.fixture
def max3_query():
    return parse_query(MAX3_TEXT)


@pytest.fixture
def max2_query():
    return parse_query(MAX2_TEXT)


@dataclass
class ScriptedBackend:
    """Test double: returns canned responses in order, ignoring the prompt."""

    responses: Sequence[str]
    output_tokens: Optional[Sequence[int]] = None
    calls: list = field(default_factory=list)

    def complete(self, model: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> BackendReply:
        idx = len(self.calls)
        self.calls.append([Message(m.role, m.content) for m in messages])
        if idx >= len(self.responses):
            raise AssertionError(f"scripted backend exhausted after {idx} calls")
        out = None
        if self.output_tokens is not None:
            out = self.output_tokens[idx]
        return BackendReply(text=self.responses[idx], output_tokens=out)


@pytest.fixture
def scripted_backend_cls():
    return ScriptedBackend


def write_stub_solver(path, stdout_text: str, sleep: float = 0.0) -> str:
    """An executable that ignores stdin and prints a canned SMT reply."""
    script = (
        f"#!{sys.executable}\n"
        "import sys, time\n"
        "sys.stdin.read()\n"
        f"time.sleep({sleep})\n"
        f"sys.stdout.write({stdout_text!r})\n"
    )
    path.write_text(script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture
def stub_solver_factory(tmp_path):
    def factory(name: str, stdout_text: str, sleep: float = 0.0) -> str:
        return write_stub_solver(tmp_path / name, stdout_text, sleep)

    return factory


def random_small_grammar(rng):
    """A random integer-term grammar: <= 4 nonterminals, <= 5 productions
    each, every nonterminal guaranteed one leaf production."""
    from synthsel.sygus import App, Grammar, IntLit, INT
    from synthsel.sygus.grammar import Hole, Production

    n_nts = rng.randrange(1, 5)
    nts = [f"N{i}" for i in range(n_nts)]
    productions = {}
    for nt in nts:
        templates = [IntLit(rng.randrange(0, 10))]  # guaranteed completion
        for _ in range(rng.randrange(0, 4)):  # up to 5 productions total
            arity = rng.randrange(1, 4)
            holes = tuple(Hole(rng.choice(nts)) for _ in range(arity))
            op = "-" if arity == 1 else "+"
            templates.append(App(op, holes))
        productions[nt] = tuple(Production(nt, t) for t in templates)
    return Grammar(start=nts[0], sorts={nt: INT for nt in nts},
                   productions=productions)


@dataclass(frozen=True)
class PartialProgram:
    """A sentential form: the productions applied so far, leftmost-first, and
    the pending nonterminals left to expand."""

    choices: Tuple[int, ...]       # indices into the grammar's production list
    pending: Tuple[str, ...]
    cost: float                    # sum of edge costs spent so far


def heuristic(partial: PartialProgram, grammar: Grammar,
              mc: Optional[Mapping[str, float]] = None) -> float:
    """The A* search's estimate of the remaining cost: the sum of minimal
    completion costs over the pending nonterminals; zero exactly when the
    program is complete."""
    if mc is None:
        mc = min_completion_costs(grammar)
    return sum(mc[nt] for nt in partial.pending)
