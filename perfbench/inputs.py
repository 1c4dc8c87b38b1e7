"""Seeded inputs for the benchmark workloads.

Everything here runs before timing starts. The program only ever sees the
files these functions write: SyGuS queries, a warm learning-state file and
replay fixtures. The same seed always gives byte-identical files.

Each generator keeps the *mix* of a workload fixed and lets the seed vary
only what should not change the amount of work: variable names, literal
values and query order. That keeps run-to-run spread small enough for the
bounds in BENCHMARK.json while still letting a claim be confirmed on a
fresh seed.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

WORKLOADS = ("enum-corpus", "select-stream", "llm-repair")

# The default seed for manual runs, and a seed kept back from tuning: a gain
# claimed while working on DEFAULT_SEED is confirmed on HELD_OUT_SEED.
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729

# The seed handed to run_corpus (the program's own query order and
# exploration shuffles) and the seed of the warm store select-stream starts
# from. Both are fixed, so the workload seed changes the queries but not
# the learned state or the exploration luck: drawn from the workload seed,
# which solver a region of the stream locks onto first swung token cost per
# query by up to 40% between seeds, far more than a change to the code would.
PROGRAM_SEED = 7

# Budgets of every workload: the RunConfig defaults, stated once here.
TIME_BUDGET = 100.0
COST_BUDGET = 100_000.0

LLM_MODELS = ("gpt", "llama")

# select-stream: records of past solves in the warm store, and seeded
# variants added to the 60-query cluster corpus
WARM_RECORDS = 3000
STREAM_VARIANTS_PER_CLUSTER = 5

# The seven counterexamples that the max3 CEGIS run reaches before its
# deadline; the frozen max3 phase searches against exactly this set.
MAX3_COUNTEREXAMPLES = (
    {"v0": 0, "v1": 0, "v2": 0},
    {"v0": -32, "v1": -32, "v2": -31},
    {"v0": -32, "v1": -31, "v2": -32},
    {"v0": -32, "v1": -31, "v2": -31},
    {"v0": -32, "v1": -31, "v2": -30},
    {"v0": -32, "v1": -30, "v2": -31},
    {"v0": -31, "v1": -32, "v2": -32},
)

BUNDLED = ("max2", "double_pbe", "counter_inv")

_NAMES = ("a", "b", "u", "v", "p", "q", "m", "n", "s", "t", "x", "y")
_BV8 = "(_ BitVec 8)"


@dataclass(frozen=True)
class GenQuery:
    """One query: file stem, source text and family. Generated queries also
    carry their function signature and a reference solution body; the
    bundled files have neither (the benchmark checks answers to them but
    never answers them itself)."""

    name: str
    text: str
    family: str
    solution: Optional[str] = None
    fn: str = ""
    params: tuple[tuple[str, str], ...] = ()   # (name, sort text)
    ret: str = "Int"


def _rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _synth_fun(family: str, fn: str, params: Sequence[tuple[str, str]],
               ret: str, logic: str, constraints: str,
               solution: str) -> GenQuery:
    plist = " ".join(f"({n} {s})" for n, s in params)
    decls = "".join(f"(declare-var {n} {s})\n" for n, s in params)
    text = (f"(set-logic {logic})\n(synth-fun {fn} ({plist}) {ret})\n{decls}"
            f"{constraints}(check-synth)\n")
    return GenQuery("", text, family, solution, fn, tuple(params), ret)


def _query_min2(fn: str, rng: random.Random) -> GenQuery:
    a, b = rng.sample(_NAMES, 2)
    call = f"({fn} {a} {b})"
    return _synth_fun(
        "min2", fn, ((a, "Int"), (b, "Int")), "Int", "LIA",
        f"(constraint (<= {call} {a}))\n(constraint (<= {call} {b}))\n"
        f"(constraint (or (= {a} {call}) (= {b} {call})))\n",
        f"(ite (<= {a} {b}) {a} {b})")


def _query_clamp(fn: str, rng: random.Random, upper: bool) -> GenQuery:
    x = rng.choice(_NAMES)
    c = rng.randint(2, 9)
    op = "<=" if upper else ">="
    call = f"({fn} {x})"
    return _synth_fun(
        "clamp", fn, ((x, "Int"),), "Int", "LIA",
        f"(constraint ({op} {call} {x}))\n(constraint ({op} {call} {c}))\n"
        f"(constraint (or (= {call} {x}) (= {call} {c})))\n",
        f"(ite (>= {x} {c}) {c} {x})" if upper else f"(ite (>= {x} {c}) {x} {c})")


# each form appears once per corpus, so the mix of search effort is the same
# for every seed
_LINEAR_FORMS = ("(+ (+ {x} {y}) {c})", "(+ {x} {c})", "(- (+ {x} {c}) {y})",
                 "(+ {y} {c})")


def _query_linear(fn: str, rng: random.Random, form: int) -> GenQuery:
    x, y = rng.sample(_NAMES, 2)
    body = _LINEAR_FORMS[form].format(x=x, y=y, c=rng.randint(2, 9))
    return _synth_fun("linear", fn, ((x, "Int"), (y, "Int")), "Int", "LIA",
                      f"(constraint (= ({fn} {x} {y}) {body}))\n", body)


def _query_pbe(fn: str, rng: random.Random) -> GenQuery:
    # f(x) = x + c from three examples; x = 0 is one of them, so c itself is
    # in the literal pool and the search effort does not depend on c
    x = rng.choice(_NAMES)
    c = rng.randint(2, 9)
    points = [0, *sorted(rng.sample(range(1, 7), 2))]
    return _synth_fun(
        "pbe", fn, ((x, "Int"),), "Int", "LIA",
        "".join(f"(constraint (= ({fn} {p}) {p + c}))\n" for p in points),
        f"(+ {x} {c})")


def _query_inv(fn: str, rng: random.Random, step: int) -> GenQuery:
    x = rng.choice(_NAMES)
    bound = rng.randint(0, 9)
    text = (
        "(set-logic LIA)\n"
        f"(synth-inv {fn} (({x} Int)))\n"
        f"(define-fun pre (({x} Int)) Bool (= {x} 0))\n"
        f"(define-fun trans (({x} Int) ({x}! Int)) Bool (= {x}! (+ {x} {step})))\n"
        f"(define-fun post (({x} Int)) Bool (>= {x} (- 0 {bound})))\n"
        f"(inv-constraint {fn} pre trans post)\n(check-synth)\n")
    return GenQuery("", text, "inv", f"(>= {x} 0)", fn, ((x, "Int"),), "Bool")


_BV_FORMS = ("(bvand {x} (bvnot {y}))", "(bvor {x} (bvnot {y}))",
             "(bvand (bvnot {x}) {y})", "(bvxor {x} (bvnot {y}))",
             "(bvnot (bvand {x} {y}))")


def _query_bv(fn: str, rng: random.Random, form: int) -> GenQuery:
    x, y = rng.sample(_NAMES, 2)
    body = _BV_FORMS[form].format(x=x, y=y)
    return _synth_fun("bv", fn, ((x, _BV8), (y, _BV8)), _BV8, "BV",
                      f"(constraint (= ({fn} {x} {y}) {body}))\n", body)


def _family_mix(rng: random.Random, fn_name: Callable[[str], str]) -> list[GenQuery]:
    """The fixed family mix shared by enum-corpus and llm-repair: A*-bound
    queries (min2, clamp) next to verify-bound ones (BV, invariants, and
    linear and PBE targets that the search reaches at once). The five
    clamps cost the search the same; they are the slowest fifth of the
    enum-corpus stream, so its p90 latency falls inside one group of equal
    queries rather than on the edge between two."""
    out = [_query_min2(fn_name("f"), rng) for _ in range(2)]
    out += [_query_clamp(fn_name("f"), rng, upper)
            for upper in (False, False, False, True, True)]
    out += [_query_linear(fn_name("f"), rng, form) for form in range(len(_LINEAR_FORMS))]
    out += [_query_pbe(fn_name("f"), rng) for _ in range(3)]
    out += [_query_inv(fn_name("inv"), rng, step) for step in (1, 2, 3)]
    out += [_query_bv(fn_name("f"), rng, form) for form in range(len(_BV_FORMS))]
    return [GenQuery(f"{q.family}{i:02d}", q.text, q.family, q.solution,
                     q.fn, q.params, q.ret) for i, q in enumerate(out)]


def enum_corpus(seed: int, bundled_dir: Path) -> list[GenQuery]:
    """Seeded family mix plus the bundled max2, double_pbe and counter_inv."""
    queries = _family_mix(_rng(seed, "enum-corpus"), lambda base: base)
    for name in BUNDLED:
        text = (bundled_dir / f"{name}.sl").read_text(encoding="utf-8")
        queries.append(GenQuery(name, text, "bundled"))
    return queries


def llm_corpus(seed: int, copies: int = 2) -> list[GenQuery]:
    """The family mix `copies` times over, each query with its own function
    name so the scripted model can tell which problem a prompt is about."""
    rng = _rng(seed, "llm-repair")
    counter = iter(range(100_000))
    out = []
    for c in range(copies):
        mix = _family_mix(rng, lambda base: f"{base}{next(counter):03d}")
        out += [GenQuery(f"{q.name}c{c}", q.text, q.family, q.solution,
                         q.fn, q.params, q.ret) for q in mix]
    return out


def write_queries(directory: Path, queries: Sequence[GenQuery]) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for q in queries:
        path = directory / f"{q.name}.sl"
        path.write_text(q.text, encoding="utf-8")
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# select-stream: cluster corpus, seeded variants and a warm store
# ---------------------------------------------------------------------------

def _variant_text(cluster: int, rng: random.Random) -> str:
    """A cluster-style query with one or two constraints more or fewer than
    the cluster's own queries, so it sits near, not on, the cluster."""
    from synthsel.experiments import cluster_query_text

    def constraints() -> list[str]:
        text = cluster_query_text(cluster, rng.randrange(9))
        return [ln for ln in text.splitlines() if ln.startswith("(constraint")]

    header = cluster_query_text(cluster, 0).splitlines()[:4]
    body = constraints()
    delta = rng.choice((-2, -1, 1, 2))
    body = body[:delta] if delta < 0 else body + constraints()[:delta]
    return "\n".join(header + body) + "\n(check-synth)\n"


def select_stream(seed: int, directory: Path) -> list[str]:
    """The 60-query cluster corpus plus a fixed number of seeded variants per
    cluster. Variant files follow the cluster<j>_query<i> naming with
    i >= 10, so the experiment's outcome matrix covers them."""
    from synthsel.experiments import CLUSTERS, write_cluster_corpus

    paths = write_cluster_corpus(directory)
    rng = _rng(seed, "select-stream")
    for j in range(CLUSTERS):
        for k in range(STREAM_VARIANTS_PER_CLUSTER):
            path = directory / f"cluster{j}_query{10 + k}.sl"
            path.write_text(_variant_text(j, rng), encoding="utf-8")
            paths.append(str(path))
    return sorted(paths)


def warm_store(path: Path, history_dir: Path) -> None:
    """Write WARM_RECORDS past solves of cluster-style history queries: the
    history query's features (token count jittered by up to 3), a solver
    the outcome matrix marks as able, its time and cost jittered by up to
    half, and the time reward."""
    from synthsel.bandit import ENUMERATOR_COST, BanditStore, RewardKind, SolveRecord
    from synthsel.experiments import CLUSTERS, build_outcome_matrix, experiment_config
    from synthsel.featurize import FEATURE_NAMES, featurize
    from synthsel.orchestrator import load_query_file

    rng = _rng(PROGRAM_SEED, "warm-store")
    config = experiment_config()
    history_dir.mkdir(parents=True, exist_ok=True)
    history = []
    for j in range(CLUSTERS):
        for i in range(5):  # i < 5: every cluster has able solvers
            hist = history_dir / f"cluster{j}_query{i}.sl"
            hist.write_text(_variant_text(j, rng), encoding="utf-8")
            history.append(str(hist))
    matrix = build_outcome_matrix(history, config.portfolio())
    length = FEATURE_NAMES.index("length")
    pool = []
    for hist in history:
        features = list(featurize(load_query_file(hist), config.featurizer()))
        able = [(s, cell) for s, cell in matrix[hist].items() if cell.solves]
        pool.append((features, able))
    reward = RewardKind("time", TIME_BUDGET, COST_BUDGET)
    records = []
    for _ in range(WARM_RECORDS):
        features, able = rng.choice(pool)
        solver, cell = rng.choice(able)
        t = cell.time * rng.uniform(0.5, 1.5)
        c = (ENUMERATOR_COST if solver.kind == "enumerator"
             else cell.cost * rng.uniform(0.5, 1.5))
        vec = list(features)
        vec[length] = max(1.0, vec[length] + rng.randint(-3, 3))
        records.append(SolveRecord(tuple(vec), solver,
                                   reward.compute(t, c, True), t, c))
    BanditStore(records=records).save(path)


# ---------------------------------------------------------------------------
# llm-repair: a scripted model with per-(model, style) behaviour
# ---------------------------------------------------------------------------

# What each (model, prompt style) pair does on a query of the first family;
# other families rotate the styles (see profile()), so no pair is best
# everywhere and the bandit has to learn per region of feature space:
#   ("direct",)         the first SMT-LIB answer is right
#   ("repair", n)       n wrong answers, each refuted by a counterexample, then right
#   ("never",)          wrong answers until the attempts run out
#   ("garbage",)        text without any definition, every time
#   ("garbage-then",)   one unparsable reply, then a right answer
# Lisp styles (all but 4) first answer with a (defun ...) and go through the
# translation stage unless their profile is garbage.
PROFILES: Mapping[tuple[str, int], tuple] = {
    ("gpt", 1): ("repair", 1),
    ("gpt", 2): ("direct",),
    ("gpt", 3): ("never",),
    ("gpt", 4): ("repair", 2),
    ("gpt", 5): ("garbage",),
    ("gpt", 6): ("repair", 3),
    ("llama", 1): ("never",),
    ("llama", 2): ("repair", 1),
    ("llama", 3): ("garbage-then",),
    ("llama", 4): ("garbage",),
    ("llama", 5): ("repair", 2),
    ("llama", 6): ("never",),
}

GARBAGE = ("Let me think about this step by step. The function should compare "
           "the inputs and return the right one, so the answer follows from "
           "the constraints above.")


_FAMILIES = ("min2", "clamp", "linear", "pbe", "inv", "bv")


def profile(model: str, style: int, family: str) -> tuple:
    shift = _FAMILIES.index(family)
    return PROFILES[(model, (style - 1 + shift) % 6 + 1)]


def profile_solves(model: str, style: int, family: str) -> bool:
    return profile(model, style, family)[0] not in ("never", "garbage")


def _wrong_bodies(q: GenQuery) -> list[str]:
    """Wrong answers: plainly wrong ones, and one wrong at a single point
    (inside the verifier's grid, and an example point of the PBE queries),
    which costs the verifier a longer sweep to refute."""
    first = q.params[0][0]
    sol = q.solution
    if q.ret == "Bool":
        return [f"(= {first} 0)", f"(and {sol} (<= {first} 20))", f"(not {sol})"]
    if q.ret == _BV8:
        return [f"(bvadd {sol} #x01)",
                f"(ite (= {first} #x11) (bvnot {sol}) {sol})",
                f"(bvxor {sol} #x80)"]
    return [f"(+ {sol} 1)", f"(ite (= {first} 0) (+ {sol} 1) {sol})",
            f"(- {sol} 2)"]


def prompt_style(messages) -> int:
    """Which of the six styles a conversation uses, read off its prompts.
    Style 2 is style 1 plus examples, so before the few-shot pool fills and
    before its translation prompt it reads as style 1."""
    from synthsel.llm import EMOTIONAL_PARAGRAPH, ROLE_SENTENCE

    first = messages[0].content
    users = " ".join(m.content for m in messages if m.role == "user")
    if "with Lisp." not in first:
        return 4
    if EMOTIONAL_PARAGRAPH in first:
        return 6
    if first.startswith(ROLE_SENTENCE):
        return 5
    if "Here are examples" in first or "Translation example" in users:
        return 2
    if "(constraint " in first:
        return 3
    return 1


class ScriptedModel:
    """A deterministic stand-in for two chat models. It reads which problem
    and prompt style a conversation has and answers by its PROFILES entry.
    Replies depend only on the messages, so recording and then replaying
    them gives the same conversation."""

    def __init__(self, queries: Sequence[GenQuery]) -> None:
        self.by_fn = {q.fn: q for q in queries}

    def reply(self, model: str, messages) -> str:
        first = messages[0].content
        q = self.by_fn[re.search(r"\(synth-fun (\S+) \(", first).group(1)]
        kind, *arg = profile(model, prompt_style(messages), q.family)
        replies = [m.content for m in messages if m.role == "assistant"]
        if kind == "garbage" or (kind == "garbage-then" and not replies):
            return GARBAGE
        lisp_stage = not any("convert the Lisp function" in m.content
                             for m in messages if m.role == "user")
        if "with Lisp." in first and lisp_stage:
            names = " ".join(n for n, _ in q.params)
            return f"(defun {q.fn} ({names}) {q.solution})"
        answered = sum(1 for r in replies if "(define-fun" in r)
        wrong = _wrong_bodies(q)
        if kind == "never":
            body = wrong[answered % len(wrong)]
        elif kind == "repair" and answered < arg[0]:
            body = wrong[answered]
        else:
            body = q.solution
        plist = " ".join(f"({n} {s})" for n, s in q.params)
        return f"(define-fun {q.fn} ({plist}) {q.ret} {body})"

    def complete(self, model, messages, timeout=None):
        from synthsel.llm import BackendReply

        return BackendReply(text=self.reply(model, messages))


# ---------------------------------------------------------------------------
# Run configuration of each workload
# ---------------------------------------------------------------------------

def run_config(workload: str, state: Optional[str] = None):
    """enum-corpus: the enumerator alone with the internal verifier.
    select-stream: the single-layer selector with the time reward over the
    experiment's portfolio, starting from the warm store in `state`.
    llm-repair: the linear two-layer selector with the cost reward over two
    models and six styles, no enumerator, empty stores."""
    from synthsel.config import ModelConfig, RunConfig
    from synthsel.experiments import experiment_config

    budgets = dict(time_budget=TIME_BUDGET, cost_budget=COST_BUDGET)
    if workload == "enum-corpus":
        return RunConfig(selector="fixed:enumerator", reward="time", **budgets)
    if workload == "select-stream":
        return experiment_config(selector="single", reward="time", state=state,
                                 **budgets)
    if workload == "llm-repair":
        return RunConfig(selector="linear-double", reward="cost",
                         models=tuple(ModelConfig(m) for m in LLM_MODELS),
                         include_enumerator=False, **budgets)
    raise ValueError(f"unknown workload {workload!r}")
