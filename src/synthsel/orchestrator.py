"""The solve pipeline: featurize, rank solvers, allocate budgets, deploy in
sequence until one solver's answer verifies, then feed the reward back.

Also: corpus runs with online learning over a shuffled query order, Par-2
scoring, and the virtual-best upper bound.
"""

from __future__ import annotations

import dataclasses
import logging
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from .bandit import (
    BanditStore,
    ENUMERATOR_COST,
    REWARDS,
    RewardKind,
    SolveRecord,
    SolverId,
    rank_double,
    rank_single,
)
from .budget import ScheduleEntry, build_schedule, linear_schedule
from .config import RunConfig
from .enumerator import SearchStatus, cegis_solve
from .featurize import classify_logic, featurize
from .llm import ChatBackend, SolvedExample, remember_example, solve_with_llm
from .outcomes import DeploymentOutcome
from .sygus import (
    Candidate,
    IntLit,
    BoolLit,
    BVLit,
    SygusError,
    SynthQuery,
    grammar_for_query,
    parse_query,
)
from .sygus.terms import BOOL, INT, Var
from .verify import Verifier

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Learning state
# ---------------------------------------------------------------------------

@dataclass
class RunState:
    """Everything the online loop carries between queries."""

    store: BanditStore                     # every solve record of the run
    prompt_rngs: dict[str, random.Random]  # per-model prompt-layer shuffles
    portfolio: Tuple[SolverId, ...]        # the configured solvers
    # the few-shot examples a prompt may still show: see remember_example
    few_shot_pool: list[SolvedExample] = field(default_factory=list)


def new_state(config: RunConfig, seed: int) -> RunState:
    rng = random.Random(seed)
    store = BanditStore(seed=rng.randrange(2 ** 31))
    if config.state:
        folder = Path(config.state).absolute().parent
        if not folder.is_dir():  # found before the first query, not at the save
            raise ValueError(f"cannot save the state to {config.state}: "
                             f"{folder} is not a directory")
        if Path(config.state).exists():
            store = BanditStore.load(config.state, seed=rng.randrange(2 ** 31))
    return RunState(store=store, prompt_rngs={
        m.name: random.Random(rng.randrange(2 ** 31)) for m in config.models},
        portfolio=tuple(config.portfolio()))


# ---------------------------------------------------------------------------
# Deployers
# ---------------------------------------------------------------------------

class Deployer(Protocol):
    def deploy(self, query: SynthQuery, query_id: str, entry: ScheduleEntry,
               state: RunState) -> DeploymentOutcome: ...


@dataclass
class SolverDeployer:
    """Runs the real solvers: CEGIS for the enumerator, the repair loop for
    LLM-prompt pairs."""

    verifier: Verifier
    backend: Optional[ChatBackend] = None

    def deploy(self, query: SynthQuery, query_id: str, entry: ScheduleEntry,
               state: RunState) -> DeploymentOutcome:
        solver = entry.solver
        if solver.kind == "enumerator":
            return self._deploy_enumerator(query, entry)
        if self.backend is None:
            return DeploymentOutcome(solver, False, None, 0.0, 0.0,
                                     detail="no LLM backend configured")
        result = solve_with_llm(
            query, solver, entry.time, entry.cost,
            backend=self.backend, verifier=self.verifier,
            few_shot_pool=state.few_shot_pool,
        )
        return result.outcome

    def _deploy_enumerator(self, query: SynthQuery,
                           entry: ScheduleEntry) -> DeploymentOutcome:
        solver = entry.solver
        started = time.monotonic()
        try:
            grammar = grammar_for_query(query)
        except SygusError as exc:
            return DeploymentOutcome(solver, False, None,
                                     time.monotonic() - started,
                                     ENUMERATOR_COST,
                                     detail=f"no grammar: {exc}")
        result = cegis_solve(query, grammar, started + entry.time, self.verifier)
        elapsed = time.monotonic() - started
        solved = result.status is SearchStatus.SOLVED
        return DeploymentOutcome(
            solver=solver, solved=solved,
            candidate=result.candidate if solved else None,
            time=elapsed, cost=ENUMERATOR_COST,
            verdict_provenance=result.provenance, verdict_bounded=result.bounded,
            detail=(f"cegis {result.status.value}: {result.iterations} iterations, "
                    f"{result.expansions} expansions, "
                    f"{result.dequeued_complete} candidates, {result.pruned} pruned"),
        )


@dataclass(frozen=True)
class MatrixCell:
    """Mocked behavior of one solver on one query: whether it can solve it,
    and the simulated time/cost it needs (or burns when failing)."""

    solves: bool
    time: float = 0.0
    cost: float = 0.0
    fail_time: Optional[float] = None  # None: burns the whole time slice


OutcomeMatrix = Mapping[str, Mapping[SolverId, MatrixCell]]


def placeholder_candidate(query: SynthQuery) -> Candidate:
    """A syntactically valid candidate for simulated outcomes."""
    fn = query.synth_fun
    if fn.params and fn.params[0][1] == fn.return_sort:
        body = Var(fn.params[0][0])
    elif fn.return_sort == INT:
        body = IntLit(0)
    elif fn.return_sort == BOOL:
        body = BoolLit(True)
    else:
        body = BVLit(0, fn.return_sort.width or 1)
    return Candidate(fn.name, fn.params, fn.return_sort, body)


@dataclass
class MatrixDeployer:
    """Feeds precomputed per-(query, solver) outcomes through the pipeline;
    the simulated clock replaces wall time so runs are deterministic."""

    matrix: OutcomeMatrix

    def deploy(self, query: SynthQuery, query_id: str, entry: ScheduleEntry,
               state: RunState) -> DeploymentOutcome:
        cell = self.matrix[query_id][entry.solver]
        enum_cost = entry.solver.kind == "enumerator"
        if cell.solves and cell.time <= entry.time and (
                enum_cost or cell.cost <= entry.cost):
            return DeploymentOutcome(
                solver=entry.solver, solved=True,
                candidate=placeholder_candidate(query),
                time=cell.time,
                cost=ENUMERATOR_COST if enum_cost else cell.cost,
                verdict_provenance="simulated",
            )
        burn = entry.time if cell.fail_time is None else min(cell.fail_time,
                                                             entry.time)
        return DeploymentOutcome(
            solver=entry.solver, solved=False, candidate=None,
            time=burn,
            cost=ENUMERATOR_COST if enum_cost else min(cell.cost, entry.cost),
            detail="simulated failure",
        )


# ---------------------------------------------------------------------------
# Ranking and scheduling per the configured selector
# ---------------------------------------------------------------------------

def rank_solvers(config: RunConfig, state: RunState,
                 features: np.ndarray) -> list[SolverId]:
    selector = config.selector
    if selector.startswith("fixed:"):
        return [SolverId.parse(selector.split(":", 1)[1])]
    if selector in ("single", "linear-single"):
        return rank_single(state.store, features, config.k, state.portfolio)
    if selector in ("double", "linear-double"):
        return rank_double(state.store, features, config.k, state.portfolio,
                           state.prompt_rngs)
    raise ValueError(f"unknown selector {config.selector!r}")


def schedule_solvers(config: RunConfig, state: RunState,
                     features: np.ndarray,
                     ranking: Sequence[SolverId]) -> Tuple[ScheduleEntry, ...]:
    T, C = config.time_budget, config.cost_budget
    if config.selector.startswith(("fixed:", "linear-")):
        # a fixed selector ranks one solver, whose share is all of T and C
        return linear_schedule(ranking, T, C)
    return build_schedule(ranking, state.store, features, config.k, T, C,
                          delta_time=config.delta1, delta_cost=config.delta2)


# ---------------------------------------------------------------------------
# Per-query pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryRecord:
    query_id: str
    schedule: Tuple[Tuple[str, float, float], ...]  # (solver, time, cost)
    outcomes: Tuple[DeploymentOutcome, ...]
    winner: Optional[SolverId]
    solved: bool
    elapsed: float  # total charged time across deployed solvers

    def to_json(self) -> dict:
        return {
            "query_id": self.query_id,
            "schedule": [list(e) for e in self.schedule],
            "outcomes": [o.to_json() for o in self.outcomes],
            "winner": self.winner.to_json() if self.winner else None,
            "solved": self.solved,
            "elapsed": self.elapsed,
        }

    @staticmethod
    def from_json(obj: Mapping) -> "QueryRecord":
        return QueryRecord(
            query_id=obj["query_id"],
            schedule=tuple((e[0], float(e[1]), float(e[2]))
                           for e in obj["schedule"]),
            outcomes=tuple(DeploymentOutcome.from_json(o)
                           for o in obj["outcomes"]),
            winner=(SolverId.from_json(obj["winner"])
                    if obj.get("winner") else None),
            solved=bool(obj["solved"]),
            elapsed=float(obj["elapsed"]),
        )


def all_rewards(t: float, c: float, solved: bool,
                T: float, C: float) -> dict[str, float]:
    """Every kind of reward of one outcome under budgets T, C."""
    return {kind: RewardKind(kind, T, C).compute(t, c, solved) for kind in REWARDS}


def solve_query(query: SynthQuery, query_id: str, config: RunConfig,
                state: RunState, deployer: Deployer) -> QueryRecord:
    """Run the full pipeline on one query and update the learning state."""
    features = featurize(query, config.featurizer())
    ranking = rank_solvers(config, state, features)
    schedule = schedule_solvers(config, state, features, ranking)

    outcomes: list[DeploymentOutcome] = []
    winner: Optional[SolverId] = None
    for entry in schedule:
        if entry.time <= 0:
            continue
        raw = deployer.deploy(query, query_id, entry, state)
        charged = min(raw.time, entry.time + config.grace)
        # the charged time is clamped, the cost reward too: keep overruns visible
        notes = [raw.detail] if raw.detail else []
        if raw.time > charged:
            notes.append(f"overran slice: wall {raw.time:.3f} s")
        if raw.cost > entry.cost:
            notes.append(f"overran cost slice: {raw.cost:g} of {entry.cost:g}")
        detail = "; ".join(notes)
        rewards = all_rewards(charged, raw.cost, raw.solved,
                              config.time_budget, config.cost_budget)
        outcome = dataclasses.replace(raw, time=charged, rewards=rewards, detail=detail)
        outcomes.append(outcome)
        if outcome.solved:
            winner = outcome.solver
            break

    solved = winner is not None
    if solved:
        final = outcomes[-1]
        reward = final.rewards[config.reward]
        state.store.append(SolveRecord(tuple(features), winner, reward,
                                       final.time, final.cost))
        if final.candidate is not None:
            remember_example(state.few_shot_pool, SolvedExample(
                query, final.candidate, classify_logic(query)))

    return QueryRecord(
        query_id=query_id,
        schedule=tuple((str(e.solver), e.time, e.cost) for e in schedule),
        outcomes=tuple(outcomes),
        winner=winner,
        solved=solved,
        elapsed=sum(o.time for o in outcomes),
    )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def _par2_term(solved: bool, elapsed: float, T: float) -> float:
    """One query's share of a Par-2 score: its solve time, or twice the
    per-query time budget when unsolved."""
    return elapsed if solved else 2.0 * T


def par2(records: Sequence[QueryRecord], T: float) -> float:
    """Sum of the records' Par-2 terms; lower is better."""
    if T <= 0:
        raise ValueError(f"time budget must be positive, got {T}")
    return sum(_par2_term(r.solved, r.elapsed, T) for r in records)


@dataclass(frozen=True)
class VirtualBestReport:
    solved: int
    total: int
    par2: float
    total_reward: float
    choices: Tuple[Tuple[str, str], ...]  # (query_id, solver)


def virtual_best(matrix: Mapping[str, Mapping[SolverId, DeploymentOutcome]],
                 reward_kind: str, T: float) -> VirtualBestReport:
    """Pick, per query, the solver with the highest stored reward of the given
    kind; aggregates the resulting solves, Par-2, and total reward."""
    solver_sets = {frozenset(row.keys()) for row in matrix.values()}
    if len(solver_sets) > 1:
        raise ValueError("incomplete outcome matrix: rows cover different solvers")
    solved = 0
    score = 0.0
    total_reward = 0.0
    choices: list[Tuple[str, str]] = []
    for qid in sorted(matrix):
        row = matrix[qid]
        best_solver, best = max(
            row.items(), key=lambda kv: (kv[1].reward(reward_kind),
                                         -kv[1].time, str(kv[0])))
        choices.append((qid, str(best_solver)))
        total_reward += best.reward(reward_kind)
        if best.solved:
            solved += 1
        score += _par2_term(best.solved, best.time, T)
    return VirtualBestReport(solved=solved, total=len(matrix), par2=score,
                             total_reward=total_reward,
                             choices=tuple(choices))


# ---------------------------------------------------------------------------
# Corpus runs
# ---------------------------------------------------------------------------

QueryLoader = Callable[[str], SynthQuery]


def load_query_file(path: str) -> SynthQuery:
    with open(path, encoding="utf-8") as fh:
        return parse_query(fh.read())


@dataclass
class RunReport:
    seed: int
    time_budget: float
    cost_budget: float
    selector: str
    reward: str
    records: list[QueryRecord]
    skipped: list[str] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return len(self.records)

    @property
    def n_solved(self) -> int:
        return sum(1 for r in self.records if r.solved)

    def reward_total(self, kind: str) -> float:
        """Sum over solved queries of the final outcome's stored reward."""
        return sum(r.outcomes[-1].reward(kind) for r in self.records if r.solved)

    def aggregates(self) -> dict:
        n = self.n_queries
        solved = self.n_solved
        total_time = sum(r.elapsed for r in self.records)
        total_cost = sum(sum(o.cost for o in r.outcomes) for r in self.records)
        return {
            "n_queries": n,
            "n_solved": solved,
            "pct_solved": (100.0 * solved / n) if n else 0.0,
            "par2": par2(self.records, self.time_budget),
            "reward_time": self.reward_total("time"),
            "reward_cost": self.reward_total("cost"),
            "reward_binary": float(solved),
            "avg_time": (total_time / n) if n else 0.0,
            "avg_cost": (total_cost / n) if n else 0.0,
            "skipped": len(self.skipped),
        }

    def cumulative_par2(self) -> list[Tuple[int, float]]:
        out = []
        acc = 0.0
        for i, r in enumerate(self.records, start=1):
            acc += _par2_term(r.solved, r.elapsed, self.time_budget)
            out.append((i, acc))
        return out

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "time_budget": self.time_budget,
            "cost_budget": self.cost_budget,
            "selector": self.selector,
            "reward": self.reward,
            "records": [r.to_json() for r in self.records],
            "skipped": list(self.skipped),
            "aggregates": self.aggregates(),
        }

    @staticmethod
    def from_json(obj: Mapping) -> "RunReport":
        return RunReport(
            seed=int(obj["seed"]),
            time_budget=float(obj["time_budget"]),
            cost_budget=float(obj["cost_budget"]),
            selector=obj["selector"],
            reward=obj["reward"],
            records=[QueryRecord.from_json(r) for r in obj["records"]],
            skipped=list(obj.get("skipped", [])),
        )


def run_corpus(paths: Sequence[str], config: RunConfig, seed: int,
               deployer: Deployer,
               loader: QueryLoader = load_query_file,
               state: Optional[RunState] = None) -> RunReport:
    """One online pass over the corpus in a seed-shuffled order, from `state`
    (by default `new_state(config, seed)`, which loads the state file).

    An interrupt ends the pass early with a report of the queries done. Any
    other exception propagates with that partial report attached as its
    `partial_report`. Either way the learned state is saved first."""
    ordered = sorted(str(p) for p in paths)  # portable pre-shuffle order
    random.Random(seed).shuffle(ordered)
    if state is None:
        state = new_state(config, seed)
    report = RunReport(
        seed=seed,
        time_budget=config.time_budget,
        cost_budget=config.cost_budget,
        selector=config.selector,
        reward=config.reward,
        records=[],
    )
    try:
        for path in ordered:
            try:
                query = loader(path)
            except (OSError, SygusError) as exc:
                log.warning("skipping unreadable query %s: %s", path, exc)
                report.skipped.append(path)
                continue
            report.records.append(solve_query(query, path, config, state,
                                              deployer))
    except KeyboardInterrupt:
        # interrupted runs still flush what they have
        log.warning("interrupted after %d queries; reporting partial results",
                    report.n_queries)
    except Exception as exc:
        exc.partial_report = report  # type: ignore[attr-defined]
        raise
    finally:  # a crash still keeps the records learned so far
        if config.state:
            state.store.save(config.state)
    return report


@dataclass
class MultiRunSummary:
    reports: list[RunReport]
    mean_solved: float
    std_solved: float

    def to_json(self) -> dict:
        return {
            "runs": len(self.reports),
            "mean_solved": self.mean_solved,
            "std_solved": self.std_solved,
            "per_run": [r.aggregates() for r in self.reports],
        }


def run_corpus_multi(paths: Sequence[str], config: RunConfig, seed: int,
                     runs: int, deployer: Deployer,
                     loader: QueryLoader = load_query_file) -> MultiRunSummary:
    """Repeat run_corpus with derived seeds; reports mean and standard
    deviation of the number of queries solved."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    # independent runs: no learning-state file chaining between them
    per_run_config = dataclasses.replace(config, state=None)
    reports = [
        run_corpus(paths, per_run_config, seed * 100_003 + i, deployer, loader)
        for i in range(runs)
    ]
    solved = np.array([r.n_solved for r in reports], dtype=float)
    return MultiRunSummary(
        reports=reports,
        mean_solved=float(solved.mean()),
        std_solved=float(solved.std()),
    )
