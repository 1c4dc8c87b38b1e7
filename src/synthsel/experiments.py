"""Synthetic benchmark construction for desk-scale experiments.

Real LLM runs are not reproducible offline, so experiments here pair a
generated corpus of SyGuS files -- six syntactic clusters whose feature
vectors separate cleanly -- with a mocked per-(query, solver) outcome matrix.
Each cluster has designated specialist solvers; one solver is globally
strongest but far from complete, and a slice of queries is unsolvable by
everyone, which pins the virtual-best and best-single reference points.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence, Tuple

from .bandit import SolverId
from .config import ModelConfig, RunConfig
from .orchestrator import MatrixCell, OutcomeMatrix

CLUSTERS = 6
QUERIES_PER_CLUSTER = 10

_HEADER = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
"""

# one constraint template per cluster; literal varies per line, token count
# does not, so queries inside a cluster land on (nearly) one feature point
_PATTERNS = (
    "(constraint (>= (f x y) (+ x {t})))",
    "(constraint (>= (f x y) (* x {t})))",
    "(constraint (<= (f x y) (+ (* x {t}) y)))",
    "(constraint (>= (f x y) (- y {t})))",
    "(constraint (= (mod (f x y) {t}) 0))",
    "(constraint (or (>= (f x y) {t}) (not (<= y {t}))))",
)


def cluster_query_text(cluster: int, index: int) -> str:
    n_constraints = 6 + 2 * cluster
    lines = [_PATTERNS[cluster].format(t=1 + (index + i) % 9)
             for i in range(n_constraints)]
    return _HEADER + "\n".join(lines) + "\n(check-synth)\n"


def write_cluster_corpus(directory: str | Path) -> list[str]:
    """60 files, cluster<j>_query<i>.sl; returns the sorted path list."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(CLUSTERS):
        for i in range(QUERIES_PER_CLUSTER):
            path = directory / f"cluster{j}_query{i}.sl"
            path.write_text(cluster_query_text(j, i), encoding="utf-8")
            paths.append(str(path))
    return sorted(paths)


def experiment_config(**overrides) -> RunConfig:
    defaults = dict(
        models=(ModelConfig("gpt"), ModelConfig("llama")),
        include_enumerator=True,
        time_budget=100.0,
        cost_budget=100_000.0,
        k=15,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def _cluster_of(path: str) -> Tuple[int, int]:
    name = Path(path).stem  # cluster<j>_query<i>
    j = int(name.split("_")[0].removeprefix("cluster"))
    i = int(name.split("_")[1].removeprefix("query"))
    return j, i


# specialists per cluster: (solver id string, solve seconds, solve cost)
_SPECIALISTS: Mapping[int, Tuple[Tuple[str, float, float], ...]] = {
    0: (("enumerator", 1.0, 0.4), ("gpt-p4", 5.0, 800.0)),
    1: (("gpt-p4", 5.0, 800.0), ("llama-p5", 7.0, 2000.0)),
    2: (("gpt-p4", 4.0, 700.0),),
    3: (("llama-p1", 4.0, 600.0),),
    4: (("llama-p3", 3.0, 500.0), ("gpt-p6", 6.0, 1500.0)),
    5: (("gpt-p2", 3.0, 1000.0),),
}

FAIL_TIME = 8.0   # seconds a failing solver burns (capped by its slice)
FAIL_COST = 300.0


def build_outcome_matrix(paths: Sequence[str],
                         solvers: Sequence[SolverId]) -> OutcomeMatrix:
    """Mock matrix over the cluster corpus.

    gpt-p4 additionally covers the first six queries of cluster 3 (making it
    the strongest single solver at 36/60); the last five queries of cluster 5
    are unsolvable by every solver (virtual best 55/60).
    """
    matrix: dict[str, dict[SolverId, MatrixCell]] = {}
    for path in paths:
        j, i = _cluster_of(path)
        row: dict[SolverId, MatrixCell] = {}
        able: dict[str, Tuple[float, float]] = {}
        if not (j == 5 and i >= 5):
            for name, t, c in _SPECIALISTS[j]:
                able[name] = (t, c)
            if j == 3 and i < 6:
                able["gpt-p4"] = (6.0, 900.0)
        for solver in solvers:
            key = str(solver)
            if key in able:
                t, c = able[key]
                row[solver] = MatrixCell(solves=True, time=t, cost=c,
                                         fail_time=FAIL_TIME)
            else:
                row[solver] = MatrixCell(solves=False, time=0.0,
                                         cost=FAIL_COST, fail_time=FAIL_TIME)
        matrix[path] = row
    return matrix
