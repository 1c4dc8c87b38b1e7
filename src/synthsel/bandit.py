"""k-nearest-neighbor contextual bandit over solvers.

A solver is either the built-in enumerator or an LLM paired with one of six
prompt styles. Records of successful solves, labeled with the reward earned,
form the database; ranking a new query scores each solver by the sum of its
rewards among the k nearest recorded queries and appends never-seen solvers
in random order.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Tuple, TypeVar

import numpy as np

from .featurize import distance

ENUMERATOR_KIND = "enumerator"
LLM_KIND = "llm"
PROMPT_STYLE_RANGE = range(1, 7)


@dataclass(frozen=True)
class SolverId:
    kind: str  # "enumerator" | "llm"
    model: Optional[str] = None
    style: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == ENUMERATOR_KIND:
            if self.model is not None or self.style is not None:
                raise ValueError("the enumerator takes no model or prompt style")
        elif self.kind == LLM_KIND:
            if not self.model:
                raise ValueError("llm solvers need a model name")
            if self.style not in PROMPT_STYLE_RANGE:
                raise ValueError(f"prompt style must be 1..6, got {self.style}")
        else:
            raise ValueError(f"unknown solver kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == ENUMERATOR_KIND:
            return ENUMERATOR_KIND
        return f"{self.model}-p{self.style}"

    @staticmethod
    def enumerator() -> "SolverId":
        return SolverId(ENUMERATOR_KIND)

    @staticmethod
    def llm(model: str, style: int) -> "SolverId":
        return SolverId(LLM_KIND, model, style)

    @staticmethod
    def parse(text: str) -> "SolverId":
        if text == ENUMERATOR_KIND:
            return SolverId.enumerator()
        model, sep, style = text.rpartition("-p")
        if sep and model and style.isdigit():
            return SolverId.llm(model, int(style))
        raise ValueError(f"cannot parse solver id {text!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "model": self.model, "style": self.style}

    @staticmethod
    def from_json(obj: Mapping) -> "SolverId":
        return SolverId(obj["kind"], obj.get("model"), obj.get("style"))


@dataclass(frozen=True)
class SolveRecord:
    """One successful solve: where it sat in feature space, who solved it,
    the reward earned, the elapsed seconds, and the token cost."""

    features: Tuple[float, ...]
    solver: SolverId
    reward: float
    time: float
    cost: float

    def __post_init__(self) -> None:
        features = self.features
        # a tuple of floats is kept as is, so a store's interned point stays shared
        if type(features) is not tuple or not all(
                type(x) is float for x in features):
            object.__setattr__(self, "features", tuple(map(float, features)))
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"reward must be in [0, 1], got {self.reward}")
        if not (math.isfinite(self.time) and math.isfinite(self.cost)
                and all(map(math.isfinite, self.features))):
            raise ValueError("features, time and cost must be finite")
        if self.time < 0 or self.cost < 0:
            raise ValueError("time and cost must be nonnegative")

    def to_json(self) -> dict:
        return {
            "features": list(self.features),
            "solver": self.solver.to_json(),
            "reward": self.reward,
            "time": self.time,
            "cost": self.cost,
        }

    @staticmethod
    def from_json(obj: Mapping) -> "SolveRecord":
        return SolveRecord(
            features=tuple(obj["features"]),
            solver=SolverId.from_json(obj["solver"]),
            reward=float(obj["reward"]),
            time=float(obj["time"]),
            cost=float(obj["cost"]),
        )


class BanditStore:
    """Append-only solve records, kept only as the columns the k-NN selector
    reads, and the exploration RNG.

    Each distinct feature point is interned to a small int, as each distinct
    SolverId is: `points` holds the distinct points, one row each in the
    order first seen, and `solvers` the distinct solvers. Each solver also
    gets the int of its model-layer arm when first seen: its LLM, or the
    enumerator, which is its own arm. Row i
    of the point, solver, reward, time and cost columns is the i-th record
    appended; `records` rebuilds records from those rows when asked. Each
    solver also keeps its own row indices in insertion order, which stay
    valid because rows are only ever appended. Every array grows by doubling
    its capacity."""

    def __init__(self, seed: int = 0,
                 records: Iterable[SolveRecord] = ()) -> None:
        self.rng = random.Random(seed)
        self.solvers: list[SolverId] = []
        self._solver_ids: dict[SolverId, int] = {}
        self._model_ids: dict[str, int] = {}  # by model name, or "enumerator"
        self._solver_model = _Grown(np.intp)  # by solver int
        self._point_ids: dict[Tuple[float, ...], int] = {}
        self._point_tuples: list[Tuple[float, ...]] = []  # by point int
        self._points = _Grown(float, (0,))
        self._point = _Grown(np.intp)
        self._solver = _Grown(np.intp)
        self._reward = _Grown(float)
        self._time = _Grown(float)
        self._cost = _Grown(float)
        self._own: list[_Grown] = []
        # the last nearest_order: its key and its result
        self._order_key: Optional[tuple] = None
        self._order = np.empty(0, dtype=np.intp)
        # (path, record count, size, mtime) of the file as the last load or
        # save left it: a save there appends only the newer records
        self._file: Optional[tuple] = None
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return self._point.size

    @property
    def records(self) -> "RecordView":
        return RecordView(self)

    @property
    def points(self) -> np.ndarray:
        """The distinct feature points, one row each, in the order first seen."""
        return self._points.values

    @property
    def point_column(self) -> np.ndarray:
        return self._point.values

    @property
    def features(self) -> np.ndarray:
        """The (n, d) feature matrix, gathered from the distinct points."""
        return self.points[self.point_column]

    @property
    def solver_column(self) -> np.ndarray:
        return self._solver.values

    @property
    def reward_column(self) -> np.ndarray:
        return self._reward.values

    @property
    def time_column(self) -> np.ndarray:
        return self._time.values

    @property
    def cost_column(self) -> np.ndarray:
        return self._cost.values

    def solver_index(self, solver: SolverId) -> Optional[int]:
        """The solver column's value for `solver`; None when it has no record."""
        return self._solver_ids.get(solver)

    def _intern(self, solver: SolverId) -> int:
        index = self._solver_ids.setdefault(solver, len(self.solvers))
        if index == len(self.solvers):
            self.solvers.append(solver)
            self._own.append(_Grown(np.intp))
            self._solver_model.append(self._model_ids.setdefault(
                solver.model or ENUMERATOR_KIND, len(self._model_ids)))
        return index

    def append(self, record: SolveRecord) -> None:
        d, width = len(record.features), self._points.data.shape[1]
        if len(self) and d != width:
            raise ValueError(f"a feature count unlike the first record's: "
                             f"{d}, not {width}")
        solver = self._intern(record.solver)  # an unhashable one changes nothing
        point = self._point_ids.setdefault(record.features,
                                           len(self._point_tuples))
        if point == len(self._point_tuples):
            self._point_tuples.append(record.features)
            self._points.append(record.features)
        self._own[solver].append(len(self))
        self._point.append(point)
        self._solver.append(solver)
        self._reward.append(record.reward)
        self._time.append(record.time)
        self._cost.append(record.cost)

    def nearest_order(self, features: Sequence[float],
                      k: Optional[int] = None) -> np.ndarray:
        """The rows among their own solver's k nearest to `features` (every
        row when k is None), nearest first; ties keep insertion order (the
        older record first).

        The distance is computed once per distinct point and gathered per
        row. For each solver with more than k rows, a partition finds its
        k-th smallest distance and every row at or below it is kept, ties
        included; the union of the kept rows, in row order, is stable-sorted
        by distance, so by (distance, row). The union holds the first k of
        any set of whole solvers (all of them, one model's, one solver's): a
        row among them has at most k - 1 rows of its own solver ahead of it,
        so it is among its solver's first k. The last result is kept until
        the store, the query or k changes, so one query's ranking and
        schedule compute it once. The result is read-only."""
        target = np.asarray(features, dtype=float)
        n = len(self)
        if k is None:
            k = n
        elif k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        key = (n, k, target.shape, target.tobytes())
        if key == self._order_key:
            return self._order
        order = np.empty(0, dtype=np.intp)
        if n:
            row_distance = distance(self.points, target)[self.point_column]
            cuts = np.full(len(self.solvers), np.inf)
            for solver, own in enumerate(self._own):
                if own.size > k:
                    mine = row_distance[own.values]  # a copy: partitioned in place
                    mine.partition(k - 1)
                    cuts[solver] = mine[k - 1]
            union = np.flatnonzero(row_distance <= cuts[self.solver_column])
            order = union[np.argsort(row_distance[union], kind="stable")]
        order.flags.writeable = False
        self._order, self._order_key = order, key
        return order

    # -- persistence (JSON lines, one record per line) ----------------------

    def save(self, path: str | Path) -> None:
        """Append the records added since the last load from or save to
        `path` when the file is still as that left it (same size and
        modification time). Otherwise write every record to a temporary file
        and rename it over `path` atomically."""
        target = os.path.abspath(path)
        added: Optional[list[SolveRecord]] = None
        if self._file is not None and self._file[0] == target:
            try:
                st = os.stat(target)
            except FileNotFoundError:
                pass
            else:
                if (st.st_size, st.st_mtime_ns) == self._file[2:]:
                    added = self.records[self._file[1]:]
        if added is None:
            tmp = f"{target}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                for rec in self.records:
                    fh.write(json.dumps(rec.to_json()) + "\n")
            os.replace(tmp, target)
        elif added:
            # encode first: a record that fails to encode leaves the file as is
            text = "".join(json.dumps(rec.to_json()) + "\n" for rec in added)
            with open(target, "a", encoding="utf-8") as fh:
                fh.write(text)
        st = os.stat(target)
        self._file = (target, len(self), st.st_size, st.st_mtime_ns)

    @staticmethod
    def load(path: str | Path, seed: int = 0) -> "BanditStore":
        """Read a saved store. A last line without its newline is a torn
        append: it is dropped, and the next save rewrites the file. Any other
        line that is not a record raises ValueError naming file and line.

        Every record is validated as SolveRecord validates it, then appended
        as `append` checks it."""
        store = BanditStore(seed=seed)
        torn = False
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith("\n"):  # only the last line can
                    torn = bool(line.strip())
                elif line.strip():
                    try:
                        store.append(SolveRecord.from_json(json.loads(line)))
                    except (ValueError, KeyError, TypeError, AttributeError) as exc:
                        raise ValueError(f"{path}, line {number}: not a solve "
                                         f"record ({type(exc).__name__}: {exc})"
                                         ) from None
            st = os.fstat(fh.fileno())
        if not torn:
            store._file = (os.path.abspath(path), len(store), st.st_size,
                           st.st_mtime_ns)
        return store


class RecordView(Sequence):
    """A store's records, read-only: item i is the SolveRecord of row i,
    built from the columns with the store's interned features tuple and
    SolverId. It compares equal to a list of the same records."""

    __slots__ = ("_store",)

    def __init__(self, store: BanditStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        row = range(len(self))[index]  # IndexError past either end
        return next(self._rows(slice(row, row + 1)))

    def __iter__(self) -> Iterator[SolveRecord]:
        return self._rows(slice(None))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, RecordView)):
            return list(self) == list(other)
        return NotImplemented

    def _rows(self, rows: slice) -> Iterator[SolveRecord]:
        """The records of `rows`, each built only when reached, so a pass
        over the whole store holds one record at a time."""
        s = self._store
        for i in range(len(self))[rows]:
            yield SolveRecord(s._point_tuples[s._point.data[i]],
                              s.solvers[s._solver.data[i]],
                              float(s._reward.data[i]), float(s._time.data[i]),
                              float(s._cost.data[i]))


class _Grown:
    """A numpy array of rows grown by doubling its capacity; `values` is the
    filled part, the first `size` rows."""

    __slots__ = ("data", "size")

    def __init__(self, dtype: type, shape: Tuple[int, ...] = ()) -> None:
        self.data = np.empty((0,) + shape, dtype=dtype)
        self.size = 0

    @property
    def values(self) -> np.ndarray:
        return self.data[:self.size]

    def append(self, row) -> None:
        if self.size == len(self.data):  # full: double the capacity
            grown = np.empty((max(2 * self.size, 16),) + np.shape(row),
                             dtype=self.data.dtype)
            if self.size:
                grown[:self.size] = self.data
            self.data = grown
        self.data[self.size] = row
        self.size += 1


# ---------------------------------------------------------------------------
# Reward functions
# ---------------------------------------------------------------------------

REWARDS = ("time", "cost", "binary")


def reward_time(t: float, T: float, solved: bool) -> float:
    """(1 - t/T)^4 when solved, else 0."""
    if T <= 0:
        raise ValueError(f"time budget must be positive, got {T}")
    if t < 0 or t > T:
        raise ValueError(f"elapsed time {t} outside [0, {T}]")
    if not solved:
        return 0.0
    return (1.0 - t / T) ** 4


def reward_cost(c: float, C: float, solved: bool) -> float:
    """(1 - c/C)^4 when solved, else 0."""
    if C <= 0:
        raise ValueError(f"cost budget must be positive, got {C}")
    if c < 0 or c > C:
        raise ValueError(f"cost {c} outside [0, {C}]")
    if not solved:
        return 0.0
    return (1.0 - c / C) ** 4


def reward_binary(solved: bool) -> float:
    return 1.0 if solved else 0.0


@dataclass(frozen=True)
class RewardKind:
    """Which reward drives learning, with the budgets it is scored against."""

    kind: str  # one of REWARDS
    T: float = 100.0
    C: float = 100_000.0

    def __post_init__(self) -> None:
        if self.kind not in REWARDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if self.T <= 0 or self.C <= 0:
            raise ValueError("budgets T and C must be positive")

    def compute(self, t: float, c: float, solved: bool) -> float:
        if self.kind == "time":
            return reward_time(min(max(t, 0.0), self.T), self.T, solved)
        if self.kind == "cost":
            return reward_cost(min(max(c, 0.0), self.C), self.C, solved)
        return reward_binary(solved)


def estimate_cost(input_tokens: float, output_tokens: float) -> float:
    """Token cost of one LLM solve: input + 3x output. The enumerator's cost
    is a flat ENUMERATOR_COST regardless of runtime."""
    if input_tokens < 0 or output_tokens < 0:
        raise ValueError("token counts must be nonnegative")
    return float(input_tokens) + 3.0 * float(output_tokens)


ENUMERATOR_COST = 0.4


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

Arm = TypeVar("Arm")


def nearest_records(store: BanditStore, features: Sequence[float], k: int
                    ) -> list[SolveRecord]:
    """The k records closest to `features`, nearest first (all of them when
    fewer than k). Ties break by insertion order: the older record wins."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    records = store.records
    return [records[i] for i in store.nearest_order(features, k)[:k].tolist()]


def first_k_per_group(groups: np.ndarray, k: int) -> np.ndarray:
    """The positions of the first k of each value in `groups`, by value and,
    within one value, in position order: over a nearest-first order's
    solver or model ints, each solver's or model's k nearest, nearest first."""
    by_group = np.argsort(groups, kind="stable")
    ordered = groups[by_group]
    # each entry's place within its group: its place less its group's first
    place = np.arange(len(ordered)) - np.searchsorted(ordered, ordered)
    return by_group[place < k]


def _sums(store: BanditStore, rows: np.ndarray,
          arms: np.ndarray) -> dict[int, float]:
    """Sum of the rewards of `rows` per arm int (`arms` holds each row's),
    added in row order. Every arm with a row appears, with a zero sum too."""
    sums = np.bincount(arms, weights=store.reward_column[rows])
    counts = np.bincount(arms)
    return {arm: total for arm, (total, count)
            in enumerate(zip(sums.tolist(), counts.tolist())) if count}


def _rank(arms: Sequence[Arm], scores: Sequence[Optional[float]],
          rng: random.Random) -> list[Arm]:
    """Arms with a score (None: none) by descending score, equal scores
    shuffled uniformly, then the rest in uniformly random order."""
    if not arms:
        raise ValueError("cannot rank an empty solver set")
    present = [(arm, score) for arm, score in zip(arms, scores)
               if score is not None]
    absent = [arm for arm, score in zip(arms, scores) if score is None]
    rng.shuffle(present)  # uniform order among equal scores after stable sort
    present.sort(key=lambda pair: -pair[1])
    rng.shuffle(absent)
    return [arm for arm, _ in present] + absent


def rank_single(store: BanditStore, features: Sequence[float], k: int,
                arms: Sequence[SolverId]) -> list[SolverId]:
    """Rank every arm: scored arms by descending reward sum over the k nearest
    records (equal scores shuffled uniformly), then the remaining arms in
    uniformly random order, by `store.rng`. The result is a permutation of
    `arms`."""
    top = store.nearest_order(features, k)[:k]
    scores = _sums(store, top, store.solver_column[top])
    return _rank(arms, [scores.get(store.solver_index(a)) for a in arms],
                 store.rng)


def rank_double(store: BanditStore, features: Sequence[float], k: int,
                portfolio: Sequence[SolverId],
                rngs: Mapping[str, random.Random]) -> list[SolverId]:
    """Two-layer ranking of `portfolio`: its LLMs in first-seen order and
    the enumerator last, by reward sums over the k nearest records of every
    solver and `store.rng`; then each LLM's prompt styles, in portfolio
    order, by sums over that LLM's own k nearest records and its RNG in
    `rngs`. The enumerator expands to itself."""
    arms: dict[str, list[SolverId]] = {}  # each model-layer arm's solvers
    for solver in portfolio:
        arms.setdefault(solver.model or ENUMERATOR_KIND, []).append(solver)
    models = sorted(arms, key=lambda arm: arm == ENUMERATOR_KIND)
    # the store's kept nearest-first order serves both layers
    order = store.nearest_order(features, k)
    solver_at = store.solver_column[order]
    model_at = store._solver_model.values[solver_at]
    scores = _sums(store, order[:k], model_at[:k])
    models = _rank(models, [scores.get(store._model_ids.get(m)) for m in models],
                   store.rng)
    own = first_k_per_group(model_at, k)
    scores = _sums(store, order[own], solver_at[own])
    ranked: list[SolverId] = []
    for model in models:
        solvers = arms[model]
        ranked.extend(solvers if model == ENUMERATOR_KIND else _rank(
            solvers, [scores.get(store.solver_index(s)) for s in solvers],
            rngs[model]))
    return ranked
