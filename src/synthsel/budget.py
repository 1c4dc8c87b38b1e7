"""Per-solver time and token-cost allocation.

Observed solve costs are modeled as exponentially distributed; the maximum
likelihood rate over the k nearest samples gives, through the CDF, the
smallest allocation a for which the chance of the true requirement landing in
(a, B] stays below the error threshold. The total budget is divided greedily
down the ranking; leftover goes to the final solver, and a solver allocated
zero tokens is also allocated zero time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bandit import BanditStore, SolverId, first_k_per_group
# perfbench traces budget.nearest_records beside bandit.nearest_records
from .bandit import nearest_records  # noqa: F401


@dataclass(frozen=True)
class ExponentialFit:
    rate: float  # per cost-unit or per second
    n: int

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


def fit_exponential(samples: Sequence[float]) -> ExponentialFit:
    """MLE for the exponential rate: n over the sample sum."""
    if not samples:
        raise ValueError("cannot fit an exponential to zero samples")
    for s in samples:
        if s <= 0:
            raise ValueError(f"samples must be positive, got {s}")
    return ExponentialFit(rate=len(samples) / sum(samples), n=len(samples))


def allocate_one(fit: ExponentialFit, budget: float, delta: float) -> float:
    """Smallest allocation a with P(a < requirement < budget) <= delta,
    i.e. -ln(delta + exp(-rate * budget)) / rate, clamped into [0, budget]."""
    _check_allocation(budget, delta)
    return _allocation(fit.rate, budget, delta)


def _check_allocation(budget: float, delta: float) -> None:
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _allocation(rate: float, budget: float, delta: float) -> float:
    tail = delta + math.exp(-rate * budget)
    a = -math.log(tail) / rate
    return min(max(a, 0.0), budget)


class ScheduleEntry(NamedTuple):
    """One ranked solver's time and cost slices. A schedule is a tuple of
    these: slices are nonnegative, totals stay within the budgets, any
    leftover sits on the final solver, and zero cost forces zero time."""

    solver: SolverId
    time: float
    cost: float


def _samples(solvers: Sequence[Optional[int]], bounds: Sequence[int],
             values: list[float]) -> list[list[float]]:
    """Per solver (its value in the store's solver column, None when it has
    no record), the positive `values` of its k nearest rows, which sit at
    values[bounds[s]:bounds[s + 1]] nearest first. Python floats: the
    allocation sums them with Python's sum, in that order."""
    return [[v for v in values[bounds[s]:bounds[s + 1]] if v > 0]
            if s is not None else [] for s in solvers]


def _allocate(samples_per_solver: Sequence[Sequence[float]], budget: float,
              delta: float) -> list[float]:
    if not samples_per_solver:
        raise ValueError("cannot allocate over an empty ranking")
    _check_allocation(budget, delta)
    allocations = [0.0] * len(samples_per_solver)
    remaining = budget
    sampleless_left = sum(1 for s in samples_per_solver if not s)
    for i, samples in enumerate(samples_per_solver):
        if remaining <= 0:
            break
        if samples:
            # fit_exponential's rate, then allocate_one's closed form
            want = _allocation(len(samples) / sum(samples), budget, delta)
        else:
            want = remaining / sampleless_left
            sampleless_left -= 1
        got = min(want, remaining)
        allocations[i] = got
        remaining -= got
    if remaining > 0:
        allocations[-1] += remaining
    return allocations


def build_schedule(ranking: Sequence[SolverId], store: BanditStore,
                   features: Sequence[float], k: int,
                   T: float, C: float,
                   delta_time: float = 0.05,
                   delta_cost: float = 0.05) -> Tuple[ScheduleEntry, ...]:
    """Cost slices first, then time slices over the solvers that received a
    nonzero cost slice (the coupling rule: no tokens means no time; the time
    freed that way is redistributed by re-running the greedy walk). Both
    walks read each solver's k nearest rows from the query's one
    nearest-first pass."""
    solvers = [store.solver_index(s) for s in ranking]
    order = store.nearest_order(features, k)
    solver_at = store.solver_column[order]
    own = first_k_per_group(solver_at, k)
    rows = order[own]
    # solver s's rows sit at rows[bounds[s]:bounds[s + 1]]
    bounds = np.searchsorted(solver_at[own],
                             np.arange(len(store.solvers) + 1)).tolist()
    costs = _allocate(_samples(solvers, bounds, store.cost_column[rows].tolist()),
                      C, delta_cost)
    funded = [s for s, c in zip(solvers, costs) if c > 0]
    if funded:
        funded_times = iter(_allocate(_samples(
            funded, bounds, store.time_column[rows].tolist()), T, delta_time))
        times = [next(funded_times) if c > 0 else 0.0 for c in costs]
    else:
        times = [0.0] * len(ranking)
    return tuple(map(ScheduleEntry, ranking, times, costs))


def linear_schedule(ranking: Sequence[SolverId], T: float, C: float
                    ) -> Tuple[ScheduleEntry, ...]:
    """Equal division of both budgets across all ranked solvers."""
    if not ranking:
        raise ValueError("cannot allocate over an empty ranking")
    n = len(ranking)
    return tuple(ScheduleEntry(s, T / n, C / n) for s in ranking)
