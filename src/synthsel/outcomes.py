"""Per-solver deployment outcomes shared by the solver drivers and the
orchestrator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .bandit import SolverId
from .sygus import Candidate


@dataclass(frozen=True)
class DeploymentOutcome:
    """What one solver did with its slice of the budget."""

    solver: SolverId
    solved: bool
    candidate: Optional[Candidate]
    time: float
    cost: float
    rewards: Mapping[str, float] = field(default_factory=dict)  # time/cost/binary
    verdict_provenance: str = ""
    detail: str = ""
    verdict_bounded: bool = False  # the accepting verdict searched only a finite region

    def __post_init__(self) -> None:
        if self.solved and self.candidate is None:
            raise ValueError("a solved outcome must carry its candidate")
        if self.time < 0 or self.cost < 0:
            raise ValueError("time and cost must be nonnegative")

    def reward(self, kind: str) -> float:
        return float(self.rewards.get(kind, 0.0))

    def to_json(self) -> dict:
        from .sygus import print_define_fun

        return {
            "solver": self.solver.to_json(),
            "solved": self.solved,
            "candidate": (print_define_fun(self.candidate)
                          if self.candidate else None),
            "time": self.time,
            "cost": self.cost,
            "rewards": dict(self.rewards),
            "verdict_provenance": self.verdict_provenance,
            "verdict_bounded": self.verdict_bounded,
            "detail": self.detail,
        }

    @staticmethod
    def from_json(obj: Mapping) -> "DeploymentOutcome":
        from .sygus import parse_define_fun

        cand = obj.get("candidate")
        return DeploymentOutcome(
            solver=SolverId.from_json(obj["solver"]),
            solved=bool(obj["solved"]),
            candidate=parse_define_fun(cand) if cand else None,
            time=float(obj["time"]),
            cost=float(obj["cost"]),
            rewards=dict(obj.get("rewards", {})),
            verdict_provenance=obj.get("verdict_provenance", ""),
            verdict_bounded=bool(obj.get("verdict_bounded", False)),
            detail=obj.get("detail", ""),
        )
