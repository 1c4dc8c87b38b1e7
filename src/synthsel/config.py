"""Run configuration: defaults, JSON config files, and flag merging.

Precedence: command-line flag over config-file value over built-in default.
API keys are named by environment variable only and never read from files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Tuple

from .bandit import ENUMERATOR_KIND, LLM_KIND, PROMPT_STYLE_RANGE, REWARDS, SolverId
from .featurize import FeaturizerConfig

SELECTORS = ("single", "double", "linear-single", "linear-double")
BACKENDS = ("replay", "http", "record")


@dataclass(frozen=True)
class ModelConfig:
    name: str
    styles: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    endpoint: Optional[str] = None
    api_key_env: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("every model needs a name")
        if not self.styles:
            raise ValueError(f"model {self.name!r} has no prompt styles")
        bad = [s for s in self.styles
               if type(s) is not int or s not in PROMPT_STYLE_RANGE]
        if bad:
            raise ValueError(f"model {self.name!r} has prompt styles outside "
                             f"1..6: {bad}")
        if len(set(self.styles)) != len(self.styles):
            raise ValueError(f"model {self.name!r} repeats a prompt style: "
                             f"{list(self.styles)}")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "styles": list(self.styles),
            "endpoint": self.endpoint,
            "api_key_env": self.api_key_env,
        }

    @staticmethod
    def from_json(obj: Mapping) -> "ModelConfig":
        """The model of a JSON object; an unknown key, or a value that is
        not of its field's JSON type, raises ValueError naming the key."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"a model is a JSON object, not {obj!r}")
        data = {"name": "", **obj}
        styles = data.pop("styles", (1, 2, 3, 4, 5, 6))
        if not isinstance(styles, (list, tuple)):
            raise ValueError(f"model styles must be a list, got {styles!r}")
        _check_keys(data, ModelConfig, "model")
        return ModelConfig(styles=tuple(styles), **data)


# the JSON values of each config field type but the models' and the styles'
# (this module's annotations are strings); a bool is no number here
_JSON_TYPES = {"str": (str,), "Optional[str]": (str, type(None)), "int": (int,),
               "float": (int, float), "bool": (bool,)}


def _check_keys(data: Mapping, cls: type, what: str) -> None:
    """Raise ValueError naming a key of `data` that is not a field of `cls`,
    or whose value is not of its field's JSON type."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in data.items():
        want = _JSON_TYPES[types[key]]
        if not isinstance(value, want) or (type(value) is bool and bool not in want):
            raise ValueError(f"{what} key {key!r} must be {types[key]}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    selector: str = "single"      # or double, linear-single, linear-double, fixed:<id>
    reward: str = "binary"
    time_budget: float = 100.0    # T, seconds per query
    cost_budget: float = 100_000.0  # C, token-cost units per query
    k: int = 15
    delta1: float = 0.05          # time-allocation error threshold
    delta2: float = 0.05          # cost-allocation error threshold
    models: Tuple[ModelConfig, ...] = ()
    include_enumerator: bool = True
    backend: str = "replay"
    fixtures: Optional[str] = None
    state: Optional[str] = None
    smt_cmd: Optional[str] = None
    seed: int = 0
    runs: int = 1
    out: Optional[str] = None
    grace: float = 0.5            # seconds of deadline-overrun tolerance
    temperature: float = 0.2
    tolerate_replay_miss: bool = False
    normalize_features: bool = False

    def __post_init__(self) -> None:
        names = [m.name for m in self.models]
        if self.selector.startswith("fixed:"):
            fixed = SolverId.parse(self.selector.split(":", 1)[1])
            if fixed.kind == LLM_KIND and fixed.model not in names:
                raise ValueError(f"selector {self.selector!r} names model "
                                 f"{fixed.model!r}, which is not configured")
        elif self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"model names must be unique; repeated: {repeated}")
        if ENUMERATOR_KIND in names:  # the two-layer ranking's enumerator arm
            raise ValueError(f"a model cannot be named {ENUMERATOR_KIND!r}")
        if self.reward not in REWARDS:
            raise ValueError(f"unknown reward {self.reward!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        # NaN fails every comparison, so each bound is stated as what must hold
        if not (0 < self.time_budget < math.inf and 0 < self.cost_budget < math.inf):
            raise ValueError(f"budgets must be finite and positive, got time "
                             f"{self.time_budget}, cost {self.cost_budget}")
        if not 0 <= self.grace < math.inf:
            raise ValueError(f"grace must be finite and >= 0, got {self.grace}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for d in (self.delta1, self.delta2):
            if not 0.0 < d < 1.0:
                raise ValueError("delta thresholds must lie in (0, 1)")

    def portfolio(self) -> list[SolverId]:
        solvers: list[SolverId] = []
        if self.include_enumerator:
            solvers.append(SolverId.enumerator())
        for m in self.models:
            solvers.extend(SolverId.llm(m.name, s) for s in m.styles)
        return solvers

    def featurizer(self) -> FeaturizerConfig:
        return FeaturizerConfig(normalize_by_length=self.normalize_features)

    def smt_command(self) -> Optional[Tuple[str, ...]]:
        if not self.smt_cmd:
            return None
        return tuple(shlex.split(self.smt_cmd))

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["models"] = [m.to_json() for m in self.models]
        return out

    @staticmethod
    def from_json(obj: Mapping) -> "RunConfig":
        """The config of a JSON object; an unknown key, or a value that is
        not of its field's JSON type, raises ValueError naming the key."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"a config is a JSON object, not {type(obj).__name__}")
        data = dict(obj)
        models = data.pop("models", [])
        if not isinstance(models, list):
            raise ValueError(f"config key 'models' must be a list, got {models!r}")
        _check_keys(data, RunConfig, "config")
        return RunConfig(models=tuple(map(ModelConfig.from_json, models)), **data)

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return RunConfig.from_json(json.load(fh))

    def with_overrides(self, **overrides) -> "RunConfig":
        """Apply non-None overrides (flag values beat file values)."""
        cleaned = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **cleaned)
