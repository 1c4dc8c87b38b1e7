"""Fixed-width numeric features of a synthesis query for the bandit and the
budget allocators.

Layout: one count per tracked keyword, the source token count, one constant
count per sort (Int, Bool, BitVec), and a one-hot logic block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .sygus import App, BoolLit, BVLit, IntLit, Ite, SynthQuery, subterms

KEYWORDS: Tuple[str, ...] = (
    "+", "-", "*", "div", "mod", "ite", "and", "or", "not", "=",
    ">=", "<=", ">", "<", "=>",
    "bvadd", "bvsub", "bvand", "bvor", "bvnot", "bvxor", "bvult",
)

LOGIC_CLASSES: Tuple[str, ...] = ("BV", "LIA", "NIA", "PBE", "INV", "GENERAL")

FEATURE_NAMES: Tuple[str, ...] = (
    *(f"kw:{k}" for k in KEYWORDS),
    "length",
    "const:Int", "const:Bool", "const:BitVec",
    *(f"logic:{c}" for c in LOGIC_CLASSES),
)

DIMENSION = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeaturizerConfig:
    # divide keyword and constant counts by the token count; off by default
    # because raw counts with plain Euclidean distance are the baseline
    normalize_by_length: bool = False


def classify_logic(query: SynthQuery) -> str:
    """INV for desugared invariant queries, PBE for ground-example equalities
    over the synthesized function, otherwise the set-logic tag."""
    if query.from_inv_constraint:
        return "INV"
    if query.constraints and all(_is_pbe_constraint(c, query) for c in query.constraints):
        return "PBE"
    if query.logic in ("BV", "LIA", "NIA"):
        return query.logic
    return "GENERAL"


def _is_ground_literal(term) -> bool:
    return isinstance(term, (IntLit, BoolLit, BVLit))


def _is_pbe_constraint(term, query: SynthQuery) -> bool:
    """(= (f lit...) lit) in either orientation."""
    if not (isinstance(term, App) and term.op == "=" and len(term.args) == 2):
        return False
    a, b = term.args
    for call, out in ((a, b), (b, a)):
        if (isinstance(call, App) and call.op == query.synth_fun.name
                and all(_is_ground_literal(x) for x in call.args)
                and _is_ground_literal(out)):
            return True
    return False


def featurize(query: SynthQuery,
              config: FeaturizerConfig = FeaturizerConfig()) -> np.ndarray:
    """Deterministic feature vector; a pure function of the query."""
    kw_counts = dict.fromkeys(KEYWORDS, 0)
    const_int = const_bool = const_bv = 0
    for c in query.constraints:
        for t in subterms(c):
            if isinstance(t, App):
                if t.op in kw_counts:
                    kw_counts[t.op] += 1
            elif isinstance(t, Ite):
                kw_counts["ite"] += 1
            elif isinstance(t, IntLit):
                const_int += 1
            elif isinstance(t, BoolLit):
                const_bool += 1
            elif isinstance(t, BVLit):
                const_bv += 1

    length = query.source_token_count

    logic = classify_logic(query)
    one_hot = [1.0 if logic == c else 0.0 for c in LOGIC_CLASSES]

    counts = [float(kw_counts[k]) for k in KEYWORDS]
    consts = [float(const_int), float(const_bool), float(const_bv)]
    if config.normalize_by_length and length > 0:
        counts = [c / length for c in counts]
        consts = [c / length for c in consts]

    vec = np.array([*counts, float(length), *consts, *one_hot], dtype=float)
    assert vec.shape == (DIMENSION,)
    return vec


def distance(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of an (n, d) matrix to a d-vector."""
    m = np.asarray(matrix, dtype=float)
    t = np.asarray(target, dtype=float)
    if m.ndim != 2 or t.shape != m.shape[1:]:  # broadcasting would hide it
        raise ValueError(f"dimensionality mismatch: {m.shape} vs {t.shape}")
    diff = m - t  # squared in place: one (n, d) temporary, not two
    return np.sqrt(np.square(diff, out=diff).sum(axis=1))
