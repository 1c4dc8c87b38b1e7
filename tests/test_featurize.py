import numpy as np
import pytest
from hypothesis import given, strategies as st

from synthsel.featurize import (
    DIMENSION,
    FEATURE_NAMES,
    FeaturizerConfig,
    KEYWORDS,
    LOGIC_CLASSES,
    classify_logic,
    distance,
    featurize,
)
from synthsel.sygus import BVLit, Ite, parse_query, subterms


def _kw(vec, name):
    return vec[FEATURE_NAMES.index(f"kw:{name}")]


def _logic_block(vec):
    start = FEATURE_NAMES.index("logic:BV")
    return vec[start:start + len(LOGIC_CLASSES)]


def test_figure_query_keyword_counts(max3_query):
    vec = featurize(max3_query)
    assert _kw(vec, ">=") == 3
    assert _kw(vec, "or") == 2
    assert _kw(vec, "=") == 3
    for op in ("+", "-", "*", "div", "mod"):
        assert _kw(vec, op) == 0
    # no literals anywhere in the constraints
    assert vec[FEATURE_NAMES.index("const:Int")] == 0
    assert vec[FEATURE_NAMES.index("const:Bool")] == 0
    assert vec[FEATURE_NAMES.index("const:BitVec")] == 0


def test_figure_query_logic_one_hot(max3_query):
    vec = featurize(max3_query)
    block = _logic_block(vec)
    assert block.sum() == 1.0
    assert block[LOGIC_CLASSES.index("LIA")] == 1.0


def test_length_is_source_token_count(max3_query):
    vec = featurize(max3_query)
    assert vec[FEATURE_NAMES.index("length")] == max3_query.source_token_count
    assert max3_query.source_token_count > 0


def test_empty_constraints_zero_keywords():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
""")
    vec = featurize(q)
    assert all(_kw(vec, k) == 0 for k in KEYWORDS)
    assert vec[FEATURE_NAMES.index("length")] > 0


def test_determinism(max3_query):
    a = featurize(max3_query)
    b = featurize(max3_query)
    assert np.array_equal(a, b)
    assert a.shape == (DIMENSION,)


def test_constraint_order_irrelevant():
    base = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= (f x) x))
(constraint (<= (f x) (+ x 5)))
(check-synth)
"""
    swapped = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (<= (f x) (+ x 5)))
(constraint (>= (f x) x))
(check-synth)
"""
    assert np.array_equal(featurize(parse_query(base)),
                          featurize(parse_query(swapped)))


def test_constant_counts_valid():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= (f 3) 4))
(constraint (>= (f 5) 1))
(check-synth)
""")
    vec = featurize(q)
    assert vec[FEATURE_NAMES.index("const:Int")] == 4


def test_pbe_classification():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (= (f 1) 2))
(constraint (= 6 (f 3)))
(check-synth)
""")
    assert classify_logic(q) == "PBE"


def test_inv_classification():
    q = parse_query("""(set-logic LIA)
(synth-inv inv ((x Int)))
(define-fun pre ((x Int)) Bool (= x 0))
(define-fun trans ((x Int) (x! Int)) Bool (= x! (+ x 1)))
(define-fun post ((x Int)) Bool (>= x 0))
(inv-constraint inv pre trans post)
(check-synth)
""")
    assert classify_logic(q) == "INV"


def test_general_classification():
    q = parse_query("""(set-logic LRA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (>= (f x) x))
(check-synth)
""")
    assert classify_logic(q) == "GENERAL"


def test_user_grammar_operators_not_counted():
    # keyword counts cover the constraint terms only, never the grammar block
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int ((I Int) (B Bool))
  ((I Int (x 0 1 (* I I) (div I I) (ite B I I)))
   (B Bool ((<= I I)))))
(declare-var x Int)
(constraint (>= (f x) x))
(check-synth)
""")
    vec = featurize(q)
    assert _kw(vec, ">=") == 1
    for op in ("*", "div", "ite", "<="):
        assert _kw(vec, op) == 0


def test_normalized_config_changes_counts(max3_query):
    raw = featurize(max3_query)
    norm = featurize(max3_query, FeaturizerConfig(normalize_by_length=True))
    assert norm[FEATURE_NAMES.index("kw:>=")] < raw[FEATURE_NAMES.index("kw:>=")]
    # logic block and length stay raw
    assert np.array_equal(_logic_block(norm), _logic_block(raw))


_ITE_AND_BV_QUERY = """(set-logic BV)
(synth-fun f ((a (_ BitVec 4)) (b Bool)) (_ BitVec 4))
(declare-var a (_ BitVec 4))
(declare-var b Bool)
(constraint (= (f a b) (ite b (bvadd a #b0001) (ite (bvult a #x3) #b0000 a))))
(constraint (bvult (f a (not b)) (bvor #xf (_ bv2 4))))
(check-synth)
"""


@pytest.mark.parametrize("normalize", [False, True])
def test_ite_and_bitvector_literals_are_counted_as_subterms_count_them(normalize):
    q = parse_query(_ITE_AND_BV_QUERY)
    nodes = [t for c in q.constraints for t in subterms(c)]
    ites = sum(isinstance(t, Ite) for t in nodes)
    bv_literals = sum(isinstance(t, BVLit) for t in nodes)
    assert (ites, bv_literals) == (2, 5)
    scale = q.source_token_count if normalize else 1
    vec = featurize(q, FeaturizerConfig(normalize_by_length=normalize))
    assert _kw(vec, "ite") == pytest.approx(ites / scale)
    assert vec[FEATURE_NAMES.index("const:BitVec")] == pytest.approx(bv_literals / scale)
    assert vec[FEATURE_NAMES.index("length")] == q.source_token_count


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_identity_and_345():
    v = np.array([1.0, 2.0, 3.0])
    assert distance(v[None, :], v).tolist() == [0.0]
    rows = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert distance(rows, np.array([3.0, 4.0])).tolist() == [5.0, 0.0]


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(ValueError):  # broadcasting would accept this one
        distance(np.zeros((2, 1)), np.zeros(4))
    with pytest.raises(ValueError):
        distance(np.zeros(3), np.zeros(3))


vectors = st.lists(st.floats(-100, 100, allow_nan=False), min_size=4,
                   max_size=4).map(np.array)


def _d(a, b):
    return float(distance(a[None, :], b)[0])


@given(vectors, vectors)
def test_distance_symmetry(a, b):
    assert _d(a, b) == pytest.approx(_d(b, a))


@given(vectors, vectors, vectors)
def test_distance_triangle_inequality(a, b, c):
    assert _d(a, c) <= _d(a, b) + _d(b, c) + 1e-9


@given(st.lists(vectors, min_size=1, max_size=12), vectors)
def test_distance_rows_match_one_row_form(rows, t):
    matrix = np.array(rows)
    got = distance(matrix, t)
    for i in range(len(rows)):
        assert got[i] == distance(matrix[i:i + 1], t)[0]  # bit for bit
