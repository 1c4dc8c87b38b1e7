import functools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synthsel.bandit import (
    BanditStore,
    SolveRecord,
    SolverId,
    first_k_per_group,
    nearest_records,
    rank_double,
    rank_single,
)
from synthsel.featurize import distance
from synthsel.budget import (
    ExponentialFit,
    allocate_one,
    build_schedule,
    fit_exponential,
    linear_schedule,
)
from reference import (knn_scores, nearest_rows, reference_rank, reference_rank_double,
                       reference_schedule, reward_sums)

E = SolverId.enumerator()
A1 = SolverId.llm("modelA", 1)
A2 = SolverId.llm("modelA", 2)
B1 = SolverId.llm("modelB", 1)


def rec(solver, cost, t=1.0, features=(0.0, 0.0)):
    return SolveRecord(tuple(features), solver, 1.0, t, cost)


# ---------------------------------------------------------------------------
# fit_exponential
# ---------------------------------------------------------------------------

def test_fit_constant_samples():
    assert fit_exponential([2, 2, 2]).rate == 0.5
    assert fit_exponential([10]).rate == 0.1


def test_fit_rejects_bad_samples():
    with pytest.raises(ValueError):
        fit_exponential([])
    with pytest.raises(ValueError):
        fit_exponential([1.0, 0.0])
    with pytest.raises(ValueError):
        fit_exponential([-3.0])


def test_fit_recovers_rate_monte_carlo():
    rng = np.random.RandomState(1234)
    samples = rng.exponential(scale=1 / 0.02, size=10_000)
    fit = fit_exponential(samples.tolist())
    assert 0.019 <= fit.rate <= 0.021


@given(st.floats(0.01, 1000.0))
def test_fit_constant_is_reciprocal(u):
    assert fit_exponential([u, u, u, u]).rate == pytest.approx(1.0 / u)


# ---------------------------------------------------------------------------
# allocate_one
# ---------------------------------------------------------------------------

def test_allocate_one_closed_form():
    fit = ExponentialFit(rate=0.01, n=5)
    a = allocate_one(fit, 1000.0, 0.05)
    expected = -math.log(0.05 + math.exp(-10.0)) / 0.01
    assert a == pytest.approx(expected)
    assert a == pytest.approx(299.5, abs=0.5)
    # the tail bound the formula promises
    assert math.exp(-0.01 * a) - math.exp(-0.01 * 1000.0) <= 0.05 + 1e-9


def test_allocate_one_delta_near_one():
    fit = ExponentialFit(rate=0.5, n=3)
    assert allocate_one(fit, 100.0, 0.999) == pytest.approx(0.0, abs=1e-2)


def test_allocate_one_cheap_solver():
    fit = ExponentialFit(rate=1000.0, n=3)
    a = allocate_one(fit, 100.0, 0.05)
    assert 0 <= a < 0.01  # roughly -ln(delta)/rate


def test_allocate_one_monotone():
    fit = ExponentialFit(rate=0.1, n=2)
    assert allocate_one(fit, 100, 0.01) > allocate_one(fit, 100, 0.2)
    assert allocate_one(fit, 200, 0.05) >= allocate_one(fit, 50, 0.05)


@given(st.floats(0.001, 100.0), st.floats(0.1, 10_000.0),
       st.floats(0.001, 0.999))
def test_allocate_one_tail_bound_property(rate, budget, delta):
    fit = ExponentialFit(rate=rate, n=1)
    a = allocate_one(fit, budget, delta)
    assert 0.0 <= a <= budget
    assert math.exp(-rate * a) - math.exp(-rate * budget) <= delta + 1e-9


# ---------------------------------------------------------------------------
# build_schedule
# ---------------------------------------------------------------------------

def _store_with(costs_by_solver, times_by_solver=None):
    store = BanditStore(seed=0)
    times_by_solver = times_by_solver or {}
    for solver, costs in costs_by_solver.items():
        times = times_by_solver.get(solver, [1.0] * len(costs))
        for c, t in zip(costs, times):
            store.append(rec(solver, c, t=t))
    return store


def _cost_slices(ranking, store, features, budget, delta):
    return [e.cost for e in build_schedule(ranking, store, features, 15,
                                           T=100.0, C=budget,
                                           delta_cost=delta)]


def _rate_for_allocation(target, budget, delta):
    """Bisect (on the decreasing branch) for the exponential rate whose
    closed-form allocation equals `target`."""
    def alloc(r):
        return -math.log(delta + math.exp(-r * budget)) / r

    lo, hi = -math.log(delta) / budget * 1.5, 1e3
    assert alloc(lo) > target > alloc(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if alloc(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_single_solver_gets_everything():
    store = _store_with({A1: [100.0, 120.0]})
    allocs = _cost_slices([A1], store, (0.0, 0.0), 1000.0, 0.05)
    assert allocs == [1000.0]


def test_greedy_two_solvers_cap_at_remainder():
    # both tuned to want 0.6 B: the first gets it, the second the remainder
    delta = 0.05
    sample = 1.0 / _rate_for_allocation(600.0, 1000.0, delta)
    store = _store_with({A1: [sample] * 3, B1: [sample] * 3})
    allocs = _cost_slices([A1, B1], store, (0.0, 0.0), 1000.0, delta)
    assert allocs[0] == pytest.approx(600.0, rel=1e-6)
    assert allocs[1] == pytest.approx(1000.0 - allocs[0])
    assert sum(allocs) == pytest.approx(1000.0)


def test_greedy_exhaustion_zeroes_tail():
    # first two want a bit over half each, so the third is starved
    delta = 0.05
    sample = 1.0 / _rate_for_allocation(520.0, 1000.0, delta)
    store = _store_with({A1: [sample] * 3, A2: [sample] * 3, B1: [sample] * 3})
    allocs = _cost_slices([A1, A2, B1], store, (0.0, 0.0), 1000.0, delta)
    assert allocs[0] == pytest.approx(520.0, rel=1e-6)
    assert allocs[1] == pytest.approx(480.0, rel=1e-6)
    assert allocs[2] == 0.0


def test_sampleless_solvers_share_evenly():
    store = BanditStore(seed=0)
    allocs = _cost_slices([A1, B1], store, (0.0,), 900.0, 0.05)
    # both cold: even split, then leftover-to-last is a no-op
    assert allocs == [450.0, 450.0]


def test_leftover_goes_to_final_solver():
    # one cheap learned solver then a cold one: remainder lands on the last
    store = _store_with({A1: [10.0] * 3})
    allocs = _cost_slices([A1, B1], store, (0.0, 0.0), 1000.0, 0.05)
    assert allocs[0] < 100.0
    assert allocs[1] == pytest.approx(1000.0 - allocs[0])


def test_coupling_rule_zero_cost_zero_time():
    delta = 0.05
    sample = 1.0 / _rate_for_allocation(520.0, 1000.0, delta)
    store = _store_with({A1: [sample] * 3, A2: [sample] * 3, B1: [sample] * 3},
                        {A1: [1.0] * 3, A2: [1.0] * 3, B1: [1.0] * 3})
    sched = build_schedule([A1, A2, B1], store, (0.0, 0.0), 15,
                           T=100.0, C=1000.0)
    by = {e.solver: e for e in sched}
    assert by[B1].cost == 0.0
    assert by[B1].time == 0.0
    # freed time goes to the funded solvers
    assert sum(e.time for e in sched) == pytest.approx(100.0)


def test_enumerator_only_schedule():
    store = BanditStore(seed=0)
    sched = build_schedule([E], store, (0.0,), 15, T=100.0, C=100_000.0)
    assert len(sched) == 1
    entry = sched[0]
    assert entry.time == pytest.approx(100.0)
    assert entry.cost == pytest.approx(100_000.0)


def test_linear_schedule():
    sched = linear_schedule([A1, A2, B1, E], T=100.0, C=1000.0)
    assert all(e.time == pytest.approx(25.0) for e in sched)
    assert all(e.cost == pytest.approx(250.0) for e in sched)


def test_schedule_invariants_random_stores():
    rng = random.Random(7)
    solvers = [E, A1, A2, B1]
    for trial in range(200):
        store = BanditStore(seed=trial)
        for _ in range(rng.randrange(0, 40)):
            s = rng.choice(solvers)
            store.append(SolveRecord(
                (rng.uniform(-3, 3), rng.uniform(-3, 3)), s,
                rng.random(), rng.uniform(0.01, 50.0),
                rng.uniform(0.1, 5000.0)))
        ranking = rng.sample(solvers, k=rng.randrange(1, len(solvers) + 1))
        T = rng.uniform(10.0, 200.0)
        C = rng.uniform(100.0, 50_000.0)
        q = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        sched = build_schedule(ranking, store, q, 15, T, C)
        assert sum(e.time for e in sched) <= T + 1e-6
        assert sum(e.cost for e in sched) <= C + 1e-6
        assert sum(e.cost for e in sched) == pytest.approx(C)  # leftover-to-last
        for e in sched:
            assert e.time >= 0 and e.cost >= 0
            if e.cost == 0:
                assert e.time == 0


def test_build_schedule_matches_bruteforce_reference():
    rng = random.Random(11)
    solvers = [E, A1, A2, B1, SolverId.llm("modelB", 4),
               SolverId.llm("modelC", 6)]
    for trial in range(200):
        dim = rng.randrange(2, 6)
        # integer-valued points, as the default featurizer yields, with
        # duplicates so that many records tie on distance
        points = [tuple(float(rng.randrange(-3, 4)) for _ in range(dim))
                  for _ in range(rng.randrange(1, 10))]
        records = [SolveRecord(rng.choice(points), rng.choice(solvers),
                               rng.random(),
                               rng.choice((0.0, rng.uniform(0.01, 50.0))),
                               rng.choice((0.0, rng.uniform(0.1, 5000.0))))
                   for _ in range(rng.randrange(0, 60))]
        store = BanditStore(seed=trial, records=records)
        ranking = rng.sample(solvers, k=rng.randrange(1, len(solvers) + 1))
        q = rng.choice(points) if rng.random() < 0.5 else tuple(
            float(rng.randrange(-3, 4)) for _ in range(dim))
        k = rng.randrange(1, 8)
        T = rng.uniform(10.0, 200.0)
        C = rng.uniform(100.0, 50_000.0)
        got = build_schedule(ranking, store, q, k, T, C, 0.05, 0.1)
        assert got == reference_schedule(ranking, records, q, k, T, C,
                                         0.05, 0.1)


# Differential cases for each solver's k nearest rows (first_k_per_group over
# the kept nearest-first order): every schedule must equal the brute-force
# reference bit for bit.

ABSENT = [SolverId.llm("modelD", s) for s in (1, 2, 3)]
SOLVERS = [E, A1, A2, B1, SolverId.llm("modelB", 4), SolverId.llm("modelC", 6)]


def _random_record(rng, points, solvers, zero_share=0.2):
    return SolveRecord(
        rng.choice(points), rng.choice(solvers), rng.random(),
        0.0 if rng.random() < zero_share else rng.uniform(0.01, 50.0),
        0.0 if rng.random() < zero_share else rng.uniform(0.1, 5000.0))


def _assert_matches_reference(rng, store, records, pool, points, ks, trials):
    for _ in range(trials):
        ranking = rng.sample(pool, k=rng.randrange(1, len(pool) + 1))
        q = rng.choice(points) if rng.random() < 0.7 else tuple(
            float(rng.randrange(-3, 4)) for _ in points[0])
        k = rng.choice(ks)
        T, C = rng.uniform(10.0, 200.0), rng.uniform(100.0, 50_000.0)
        assert build_schedule(ranking, store, q, k, T, C, 0.05, 0.1) == \
            reference_schedule(ranking, records, q, k, T, C, 0.05, 0.1)
        order = store.nearest_order(q, k)
        own = order[first_k_per_group(store.solver_column[order], k)]
        for solver in set(pool):
            got = [i for i in own.tolist() if records[i].solver == solver]
            assert got == nearest_rows(records, q, k, lambda s: s == solver)
        _assert_nearest_matches_full_sort(store, records, q, k, pool,
                                          rng.randrange(2 ** 31))


def _assert_nearest_matches_full_sort(store, records, q, k, pool, seed):
    """The store's k-NN reads against one full stable sort of every record
    by distance, the order the store kept before it partitioned per solver."""
    matrix = np.array([r.features for r in records], dtype=float).reshape(
        len(records), len(q))
    target = np.asarray(q, dtype=float)
    dist = distance(matrix, target)
    if records:
        # one distance per distinct point, gathered: the same bits per row
        gathered = distance(store.points, target)[store.point_column]
        assert gathered.tobytes() == dist.tobytes()
        assert store.features.tolist() == matrix.tolist()
    full = np.argsort(dist, kind="stable").tolist()
    assert store.nearest_order(q).tolist() == full
    # each solver's k-th smallest distance, and every row at or below it
    cut = {}
    for solver in {r.solver for r in records}:
        mine = sorted(dist[i] for i, r in enumerate(records) if r.solver == solver)
        cut[solver] = mine[k - 1] if len(mine) > k else math.inf
    assert store.nearest_order(q, k).tolist() == [
        i for i in full if dist[i] <= cut[records[i].solver]]
    assert nearest_records(store, q, k) == [records[i] for i in full[:k]]

    scores = reward_sums(full[:k], records, lambda s: s)
    assert knn_scores(store, q, k) == scores  # same sums in the same order
    store.rng.seed(seed)
    assert rank_single(store, q, k, pool) == \
        reference_rank(scores, pool, random.Random(seed))

    # the pool as the portfolio: its models, their styles, the enumerator
    seeds = {s.model: seed + i for i, s in enumerate(pool) if s.model}
    store.rng.seed(seed)
    got = rank_double(store, q, k, pool,
                      {m: random.Random(s) for m, s in seeds.items()})
    assert got == reference_rank_double(
        records, q, k, pool, random.Random(seed),
        {m: random.Random(s) for m, s in seeds.items()})


def _points(rng, dim, n):
    return [tuple(float(rng.randrange(-3, 4)) for _ in range(dim))
            for _ in range(n)]


def test_schedule_differential_absent_solvers():
    rng = random.Random(21)
    for trial in range(30):
        points = _points(rng, 3, 8)
        records = [_random_record(rng, points, SOLVERS[:3])
                   for _ in range(rng.randrange(0, 80))]
        store = BanditStore(seed=trial, records=records)
        # most of the pool never appears in the store
        _assert_matches_reference(rng, store, records, SOLVERS + ABSENT,
                                  points, range(1, 10), 5)


def test_schedule_differential_all_zero_samples():
    rng = random.Random(22)
    for trial in range(30):
        points = _points(rng, 2, 6)
        records = [_random_record(rng, points, SOLVERS, zero_share=0.6)
                   for _ in range(rng.randrange(20, 80))]
        # A2 and B1 never record a positive time or cost
        records = [SolveRecord(r.features, r.solver, r.reward, 0.0, 0.0)
                   if r.solver in (A2, B1) else r for r in records]
        store = BanditStore(seed=trial, records=records)
        _assert_matches_reference(rng, store, records, SOLVERS, points,
                                  range(1, 12), 5)


def test_schedule_differential_k_at_least_record_count():
    rng = random.Random(23)
    for trial in range(30):
        points = _points(rng, 4, 10)
        records = [_random_record(rng, points, SOLVERS)
                   for _ in range(rng.randrange(1, 30))]
        store = BanditStore(seed=trial, records=records)
        most = max(sum(1 for r in records if r.solver == s) for s in SOLVERS)
        _assert_matches_reference(rng, store, records, SOLVERS, points,
                                  range(most, most + 4), 5)


def test_schedule_differential_heavy_distance_ties():
    rng = random.Random(24)
    for trial in range(30):
        points = _points(rng, 1, 2)  # at most two distinct points
        records = [_random_record(rng, points, SOLVERS)
                   for _ in range(rng.randrange(40, 200))]
        store = BanditStore(seed=trial, records=records)
        _assert_matches_reference(rng, store, records, SOLVERS, points,
                                  range(1, 25), 5)


def test_schedule_differential_store_grown_by_appends():
    rng = random.Random(25)
    for trial in range(6):
        points = _points(rng, 3, 5)
        records = [_random_record(rng, points, SOLVERS)
                   for _ in range(rng.randrange(300, 700))]
        store = BanditStore(seed=trial)
        for i, r in enumerate(records):  # five or more capacity doublings
            store.append(r)
            if i % 97 == 0:  # interleave queries with growth
                _assert_matches_reference(rng, store, records[:i + 1], SOLVERS,
                                          points, range(1, 20), 1)
        _assert_matches_reference(rng, store, records, SOLVERS, points,
                                  range(1, 20), 5)


def test_schedule_differential_after_save_and_load(tmp_path):
    rng = random.Random(26)
    path = tmp_path / "state.jsonl"
    for trial in range(10):
        points = _points(rng, 3, 6)
        records = [_random_record(rng, points, SOLVERS)
                   for _ in range(rng.randrange(1, 120))]
        store = BanditStore(seed=trial)
        for r in records[:len(records) // 2]:
            store.append(r)
        store.save(path)
        for r in records[len(records) // 2:]:
            store.append(r)
        store.save(path)  # appends the second half
        loaded = BanditStore.load(path)
        assert loaded.records == records
        assert loaded.features.tolist() == store.features.tolist()
        assert loaded.time_column.tolist() == store.time_column.tolist()
        assert loaded.cost_column.tolist() == store.cost_column.tolist()
        assert [loaded.solvers[i] for i in loaded.solver_column] == \
            [r.solver for r in records]
        _assert_matches_reference(rng, loaded, records, SOLVERS, points,
                                  range(1, 15), 5)


def test_schedule_differential_one_solver():
    rng = random.Random(28)
    for trial in range(20):
        points = _points(rng, 2, rng.randrange(1, 5))
        records = [_random_record(rng, points, [A1])
                   for _ in range(rng.randrange(1, 60))]
        store = BanditStore(seed=trial, records=records)
        _assert_matches_reference(rng, store, records, [A1, B1], points,
                                  (1, 2, 5, 60, 61), 5)


def test_schedule_differential_ties_across_distinct_points():
    rng = random.Random(29)
    # every permutation and sign flip of (0, 1, 2): distinct points at one
    # exact distance from the origin, several at one distance from others
    base = [(0.0, 1.0, 2.0), (0.0, 2.0, 1.0), (1.0, 0.0, 2.0),
            (1.0, 2.0, 0.0), (2.0, 0.0, 1.0), (2.0, 1.0, 0.0)]
    points = [tuple(sign * x for x in p) for p in base for sign in (1.0, -1.0)]
    points.append((0.0, 0.0, 0.0))
    for trial in range(20):
        records = [_random_record(rng, points, SOLVERS)
                   for _ in range(rng.randrange(20, 160))]
        store = BanditStore(seed=trial, records=records)
        _assert_matches_reference(rng, store, records, SOLVERS, points,
                                  range(1, 30), 8)


def test_schedule_differential_real_valued_features():
    # non-integer coordinates in wide vectors: the gathered per-point
    # distances must keep the bits a distance over every row gives
    rng = random.Random(30)
    for trial, dim in enumerate((3, 17, 33) * 3):
        points = [tuple(rng.uniform(-50.0, 50.0) for _ in range(dim))
                  for _ in range(rng.randrange(1, 12))]
        records = [_random_record(rng, points, SOLVERS)
                   for _ in range(rng.randrange(1, 150))]
        store = BanditStore(seed=trial, records=records)
        _assert_matches_reference(rng, store, records, SOLVERS, points,
                                  range(1, 20), 5)


def test_schedule_differential_appends_after_load(tmp_path):
    rng = random.Random(31)
    path = tmp_path / "state.jsonl"
    for trial in range(10):
        points = _points(rng, 3, 6)
        records = [_random_record(rng, points[:3], SOLVERS[:4])
                   for _ in range(rng.randrange(1, 80))]
        BanditStore(records=records).save(path)
        store = BanditStore.load(path)
        # new points and new solvers after the load, across a doubling
        for _ in range(rng.randrange(20, 140)):
            record = _random_record(rng, points, SOLVERS)
            store.append(record)
            records.append(record)
        _assert_matches_reference(rng, store, records, SOLVERS + ABSENT,
                                  points, range(1, 20), 5)


def test_fit_sums_left_to_right():
    # the schedule's rates are bit-identical only with Python's sequential
    # sum; numpy's pairwise sum rounds differently on some of these
    rng = random.Random(27)
    differs = 0
    for _ in range(200):
        samples = [rng.uniform(0.01, 5000.0) for _ in range(rng.randrange(9, 40))]
        left_to_right = functools.reduce(operator.add, samples)
        assert fit_exponential(samples).rate == len(samples) / left_to_right
        differs += float(np.sum(samples)) != left_to_right
    assert differs
