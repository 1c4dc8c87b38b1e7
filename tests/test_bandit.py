import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synthsel.bandit import (
    BanditStore,
    ENUMERATOR_COST,
    RewardKind,
    SolveRecord,
    SolverId,
    estimate_cost,
    nearest_records,
    rank_double,
    rank_single,
    reward_binary,
    reward_cost,
    reward_time,
)
from reference import knn_scores, nearest_rows, reference_rank_double, reward_sums


def rec(features, solver, reward=1.0, t=1.0, c=10.0):
    return SolveRecord(tuple(features), solver, reward, t, c)


E = SolverId.enumerator()
A1 = SolverId.llm("modelA", 1)
A2 = SolverId.llm("modelA", 2)
B1 = SolverId.llm("modelB", 1)


# ---------------------------------------------------------------------------
# SolverId
# ---------------------------------------------------------------------------

def test_solver_id_invariants():
    with pytest.raises(ValueError):
        SolverId("llm", "m", None)
    with pytest.raises(ValueError):
        SolverId("llm", "m", 7)
    with pytest.raises(ValueError):
        SolverId("enumerator", "m", 1)
    with pytest.raises(ValueError):
        SolverId("quantum")


def test_solver_id_string_round_trip():
    for s in (E, A1, SolverId.llm("gpt-3.5", 6)):
        assert SolverId.parse(str(s)) == s


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def test_reward_time_values():
    assert reward_time(0, 100, True) == 1.0
    assert reward_time(100, 100, True) == 0.0
    assert reward_time(50, 100, True) == 0.0625
    assert reward_time(50, 100, False) == 0.0


def test_reward_cost_values():
    assert reward_cost(0, 100_000, True) == 1.0
    assert reward_cost(25_000, 100_000, True) == 0.31640625
    assert reward_cost(123, 100_000, False) == 0.0


def test_reward_binary():
    assert reward_binary(True) == 1.0
    assert reward_binary(False) == 0.0
    assert reward_binary(True) == reward_binary(True)


def test_reward_domain_errors():
    with pytest.raises(ValueError):
        reward_time(101, 100, True)
    with pytest.raises(ValueError):
        reward_time(-1, 100, True)
    with pytest.raises(ValueError):
        reward_cost(2, 1, True)


@given(st.floats(0, 100), st.booleans())
def test_reward_time_range(t, solved):
    r = reward_time(t, 100.0, solved)
    assert 0.0 <= r <= 1.0


@given(st.integers(0, 999))
def test_reward_time_strictly_decreasing(i):
    t = i / 10.0
    assert reward_time(t, 100.0, True) > reward_time(t + 0.1, 100.0, True)


@given(st.integers(0, 999))
def test_reward_cost_strictly_decreasing(i):
    c = i * 99.0
    assert reward_cost(c, 100_000.0, True) > reward_cost(c + 99.0, 100_000.0,
                                                         True)


def test_estimate_cost():
    assert estimate_cost(100, 50) == 250
    assert estimate_cost(0, 0) == 0
    assert ENUMERATOR_COST == 0.4
    with pytest.raises(ValueError):
        estimate_cost(-1, 0)


def test_reward_kind():
    rk = RewardKind("time", T=100, C=1000)
    assert rk.compute(50, 0, True) == 0.0625
    assert RewardKind("binary").compute(99, 99, True) == 1.0
    with pytest.raises(ValueError):
        RewardKind("karma")


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

def test_record_outcome_success_only():
    store = BanditStore(seed=1)
    r = rec((0.0, 0.0), A1)
    store.append(r)
    assert len(store) == 1
    assert store.records[0] == r


def test_store_insertion_order_and_persistence(tmp_path):
    store = BanditStore(seed=1)
    r1, r2 = rec((0.0,), A1, reward=0.5), rec((1.0,), E, reward=0.25, c=0.4)
    store.append(r1)
    store.append(r2)
    assert store.records == [r1, r2]
    path = tmp_path / "state.jsonl"
    store.save(path)
    loaded = BanditStore.load(path, seed=9)
    assert loaded.records == [r1, r2]


def test_record_validation():
    with pytest.raises(ValueError):
        SolveRecord((0.0,), A1, reward=1.5, time=0, cost=0)
    with pytest.raises(ValueError):
        SolveRecord((0.0,), A1, reward=0.5, time=-1, cost=0)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["features", "time", "cost"])
def test_record_rejects_non_finite_values(field, bad):
    kwargs = {"features": (0.0, 1.0), "solver": A1, "reward": 0.5,
              "time": 1.0, "cost": 10.0}
    kwargs[field] = (0.0, bad) if field == "features" else bad
    with pytest.raises(ValueError, match="finite"):
        SolveRecord(**kwargs)


@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
def test_store_load_rejects_a_non_finite_record(literal, tmp_path):
    path = tmp_path / "state.jsonl"
    BanditStore(records=[rec((0.0,), A1)]).save(path)
    line = json.dumps(rec((1.0,), E).to_json()).replace('"cost": 10.0',
                                                         f'"cost": {literal}')
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match="finite"):
        BanditStore.load(path)


def test_store_load_shares_solvers_and_points_and_names_a_bad_solver(tmp_path):
    path = tmp_path / "state.jsonl"
    records = [rec((0.0, 1.0), A1), rec((0.0, 1.0), A1), rec((2.0, 1.0), E)]
    BanditStore(records=records).save(path)
    loaded = BanditStore.load(path)
    assert loaded.records == records
    first, second, third = loaded.records
    assert first.solver is second.solver
    assert first.features is second.features
    assert loaded.points.tolist() == [[0.0, 1.0], [2.0, 1.0]]
    assert loaded.point_column.tolist() == [0, 0, 1]
    # an unhashable solver field is a bad line, not a crash past the check
    bad = json.dumps(rec((1.0, 1.0), A1).to_json()).replace(
        '"model": "modelA"', '"model": ["modelA"]')
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad + "\n")
    with pytest.raises(ValueError, match="line 4: not a solve record"):
        BanditStore.load(path)


# ---------------------------------------------------------------------------
# nearest neighbors and ranking
# ---------------------------------------------------------------------------

def test_nearest_records_ties_break_by_insertion_order():
    store = BanditStore(seed=0)
    first = rec((1.0, 0.0), A1)
    second = rec((0.0, 1.0), B1)  # same distance from the origin
    store.append(first)
    store.append(second)
    got = nearest_records(store, (0.0, 0.0), 1)
    assert got == [first]


def test_rank_single_sums_rewards():
    store = BanditStore(seed=3)
    q = (0.0, 0.0)
    store.append(rec((0.1, 0.0), A1, reward=0.9))
    store.append(rec((0.0, 0.1), A1, reward=0.8))
    store.append(rec((0.1, 0.1), B1, reward=1.0))
    order = rank_single(store, q, 3, [A1, B1, E])
    assert order[0] == A1  # 1.7 beats 1.0
    assert order[1] == B1
    assert order[2] == E   # absent, appended
    assert knn_scores(store, q, 3) == {A1: pytest.approx(1.7),
                                       B1: pytest.approx(1.0)}


def test_rank_single_k1():
    store = BanditStore(seed=3)
    store.append(rec((5.0,), A1, reward=0.2))
    store.append(rec((0.0,), B1, reward=0.3))
    order = rank_single(store, (0.1,), 1, [A1, B1, E])
    assert order[0] == B1
    assert set(order[1:]) == {A1, E}


def test_rank_single_empty_store_is_random_permutation():
    solvers = [E, A1, A2, B1]
    seen = set()
    for seed in range(40):
        store = BanditStore(seed=seed)
        order = rank_single(store, (0.0,), 5, solvers)
        assert sorted(order, key=str) == sorted(solvers, key=str)
        seen.add(tuple(order))
    assert len(seen) > 5  # genuinely shuffled, not one fixed order


def test_rank_single_deterministic_given_seed():
    def run(seed):
        store = BanditStore(seed=seed)
        store.append(rec((0.0,), A1, reward=0.5))
        return [rank_single(store, (0.0,), 2, [E, A1, A2, B1])
                for _ in range(3)]

    assert run(11) == run(11)
    assert run(11) != run(12) or run(11) != run(13)


def test_rank_single_completeness_random():
    rng = random.Random(0)
    solvers = [E, A1, A2, B1]
    for trial in range(50):
        store = BanditStore(seed=trial)
        for _ in range(rng.randrange(0, 10)):
            store.append(rec((rng.random(), rng.random()),
                             rng.choice(solvers), reward=rng.random()))
        order = rank_single(store, (rng.random(), rng.random()), 3, solvers)
        assert sorted(order, key=str) == sorted(solvers, key=str)


def test_rank_single_scores_match_bruteforce_oracle():
    rng = random.Random(42)
    solvers = [E, A1, A2, B1]
    for trial in range(100):
        store = BanditStore(seed=trial)
        n = rng.randrange(0, 30)
        for _ in range(n):
            store.append(rec((rng.uniform(-5, 5), rng.uniform(-5, 5)),
                             rng.choice(solvers), reward=rng.random()))
        q = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        k = rng.randrange(1, 8)
        records = list(store.records)
        expected = reward_sums(nearest_rows(records, q, k), records,
                               lambda s: s)
        got = knn_scores(store, q, k)
        assert set(got) == set(expected)
        for s in expected:
            assert got[s] == pytest.approx(expected[s])


def _rngs(seed):
    return {"modelA": random.Random(seed), "modelB": random.Random(seed + 1)}


def test_rank_double_layers():
    store = BanditStore(seed=5)
    q = (0.0,)
    # model layer favors modelA; modelA's prompt layer favors style 2
    for r in (rec((0.0,), A1, reward=0.3), rec((0.0,), A2, reward=0.9),
              rec((0.1,), B1, reward=0.5)):
        store.append(r)
    portfolio = [E, A1, A2, B1, SolverId.llm("modelB", 2)]
    order = rank_double(store, q, 15, portfolio, _rngs(6))
    assert order[0] == A2  # modelA first, then its best prompt
    assert order[1] == A1
    assert sorted(order, key=str) == sorted(portfolio, key=str)


def test_rank_double_cold_start_complete():
    store = BanditStore(seed=1)
    portfolio = [E, A1, A2, SolverId.llm("modelA", 3), B1]
    order = rank_double(store, (0.0,), 15, portfolio, _rngs(1))
    assert sorted(order, key=str) == sorted(portfolio, key=str)


def test_rank_double_prompt_stores_independent():
    q = (0.0,)
    # records for modelA only
    records = [rec((0.0,), A2, reward=1.0)]

    def b_order():
        return rank_double(BanditStore(seed=5, records=records), q, 15,
                           [SolverId.llm("modelB", s) for s in (1, 2, 3)],
                           {"modelB": random.Random(8)})

    baseline = b_order()
    records.append(rec((0.0,), A1, reward=1.0))
    assert b_order() == baseline  # modelA data never reaches modelB's layer


def test_rank_double_prompt_layer_matches_single_over_model_records():
    rng = random.Random(7)
    models = ["modelA", "modelB", "modelC"]
    for trial in range(150):
        dim = rng.randrange(2, 6)
        points = [tuple(float(rng.randrange(-3, 4)) for _ in range(dim))
                  for _ in range(rng.randrange(1, 8))]
        records = []
        for _ in range(rng.randrange(0, 40)):
            solver = (E if rng.random() < 0.2 else
                      SolverId.llm(rng.choice(models), rng.randrange(1, 7)))
            # few distinct points: many records tie on distance
            records.append(rec(rng.choice(points), solver,
                               reward=rng.choice((0.25, 0.5, 1.0))))
        q = rng.choice(points) if rng.random() < 0.5 else tuple(
            float(rng.randrange(-3, 4)) for _ in range(dim))
        k = rng.randrange(1, 10)
        prompts = {m: [SolverId.llm(m, s) for s in
                       rng.sample(range(1, 7), rng.randrange(1, 7))]
                   for m in models}
        portfolio = [E] + [s for m in models for s in prompts[m]]
        seeds = {m: rng.randrange(2 ** 31) for m in models}

        order = rank_double(BanditStore(seed=trial, records=records), q, k,
                            portfolio,
                            {m: random.Random(seeds[m]) for m in models})
        assert sorted(order, key=str) == sorted(portfolio, key=str)
        for m in models:
            # rank_single over the model's own records, by an RNG seeded as
            # the model's
            own = BanditStore(seed=seeds[m], records=[
                r for r in records if r.solver.model == m])
            got = [s for s in order if s.model == m]
            assert got == rank_single(own, q, k, prompts[m])


def test_rank_double_matches_bruteforce_reference():
    # Stores hold rows the portfolio does not configure: a model outside it
    # and, when the portfolio has no enumerator, enumerator rows. They take
    # model-layer first-k slots but are never ranked.
    rng = random.Random(17)
    outside = SolverId.llm("modelZ", 3)
    for trial in range(300):
        dim = rng.randrange(1, 4)
        points = [tuple(float(rng.randrange(-2, 3)) for _ in range(dim))
                  for _ in range(rng.randrange(1, 6))]  # many distance ties
        models = rng.sample(["modelA", "modelB", "modelC"], rng.randrange(1, 4))
        portfolio = [SolverId.llm(m, s) for m in models
                     for s in rng.sample(range(1, 7), rng.randrange(1, 7))]
        if rng.random() < 0.5:
            portfolio.insert(rng.randrange(len(portfolio) + 1), E)
        pool = portfolio + [E, outside] + [
            SolverId.llm(m, s) for m in models for s in range(1, 7)]
        records = [rec(rng.choice(points), rng.choice(pool),
                       reward=rng.choice((0.0, 0.25, 0.5, 1.0)))
                   for _ in range(rng.randrange(0, 50))]
        q = rng.choice(points) if rng.random() < 0.5 else tuple(
            float(rng.randrange(-2, 3)) for _ in range(dim))
        k = rng.randrange(1, 10)
        seeds = {m: rng.randrange(2 ** 31) for m in models}
        store = BanditStore(seed=trial, records=records)
        rngs = {m: random.Random(s) for m, s in seeds.items()}
        got = rank_double(store, q, k, portfolio, rngs)
        ref_rng = random.Random(trial)
        ref_rngs = {m: random.Random(s) for m, s in seeds.items()}
        assert got == reference_rank_double(records, q, k, portfolio,
                                            ref_rng, ref_rngs)
        # the same draws from every RNG, so the next query ranks alike
        assert store.rng.random() == ref_rng.random()
        for m in models:
            assert rngs[m].random() == ref_rngs[m].random()


def test_a_zero_reward_neighbor_still_ranks_ahead_of_unseen_arms():
    zero = RewardKind("time", T=10.0).compute(10.0, 0.0, True)  # solved at T
    assert zero == 0.0
    for seed in range(20):
        store = BanditStore(seed=seed, records=[rec((0.0,), A2, reward=zero),
                                                rec((0.1,), E, reward=zero)])
        assert knn_scores(store, (0.0,), 2) == {A2: 0.0, E: 0.0}
        assert set(rank_single(store, (0.0,), 2, [A1, B1, A2, E])[:2]) == {A2, E}
        order = rank_double(store, (0.0,), 2,
                            [E, A1, A2, SolverId.llm("modelA", 3), B1],
                            _rngs(seed))
        # modelA and the enumerator ahead of unseen modelB; A2 ahead of
        # modelA's unseen styles
        assert order[-1] == B1
        assert [s for s in order if s.model == "modelA"][0] == A2


def test_store_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "state.jsonl"
    store = BanditStore(seed=1, records=[rec((0.0,), A1)])
    store.save(path)
    before = path.read_text()
    store.append(rec((1.0,), B1))

    def broken(self):
        raise RuntimeError("disk full")

    monkeypatch.setattr(SolveRecord, "to_json", broken)
    with pytest.raises(RuntimeError):
        store.save(path)
    assert path.read_text() == before  # the old file survives intact
    monkeypatch.undo()
    store.save(path)  # over the stale temporary file
    assert BanditStore.load(path).records == store.records


def test_store_rejects_mixed_dimensions():
    store = BanditStore(seed=0, records=[rec((0.0, 1.0), A1)])
    with pytest.raises(ValueError):
        store.append(rec((0.0,), A1))
    with pytest.raises(ValueError):
        nearest_records(store, (0.0,), 1)


def test_store_feature_matrix_tracks_appends():
    store = BanditStore(seed=0)
    points = [(float(i), float(-i)) for i in range(40)]  # past one regrowth
    for p in points:
        store.append(rec(p, A1))
    assert store.features.tolist() == [list(p) for p in points]


def test_store_columns_built_in_bulk_match_appends(tmp_path):
    rng = random.Random(3)
    solvers = [E, A1, A2, B1]
    points = [(rng.random(), rng.random()) for _ in range(30)]
    records = [rec(rng.choice(points), rng.choice(solvers), reward=rng.random(),
                   t=rng.uniform(0, 9), c=rng.uniform(0, 900))
               for _ in range(50)]
    built = BanditStore(seed=0, records=records)
    grown = BanditStore(seed=0)
    for r in records:
        grown.append(r)
    path = tmp_path / "state.jsonl"
    built.save(path)
    loaded = BanditStore.load(path)
    for store in (built, grown, loaded):
        assert store.features.tolist() == [list(r.features) for r in records]
        assert store.reward_column.tolist() == [r.reward for r in records]
        assert store.time_column.tolist() == [r.time for r in records]
        assert store.cost_column.tolist() == [r.cost for r in records]
        assert [store.solvers[i] for i in store.solver_column] == \
            [r.solver for r in records]
        assert store.solver_index(SolverId.llm("modelZ", 1)) is None
        # the records view: equal to the list, with len, index and slice
        view = store.records
        assert view == records and records == view and list(view) == records
        assert len(view) == len(store) == 50
        assert view[0] == records[0] and view[-1] == records[-1]
        assert view[10:20:3] == records[10:20:3]
        assert view[::-1] == records[::-1]
        with pytest.raises(IndexError):
            view[50]
        # one features tuple per distinct point, one SolverId per solver
        features, solver_ids = {}, {}
        for r in view:
            assert features.setdefault(r.features, r.features) is r.features
            assert solver_ids.setdefault(r.solver, r.solver) is r.solver
        assert len(features) < len(view)
        copy = tmp_path / "copy.jsonl"
        store.save(copy)
        assert copy.read_bytes() == path.read_bytes()
    built.append(records[0])  # grows past the capacity 50 records reach
    assert built.features.tolist()[-1] == list(records[0].features)
    with pytest.raises(ValueError):
        BanditStore(records=[rec((0.0,), A1), rec((0.0, 1.0), A1)])


def test_store_nearest_order_is_kept_per_query_and_store_size():
    store = BanditStore(seed=0, records=[rec((float(i),), A1) for i in range(5)])
    first = store.nearest_order((3.0,))
    assert first.tolist() == [3, 2, 4, 1, 0]
    assert store.nearest_order(np.array([3.0])) is first
    assert not first.flags.writeable
    assert store.nearest_order((0.0,)).tolist() == [0, 1, 2, 3, 4]
    store.append(rec((3.0,), B1))
    assert store.nearest_order((3.0,)).tolist() == [3, 5, 2, 4, 1, 0]


def _full_rewrite(store, path):
    BanditStore(records=store.records).save(path)
    return path.read_bytes()


def test_store_save_appends_new_records(tmp_path):
    path = tmp_path / "state.jsonl"
    store = BanditStore(seed=1, records=[rec((0.0,), A1)])
    store.save(path)
    inode = path.stat().st_ino
    for i in range(3):
        store.append(rec((float(i),), B1, reward=0.5, t=i + 0.25))
        store.save(path)
        assert path.stat().st_ino == inode  # appended, not replaced
    store.save(path)  # nothing new: the file stays as it is
    assert path.read_bytes() == _full_rewrite(store, tmp_path / "full.jsonl")
    loaded = BanditStore.load(path, seed=2)
    loaded.append(rec((7.0,), E, c=0.4))
    loaded.save(path)  # a loaded store appends too
    assert path.stat().st_ino == inode
    assert path.read_bytes() == _full_rewrite(loaded, tmp_path / "full.jsonl")


def test_store_save_rewrites_a_file_changed_since(tmp_path):
    path = tmp_path / "state.jsonl"
    store = BanditStore(seed=1, records=[rec((0.0,), A1)])
    store.save(path)
    with open(path, "a", encoding="utf-8") as fh:  # someone else's append
        fh.write('{"stray": true}\n')
    store.append(rec((1.0,), B1))
    store.save(path)
    assert path.read_bytes() == _full_rewrite(store, tmp_path / "full.jsonl")
    other = tmp_path / "other.jsonl"
    store.save(other)  # another path: a full write, then appends there
    store.append(rec((2.0,), E, c=0.4))
    store.save(other)
    assert other.read_bytes() == _full_rewrite(store, tmp_path / "full.jsonl")


def test_store_load_drops_a_torn_last_line(tmp_path):
    path = tmp_path / "state.jsonl"
    records = [rec((float(i),), A1) for i in range(3)]
    BanditStore(records=records).save(path)
    intact = path.read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"features": [9.0], "solver": {"ki')  # an append cut short
    store = BanditStore.load(path)
    assert store.records == records
    store.save(path)  # rewrites the file without the torn line
    assert path.read_bytes() == intact
    store.append(rec((5.0,), B1))
    store.save(path)
    assert BanditStore.load(path).records == records + [rec((5.0,), B1)]
