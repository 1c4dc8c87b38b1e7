"""The committed trajectory files (BENCH_*.json) say what their runs say.

Two schemas are in use: medians keyed by seed, for a file whose runs are all
of the one workload its `benchmark` command names, and medians keyed by
workload, then seed, for a file whose runs name their workload.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _runs_and_medians(bench: dict) -> tuple[list, dict]:
    """The runs, each naming its workload, and the medians keyed by workload."""
    medians = bench["medians"]
    if all(key.isdigit() for key in medians):
        workload = bench["benchmark"].split("--workload ")[1].split()[0]
        assert all("workload" not in r for r in bench["runs"])
        return [dict(r, workload=workload) for r in bench["runs"]], {workload: medians}
    return bench["runs"], medians


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_trajectory_file_medians_and_digests_come_from_its_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    runs, medians = _runs_and_medians(bench)
    groups: dict = {}
    for run in runs:
        key = (run["workload"], str(run["seed"]), run["side"])
        groups.setdefault(key, []).append(run)
    stated = {(w, seed, side): values for w, seeds in medians.items()
              for seed, sides in seeds.items() for side, values in sides.items()}
    assert set(groups) == set(stated)
    checked = 0
    for key, group in groups.items():
        assert len({r["digest"] for r in group}) == 1, key
        assert all(r["result"]["correct"] for r in group), key
        side_commit = bench["sides"][key[2]]["commit"]
        assert all(r.get("commit", side_commit) == side_commit for r in group), key
        for name, value in stated[key].items():
            median = statistics.median(r["result"]["metrics"][name]["value"] for r in group)
            assert math.isclose(median, value, rel_tol=1e-12), (key, name)
            checked += 1
    assert checked > 0


def test_trajectory_script_prints_every_files_end_to_end_medians(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import trajectory

    assert trajectory.main() == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    printed: dict = {}
    for block in blocks:
        workload, header, *rows = block.splitlines()
        assert header.split() == ["file", "seed", "side", *metrics]
        printed[workload] = [row.split() for row in rows]
    expected: dict = {}
    for path in sorted(FILES, key=lambda p: int(p.stem.removeprefix("BENCH_pr"))):
        _, medians = _runs_and_medians(json.loads(path.read_text(encoding="utf-8")))
        for workload, seeds in medians.items():
            for seed, sides in seeds.items():
                for side, values in sides.items():
                    expected.setdefault(workload, []).append(
                        (path.stem.removeprefix("BENCH_"), seed, side,
                         [values[m] for m in metrics]))
    assert printed.keys() == expected.keys()
    for workload, rows in expected.items():
        assert [row[:3] for row in printed[workload]] == [list(r[:3]) for r in rows]
        for row, (*_, values) in zip(printed[workload], rows):
            assert [float(v) for v in row[3:]] == pytest.approx(values, rel=1e-3)
