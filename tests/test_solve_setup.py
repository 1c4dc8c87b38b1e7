"""scripts/solve_setup.py prints each solve's set-up, part by part.

max2 is in both the enum corpus and benchmarks/, so each of the script's
two tables holds one row.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_solve_setup_prints_each_part_cold_and_warm():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "solve_setup.py"), "--only", "max2",
         "--repeats", "2", "--src", str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=120).stdout
    blocks = out.strip().split("\n\n")[1:]
    assert [b.splitlines()[0] for b in blocks] == [
        "enum-corpus seed 1: 1 solves, warm = least of 2 passes",
        "benchmarks/: 1 solves, warm = least of 2 passes"]
    for block in blocks:
        _, head, sub, row, total = block.splitlines()
        assert head.split()[:3] == ["query", "grammar", "frontier"]
        assert len(sub.split()) == 13
        name, *values = row.split()
        assert (name, len(values)) == ("max2", 13)
        numbers = [int(v.replace(",", "")) for v in values]
        assert numbers[10] == 3  # max2's CEGIS phases
        assert all(n > 0 for n in numbers[:4])
        assert total.split()[1:] == values
