"""Machine-speed calibration for wall times.

On a shared machine the speed the benchmark gets drifts in phases of tens
of seconds, by up to a third, with no steal time to show for it. So the
benchmark times a fixed calibration loop before the first pass, between
queries (at most every half second, so the readings cover the same
stretches of time as the work), after every pass and after every set-up.
The wall times of each pass are scaled by

    (NOMINAL_UNIT_S / median calibration reading of the pass) ** EXPONENT

The workloads' times move less than the loop's, so scaling by the full
ratio over-corrects. The spread is the interquartile range over the
median across ten runs of a workload, on a 2-vCPU Xeon VM. With
EXPONENT = 0.7 it was below 0.07 for every wall-time metric but
select-stream p90 latency, at 0.11. Without scaling, spreads reached 0.26.

The loop runs no program code, so a change to the program moves the scaled
times as it moves the raw ones; only the machine's phase is taken out.
run.py prints the raw times and the calibration readings next to the
scaled metrics.
"""

from __future__ import annotations

import statistics
import time

# One calibration unit on the machine the baseline was measured on (a
# 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11): the median over many runs.
NOMINAL_UNIT_S = 0.0065
EXPONENT = 0.7
CALIBRATION_SECONDS = 0.15


def calibration_unit() -> int:
    """Interpreter work of the kinds the program does: tuples, dict
    updates, small-int arithmetic, string building, a short sort."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(15_000):
        key = (i & 7, i % 3)
        counts[key[0]] = counts.get(key[0], 0) + key[1]
        total += len(str(i))
    return total + len(sorted(counts.values()))


def calibrate(seconds: float = CALIBRATION_SECONDS) -> float:
    """Median time of one calibration unit over `seconds` of repeats."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        calibration_unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_scale(readings) -> float:
    """The factor for wall times measured among these calibration readings."""
    return (NOMINAL_UNIT_S / statistics.median(readings)) ** EXPONENT
