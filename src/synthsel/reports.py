"""Report files: JSON run reports, CSV summaries, the cumulative Par-2 curve,
and re-scoring a stored report under a different reward kind."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .bandit import REWARDS
from .orchestrator import MultiRunSummary, RunReport

SUMMARY_COLUMNS = (
    "selector", "reward", "pct_solved", "n_solved", "par2",
    "reward_cost", "reward_time", "avg_time", "avg_cost",
)


def summary_row(report: RunReport,
                label: Optional[str] = None) -> dict[str, object]:
    return _summary_row(label if label is not None else report.selector,
                        report.reward, report.aggregates())


def _summary_row(selector: str, reward: str,
                 agg: Mapping[str, float]) -> dict[str, object]:
    return {
        "selector": selector,
        "reward": reward,
        "pct_solved": round(agg["pct_solved"], 1),
        "n_solved": agg["n_solved"],
        "par2": round(agg["par2"], 1),
        "reward_cost": round(agg["reward_cost"], 1),
        "reward_time": round(agg["reward_time"], 1),
        "avg_time": round(agg["avg_time"], 2),
        "avg_cost": round(agg["avg_cost"], 1),
    }


def write_summary_csv(path: str | Path,
                      rows: Sequence[Mapping[str, object]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in SUMMARY_COLUMNS})


def write_cumulative_par2_csv(path: str | Path, report: RunReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_index", "cumulative_par2"])
        for idx, score in report.cumulative_par2():
            writer.writerow([idx, round(score, 3)])


def _write_json(path: str | Path, data: object) -> None:
    # encoded in one call and written once: json.dump would stream the
    # text to the file chunk by chunk
    Path(path).write_text(json.dumps(data, indent=2), encoding="utf-8")


def load_report(path: str | Path) -> RunReport:
    with open(path, encoding="utf-8") as fh:
        return RunReport.from_json(json.load(fh))


def _report_text(data: Mapping[str, object], lines: Sequence[str]) -> str:
    """report.json built from the events.jsonl lines: one top-level key per
    line in `data`'s order, each value encoded compactly, except "records",
    whose records sit one per line, each line byte-identical to its
    events.jsonl line, with the separating commas on lines of their own."""
    records = "[\n" + "\n,\n".join(lines) + "\n]" if lines else "[]"
    fields = (f"{json.dumps(key)}: "
              f"{records if key == 'records' else json.dumps(value)}"
              for key, value in data.items())
    return "{\n" + ",\n".join(fields) + "\n}\n"


def write_run_outputs(out_dir: str | Path, report: RunReport,
                      summary: Optional[MultiRunSummary] = None) -> dict[str, Path]:
    """Standard output bundle: report.json, summary.csv, cumulative_par2.csv,
    events.jsonl (one JSON line per query), and multirun.json when a
    multi-run summary exists. Each record is encoded to JSON once: its
    events.jsonl line is also its line of report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "summary": out / "summary.csv",
        "cumulative_par2": out / "cumulative_par2.csv",
        "events": out / "events.jsonl",
    }
    data = report.to_json()
    lines = [json.dumps(rec) for rec in data["records"]]
    paths["report"].write_text(_report_text(data, lines), encoding="utf-8")
    write_summary_csv(paths["summary"], [_summary_row(
        data["selector"], data["reward"], data["aggregates"])])
    write_cumulative_par2_csv(paths["cumulative_par2"], report)
    paths["events"].write_text("".join(line + "\n" for line in lines),
                               encoding="utf-8")
    if summary is not None:
        paths["multirun"] = out / "multirun.json"
        _write_json(paths["multirun"], summary.to_json())
    return paths


def rescore(report: RunReport, reward_kind: str) -> dict[str, object]:
    """Aggregates under another reward kind, straight from the stored
    per-outcome rewards -- no solver re-runs."""
    if reward_kind not in REWARDS:
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    agg = report.aggregates()
    return {"selector": report.selector, "reward": reward_kind,
            **{k: agg[k] for k in ("n_queries", "n_solved", "pct_solved", "par2")},
            "total_reward": report.reward_total(reward_kind),
            **{k: agg[k] for k in ("reward_time", "reward_cost", "avg_time",
                                   "avg_cost")}}
