"""Compare benchmark ledgers: ``python3 bench/compare.py A B [--json PATH]``.

``A`` (the parent) and ``B`` (the change) are each a ledger written by
``run.py`` or a directory of ledgers.  One row is printed per workload and
end-to-end metric of ``BENCHMARK.json``: both medians with their quartiles,
the change, a verdict against the metric's bound, and whether the count
digests changed.  Metrics the ledgers carry beyond ``BENCHMARK.json`` follow,
marked ``ungated``.

Verdicts:

* ``worse``      B is worse than A by more than the bound;
* ``better``     with single ledgers, B is better by more than the bound;
  with directories, B wins at least nine tenths of the pairs and the
  medians differ by more than A's quartile distance;
* ``unresolved`` either side's spread (quartile distance over the median)
  exceeds the bound;
* ``same``       otherwise.

Directories are paired by sorted file name (run them alternately, the same
seed in both ledgers of a pair); ties count for neither side.  A single
ledger's quartiles are those of its own rounds; a directory's are those of
its ledgers' medians.  The exit code is 1 when any row reads ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ledger  # noqa: E402  (the script's own package)

#: Share of pairs B must win before a gain may be claimed.
WIN_FRACTION = 0.9


def ledgers_at(path: Path) -> list[dict[str, Any]]:
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [ledger.load(p) for p in paths]


def side(runs: list[dict[str, Any]], workload: str, metric: str
         ) -> dict[str, Any] | None:
    entries = [run["workloads"][workload]["metrics"].get(metric)
               for run in runs if workload in run["workloads"]]
    if not entries or None in entries:
        return None
    if len(entries) == 1:
        return dict(entries[0], values=[entries[0]["value"]])
    values = [entry["value"] for entry in entries]
    return dict(ledger.distribution(values, entries[0]["unit"]), values=values)


def worse_by(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``; positive means worse."""
    change = (b - a) / abs(a) if a else 0.0
    return change if better == "lower" else -change


def wins(a: list[float], b: list[float], better: str) -> tuple[int, int]:
    """Pairs B wins, and pairs decided (ties count for neither side)."""
    won = decided = 0
    for first, second in zip(a, b):
        if first != second:
            decided += 1
            won += (second < first) == (better == "lower")
    return won, decided


def verdict(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any],
            paired: bool) -> tuple[str, float | None]:
    bound = spec["bound"]
    change = worse_by(a["value"], b["value"], spec["better"])
    win_fraction = None
    if paired:
        won, decided = wins(a["values"], b["values"], spec["better"])
        win_fraction = won / decided if decided else 0.0
        if (win_fraction >= WIN_FRACTION and change < 0
                and abs(b["value"] - a["value"]) > a["q3"] - a["q1"]):
            return "better", win_fraction
    if max(ledger.spread(a), ledger.spread(b)) > bound:
        return "unresolved", win_fraction
    if change > bound:
        return "worse", win_fraction
    if change < -bound and not paired:
        return "better", win_fraction
    return "same", win_fraction


def digests(runs: list[dict[str, Any]], workload: str) -> list[Any]:
    return [(run["seed"], run["workloads"][workload]["extra"].get("counts_sha256"))
            for run in runs if workload in run["workloads"]]


def compare(a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]],
            config: dict[str, Any]) -> list[dict[str, Any]]:
    paired = len(a_runs) > 1 or len(b_runs) > 1
    gated = {spec["name"]: spec for spec in config["end_to_end"]}
    rows = []
    for workload in [w["name"] for w in config["workloads"]]:
        same_seed = [(x, y) for x, y in zip(digests(a_runs, workload),
                                            digests(b_runs, workload))
                     if x[0] == y[0]]
        counts = ("n/a" if not same_seed else
                  "same" if all(x == y for x, y in same_seed) else "changed")
        for name in metric_names(a_runs + b_runs, workload, gated):
            a = side(a_runs, workload, name)
            b = side(b_runs, workload, name)
            if a is None or b is None:
                continue
            spec = gated.get(name)
            outcome, win_fraction = (
                verdict(a, b, spec, paired) if spec else ("ungated", None)
            )
            rows.append({
                "workload": workload, "metric": name, "unit": a["unit"],
                "bound": spec["bound"] if spec else None, "a": a, "b": b,
                "change": -worse_by(a["value"], b["value"], "higher"),
                "spread_a": ledger.spread(a), "spread_b": ledger.spread(b),
                "spread_both": ledger.spread(
                    ledger.distribution(a["values"] + b["values"], a["unit"])),
                "verdict": outcome, "win_fraction": win_fraction,
                "counts": counts,
            })
    return rows


def metric_names(runs: list[dict[str, Any]], workload: str,
                 gated: dict[str, Any]) -> list[str]:
    """The gated metrics first, then whatever else the ledgers carry."""
    present = {name for run in runs
               for name in run["workloads"].get(workload, {}).get("metrics", {})}
    return [name for name in gated if name in present] + sorted(present - set(gated))


def bound_text(bound: float | None) -> str:
    return "-" if bound is None else f"{bound:.2f}"


def render(rows: list[dict[str, Any]]) -> str:
    def quartiles(entry: dict[str, Any]) -> str:
        return f"{entry['value']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"

    lines = [f"{'workload':12s} {'metric':22s} {'A median [q1, q3]':>30s} "
             f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>5s} "
             f"{'verdict':>10s} {'wins':>5s} counts"]
    for row in rows:
        wins_text = ("" if row["win_fraction"] is None
                     else f"{row['win_fraction']:.2f}")
        lines.append(
            f"{row['workload']:12s} {row['metric']:22s} "
            f"{quartiles(row['a']):>30s} {quartiles(row['b']):>30s} "
            f"{row['change']:+8.1%} {bound_text(row['bound']):>5s} {row['verdict']:>10s} "
            f"{wins_text:>5s} {row['counts']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent ledger or directory")
    parser.add_argument("b", type=Path, help="changed ledger or directory")
    parser.add_argument("--json", type=Path, help="also write the rows here")
    args = parser.parse_args(argv)
    rows = compare(ledgers_at(args.a), ledgers_at(args.b), ledger.load_config())
    print(render(rows))
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"a": str(args.a), "b": str(args.b), "rows": rows},
            indent=1, sort_keys=True) + "\n")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
