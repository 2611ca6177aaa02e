"""The ledger format shared by ``run.py``, ``compare.py`` and the workloads.

A ledger is the JSON document one ``run.py`` invocation writes: an
environment fingerprint plus, per workload, its metrics, per-layer values,
checks and count digests.  A metric is ``{"value", "unit", "q1", "q3",
"n"}``: the median over the run's samples (rounds, requests or set-ups),
its quartiles and the sample count.  This module needs only the standard
library, so the scripts can use it without importing the simulator.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def distribution(values: list[float], unit: str) -> dict[str, Any]:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def scalar(value: float, unit: str, n: int = 1) -> dict[str, Any]:
    """A metric measured once per run: its quartiles are the value itself."""
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": n}


def spread(metric: dict[str, Any]) -> float:
    """Distance between the quartiles as a share of the median."""
    value = metric["value"]
    if value == 0:
        return 0.0 if metric["q3"] == metric["q1"] else math.inf
    return (metric["q3"] - metric["q1"]) / abs(value)


def load_config(root: Path = ROOT) -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, units, directions and bounds."""
    return json.loads((root / "BENCHMARK.json").read_text())


def load(path: Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())
