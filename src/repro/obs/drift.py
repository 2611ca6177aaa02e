"""Model-vs-measured drift: the CostModel's calibration feedback loop.

The calibrated :class:`~repro.core.costmodel.CostModel` predicts a plan's
traversal wall time (:meth:`~repro.core.costmodel.CostModel.plan_seconds`)
and those predictions steer the DCP plan search and the shard balancer —
but until now nothing ever checked them against what the engine actually
did.  Tracing closes the loop: every ``engine.run`` span carries the plan
shape (arities, subcircuit lengths, backend, width, chunk cap) as
attributes, so a traced run can be grouped by plan and compared against
the model's prediction for exactly that shape.

``drift_ratio`` > 1 means the run was slower than predicted (the model
under-prices this substrate), < 1 faster.  Persistent drift on one
backend/width is the signal to re-run ``python -m repro calibrate``.

Only *full-tree* runs are compared.  ``plan_seconds`` prices any frontier
range (``frontier_range``), so comparing a shard's ``engine.run`` would only
need its span's ``(layer, start, stop)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.obs.export import TraceSource, _spans_of
from repro.obs.tracer import SpanRecord

__all__ = ["DriftRow", "drift_report", "render_drift"]


@dataclass(frozen=True)
class DriftRow:
    """Measured-vs-predicted traversal time of one plan shape."""

    tree: str
    backend: str
    num_qubits: int
    chunk_cap: int
    runs: int
    measured_seconds: float
    predicted_seconds: float

    @property
    def drift_ratio(self) -> float:
        """measured / predicted; ``inf`` when the prediction is zero."""
        if self.predicted_seconds <= 0:
            return math.inf
        return self.measured_seconds / self.predicted_seconds


def _run_spans(source: TraceSource) -> list[SpanRecord]:
    required = ("tree", "backend", "qubits", "arities", "lengths", "chunk_cap")
    spans = []
    for span in _spans_of(source):
        if span.name != "engine.run":
            continue
        attrs = span.attributes
        if not attrs.get("full_tree"):
            continue
        if any(key not in attrs for key in required):
            continue
        spans.append(span)
    return spans


def drift_report(
    source: TraceSource,
    cost_model_for: Callable[[str, int], object] | None = None,
) -> list[DriftRow]:
    """Group ``engine.run`` spans by plan shape and price each group.

    ``cost_model_for(backend, num_qubits)`` supplies the model; the default
    is :func:`~repro.core.costmodel.get_cost_model`, which calibrates on
    first use per ``(backend, width)`` and caches.  Rows are sorted by
    total measured time, largest first.
    """
    if cost_model_for is None:
        from repro.core.costmodel import get_cost_model

        cost_model_for = get_cost_model

    grouped: dict[tuple, list[SpanRecord]] = {}
    for span in _run_spans(source):
        attrs = span.attributes
        key = (
            str(attrs["tree"]),
            str(attrs["backend"]),
            int(attrs["qubits"]),
            int(attrs["chunk_cap"]),
        )
        grouped.setdefault(key, []).append(span)

    rows: list[DriftRow] = []
    for (tree, backend, qubits, chunk_cap), spans in grouped.items():
        model = cost_model_for(backend, qubits)
        arities: Sequence[int] = spans[0].attributes["arities"]
        lengths: Sequence[int] = spans[0].attributes["lengths"]
        predicted_one = model.plan_seconds(  # type: ignore[attr-defined]
            arities, lengths, max_batch=chunk_cap
        )
        rows.append(
            DriftRow(
                tree=tree,
                backend=backend,
                num_qubits=qubits,
                chunk_cap=chunk_cap,
                runs=len(spans),
                measured_seconds=sum(span.duration for span in spans),
                predicted_seconds=predicted_one * len(spans),
            )
        )
    rows.sort(key=lambda row: (-row.measured_seconds, row.tree, row.backend))
    return rows


def render_drift(rows: Sequence[DriftRow]) -> str:
    """Plain-text drift table (the ``trace --format summary`` tail)."""
    if not rows:
        return "no full-tree engine.run spans recorded; drift unavailable"
    header = (
        "tree", "backend", "qubits", "cap", "runs",
        "measured s", "predicted s", "drift x",
    )
    table = [header]
    for row in rows:
        table.append(
            (
                row.tree,
                row.backend,
                str(row.num_qubits),
                str(row.chunk_cap),
                str(row.runs),
                f"{row.measured_seconds:.4f}",
                f"{row.predicted_seconds:.4f}",
                f"{row.drift_ratio:.2f}",
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    rendered = []
    for line_index, line in enumerate(table):
        cells = [
            line[0].ljust(widths[0]),
            *(line[col].rjust(widths[col]) for col in range(1, len(header))),
        ]
        rendered.append("  ".join(cells).rstrip())
        if line_index == 0:
            rendered.append("  ".join("-" * width for width in widths))
    return "\n".join(rendered)
