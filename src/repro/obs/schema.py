"""Shared telemetry schema: obs counter names plus legacy metadata views.

Dispatch telemetry used to be ad-hoc nested dicts assembled inline
(``metadata["dispatch"]["resilience"]``, ``replayed_prefix_gates``).
The counters now live in an obs :class:`~repro.obs.tracer.MetricSet`
under the dotted names below, and the old metadata keys are rebuilt from
those counters by the view helpers — so downstream readers (experiments,
tests, the fig10 fault-injection sweeps) keep working unchanged while
traced runs see the same numbers as ``tracer.metrics`` counters.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.obs.tracer import MetricSet

__all__ = [
    "DISPATCH_PREFIX",
    "LATENCY_BUCKET_BOUNDS_MS",
    "REPLAYED_PREFIX_GATES",
    "RESILIENCE_PREFIX",
    "SERVE_CACHE_PREFIX",
    "SERVE_LATENCY_PREFIX",
    "SERVE_PREFIX",
    "latency_percentiles_ms",
    "record_latency",
    "replayed_prefix_gates_view",
    "resilience_view",
]

#: Every dispatch-layer counter lives under this namespace.
DISPATCH_PREFIX = "dispatch."
#: Counter mirroring ``metadata["dispatch"]["replayed_prefix_gates"]``.
REPLAYED_PREFIX_GATES = DISPATCH_PREFIX + "replayed_prefix_gates"
#: Namespace for the pool dispatcher's supervision telemetry (scalars).
RESILIENCE_PREFIX = DISPATCH_PREFIX + "resilience."

#: Scalar counts kept as counters (``RESILIENCE_PREFIX + name``).
RESILIENCE_COUNTERS = (
    "timeouts",
    "retries",
    "pool_rebuilds",
    "speculative.launched",
    "speculative.won",
    "speculative.lost",
    "backoff_seconds_total",
)
#: 0/1 flag kept as a gauge.
RESILIENCE_DEGRADED = RESILIENCE_PREFIX + "degraded"


#: Every serving-layer counter lives under this namespace.
SERVE_PREFIX = "serve."
#: Per-cache hit/miss/eviction counters:
#: ``serve.cache.{plan,transpile,prefix}.{hits,misses,evictions,...}``.
SERVE_CACHE_PREFIX = SERVE_PREFIX + "cache."
#: Request-latency histogram counters: ``serve.latency.le_<bound>ms`` is the
#: number of requests completed in at most ``<bound>`` milliseconds.
SERVE_LATENCY_PREFIX = SERVE_PREFIX + "latency.le_"

#: Geometric upper bounds (milliseconds) of the request-latency histogram.
#: Counter-backed percentiles (p50/p99) are read off these cumulative
#: buckets — no per-request timestamps are retained, so latency telemetry
#: stays O(1) per request and aggregates by plain counter addition.
LATENCY_BUCKET_BOUNDS_MS: tuple[float, ...] = tuple(
    0.25 * 2.0**i for i in range(22)  # 0.25 ms .. ~8.7 min
)
_LATENCY_OVERFLOW = "inf"


def _bucket_name(bound: float) -> str:
    text = f"{bound:g}"
    return SERVE_LATENCY_PREFIX + f"{text}ms"


def record_latency(metrics: MetricSet, seconds: float) -> None:
    """Count one request latency into its cumulative histogram buckets.

    Cumulative (Prometheus-style) buckets: the observation increments every
    bucket whose bound is >= the latency, plus the ``inf`` overflow bucket,
    so percentile reads never have to re-sum a prefix.
    """
    millis = seconds * 1e3
    for bound in LATENCY_BUCKET_BOUNDS_MS:
        if millis <= bound:
            metrics.count(_bucket_name(bound))
    metrics.count(SERVE_LATENCY_PREFIX + _LATENCY_OVERFLOW)


def latency_percentiles_ms(
    metrics: MetricSet, percentiles: Sequence[float] = (50.0, 99.0)
) -> dict[float, float]:
    """Percentile latencies (ms) read off the cumulative histogram counters.

    Each percentile maps to the smallest bucket bound whose cumulative count
    covers it — an upper bound with one-bucket resolution, the standard
    histogram-percentile estimate.  Returns ``inf`` for percentiles beyond
    the largest bound and an empty estimate of 0.0 when nothing was
    recorded.
    """
    total = _counter(metrics, SERVE_LATENCY_PREFIX + _LATENCY_OVERFLOW)
    out: dict[float, float] = {}
    for percentile in percentiles:
        if not 0 < percentile <= 100:
            raise ValueError("percentiles must be in (0, 100]")
        if total == 0:
            out[percentile] = 0.0
            continue
        needed = percentile / 100.0 * total
        for bound in LATENCY_BUCKET_BOUNDS_MS:
            if _counter(metrics, _bucket_name(bound)) >= needed:
                out[percentile] = bound
                break
        else:
            out[percentile] = float("inf")
    return out


def _counter(metrics: MetricSet, name: str) -> float:
    return metrics.counters.get(name, 0)


def replayed_prefix_gates_view(metrics: MetricSet) -> int:
    """Legacy ``metadata["dispatch"]["replayed_prefix_gates"]`` value."""
    return int(_counter(metrics, REPLAYED_PREFIX_GATES))


def resilience_view(
    metrics: MetricSet,
    *,
    attempts: Sequence[int],
    failures: Sequence[dict[str, Any]],
    degraded_shards: Sequence[int],
    timeout_seconds: Sequence[float],
) -> dict[str, Any]:
    """Rebuild the legacy ``metadata["dispatch"]["resilience"]`` dict.

    Scalars come from obs counters/gauges; the structured per-shard
    records (attempt counts, failure log, degraded shard list, planned
    timeouts) are passed through as-is — they are event logs, not
    counters, and stay outside the metric namespace.
    """

    def count(name: str) -> int:
        return int(_counter(metrics, RESILIENCE_PREFIX + name))

    return {
        "attempts": list(attempts),
        "timeouts": count("timeouts"),
        "retries": count("retries"),
        "failures": [dict(record) for record in failures],
        "pool_rebuilds": count("pool_rebuilds"),
        "speculative": {
            "launched": count("speculative.launched"),
            "won": count("speculative.won"),
            "lost": count("speculative.lost"),
        },
        "degraded": bool(metrics.gauges.get(RESILIENCE_DEGRADED, 0)),
        "degraded_shards": list(degraded_shards),
        "backoff_seconds_total": float(
            _counter(metrics, RESILIENCE_PREFIX + "backoff_seconds_total")
        ),
        "timeout_seconds": [float(value) for value in timeout_seconds],
    }
