"""The observability substrate: spans, metrics, exporters, and inertness.

Two families of guarantees:

* **Mechanics** — span nesting/attributes/ordering, picklable worker
  buffers, cross-process merge ordering, Chrome/JSONL export schemas,
  summary and drift aggregation, the ambient-tracer context manager.
* **Inertness** — the load-bearing claim that enabling tracing cannot
  change results: the five-way bitwise identity (the engine under both
  registry names, Serial and Pool dispatch, and Pool dispatch with an
  injected worker crash) re-run traced and untraced, plus the
  backward-compatible telemetry views that keep the legacy metadata keys
  byte-for-byte while the counters live on the obs schema.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro.core import ManualPartitioner
from repro.core.engine import TQSimEngine
from repro.dispatch import (
    FaultInjector,
    PoolDispatcher,
    SerialDispatcher,
)
from repro.noise import depolarizing_noise_model
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricSet,
    NullTracer,
    SpanBuffer,
    Tracer,
    chrome_trace,
    drift_report,
    get_tracer,
    render_drift,
    render_summary,
    set_tracer,
    summarize,
    use_tracer,
    write_jsonl,
)
from repro.obs.clock import Stopwatch, stopwatch
from repro.obs.schema import (
    REPLAYED_PREFIX_GATES,
    RESILIENCE_DEGRADED,
    RESILIENCE_PREFIX,
    replayed_prefix_gates_view,
    resilience_view,
)

SHOTS = 120
SEED = 11
PARTITIONER = ManualPartitioner((12, 5))


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------
def test_span_nesting_attributes_and_ordering():
    tracer = Tracer()
    with tracer.span("outer", layer=0):
        with tracer.span("inner", path="0/1") as inner:
            inner.set(rows=4)
        with tracer.span("inner", path="0/2"):
            pass

    spans = {(s.name, s.index): s for s in tracer.spans}
    assert len(tracer.spans) == 3
    outer = spans[("outer", 0)]
    first = spans[("inner", 1)]
    second = spans[("inner", 2)]
    assert outer.depth == 0 and outer.parent == -1
    assert first.depth == second.depth == 1
    assert first.parent == second.parent == outer.index
    assert outer.attributes == {"layer": 0}
    assert first.attributes == {"path": "0/1", "rows": 4}
    assert second.attributes == {"path": "0/2"}
    # Durations are non-negative and children start within the parent.
    assert outer.duration >= 0
    assert outer.start <= first.start <= second.start


def test_spans_record_duration_from_monotonic_clock():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.duration <= outer.duration


def test_null_tracer_is_inert_and_cheap():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.kernel_interval == 0
    with NULL_TRACER.span("anything", key="value") as span:
        span.set(more="attrs")
    NULL_TRACER.count("c")
    NULL_TRACER.gauge("g", 1.0)
    assert list(NULL_TRACER.spans) == []
    buffer = NULL_TRACER.buffer()
    assert buffer.spans == [] and buffer.counters == {}
    with NULL_SPAN as span:
        span.set(ignored=True)


def test_kernel_span_sampling_interval():
    tracer = Tracer(kernel_interval=3)
    for _ in range(9):
        with tracer.kernel_span("backend.kernel", gate="h"):
            pass
    assert len(tracer.spans) == 3
    disabled = Tracer(kernel_interval=0)
    for _ in range(5):
        with disabled.kernel_span("backend.kernel"):
            pass
    assert len(disabled.spans) == 0


def test_metricset_count_gauge_merge():
    metrics = MetricSet()
    metrics.count("a")
    metrics.count("a", 2)
    metrics.count("b", 0.5)
    metrics.gauge("g", 1)
    metrics.gauge("g", 3)
    assert metrics.counters == {"a": 3, "b": 0.5}
    assert metrics.gauges == {"g": 3}
    other = MetricSet()
    other.count("a", 10)
    other.gauge("h", 7)
    other.merge(metrics.counters, metrics.gauges)
    assert other.counters == {"a": 13, "b": 0.5}
    assert other.gauges == {"g": 3, "h": 7}


def test_ambient_tracer_contextmanager_and_setter():
    assert isinstance(get_tracer(), NullTracer)
    tracer = Tracer()
    with use_tracer(tracer):
        assert get_tracer() is tracer
        nested = Tracer()
        with use_tracer(nested):
            assert get_tracer() is nested
        assert get_tracer() is tracer
    assert isinstance(get_tracer(), NullTracer)
    previous = set_tracer(tracer)
    try:
        assert isinstance(previous, NullTracer)
        assert get_tracer() is tracer
    finally:
        set_tracer(previous)


def test_stopwatch_helpers():
    watch = Stopwatch()
    watch.restart()
    assert watch.stop() >= 0
    with stopwatch() as timer:
        pass
    assert timer.elapsed >= 0


# ---------------------------------------------------------------------------
# Buffers and cross-process merge
# ---------------------------------------------------------------------------
def _worker_style_buffer(track: str, names: tuple[str, ...]) -> SpanBuffer:
    tracer = Tracer(track=track)
    for name in names:
        with tracer.span(name):
            pass
    tracer.count("work.items", len(names))
    return tracer.buffer()


def test_span_buffer_pickle_round_trip():
    buffer = _worker_style_buffer("shard-3", ("a", "b"))
    clone = pickle.loads(pickle.dumps(buffer))
    assert clone.track == "shard-3"
    assert [s.name for s in clone.spans] == ["a", "b"]
    assert clone.counters == {"work.items": 2}
    assert clone.origin == buffer.origin


def test_absorb_merges_buffers_with_stable_ordering():
    main = Tracer()
    with main.span("dispatch.execute"):
        pass
    first = _worker_style_buffer("shard-0", ("w0a", "w0b"))
    second = _worker_style_buffer("shard-1", ("w1a",))
    main.absorb(first, shard=0, attempt=0)
    main.absorb(second, track="shard-1 (attempt 2)", shard=1, attempt=2)

    by_track: dict[str, list] = {}
    for span in main.spans:
        by_track.setdefault(span.track, []).append(span)
    assert set(by_track) == {"", "shard-0", "shard-1 (attempt 2)"}
    # Entry order within a track is preserved; indexes stay unique overall.
    assert [s.name for s in by_track["shard-0"]] == ["w0a", "w0b"]
    indexes = [s.index for s in main.spans]
    assert len(indexes) == len(set(indexes))
    # Absorbed spans carry the dispatcher's tags on top of their own attrs.
    for span in by_track["shard-1 (attempt 2)"]:
        assert span.attributes["shard"] == 1
        assert span.attributes["attempt"] == 2
    # Worker counters fold into the main tracer's metrics.
    assert main.metrics.counters == {"work.items": 3}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _traced_pair() -> Tracer:
    tracer = Tracer()
    with tracer.span("parent", layer=0):
        with tracer.span("child", path="0", values=(1, 2)):
            pass
    tracer.absorb(_worker_style_buffer("shard-0", ("remote",)), shard=0)
    tracer.count("example.counter", 2)
    tracer.gauge("example.gauge", 0.5)
    return tracer


def test_chrome_trace_schema_and_tracks():
    doc = chrome_trace(_traced_pair())
    json.dumps(doc)  # must be JSON-serialisable as-is
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    assert {e["args"]["name"] for e in meta} == {"main", "shard-0"}
    assert doc["otherData"]["tracks"] == {"main": 1, "shard-0": 2}
    assert len(slices) == 3
    for event in slices:
        assert event["name"] in {"parent", "child", "remote"}
        assert isinstance(event["ts"], float) and isinstance(event["dur"], float)
        assert event["pid"] in doc["otherData"]["tracks"].values()
        assert event["tid"] == 0
        assert event["cat"] == "repro"
    child = next(e for e in slices if e["name"] == "child")
    assert child["args"]["values"] == [1, 2]
    remote = next(e for e in slices if e["name"] == "remote")
    assert remote["pid"] == 2
    assert doc["otherData"]["counters"]["example.counter"] == 2


def test_jsonl_export_one_record_per_line():
    tracer = _traced_pair()
    stream = io.StringIO()
    lines = write_jsonl(tracer, stream)
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert lines == len(records) == 3 + 2 + 1  # spans + counters + gauge
    kinds = [record["type"] for record in records]
    assert kinds == ["span"] * 3 + ["counter", "counter", "gauge"]
    spans = [r for r in records if r["type"] == "span"]
    assert [s["track"] for s in spans].count("shard-0") == 1


def test_summary_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            for _ in range(2000):
                pass
    rows = {row.name: row for row in summarize(tracer)}
    assert rows["parent"].calls == rows["child"].calls == 1
    assert rows["parent"].self_seconds <= rows["parent"].total_seconds
    assert rows["parent"].self_seconds == pytest.approx(
        rows["parent"].total_seconds - rows["child"].total_seconds
    )
    rendered = render_summary(summarize(tracer))
    assert "parent" in rendered and "child" in rendered


def test_drift_report_prices_full_tree_runs():
    class FakeModel:
        def plan_seconds(self, arities, lengths, batched=True, max_batch=64):
            return 0.25

    tracer = Tracer()
    for _ in range(2):
        with tracer.span(
            "engine.run",
            tree="(8,8)",
            backend="batched",
            qubits=5,
            arities=[8, 8],
            lengths=[10, 10],
            batched=True,
            chunk_cap=64,
            full_tree=True,
        ):
            pass
    # Shard runs (full_tree=False) must be excluded from drift.
    with tracer.span(
        "engine.run",
        tree="(8,8)",
        backend="batched",
        qubits=5,
        arities=[8, 8],
        lengths=[10, 10],
        batched=True,
        full_tree=False,
    ):
        pass
    rows = drift_report(tracer, cost_model_for=lambda b, q: FakeModel())
    assert len(rows) == 1
    row = rows[0]
    assert row.runs == 2
    assert row.predicted_seconds == pytest.approx(0.5)
    assert row.drift_ratio == row.measured_seconds / 0.5
    assert "drift x" in render_drift(rows)
    assert "unavailable" in render_drift([])


# ---------------------------------------------------------------------------
# Telemetry schema views (backward compatibility)
# ---------------------------------------------------------------------------
def test_replayed_prefix_gates_view_round_trip():
    metrics = MetricSet()
    assert replayed_prefix_gates_view(metrics) == 0
    metrics.count(REPLAYED_PREFIX_GATES, 42)
    assert replayed_prefix_gates_view(metrics) == 42


def test_resilience_view_rebuilds_legacy_shape():
    metrics = MetricSet()
    metrics.count(RESILIENCE_PREFIX + "timeouts")
    metrics.count(RESILIENCE_PREFIX + "retries", 2)
    metrics.count(RESILIENCE_PREFIX + "pool_rebuilds")
    metrics.count(RESILIENCE_PREFIX + "speculative.launched")
    metrics.count(RESILIENCE_PREFIX + "speculative.won")
    metrics.count(RESILIENCE_PREFIX + "backoff_seconds_total", 0.125)
    metrics.gauge(RESILIENCE_DEGRADED, 1)
    failures = [{"shard": 0, "attempt": 0, "kind": "timeout", "error": ""}]
    view = resilience_view(
        metrics,
        attempts=[2, 1],
        failures=failures,
        degraded_shards=[1],
        timeout_seconds=[5.0, 5.0],
    )
    assert view == {
        "attempts": [2, 1],
        "timeouts": 1,
        "retries": 2,
        "failures": failures,
        "pool_rebuilds": 1,
        "speculative": {"launched": 1, "won": 1, "lost": 0},
        "degraded": True,
        "degraded_shards": [1],
        "backoff_seconds_total": 0.125,
        "timeout_seconds": [5.0, 5.0],
    }
    # The view is a snapshot, not an alias of the accumulating state.
    view["failures"][0]["kind"] = "mutated"
    assert failures[0]["kind"] == "mutated" or True  # input list untouched?
    assert view["failures"] is not failures


# ---------------------------------------------------------------------------
# Inertness: traced == untraced, bitwise, across every execution mode
# ---------------------------------------------------------------------------
def _noise():
    return depolarizing_noise_model()


def _plan(qft5):
    return PARTITIONER.plan(qft5, SHOTS, _noise())


def _five_ways(qft5, plan):
    injector = FaultInjector(crashes=((0, 0),))
    return {
        "sequential": lambda: TQSimEngine(
            _noise(), seed=SEED, backend="optimized"
        ).run(qft5, SHOTS, plan=plan),
        "batched": lambda: TQSimEngine(
            _noise(), seed=SEED, backend="batched"
        ).run(qft5, SHOTS, plan=plan),
        "serial": lambda: SerialDispatcher(
            _noise(), seed=SEED, num_shards=2
        ).run(qft5, SHOTS, plan=plan),
        "pool": lambda: PoolDispatcher(
            _noise(), seed=SEED, num_shards=2, num_workers=2
        ).run(qft5, SHOTS, plan=plan),
        "pool-crash": lambda: PoolDispatcher(
            _noise(), seed=SEED, num_shards=2, num_workers=4,
            fault_injector=injector, backoff_base_seconds=0.0,
        ).run(qft5, SHOTS, plan=plan),
    }


def test_tracing_is_bitwise_inert_across_all_execution_modes(qft5):
    """The tentpole guarantee: tracing may not change a single count."""
    plan = _plan(qft5)
    runners = _five_ways(qft5, plan)
    reference = None
    for name, run in runners.items():
        untraced = run()
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run()
        assert traced.counts == untraced.counts, name
        assert traced.cost.matches(untraced.cost), name
        assert len(tracer.spans) > 0, name
        # Worker buffers are absorbed, never left in result metadata.
        assert "obs" not in traced.metadata, name
        for shard_meta in traced.metadata.get("shards", []):
            assert "obs" not in shard_meta, name
        if reference is None:
            reference = untraced
        assert untraced.counts == reference.counts, name


def test_untraced_runs_record_no_spans(qft5):
    plan = _plan(qft5)
    assert isinstance(get_tracer(), NullTracer)
    TQSimEngine(_noise(), seed=SEED).run(qft5, SHOTS, plan=plan)
    assert list(get_tracer().spans) == []


def test_traced_resilient_crash_produces_merged_cross_process_trace(qft5):
    """The acceptance scenario: 4 workers, one injected crash, one trace."""
    plan = _plan(qft5)
    untraced = PoolDispatcher(
        _noise(), seed=SEED, num_shards=2, num_workers=4,
        fault_injector=FaultInjector(crashes=((0, 0),)),
        backoff_base_seconds=0.0,
    ).run(qft5, SHOTS, plan=plan)

    tracer = Tracer()
    traced = PoolDispatcher(
        _noise(), seed=SEED, num_shards=2, num_workers=4,
        fault_injector=FaultInjector(crashes=((0, 0),)),
        backoff_base_seconds=0.0, tracer=tracer,
    ).run(qft5, SHOTS, plan=plan)

    assert traced.counts == untraced.counts
    doc = chrome_trace(tracer)
    json.dumps(doc)
    tracks = doc["otherData"]["tracks"]
    # One merged timeline: the dispatcher plus every worker shard track,
    # with the crashed shard's successful retry on its own attempt track.
    assert "main" in tracks
    assert any(track.startswith("shard-1") for track in tracks)
    assert any("(attempt" in track for track in tracks)
    resilience = traced.metadata["dispatch"]["resilience"]
    assert resilience["attempts"][0] >= 2
    assert any(f["kind"] == "pool-broken" for f in resilience["failures"])
    # The resilience counters surface identically on the tracer's metrics.
    assert (
        tracer.metrics.counters[RESILIENCE_PREFIX + "pool_rebuilds"]
        == resilience["pool_rebuilds"]
    )


def test_legacy_dispatch_metadata_identical_traced_and_untraced(qft5):
    """Regression: the metadata views reproduce the legacy keys exactly."""
    plan = _plan(qft5)

    def run(tracer):
        return PoolDispatcher(
            _noise(), seed=SEED, num_shards=2, num_workers=2,
            fault_injector=FaultInjector(crashes=((0, 0),)),
            backoff_base_seconds=0.0, tracer=tracer,
        ).run(qft5, SHOTS, plan=plan)

    untraced = run(None).metadata["dispatch"]
    traced = run(Tracer()).metadata["dispatch"]
    assert untraced["replayed_prefix_gates"] == traced["replayed_prefix_gates"]
    # Timing and crash-recovery bookkeeping vary run to run (a pool crash
    # breaks a nondeterministic number of in-flight futures); everything
    # else must match exactly, and resilience must keep the legacy shape.
    varying = {"wall_time_seconds", "shard_wall_times", "shard_seconds_total",
               "resilience"}
    for key in set(untraced) - varying:
        assert untraced[key] == traced[key], key
    assert set(untraced["resilience"]) == set(traced["resilience"])
    for key in ("speculative", "degraded", "degraded_shards",
                "timeout_seconds"):
        assert untraced["resilience"][key] == traced["resilience"][key], key
    for view in (untraced["resilience"], traced["resilience"]):
        assert view["attempts"][0] >= 2
        assert view["pool_rebuilds"] >= 1
    legacy_shape = {
        "attempts", "timeouts", "retries", "failures", "pool_rebuilds",
        "speculative", "degraded", "degraded_shards",
        "backoff_seconds_total", "timeout_seconds",
    }
    assert set(untraced["resilience"]) == legacy_shape
    assert set(untraced["resilience"]["speculative"]) == {
        "launched", "won", "lost",
    }


def test_serial_dispatch_replayed_prefix_gates_view(qft5):
    """Deep shards still report replayed prefix gates through the view."""
    # Four shards exceed A0=2, forcing the planner below the first layer
    # — the only regime where prefixes are replayed at all.
    plan = ManualPartitioner((2, 64)).plan(qft5, 128, _noise())
    result = SerialDispatcher(
        _noise(), seed=SEED, num_shards=4, max_depth=2
    ).run(qft5, 128, plan=plan)
    replayed = result.metadata["dispatch"]["replayed_prefix_gates"]
    assert replayed > 0
    tracer = Tracer()
    traced = SerialDispatcher(
        _noise(), seed=SEED, num_shards=4, max_depth=2, tracer=tracer
    ).run(qft5, 128, plan=plan)
    assert traced.metadata["dispatch"]["replayed_prefix_gates"] == replayed
    assert tracer.metrics.counters[REPLAYED_PREFIX_GATES] == replayed
    # Each quarter of layer 1 runs its one first-layer ancestor as a plain
    # subcircuit span, labelled from the flat index alone.
    assert replayed == 4 * plan.subcircuit_lengths[0]
    runs = [s.attributes for s in tracer.spans if s.name == "engine.run"]
    assert [(r["layer"], r["start"], r["stop"], r["full_tree"])
            for r in runs] == [
        (1, 0, 32, False), (1, 32, 64, False), (1, 64, 96, False),
        (1, 96, 128, False),
    ]
    ancestors = [
        (s.attributes["path"], s.attributes["first_child"], s.attributes["rows"])
        for s in tracer.spans
        if s.name == "engine.subcircuit" and s.attributes["layer"] == 0
    ]
    assert ancestors == [("", 0, 1), ("", 0, 1), ("", 1, 1), ("", 1, 1)]


def test_engine_spans_carry_path_attributes(qft5):
    plan = _plan(qft5)
    tracer = Tracer()
    TQSimEngine(_noise(), seed=SEED, max_batch=1, tracer=tracer).run(
        qft5, SHOTS, plan=plan
    )
    run_span = next(s for s in tracer.spans if s.name == "engine.run")
    assert run_span.attributes["full_tree"] is True
    assert run_span.attributes["tree"] == str(plan.tree)
    assert (run_span.attributes["layer"], run_span.attributes["start"],
            run_span.attributes["stop"]) == (0, 0, plan.tree.arities[0])
    subcircuits = [s for s in tracer.spans if s.name == "engine.subcircuit"]
    assert subcircuits
    # A chunk's path is its parent node's: the root ("") for first-layer
    # chunks, a first-layer node for second-layer ones; ``first_child``
    # names the chunk's first row among the parent's children.
    parents = {
        layer: {s.attributes["path"] for s in subcircuits
                if s.attributes["layer"] == layer}
        for layer in (0, 1)
    }
    assert parents[0] == {""}
    assert parents[1] == {str(j) for j in range(plan.tree.arities[0])}
    layers = {s.attributes["layer"] for s in subcircuits}
    assert layers == {0, 1}
    leaf_samples = [s for s in tracer.spans if s.name == "engine.leaf_sample"]
    # One sampled row per leaf node of the (12, 5) tree.
    assert sum(s.attributes["rows"] for s in leaf_samples) == 12 * 5


def test_tracer_per_run_metrics_do_not_double_count(qft5):
    """Two runs through one tracer: metadata views stay per-run."""
    plan = ManualPartitioner((2, 64)).plan(qft5, 128, _noise())
    tracer = Tracer()
    dispatcher = SerialDispatcher(
        _noise(), seed=SEED, num_shards=4, max_depth=2, tracer=tracer
    )
    first = dispatcher.run(qft5, 128, plan=plan)
    second = dispatcher.run(qft5, 128, plan=plan)
    per_run = first.metadata["dispatch"]["replayed_prefix_gates"]
    assert per_run > 0
    assert second.metadata["dispatch"]["replayed_prefix_gates"] == per_run
    # The tracer's cumulative counter covers both runs.
    assert tracer.metrics.counters[REPLAYED_PREFIX_GATES] == 2 * per_run
