"""Chunk-cap sweep: microseconds per shot by width and frontier-chunk cap.

The engine's default cap fills one chunk with ``DEFAULT_CHUNK_AMPLITUDES``
amplitudes (:func:`~repro.core.engine.default_chunk_cap`, "rule" below), so
the rows per chunk fall as the width grows.  This prints, for one-layer
plans of the suite's ``qsc`` circuits at 4-12 qubits under depolarizing
(DC), amplitude damping with readout error (ADR) and no noise, the time per
shot at a quarter, half, one, two and four times the rule's cap and at the
old fixed cap of 64 rows; ``64/rule`` is the time at 64 rows over the time
at the rule's cap (``rule cap`` rows).  Each cell is the fastest of
``ROUNDS`` runs, the caps taking turns within a round.  ``rows/node-gate``
is, from one more (traced, untimed) run at the rule's cap, the rows the
kernel calls advanced over the node-gates the run counts: a chunk evolves
its distinct states, so noise that leaves most nodes on the identity
keeps it well below 1, and without noise it is 1.  Counts never depend on
the cap, which is the only assertion: the timings are evidence, not a
gate.
"""

import time

from conftest import print_table

from repro.circuits.library import qsc_circuit
from repro.core import SingleShotPartitioner, TQSimEngine
from repro.core.engine import default_chunk_cap
from repro.noise.sycamore import noise_model_by_code
from repro.obs import Tracer

WIDTHS = range(4, 13)
NOISE_CODES = ("DC", "ADR", None)
ROUNDS = 2
SEED = 5


def _caps(rule: int) -> dict[str, int]:
    return {
        "rule/4": max(1, rule // 4),
        "rule/2": max(1, rule // 2),
        "rule": rule,
        "2*rule": 2 * rule,
        "4*rule": 4 * rule,
        "cap 64": 64,
    }


def _sweep(code: str | None, width: int) -> dict:
    circuit = qsc_circuit(width)
    noise = noise_model_by_code(code) if code else None
    rule = default_chunk_cap(width)
    caps = _caps(rule)
    # Enough shots that the largest cap still fills one chunk.
    shots = max(caps.values())
    plan = SingleShotPartitioner().plan(circuit, shots, noise)
    best = dict.fromkeys(caps, float("inf"))
    counts = {}
    for _ in range(ROUNDS):
        for label, cap in caps.items():
            engine = TQSimEngine(noise, seed=SEED, max_batch=cap)
            began = time.perf_counter()
            result = engine.run(circuit, shots, plan=plan)
            best[label] = min(best[label], time.perf_counter() - began)
            counts[label] = result.counts
    assert all(tally == counts["rule"] for tally in counts.values())
    tracer = Tracer()
    traced = TQSimEngine(noise, seed=SEED, max_batch=rule, tracer=tracer).run(
        circuit, shots, plan=plan
    )
    assert traced.counts == counts["rule"]
    kernel_rows = sum(
        span.attributes["kernel_rows"] for span in tracer.spans
        if span.name == "engine.subcircuit"
    )
    row = {"noise": code or "none", "qubits": width, "rule cap": rule,
           "shots": shots}
    row.update(
        {label: seconds / shots * 1e6 for label, seconds in best.items()}
    )
    row["64/rule"] = best["cap 64"] / best["rule"]
    row["rows/node-gate"] = kernel_rows / traced.cost.gate_applications
    return row


def test_chunk_cap_sweep_by_width():
    rows = [
        _sweep(code, width) for code in NOISE_CODES for width in WIDTHS
    ]
    print_table(
        "Frontier-chunk cap sweep - us/shot, one-layer qsc plans "
        f"(best of {ROUNDS})",
        rows,
    )
