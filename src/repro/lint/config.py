"""Default rule set and the justified allowlist for the shipped tree.

Every entry here is a *deliberate* exemption from a contract rule, pinned to
one file and one symbol, with the reason it is sound.  The framework rejects
entries without a justification (:class:`~repro.lint.framework.
LintConfigError`), and entries that stop matching anything are reported as
unused by the CLI — so this list can only shrink or stay honest.

Grounds for exemption, in the order the rules list them:

* **Exact-distribution reference simulators** (``statevector/simulator.py``,
  ``density/simulator.py``) draw measurement samples from seeded ``numpy``
  ``Generator`` streams on an exact distribution; they evolve no noisy
  trajectory, so they are outside the path-keyed contract.  The per-shot
  noisy simulators are not exempt: they run the engine's one-layer tree, so
  every trajectory draws from a :class:`~repro.core.pathrng.PathStream`.
* **Circuit construction** (``circuits/stdgates.py``, ``circuits/library``)
  draws circuit *structure* (Haar unitaries, secret strings) before any
  trajectory exists; every entry point takes a seed or Generator, and the
  unseeded fallbacks are user-facing conveniences outside the engine.
* **The clock surface** (``obs/clock.py``) is the only module that reads
  clocks; every metric and calibration timer (engine/dispatcher wall-time
  counters, ``core/copycost.py``, ``core/costmodel.py``, experiment
  harnesses, ``vqa/landscape.py``) imports its helpers, and the
  ``obs-clock`` rule rejects any direct read elsewhere — no timed value
  ever feeds a random draw or a simulation outcome.
* **Analysis helpers** (``statevector/sampling.py``,
  ``statevector/state.py``, ``metrics/statistics.py``,
  ``redunelim/simulator.py``) sample from exact distributions for
  post-processing; they accept an optional Generator and default to a local
  one only when the caller does not care about reproducibility.
"""

from __future__ import annotations

from repro.lint.framework import AllowlistEntry, Rule
from repro.lint.rules_backend import (
    BackendRegistryRule,
    BackendStaticConformanceRule,
)
from repro.lint.rules_determinism import (
    ForeignRandomRule,
    ObsClockRule,
    WallClockRule,
)
from repro.lint.rules_hygiene import (
    AnnotationRule,
    BareExceptRule,
    MutableDefaultRule,
)
from repro.lint.rules_multiprocessing import (
    ExecutorCallableRule,
    ModuleStateRule,
    SilentExceptRule,
)
from repro.lint.rules_serve import ServeEntropyRule

__all__ = ["DEFAULT_ALLOWLIST", "default_rules"]


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, determinism first."""
    return [
        ForeignRandomRule(),
        WallClockRule(),
        ObsClockRule(),
        ServeEntropyRule(),
        BackendStaticConformanceRule(),
        BackendRegistryRule(),
        ExecutorCallableRule(),
        ModuleStateRule(),
        SilentExceptRule(),
        AnnotationRule(),
        MutableDefaultRule(),
        BareExceptRule(),
    ]


_RNG = "numpy.random.default_rng"
_PC = "time.perf_counter"

DEFAULT_ALLOWLIST: tuple[AllowlistEntry, ...] = (
    # -- det-rng: exact-distribution reference simulators ------------------
    AllowlistEntry(
        "det-rng", "*statevector/simulator.py", _RNG,
        "ideal statevector simulator: seeded Generator for exact-"
        "distribution sampling, not a trajectory participant",
    ),
    AllowlistEntry(
        "det-rng", "*density/simulator.py", _RNG,
        "density-matrix reference simulator: seeded Generator for readout "
        "sampling on the exact distribution, not a trajectory participant",
    ),
    # -- det-rng: circuit construction (structure, not trajectories) -------
    AllowlistEntry(
        "det-rng", "*circuits/stdgates.py", _RNG,
        "Haar-random gate constructors draw circuit structure; callers pass "
        "a Generator, the unseeded fallback is a user-facing convenience",
    ),
    AllowlistEntry(
        "det-rng", "*circuits/library/*.py", _RNG,
        "model-circuit builders (QV/QSC/BV) draw circuit structure from a "
        "caller-provided seed before any trajectory exists",
    ),
    # -- det-rng: analysis and calibration helpers -------------------------
    AllowlistEntry(
        "det-rng", "*statevector/sampling.py", _RNG,
        "exact-distribution sampling helpers take an optional Generator; "
        "the fallback only serves callers outside the engine",
    ),
    AllowlistEntry(
        "det-rng", "*statevector/state.py", _RNG,
        "Statevector convenience constructors/samplers take an optional "
        "Generator; the fallback only serves callers outside the engine",
    ),
    AllowlistEntry(
        "det-rng", "*metrics/statistics.py", _RNG,
        "bootstrap statistics helper with a pinned default seed; "
        "post-processing only",
    ),
    AllowlistEntry(
        "det-rng", "*redunelim/simulator.py", _RNG,
        "redundancy-elimination study seeds its own Generator for parameter "
        "draws; an offline analysis, not an engine path",
    ),
    AllowlistEntry(
        "det-rng", "*core/copycost.py", _RNG,
        "copy-cost calibration perturbs a scratch state with a pinned seed; "
        "measurement harness, not a simulation path",
    ),
    AllowlistEntry(
        "det-rng", "*core/costmodel.py", _RNG,
        "cost-model calibration builds scratch states/draws with pinned "
        "seeds; measurement harness, not a simulation path",
    ),
    # -- det-clock: the single sanctioned clock site -----------------------
    # Every other module (engine CostCounters, dispatcher wall times, the
    # pool dispatcher's supervision loop, calibration timers, experiment
    # harnesses) now routes through these helpers, so one entry covers the
    # whole tree and the ``obs-clock`` rule enforces the routing
    # structurally.
    AllowlistEntry(
        "det-clock", "*obs/clock.py", "time.*",
        "repro.obs.clock is the one sanctioned clock surface: it wraps "
        "time.perf_counter/perf_counter_ns/monotonic behind helpers every "
        "timer imports, so timing is observable yet provably unable to "
        "feed a draw or an outcome",
    ),
)
