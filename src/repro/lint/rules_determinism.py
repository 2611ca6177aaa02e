"""Determinism rules: every random draw must route through ``pathrng``.

The repository's headline guarantee — bitwise-identical counts across
chunk sizes, serial-dispatched, pooled and deep-sharded execution —
holds because a trajectory's draws are a pure function of its tree path (see
:mod:`repro.core.pathrng`).  One stray ``np.random.default_rng()`` inside a
traversal silently re-ties results to process-local state and only surfaces
as a flaky differential-harness failure much later.  These rules flag every
entropy source that is *not* the path-keyed stream:

* ``det-rng`` — references to ``numpy.random`` draw APIs (``default_rng``,
  ``RandomState``, module-level draw functions), the stdlib ``random``
  module, ``secrets`` and ``os.urandom``.  Types that carry no entropy of
  their own (``numpy.random.Generator``, ``SeedSequence``, ``BitGenerator``
  — annotation and key-folding material) are exempt.
* ``det-clock`` — wall-clock reads (``time.time``, ``perf_counter`` and
  friends).  Clocks never feed randomness here, but a clock read inside an
  engine is how "cost model" quietly becomes "load-dependent behaviour";
  the single sanctioned site (:mod:`repro.obs.clock`) is allowlisted in
  :mod:`repro.lint.config`.
* ``obs-clock`` — the structural counterpart: *no* module outside
  ``repro.obs`` may read a clock directly, even for metrics.  Every timer
  routes through :mod:`repro.obs.clock`, which is what makes tracing
  provably inert — enabling a tracer cannot change counts, counters or RNG
  draws because the clock surface is confined to the observability layer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, ModuleContext, ModuleRule

__all__ = ["ForeignRandomRule", "ObsClockRule", "WallClockRule"]

#: numpy.random attributes that are *not* entropy sources: types used in
#: annotations and the seed-folding material pathrng builds keys from.
_ALLOWED_NP_RANDOM = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "Philox",
    "PCG64",
}

#: Wall-clock reads flagged by ``det-clock``.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}


def _maximal_reference_nodes(tree: ast.Module) -> Iterator[ast.expr]:
    """Yield ``Name``/``Attribute`` nodes not nested in a larger attribute.

    Visiting only maximal chains reports ``np.random.default_rng`` once
    instead of once per attribute level.
    """
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)):
            parent = parents.get(id(node))
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue
            yield node


class ForeignRandomRule(ModuleRule):
    """Flag entropy sources other than the path-keyed streams."""

    rule_id = "det-rng"
    severity = "error"
    description = (
        "randomness must flow through repro.core.pathrng — numpy.random "
        "draw APIs, stdlib random, secrets and os.urandom are flagged"
    )

    def visit_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in _maximal_reference_nodes(ctx.tree):
            qualified = ctx.qualified_name(node)
            if qualified is None:
                continue
            flagged = self._flag_reason(qualified)
            if flagged is not None:
                yield self.finding(ctx, node, flagged, symbol=qualified)

    @staticmethod
    def _flag_reason(qualified: str) -> str | None:
        if qualified == "numpy.random" or qualified.startswith("numpy.random."):
            leaf = qualified[len("numpy.random") :].lstrip(".").split(".")[0]
            if leaf in _ALLOWED_NP_RANDOM:
                return None
            return (
                f"{qualified} bypasses the pathrng seeding contract; draw "
                "from a PathStream (or take an explicit stream argument)"
            )
        if qualified == "random" or qualified.startswith("random."):
            return (
                f"stdlib {qualified} is process-global state; use a "
                "path-keyed stream from repro.core.pathrng"
            )
        if qualified == "secrets" or qualified.startswith("secrets."):
            return f"{qualified} is an OS entropy source; simulation draws must be reproducible"
        if qualified == "os.urandom":
            return "os.urandom is an OS entropy source; simulation draws must be reproducible"
        return None


class WallClockRule(ModuleRule):
    """Flag wall-clock reads outside the sanctioned timing sites."""

    rule_id = "det-clock"
    severity = "error"
    description = (
        "wall-clock reads (time.time / perf_counter / ...) are flagged; "
        "metric and calibration timers are allowlisted per file"
    )

    def visit_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in _maximal_reference_nodes(ctx.tree):
            qualified = ctx.qualified_name(node)
            if qualified in _CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{qualified} reads the wall clock; results must not "
                    "depend on time (allowlist metric/calibration timers)",
                    symbol=qualified,
                )


class ObsClockRule(ModuleRule):
    """Confine direct clock reads to the ``repro.obs`` package.

    :mod:`repro.obs.clock` is the one sanctioned call site; everything else
    imports its helpers (``perf_seconds``, ``monotonic_seconds``,
    ``Stopwatch``).  Keeping the clock surface in one leaf module is the
    structural proof that tracing is inert: a tracer can only observe time,
    never leak it into simulation behaviour, because no engine, dispatcher
    or experiment module touches :mod:`time` directly.
    """

    rule_id = "obs-clock"
    severity = "error"
    description = (
        "monotonic/wall clock reads outside repro.obs are forbidden; "
        "route timers through repro.obs.clock"
    )

    def visit_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        # The lint root may be the package dir (module "obs.clock") or the
        # source root (module "repro.obs.clock"); accept both spellings.
        module = ctx.module_name.removeprefix("repro.")
        if module == "obs" or module.startswith("obs."):
            return
        for node in _maximal_reference_nodes(ctx.tree):
            qualified = ctx.qualified_name(node)
            if qualified in _CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{qualified} is a direct clock read outside repro.obs; "
                    "use repro.obs.clock (perf_seconds / monotonic_seconds "
                    "/ Stopwatch) so tracing stays provably inert",
                    symbol=qualified,
                )
