"""Tests for ``repro.lint``: every rule family catches its planted violation.

Fixture modules are written into a temporary tree and linted through the real
:func:`repro.lint.framework.run_lint` runner, so these tests exercise import
resolution, relpath scoping and allowlist matching exactly as the CLI does.
Each rule family gets at least two positive fixtures (the rule fires) and one
negative fixture (clean code stays clean), plus end-to-end CLI checks: the
shipped tree lints clean, a planted violation fails the run.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.config import DEFAULT_ALLOWLIST, default_rules
from repro.lint.framework import (
    AllowlistEntry,
    LintConfig,
    LintConfigError,
    run_lint,
)
from repro.lint.rules_backend import BackendRegistryRule, BackendStaticConformanceRule
from repro.lint.rules_determinism import ForeignRandomRule, WallClockRule
from repro.lint.rules_hygiene import AnnotationRule, BareExceptRule, MutableDefaultRule
from repro.lint.rules_multiprocessing import (
    ExecutorCallableRule,
    ModuleStateRule,
    SilentExceptRule,
)
from repro.lint.rules_serve import ServeEntropyRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_fixture(tmp_path, files, rules, config=None):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint them."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([tmp_path], rules, config)


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


# ----------------------------------------------------------------------
# det family
# ----------------------------------------------------------------------
def test_det_rng_flags_default_rng(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
            """
        },
        [ForeignRandomRule()],
    )
    assert rule_ids(report) == ["det-rng"]
    assert report.findings[0].symbol == "numpy.random.default_rng"


def test_det_rng_flags_stdlib_random_and_urandom(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            import os
            import random

            def draw():
                return random.random(), os.urandom(8)
            """
        },
        [ForeignRandomRule()],
    )
    assert rule_ids(report) == ["det-rng", "det-rng"]


def test_det_clock_flags_time_reads(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            import time
            from time import perf_counter

            def stamp():
                return time.time(), perf_counter()
            """
        },
        [WallClockRule()],
    )
    assert rule_ids(report) == ["det-clock", "det-clock"]
    assert {f.symbol for f in report.findings} == {"time.time", "time.perf_counter"}


def test_det_negative_annotations_and_seed_material_pass(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            import numpy as np

            def fold(seed: int | None) -> int:
                sequence = np.random.SeedSequence(seed)
                low, high = sequence.generate_state(2, np.uint32)
                return (int(high) << 32) | int(low)

            def takes_stream(rng: np.random.Generator) -> float:
                return float(rng.random())
            """
        },
        [ForeignRandomRule(), WallClockRule()],
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# serve family
# ----------------------------------------------------------------------
_ENTROPIC_SERVICE = """
import time
import uuid

def request_id():
    return str(uuid.uuid4())

def stamp():
    return time.time()
"""


def test_serve_entropy_flags_uuid_and_clock_in_serve(tmp_path):
    report = lint_fixture(
        tmp_path,
        {"src/repro/serve/handlers.py": _ENTROPIC_SERVICE},
        [ServeEntropyRule()],
    )
    flagged = {finding.symbol for finding in report.findings}
    assert set(rule_ids(report)) == {"serve-entropy"}
    # Both the imports and the call sites are rejected: the whole module
    # surface is banned inside repro.serve, not just known draw calls.
    assert {"uuid.uuid4", "time.time"} <= flagged


def test_serve_entropy_flags_secrets_random_and_urandom(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/serve/tokens.py": """
            import os
            import random
            import secrets

            def token():
                return secrets.token_hex(8), random.random(), os.urandom(4)
            """
        },
        [ServeEntropyRule()],
    )
    flagged = {finding.symbol for finding in report.findings}
    assert {"secrets.token_hex", "random.random", "os.urandom"} <= flagged


def test_serve_entropy_scoped_to_serve_package(tmp_path):
    # The identical source outside repro.serve is this rule's problem no
    # longer (det-rng/det-clock still police the call sites there).
    report = lint_fixture(
        tmp_path,
        {"src/repro/core/handlers.py": _ENTROPIC_SERVICE},
        [ServeEntropyRule()],
    )
    assert report.findings == []


def test_serve_entropy_negative_pathrng_and_obs_clock_pass(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/serve/clean.py": """
            import numpy as np

            from repro.core.pathrng import child_key, run_root_key
            from repro.obs import clock

            def request_id(seed: int, sequence: int) -> str:
                return f"req-{child_key(run_root_key(seed), sequence):016x}"

            def elapsed(stopwatch: clock.Stopwatch) -> float:
                return stopwatch.elapsed_seconds()

            def fold(seed: int) -> np.random.SeedSequence:
                return np.random.SeedSequence(seed)
            """
        },
        [ServeEntropyRule()],
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# backend family
# ----------------------------------------------------------------------
def test_backend_multi_pair_violation(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/mybackend.py": """
            from repro.backends.base import Backend

            class LopsidedBackend(Backend):
                def apply_unitary(self, state, matrix, targets):
                    return state

                def apply_noise_events_multi(self, state, events, rngs):
                    return state
            """
        },
        [BackendStaticConformanceRule()],
    )
    assert "backend-multi-pair" in rule_ids(report)
    assert any(
        "sample_outcomes_multi" in f.message for f in report.findings
    )


def test_backend_signature_violation(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/mybackend.py": """
            from repro.backends.base import Backend

            class SwappedArgsBackend(Backend):
                def apply_unitary(self, matrix, state, targets):
                    return state
            """
        },
        [BackendStaticConformanceRule()],
    )
    assert rule_ids(report) == ["backend-signature"]
    assert report.findings[0].symbol == "SwappedArgsBackend.apply_unitary"


def test_backend_registry_lambda_factory(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/plugins.py": """
            from repro.backends.registry import register_backend

            register_backend("anon", lambda: None)
            """
        },
        [BackendRegistryRule()],
    )
    assert rule_ids(report) == ["backend-registry"]


def test_backend_negative_conforming_subclass(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/mybackend.py": """
            from repro.backends.base import Backend

            class ConformingBackend(Backend):
                def apply_unitary(self, state, matrix, targets):
                    return state

                def apply_noise_events_multi(self, state, events, rngs):
                    return state

                def sample_outcomes_multi(self, state, rngs, readout_error=None):
                    return []
            """
        },
        [BackendStaticConformanceRule(), BackendRegistryRule()],
    )
    assert report.findings == []


def test_backend_registry_introspects_shipped_backends():
    # On the real tree the runtime pass must resolve every registered
    # backend without findings (same invariant the CLI acceptance run has).
    report = run_lint([REPO_ROOT / "src"], [BackendRegistryRule()])
    assert report.findings == []


# ----------------------------------------------------------------------
# mp family
# ----------------------------------------------------------------------
def test_mp_callable_flags_lambda_submit(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            from concurrent.futures import ProcessPoolExecutor

            def run():
                with ProcessPoolExecutor() as pool:
                    return pool.submit(lambda: 1).result()
            """
        },
        [ExecutorCallableRule()],
    )
    assert rule_ids(report) == ["mp-callable"]
    assert "lambda" in report.findings[0].message


def test_mp_callable_flags_nested_function_and_bound_method(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            from concurrent.futures import ProcessPoolExecutor

            def run(dispatcher):
                def inner(x):
                    return x + 1

                pool = ProcessPoolExecutor()
                pool.submit(inner, 1)
                pool.submit(dispatcher.handle, 2)
            """
        },
        [ExecutorCallableRule()],
    )
    assert rule_ids(report) == ["mp-callable", "mp-callable"]
    messages = " ".join(f.message for f in report.findings)
    assert "nested function" in messages and "bound method" in messages


def test_mp_callable_flags_lambda_on_shard_spec(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            from repro.dispatch.planner import ShardSpec

            def plan():
                return ShardSpec(callback=lambda result: result)
            """
        },
        [ExecutorCallableRule()],
    )
    assert rule_ids(report) == ["mp-callable"]
    assert "ShardSpec" in report.findings[0].message


def test_mp_module_state_flags_dispatch_mutation(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/dispatch/cache.py": """
            _RESULTS = {}
            _TOTALS = []

            def record(key, value):
                _RESULTS[key] = value
                _TOTALS.append(value)

            def reset():
                global _RESULTS
                _RESULTS = {}
            """
        },
        [ModuleStateRule()],
    )
    assert sorted(rule_ids(report)) == [
        "mp-module-state",
        "mp-module-state",
        "mp-module-state",
    ]


def test_mp_negative_module_level_function_submit(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/dispatch/clean.py": """
            from concurrent.futures import ProcessPoolExecutor

            from repro.dispatch import worker

            def run_shard(spec):
                return spec

            def run(specs):
                with ProcessPoolExecutor() as pool:
                    futures = [pool.submit(run_shard, s) for s in specs]
                    futures += [pool.submit(worker.run_shard, s) for s in specs]
                return futures
            """
        },
        [ExecutorCallableRule(), ModuleStateRule()],
    )
    assert report.findings == []


def test_mp_silent_except_flags_bare_and_silent_broad(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/dispatch/swallow.py": """
            def run(futures):
                results = []
                for future in futures:
                    try:
                        results.append(future.result())
                    except:
                        pass
                    try:
                        results.append(future.result())
                    except Exception:
                        continue
                    try:
                        results.append(future.result())
                    except (ValueError, BaseException):
                        ...
                return results
            """
        },
        [SilentExceptRule()],
    )
    assert rule_ids(report) == ["mp-silent-except"] * 3


def test_mp_silent_except_negative_handled_and_scoped(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            # Dispatch code that *handles* broad exceptions (re-raise typed,
            # record telemetry) is fine, as is catching specific types.
            "src/repro/dispatch/handled.py": """
            def run(futures, telemetry):
                results = []
                for future in futures:
                    try:
                        results.append(future.result())
                    except Exception as error:
                        telemetry.append(str(error))
                    try:
                        results.append(future.result())
                    except OSError:
                        pass
                return results
            """,
            # Outside the dispatch package the rule does not apply at all.
            "src/repro/metrics/elsewhere.py": """
            def safe(value):
                try:
                    return float(value)
                except Exception:
                    pass
            """,
        },
        [SilentExceptRule()],
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# api family
# ----------------------------------------------------------------------
def test_api_mutable_default(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            def merge(counts, into={}):
                into.update(counts)
                return into

            def collect(items=list()):
                return items
            """
        },
        [MutableDefaultRule()],
    )
    assert rule_ids(report) == ["api-mutable-default", "api-mutable-default"]


def test_api_bare_except(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            def guarded(fn):
                try:
                    return fn()
                except:
                    return None
            """
        },
        [BareExceptRule()],
    )
    assert rule_ids(report) == ["api-bare-except"]


def test_api_annotations_scoped_to_contract_files(tmp_path):
    files = {
        # In scope: dispatch module with an unannotated public function.
        "src/repro/dispatch/helper.py": """
        def merge(results, weights):
            return results
        """,
        # Out of scope: same code elsewhere must not warn.
        "src/repro/analysis/helper.py": """
        def merge(results, weights):
            return results
        """,
    }
    report = lint_fixture(tmp_path, files, [AnnotationRule()])
    assert rule_ids(report) == ["api-annotations", "api-annotations"]
    assert all("dispatch" in f.path for f in report.findings)


def test_api_negative_annotated_and_safe(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/dispatch/clean.py": """
            def merge(results: list, weights: dict | None = None) -> list:
                try:
                    return list(results)
                except TypeError:
                    return []
            """
        },
        [AnnotationRule(), MutableDefaultRule(), BareExceptRule()],
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# framework: allowlist, selection, thresholds
# ----------------------------------------------------------------------
def test_allowlist_requires_justification():
    with pytest.raises(LintConfigError):
        AllowlistEntry(rule_id="det-rng", path_glob="*", justification="  ")


def test_allowlist_suppresses_and_reports_unused(tmp_path):
    used = AllowlistEntry(
        rule_id="det-rng",
        path_glob="*sample.py",
        symbol_glob="numpy.random.default_rng",
        justification="fixture",
    )
    unused = AllowlistEntry(
        rule_id="det-clock",
        path_glob="*nowhere.py",
        justification="stale",
    )
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            import numpy as np

            RNG = np.random.default_rng()
            """
        },
        [ForeignRandomRule()],
        LintConfig(allowlist=(used, unused)),
    )
    assert report.findings == []
    assert [entry for _, entry in report.suppressed] == [used]
    assert report.unused_allowlist == [unused]
    assert not report.failed


def test_rule_selection_by_family(tmp_path):
    report = lint_fixture(
        tmp_path,
        {
            "src/repro/sample.py": """
            import numpy as np

            def f(x=[]):
                return np.random.default_rng()
            """
        },
        default_rules(),
        LintConfig(select=("det",)),
    )
    assert rule_ids(report) == ["det-rng"]


def test_fail_on_threshold_for_warnings(tmp_path):
    files = {
        "src/repro/dispatch/helper.py": """
        def merge(results, weights):
            return results
        """
    }
    lenient = lint_fixture(tmp_path / "a", files, [AnnotationRule()])
    strict = lint_fixture(
        tmp_path / "b", files, [AnnotationRule()], LintConfig(fail_on="warning")
    )
    assert lenient.findings and not lenient.failed
    assert strict.findings and strict.failed


def test_parse_error_is_a_finding(tmp_path):
    report = lint_fixture(
        tmp_path,
        {"src/repro/broken.py": "def oops(:\n"},
        default_rules(),
    )
    assert rule_ids(report) == ["parse-error"]
    assert report.failed


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
def run_cli(*argv, cwd=None):
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
    )


def test_cli_shipped_tree_is_clean():
    result = run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    # Zero unjustified exemptions: every shipped entry must carry text, and
    # none of them may be stale on the shipped tree.
    assert all(e.justification.strip() for e in DEFAULT_ALLOWLIST)
    assert "unused allowlist entry" not in result.stderr


def test_cli_planted_violation_fails(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\nRNG = np.random.default_rng()\n", encoding="utf-8"
    )
    result = run_cli(str(planted))
    assert result.returncode == 1
    assert "det-rng" in result.stdout


def test_cli_json_format_and_artifact(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("import time\nT0 = time.time()\n", encoding="utf-8")
    artifact = tmp_path / "findings.json"
    result = run_cli(str(planted), "--format", "json", "--output", str(artifact))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["failed"] is True
    assert payload["findings"][0]["rule"] == "det-clock"
    assert json.loads(artifact.read_text())["findings"] == payload["findings"]


def test_cli_unknown_rule_is_usage_error():
    result = run_cli("--rules", "nosuch")
    assert result.returncode == 2
    assert "unknown rule" in result.stdout


def test_cli_fail_on_warning_catches_annotation_gaps(tmp_path):
    scoped = tmp_path / "dispatch"
    scoped.mkdir()
    (scoped / "helper.py").write_text(
        "def merge(results, weights):\n    return results\n", encoding="utf-8"
    )
    # Lint the parent so the relpath keeps its dispatch/ prefix (the
    # annotation rule's scope key).
    lenient = run_cli(str(tmp_path))
    strict = run_cli(str(tmp_path), "--fail-on", "warning")
    assert lenient.returncode == 0
    assert strict.returncode == 1
