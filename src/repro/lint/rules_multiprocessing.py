"""Multiprocessing-safety rules: the pool boundary only ships picklable work.

``PoolDispatcher`` sends ``(run_shard, ShardSpec)`` pairs through a
``ProcessPoolExecutor``.  That works under every start method precisely
because ``run_shard`` is a module-level function and a ``ShardSpec`` is a
tuple of plain data — a lambda, a nested closure or a bound method in
either position raises ``PicklingError`` under ``spawn`` and, worse,
*appears* to work under ``fork`` until the start method changes.  Likewise,
worker code that mutates module-level state reads back different values
under ``fork`` (inherited snapshot) and ``spawn`` (fresh import), which is
exactly the kind of divergence the bitwise contract forbids.

* ``mp-callable`` — lambdas, nested functions and bound methods handed to
  executor ``submit``/``map`` (``ProcessPoolExecutor`` or
  ``multiprocessing.Pool``) or stored on ``ShardSpec`` construction.
* ``mp-module-state`` — mutation of module-level mutable state (and
  ``global`` rebinding) inside functions of ``repro.dispatch`` modules, the
  code that runs on both sides of the pool boundary.
* ``mp-silent-except`` — bare ``except:`` anywhere in ``repro.dispatch``,
  and broad ``except Exception``/``BaseException`` handlers whose body
  swallows the error (``pass``/``continue``/``break``/a lone constant).
  The fault-tolerance contract is that every worker failure becomes a
  typed :class:`~repro.dispatch.faults.DispatchError` or a telemetry
  record — a silently-eaten exception is a shard that never reports, which
  the supervision loop would misread as a hang and retry forever.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, ModuleContext, ModuleRule

__all__ = ["ExecutorCallableRule", "ModuleStateRule", "SilentExceptRule"]

#: Constructors whose instances cross the process boundary.
_EXECUTOR_TYPES = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
}
#: Executor methods whose first argument ships to another process.
_SUBMIT_METHODS = {"submit", "map", "apply", "apply_async", "map_async", "imap"}
#: Dataclasses that are pickled whole into worker processes.
_SHIPPED_SPECS = {"ShardSpec"}
#: Mutating method names on built-in containers.
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "popitem",
}


def _nested_function_names(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: set[str] = set()

    class _Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.depth = 0

        def _visit_fn(self, node: ast.AST) -> None:
            if self.depth > 0:
                nested.add(node.name)  # type: ignore[attr-defined]
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_FunctionDef = _visit_fn
        visit_AsyncFunctionDef = _visit_fn

    _Visitor().visit(tree)
    return nested


def _executor_names(ctx: ModuleContext) -> set[str]:
    """Local names bound to executor instances (assign or ``with ... as``)."""
    names: set[str] = set()
    for node in ast.walk(ctx.tree):
        value = None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            target, value = node.optional_vars, node.context_expr
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and ctx.qualified_name(value.func) in _EXECUTOR_TYPES
        ):
            names.add(target.id)
    return names


class ExecutorCallableRule(ModuleRule):
    """Flag non-picklable callables crossing the process-pool boundary."""

    rule_id = "mp-callable"
    severity = "error"
    description = (
        "lambdas, nested functions and bound methods must not be submitted "
        "to process pools or stored on ShardSpec"
    )

    def visit_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        nested = _nested_function_names(ctx.tree)
        executors = _executor_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_submit(ctx, node, nested, executors)
            yield from self._check_spec_payload(ctx, node)

    # ------------------------------------------------------------------
    def _check_submit(
        self,
        ctx: ModuleContext,
        call: ast.Call,
        nested: set[str],
        executors: set[str],
    ) -> Iterator[Finding]:
        fn = call.func
        if not (
            isinstance(fn, ast.Attribute)
            and fn.attr in _SUBMIT_METHODS
            and isinstance(fn.value, ast.Name)
            and fn.value.id in executors
        ):
            return
        if not call.args:
            return
        payload = call.args[0]
        problem = self._payload_problem(ctx, payload, nested, callable_position=True)
        if problem is not None:
            yield self.finding(
                ctx,
                payload,
                f"{problem} passed to {fn.value.id}.{fn.attr}(); process "
                "pools can only ship module-level functions (see "
                "repro.dispatch.worker.run_shard)",
                symbol=f"{fn.value.id}.{fn.attr}",
            )

    def _check_spec_payload(
        self, ctx: ModuleContext, call: ast.Call
    ) -> Iterator[Finding]:
        name = call.func.attr if isinstance(call.func, ast.Attribute) else (
            call.func.id if isinstance(call.func, ast.Name) else None
        )
        if name not in _SHIPPED_SPECS:
            return
        nested = _nested_function_names(ctx.tree)
        for arg in (*call.args, *(kw.value for kw in call.keywords)):
            # Attribute reads (`self.noise_model`) are plain data here; only
            # lambdas and closures are provably unpicklable payloads.
            problem = self._payload_problem(ctx, arg, nested, callable_position=False)
            if problem is not None:
                yield self.finding(
                    ctx,
                    arg,
                    f"{problem} stored on {name}; shard specs are pickled "
                    "into worker processes and must hold plain data",
                    symbol=name,
                )

    @staticmethod
    def _payload_problem(
        ctx: ModuleContext,
        node: ast.expr,
        nested: set[str],
        callable_position: bool,
    ) -> str | None:
        if isinstance(node, ast.Lambda):
            return "lambda"
        if isinstance(node, ast.Name) and node.id in nested:
            return f"nested function {node.id!r}"
        if callable_position and isinstance(node, ast.Attribute):
            base = node.value
            # Any imported name (`worker.run_shard`, `Cls.method`) is
            # picklable by qualified reference; only methods bound to local
            # instances drag non-module state along (or fail outright).
            if isinstance(base, ast.Name):
                if base.id in ctx.module_names or base.id in ctx.imports:
                    return None
                return f"bound method {base.id}.{node.attr}"
        return None


class ModuleStateRule(ModuleRule):
    """Flag mutation of module-level state inside dispatch-package functions."""

    rule_id = "mp-module-state"
    severity = "error"
    description = (
        "repro.dispatch functions must not mutate module-level state; "
        "fork and spawn workers would observe different values"
    )

    def visit_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if "dispatch/" not in ctx.relpath and "/dispatch" not in ctx.relpath:
            return
        mutable_globals = self._module_level_mutables(ctx.tree)
        for top in ctx.tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._scan_function(ctx, top, mutable_globals)

    @staticmethod
    def _module_level_mutables(tree: ast.Module) -> set[str]:
        mutables: set[str] = set()
        builtin_containers = {"list", "dict", "set", "collections.defaultdict"}
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            is_mutable = isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in builtin_containers
            )
            if is_mutable:
                for target in targets:
                    if isinstance(target, ast.Name):
                        mutables.add(target.id)
        return mutables

    def _scan_function(
        self, ctx: ModuleContext, scope: ast.AST, mutable_globals: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx,
                    node,
                    f"global {', '.join(node.names)} rebinds module state "
                    "inside a dispatch function; fork and spawn workers "
                    "would disagree about its value",
                    symbol=",".join(node.names),
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutable_globals
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"writes into module-level {target.value.id!r} "
                            "inside a dispatch function; worker processes "
                            "do not share this state",
                            symbol=target.value.id,
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutable_globals
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"mutates module-level {node.func.value.id!r} via "
                    f".{node.func.attr}() inside a dispatch function; "
                    "worker processes do not share this state",
                    symbol=node.func.value.id,
                )


class SilentExceptRule(ModuleRule):
    """Flag exception swallowing inside the dispatch package.

    Dispatch code sits between a worker pool that can genuinely crash and a
    supervision loop whose whole job is to observe those failures.  Every
    handler must therefore either convert the error into a typed
    ``DispatchError``, record it (telemetry, retry bookkeeping) or re-raise
    — a bare ``except:`` (which also eats ``KeyboardInterrupt``) or a broad
    ``except Exception: pass`` turns a real fault into a silent wrong
    answer.  ``contextlib.suppress`` of *specific* OS errors around
    best-effort teardown is fine and not matched here.
    """

    rule_id = "mp-silent-except"
    severity = "error"
    description = (
        "repro.dispatch handlers must not swallow exceptions: bare except "
        "and silent broad except Exception/BaseException bodies are "
        "forbidden; convert failures to DispatchErrors or telemetry"
    )

    #: Handler types considered "broad": everything lands in them.
    _BROAD = {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}

    def visit_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if "dispatch/" not in ctx.relpath and "/dispatch" not in ctx.relpath:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except: in dispatch code swallows everything "
                    "including KeyboardInterrupt; catch a specific type and "
                    "surface the failure as a DispatchError or telemetry",
                    symbol="except",
                )
                continue
            if self._is_broad(ctx, node.type) and self._is_silent(node.body):
                yield self.finding(
                    ctx,
                    node,
                    "broad except handler silently discards the error; "
                    "dispatch failures must become typed DispatchErrors or "
                    "telemetry records, never disappear",
                    symbol="except",
                )

    # ------------------------------------------------------------------
    def _is_broad(self, ctx: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(ctx, element) for element in node.elts)
        return ctx.qualified_name(node) in self._BROAD

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        """True when the handler body provably does nothing with the error."""
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring / bare ellipsis
            return False
        return True
