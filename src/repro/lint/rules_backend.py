"""Backend conformance rules: the multi-stream hook surface must hold.

Sharded execution is bitwise reproducible only because every registered
backend honours the same hook surface: the :class:`~repro.backends.base.
Backend` ABC's abstract methods and the paired per-row multi-stream hooks
(``apply_noise_events_multi`` / ``sample_outcomes_multi`` — overriding one
without the other desynchronises the rows' draw order).  A backend that
drifts here does not fail loudly — it produces *almost* identical counts,
which is the worst kind of wrong.

Two passes:

* **Static** (``backend-signature``, ``backend-multi-pair``) — walk every
  class in the linted tree that
  (transitively) subclasses ``Backend``, comparing overridden method
  signatures against the ABC's own AST (obtained from the installed
  ``repro.backends.base`` source, so fixture trees are checked against the
  real contract) and enforcing the hook pairings.
* **Runtime** (``backend-registry``) — import the real registry, resolve
  every registered name and introspect the instance: instantiation works,
  the instance is a ``Backend`` and the multi hooks are overridden in
  pairs.  This pass only runs
  when the linted tree contains ``repro.backends`` itself (it is skipped
  for fixture snippets).
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterator

from repro.lint.framework import Finding, ModuleContext, Project, Rule

__all__ = [
    "BackendRegistryRule",
    "BackendStaticConformanceRule",
]

#: Hooks that must be overridden together (per-row multi-stream surface).
_MULTI_PAIRS = (("apply_noise_events_multi", "sample_outcomes_multi"),)

#: Qualified names under which the ABC is importable.
_BACKEND_QUALNAMES = {
    "repro.backends.base.Backend",
    "repro.backends.Backend",
    "repro.core.Backend",
    "repro.core.backends.Backend",
}


def _base_class_ast() -> ast.ClassDef | None:
    """AST of the real ``Backend`` ABC (the signature source of truth)."""
    try:
        from repro.backends import base as base_module

        tree = ast.parse(inspect.getsource(base_module))
    except (ImportError, OSError):  # pragma: no cover - repro always importable here
        return None
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Backend":
            return node
    return None  # pragma: no cover - base.py always defines Backend


def _methods_of(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }


def _positional_names(fn: ast.FunctionDef) -> list[str]:
    return [arg.arg for arg in (*fn.args.posonlyargs, *fn.args.args)]


def _required_positional_count(fn: ast.FunctionDef) -> int:
    return len(fn.args.posonlyargs) + len(fn.args.args) - len(fn.args.defaults)


def _backend_classes(
    project: Project,
) -> dict[str, tuple[ModuleContext, ast.ClassDef]]:
    """Classes in the linted tree that transitively subclass ``Backend``.

    Keyed by qualified name (``<module>.<Class>``); resolution runs to a
    fixpoint so a subclass of a subclass of ``Backend`` is found too.
    """
    classes: dict[str, tuple[ModuleContext, ast.ClassDef]] = {}
    bases: dict[str, list[str]] = {}
    for ctx in project.modules:
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            qualified = f"{ctx.module_name}.{node.name}" if ctx.module_name else node.name
            classes[qualified] = (ctx, node)
            resolved = []
            for base in node.bases:
                name = ctx.qualified_name(base)
                if name is not None:
                    resolved.append(name)
            bases[qualified] = resolved

    backend_like = set(_BACKEND_QUALNAMES)
    changed = True
    while changed:
        changed = False
        for qualified, base_names in bases.items():
            if qualified in backend_like:
                continue
            if any(base in backend_like for base in base_names):
                backend_like.add(qualified)
                changed = True
    return {
        qualified: value
        for qualified, value in classes.items()
        if qualified in backend_like
    }


def _ancestor_methods(
    qualified: str,
    classes: dict[str, tuple[ModuleContext, ast.ClassDef]],
    bases_of: dict[str, list[str]],
) -> set[str]:
    """Method names defined by ``qualified``'s project-visible ancestors."""
    seen: set[str] = set()
    stack = list(bases_of.get(qualified, ()))
    visited: set[str] = set()
    while stack:
        base = stack.pop()
        if base in visited:
            continue
        visited.add(base)
        if base in classes:
            _, node = classes[base]
            seen.update(_methods_of(node))
            ctx = classes[base][0]
            for base_expr in node.bases:
                name = ctx.qualified_name(base_expr)
                if name is not None:
                    stack.append(name)
    return seen


class BackendStaticConformanceRule(Rule):
    """Static signature and hook-pairing walk over Backend subclasses."""

    rule_id = "backend-signature"
    severity = "error"
    description = (
        "Backend subclasses must match the ABC's method signatures and "
        "override the multi-stream hooks in pairs"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        base_cls = _base_class_ast()
        base_methods = _methods_of(base_cls) if base_cls is not None else {}

        classes = _backend_classes(project)
        bases_of = {
            qualified: [
                name
                for base in node.bases
                if (name := ctx.qualified_name(base)) is not None
            ]
            for qualified, (ctx, node) in classes.items()
        }

        for qualified, (ctx, node) in classes.items():
            methods = _methods_of(node)
            inherited = _ancestor_methods(qualified, classes, bases_of)
            yield from self._check_signatures(ctx, node, methods, base_methods)
            yield from self._check_pairs(ctx, node, methods, inherited)

    # ------------------------------------------------------------------
    def _check_signatures(
        self,
        ctx: ModuleContext,
        node: ast.ClassDef,
        methods: dict[str, ast.FunctionDef],
        base_methods: dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        for name, fn in methods.items():
            base_fn = base_methods.get(name)
            if base_fn is None or name.startswith("__"):
                continue
            if fn.args.vararg is not None or base_fn.args.vararg is not None:
                continue  # *args overrides delegate; nothing to compare
            ours = _positional_names(fn)
            theirs = _positional_names(base_fn)
            symbol = f"{node.name}.{name}"
            if ours[: len(theirs)] != theirs:
                yield self.finding(
                    ctx,
                    fn,
                    f"{symbol} signature ({', '.join(ours)}) does not match "
                    f"the Backend ABC ({', '.join(theirs)}); engines call "
                    "these hooks positionally across every backend",
                    symbol=symbol,
                )
            elif _required_positional_count(fn) > len(theirs):
                extra = ours[len(theirs) : _required_positional_count(fn)]
                yield self.finding(
                    ctx,
                    fn,
                    f"{symbol} adds required parameter(s) "
                    f"{', '.join(extra)} to a Backend ABC hook; extra "
                    "parameters must carry defaults",
                    symbol=symbol,
                )

    def _check_pairs(
        self,
        ctx: ModuleContext,
        node: ast.ClassDef,
        methods: dict[str, ast.FunctionDef],
        inherited: set[str],
    ) -> Iterator[Finding]:
        for first, second in _MULTI_PAIRS:
            for present, missing in ((first, second), (second, first)):
                if (
                    present in methods
                    and missing not in methods
                    and missing not in inherited
                ):
                    symbol = f"{node.name}.{present}"
                    yield Finding(
                        path=ctx.relpath,
                        line=methods[present].lineno,
                        col=methods[present].col_offset,
                        rule_id="backend-multi-pair",
                        severity="error",
                        message=(
                            f"{node.name} overrides {present} without "
                            f"{missing}; the per-row multi-stream hooks "
                            "must be overridden in pairs or the rows' draw "
                            "order desynchronises"
                        ),
                        symbol=symbol,
                    )


class BackendRegistryRule(Rule):
    """Import-and-introspect pass over the real backend registry."""

    rule_id = "backend-registry"
    severity = "error"
    description = (
        "every registered backend must instantiate, subclass Backend and "
        "pair its multi hooks (runtime introspection)"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        yield from self._static_registrations(project)
        if not project.has_module("repro.backends.registry"):
            return  # fixture tree: the real registry is out of scope
        yield from self._introspect()

    # ------------------------------------------------------------------
    def _static_registrations(self, project: Project) -> Iterator[Finding]:
        """Flag ``register_backend`` call sites whose factory is anonymous."""
        register_names = {
            "repro.backends.registry.register_backend",
            "repro.backends.register_backend",
            "repro.core.backends.register_backend",
            "repro.core.register_backend",
        }
        for ctx in project.modules:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                qualified = ctx.qualified_name(node.func)
                if qualified not in register_names:
                    continue
                factory = node.args[1] if len(node.args) > 1 else None
                if isinstance(factory, ast.Lambda):
                    yield self.finding(
                        ctx,
                        factory,
                        "register_backend factory is a lambda; register a "
                        "module-level class or named factory so backends "
                        "stay introspectable and picklable",
                        symbol=qualified,
                    )

    def _introspect(self) -> Iterator[Finding]:
        try:
            from repro.backends import Backend, available_backends, get_backend
            from repro.backends.base import Backend as AbcBackend
        except Exception as error:  # pragma: no cover - import always works in-tree
            yield Finding(
                path="repro/backends",
                line=1,
                col=0,
                rule_id=self.rule_id,
                severity="error",
                message=f"could not import the backend registry: {error}",
            )
            return
        for name in available_backends():
            try:
                instance = get_backend(name)
            except Exception as error:
                yield self._registry_finding(
                    name, f"backend {name!r} failed to instantiate: {error}"
                )
                continue
            if not isinstance(instance, Backend):
                yield self._registry_finding(
                    name,
                    f"backend {name!r} resolves to {type(instance).__name__}, "
                    "which is not a Backend subclass",
                )
                continue
            cls = type(instance)
            for first, second in _MULTI_PAIRS:
                overrides = {
                    hook: getattr(cls, hook, None) is not getattr(AbcBackend, hook)
                    for hook in (first, second)
                }
                if overrides[first] != overrides[second]:
                    present = first if overrides[first] else second
                    missing = second if overrides[first] else first
                    yield self._registry_finding(
                        name,
                        f"backend {name!r} ({cls.__name__}) overrides "
                        f"{present} but inherits {missing}; the multi-stream "
                        "hooks must be overridden in pairs",
                    )

    def _registry_finding(self, backend_name: str, message: str) -> Finding:
        return Finding(
            path="repro/backends/registry.py",
            line=1,
            col=0,
            rule_id=self.rule_id,
            severity="error",
            message=message,
            symbol=f"backend:{backend_name}",
        )
