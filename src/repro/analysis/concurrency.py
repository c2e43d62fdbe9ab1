"""Thread-safety rules (REP4xx) — the static half of the concurrency pass.

Ranks share no heap — they run inline on one thread (sim) or in
separate processes — so the rank program needs no thread-safety
argument (DESIGN.md §14).  What does run on threads is the query thread
pool (``eval/parallel_query.py``: one searcher read by many threads, one
metrics registry written by them) and anything a future change hands to
a ``Thread`` or an executor.  These rules guard that code with a short
list of conventions: such code mutates only state it owns or holds a
lock for; shared aggregates are folded by *absolute assignment*;
metrics are *published* by the driver at barriers, never from handler
or task code.  They machine-check the code shapes that violate those
conventions, using the engine's light intra-function dataflow
(:func:`~repro.analysis.engine.shared_name_resolver`,
:func:`~repro.analysis.engine.lock_guarded`).

"Concurrent scope" means a function that could run off the driver
thread *in the driver's address space*: a registered handler/visitor/
batch handler or a function handed to an executor
(``submit``/``map_ranks``/``run_ranks``/``run_on_all``/
``Thread(target=...)`` — collected by the engine into
``ProjectContext.executor_tasks``).

Worker *process* entry points (``Process(target=...)``, collected into
``ProjectContext.process_tasks``) are **not** concurrent scope: the
target runs in its own address space (forked copy or spawn re-import),
so module/class state it mutates is private to that worker, closures
resolve against the worker's copy of the cell, and metrics registries
it touches are worker-local shadows — none of the thread-interleaving
hazards REP401/402/403/405 model exist across a process boundary.  A
function handed to *both* ``Thread`` and ``Process`` is still checked
(its thread registration keeps it in scope).

- **REP401** — read-modify-write (augmented assignment, mutating method
  call, ``del``) on module/class-level shared state from concurrent
  scope with no lock held.  Plain assignment is exempt: it is the
  sanctioned absolute-assignment fold, idempotent and last-writer-safe.
- **REP402** — non-atomic check-then-act: a membership test on a shared
  mapping guarding a mutation of the same mapping (``if k in d:
  d[k]...``).  Between the check and the act another thread can change
  the answer; use ``setdefault``/``get``/``pop(k, default)`` or a lock.
- **REP403** — a handler or task *closure* capturing a driver-mutable
  local (reassigned, augmented, or a loop variable in the enclosing
  scope).  The closure reads the variable's cell when it *runs*, not
  when it was created — under a concurrent executor that read races the
  driver's next write.  Bind the value as an argument instead.
- **REP404** — lock acquisition order inconsistent with the declared
  ``lock-order`` hierarchy in ``[tool.repro.analysis]`` (or
  re-acquiring a held non-reentrant lock).
- **REP405** — metrics publication (``set_counter``/``set_gauge``/
  ``inc``/``observe``) from concurrent scope.  Publication is a
  driver-at-barrier responsibility; handlers fold into rank-owned cells
  and let ``publish_comm_metrics`` mirror the totals.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .config import AnalysisConfig
from .engine import (
    base_of,
    bound_names,
    is_lockish,
    own_scope_walk,
    local_bindings,
    lock_guarded,
    shared_name_resolver,
)
from .findings import ERROR, Finding
from .registry import (
    FunctionInfo,
    ProjectContext,
    SourceModule,
    call_method_name,
    dotted_name,
    rule,
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "add", "update", "setdefault", "remove", "discard",
    "pop", "popleft", "popitem", "clear", "sort", "reverse",
})

#: Metrics writer methods (REP405).  ``span`` is excluded: opening a
#: span from a worker thread is how threaded query engines time
#: themselves and the registry records it race-free.
_METRIC_WRITERS = frozenset({"set_counter", "set_gauge", "inc", "observe"})


def _finding(module: SourceModule, node: ast.AST, rule_id: str,
             message: str, severity: str = ERROR) -> Finding:
    return Finding(path=module.path, line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0) + 1, rule=rule_id,
                   severity=severity, message=message)


def _concurrent_functions(
        project: ProjectContext) -> Iterator[Tuple[FunctionInfo, str]]:
    """Every function that can run off the driver thread in the
    driver's address space, deduplicated (one function may be
    registered under several names), tagged ``"handler"`` or
    ``"task"``.

    ``project.process_tasks`` is deliberately absent: a ``Process``
    target's writes land in the worker's own (forked or re-imported)
    copy of every module/class binding, so there is no thread to
    interleave with — applying the REP4xx shapes there would flag
    perfectly safe worker bookkeeping.  Functions that are *also*
    registered as handlers or thread tasks still flow through the
    sources below.
    """
    seen: Set[int] = set()
    sources = (
        ("handler", project.handlers),
        ("handler", project.batch_handlers),
        ("handler", project.visitors),
        ("task", project.executor_tasks),
    )
    for kind, registry in sources:
        for infos in registry.values():
            for info in infos:
                fn = info.func
                if fn is None or fn.node is None or fn.module is None:
                    continue
                if id(fn.node) in seen:
                    continue
                seen.add(id(fn.node))
                yield fn, kind


def _describe(expr: ast.expr) -> str:
    name = dotted_name(expr)
    if name is not None:
        return name
    base = base_of(expr)
    if isinstance(base, ast.Name):
        return base.id
    return "<expr>"


@rule("REP401", ERROR,
      "shared-state mutation from handler/task scope without a lock")
def shared_mutation(project: ProjectContext,
                    config: AnalysisConfig) -> Iterator[Finding]:
    for fn, kind in _concurrent_functions(project):
        module, body = fn.module, fn.node
        shared = shared_name_resolver(body, module)
        guarded = lock_guarded(body, config)
        for node in ast.walk(body):
            if id(node) in guarded:
                continue
            if isinstance(node, ast.AugAssign) and shared(node.target):
                yield _finding(
                    module, node, "REP401",
                    f"read-modify-write of shared state "
                    f"'{_describe(node.target)}' from {kind} scope: another "
                    f"thread can interleave between the read and the write; "
                    f"fold into a rank-owned cell and publish by absolute "
                    f"assignment at a barrier, or hold a lock")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)) \
                            and shared(target):
                        yield _finding(
                            module, node, "REP401",
                            f"del on shared state '{_describe(target)}' "
                            f"from {kind} scope without a lock")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS \
                    and shared(node.func.value):
                yield _finding(
                    module, node, "REP401",
                    f"mutating call '.{node.func.attr}()' on shared state "
                    f"'{_describe(node.func.value)}' from {kind} scope "
                    f"without a lock; move the mutation driver-side or "
                    f"fold per-rank and publish at a barrier")


def _mutates_container(stmts: List[ast.stmt], container: ast.expr) -> \
        Optional[ast.AST]:
    """First statement-level mutation of ``container`` (matched by AST
    dump) inside ``stmts``: subscript store/del/augassign, or a mutating
    method call on the container or one of its subscripts."""
    want = ast.dump(container)

    def matches(expr: ast.expr) -> bool:
        if ast.dump(expr) == want:
            return True
        return (isinstance(expr, ast.Subscript)
                and ast.dump(expr.value) == want)

    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Subscript) and matches(t)
                       for t in node.targets):
                    return node
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Subscript) \
                        and matches(node.target):
                    return node
            elif isinstance(node, ast.Delete):
                if any(isinstance(t, ast.Subscript) and matches(t)
                       for t in node.targets):
                    return node
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS \
                    and matches(node.func.value):
                return node
    return None


@rule("REP402", ERROR,
      "non-atomic check-then-act on a shared mapping")
def check_then_act(project: ProjectContext,
                   config: AnalysisConfig) -> Iterator[Finding]:
    for fn, kind in _concurrent_functions(project):
        module, body = fn.module, fn.node
        shared = shared_name_resolver(body, module)
        guarded = lock_guarded(body, config)
        for node in ast.walk(body):
            if not isinstance(node, ast.If) or id(node) in guarded:
                continue
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                test = test.operand
            if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                    and isinstance(test.ops[0], (ast.In, ast.NotIn))):
                continue
            container = test.comparators[0]
            if not shared(container):
                continue
            mutation = _mutates_container(node.body + node.orelse, container)
            if mutation is not None:
                yield _finding(
                    module, node, "REP402",
                    f"check-then-act on shared mapping "
                    f"'{_describe(container)}' from {kind} scope: the "
                    f"membership test and the mutation at line "
                    f"{getattr(mutation, 'lineno', node.lineno)} are not "
                    f"atomic; use setdefault()/get()/pop(k, default) or "
                    f"hold one lock across both")


def _driver_mutations(outer: ast.AST, inner: ast.AST,
                      names: Set[str]) -> Dict[str, str]:
    """Which captured ``names`` the enclosing function mutates in its
    *own* scope (sibling closures bind their own locals): maps name ->
    reason ("reassigned", "augmented", "loop variable").

    An initialize-then-overwrite entirely *before* the closure's def is
    not driver-mutable — the cell is stable by the time the closure can
    run.  What races is a write the driver can issue after the closure
    exists: a reassignment below the def, an augmented assignment, or a
    loop variable (the loop body is where the closure escapes).
    """
    assigns: Dict[str, List[int]] = {}
    reasons: Dict[str, str] = {}

    for node in own_scope_walk(outer):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for bound in bound_names(target):
                    if bound in names:
                        assigns.setdefault(bound, []).append(node.lineno)
        elif isinstance(node, ast.NamedExpr) \
                and isinstance(node.target, ast.Name) \
                and node.target.id in names:
            assigns.setdefault(node.target.id, []).append(node.lineno)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id in names:
            reasons.setdefault(node.target.id, "augmented")
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for bound in bound_names(node.target):
                if bound in names:
                    reasons.setdefault(bound, "loop variable")
    closure_line = getattr(inner, "lineno", 0)
    for name, lines in assigns.items():
        if any(line > closure_line for line in lines):
            reasons.setdefault(name, "reassigned")
    return reasons


@rule("REP403", ERROR,
      "handler/task closure captures a driver-mutable local")
def closure_capture(project: ProjectContext,
                    config: AnalysisConfig) -> Iterator[Finding]:
    # Registered closures with free variables, keyed by def node id.
    captured: Dict[int, Tuple[FunctionInfo, str]] = {}
    for fn, kind in _concurrent_functions(project):
        if fn.free_vars:
            captured[id(fn.node)] = (fn, kind)
    if not captured:
        return
    for module in project.modules:
        for outer in ast.walk(module.tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Locals of the enclosing function (params + bindings):
            # only captures *of this scope* can be assessed here.
            outer_locals = local_bindings(outer)
            for inner in ast.walk(outer):
                if inner is outer or id(inner) not in captured:
                    continue
                fn, kind = captured[id(inner)]
                relevant = {v for v in fn.free_vars if v in outer_locals}
                if not relevant:
                    continue
                mutable = _driver_mutations(outer, inner, relevant)
                for name in sorted(mutable):
                    yield _finding(
                        module, inner, "REP403",
                        f"{kind} closure '{fn.name}' captures "
                        f"driver-mutable local '{name}' "
                        f"({mutable[name]} in the enclosing scope): the "
                        f"closure reads the cell when it runs, racing the "
                        f"driver's next write; pass the value as an "
                        f"argument or a default instead")


def _walk_lock_nesting(stmts: List[ast.stmt], stack: List[Tuple[str, str]],
                      module: SourceModule,
                      config: AnalysisConfig) -> Iterator[Finding]:
    order = {name: i for i, name in enumerate(config.lock_order)}
    for stmt in stmts:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[Tuple[str, str]] = []
            for item in stmt.items:
                name = is_lockish(item.context_expr, config)
                if name is None:
                    continue
                full = dotted_name(item.context_expr) or name
                for held_name, held_full in (*stack, *acquired):
                    if held_full == full:
                        yield _finding(
                            module, stmt, "REP404",
                            f"lock '{full}' re-acquired while already "
                            f"held: threading.Lock is not reentrant, "
                            f"this deadlocks")
                    elif (name in order and held_name in order
                          and order[held_name] > order[name]):
                        yield _finding(
                            module, stmt, "REP404",
                            f"lock '{name}' acquired while holding "
                            f"'{held_name}': the declared lock-order "
                            f"hierarchy is "
                            f"{' -> '.join(config.lock_order)} "
                            f"(outermost first); inverting it can "
                            f"deadlock against a thread acquiring in "
                            f"order")
                acquired.append((name, full))
            yield from _walk_lock_nesting(stmt.body, stack + acquired,
                                          module, config)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # A nested def's body runs later, not under the current
            # stack; the top-level walk visits it independently.
            continue
        else:
            for field_name in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(stmt, field_name, None)
                if not children:
                    continue
                if field_name == "handlers":
                    for child in children:
                        if isinstance(child, ast.ExceptHandler):
                            yield from _walk_lock_nesting(child.body, stack,
                                                          module, config)
                else:
                    yield from _walk_lock_nesting(children, stack,
                                                  module, config)


@rule("REP404", ERROR,
      "lock acquisition order inconsistent with the declared hierarchy")
def lock_order(project: ProjectContext,
               config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _walk_lock_nesting(node.body, [], module, config)


@rule("REP405", ERROR,
      "metrics publication outside a barrier context")
def metrics_publication(project: ProjectContext,
                        config: AnalysisConfig) -> Iterator[Finding]:
    for fn, kind in _concurrent_functions(project):
        module, body = fn.module, fn.node
        for node in ast.walk(body):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METRIC_WRITERS):
                continue
            receiver = _describe(node.func.value)
            if "metric" not in receiver and "registry" not in receiver:
                # `.pop`-style name collisions: only flag receivers that
                # look like a metrics registry (`self.metrics`,
                # `ctx.world.metrics`, a `registry` local, ...).
                continue
            yield _finding(
                module, node, "REP405",
                f"metrics publication '{receiver}.{node.func.attr}()' from "
                f"{kind} scope: publication is a driver-at-barrier "
                f"responsibility (epoch discipline, not mutual exclusion); "
                f"fold into rank-owned state and let publish_comm_metrics "
                f"mirror the totals at the next barrier")
