"""RPC contract rules (REP2xx).

The YGM layer names handlers by *string* at every ``async_call`` site
and resolves them at delivery time — a typo'd name or a drifted
signature is invisible until a message actually flows down that path
(possibly only in a fault-injection run).  These rules check the
contract statically, project-wide:

REP201  unknown-handler          every literal ``async_call(...,
                                 "name")`` / ``emit_run(..., "name",
                                 columns)`` / ``async_visit(..., "name")``
                                 must resolve to a ``register_handler(s)``
                                 / ``register_batch_handler(s)`` /
                                 ``register_visitor`` binding somewhere
                                 in the analyzed files.
REP202  handler-arity            the payload argument count at the call
                                 site must fit the handler's signature
                                 (handlers receive ``(ctx, *payload)``,
                                 visitors ``(ctx, state, key, *args)``;
                                 a columnar handler receives ``(world,
                                 dest, *columns)`` — its host's world,
                                 the column of destination ranks and one
                                 array per message argument — so an
                                 ``emit_run`` supplies two more than its
                                 column tuple holds).
REP203  handler-closure-capture  a handler registered from inside a
                                 function closes over rank-local
                                 mutable state — handler behaviour must
                                 be a pure function of its arguments
                                 plus owner-rank state.
REP204  stats-read-before-barrier  reading ``.stats`` after emitting
                                 async messages with no intervening
                                 ``barrier()`` in the same scope:
                                 in-flight messages make the numbers
                                 meaningless.  (Heuristic: reported as a
                                 warning.)
REP205  unserializable-rpc-arg   lambdas / generator expressions passed
                                 as RPC payload cannot cross a process
                                 boundary on a real cluster.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple, Union

from .config import AnalysisConfig
from .findings import ERROR, WARNING, Finding
from .registry import (
    EMIT_METHODS,
    CallSite,
    FunctionInfo,
    HandlerInfo,
    ProjectContext,
    SourceModule,
    call_method_name,
    rule,
)

#: Arguments prepended at delivery: a per-message handler gets the
#: destination RankContext, a columnar one its host's world and the
#: column of destination ranks, a visitor the context, its local map and
#: the key.
_HANDLER_IMPLICIT_ARGS = 1
_BATCH_IMPLICIT_ARGS = 2
_VISITOR_IMPLICIT_ARGS = 3


def _finding(module: SourceModule, node: ast.AST, rule_id: str,
             message: str, severity: str = ERROR) -> Finding:
    return Finding(path=module.path, line=node.lineno,
                   col=node.col_offset + 1, rule=rule_id,
                   severity=severity, message=message)


def _bindings(site: CallSite,
              project: ProjectContext) -> List[Tuple[int, HandlerInfo]]:
    """``(implicit arguments, registration)`` of every binding of the
    name ``site`` sends to."""
    if site.kind == "visitor":
        return [(_VISITOR_IMPLICIT_ARGS, info)
                for info in project.visitors.get(site.name, [])]
    return ([(_HANDLER_IMPLICIT_ARGS, info)
             for info in project.handlers.get(site.name, [])]
            + [(_BATCH_IMPLICIT_ARGS, info)
               for info in project.batch_handlers.get(site.name, [])])


@rule("REP201", ERROR, "async_call names an unregistered handler")
def check_unknown_handler(project: ProjectContext,
                          config: AnalysisConfig) -> Iterator[Finding]:
    for site in project.call_sites:
        if _bindings(site, project):
            continue
        what = "visitor" if site.kind == "visitor" else "handler"
        register = ("register_visitor" if site.kind == "visitor"
                    else "register_handler(s)/register_batch_handler(s)")
        yield _finding(
            site.module, site.node, "REP201",
            f"{what} {site.name!r} is not registered anywhere in the "
            f"analyzed files ({register}); the call would raise only when "
            "a message actually flows down this path")


def _candidate_functions(info: HandlerInfo,
                         project: ProjectContext) -> List[FunctionInfo]:
    if info.func is not None:
        return [info.func]
    if info.func_name is not None:
        return project.functions.get(info.func_name, [])
    return []


@rule("REP202", ERROR, "call-site payload does not fit handler signature")
def check_handler_arity(project: ProjectContext,
                        config: AnalysisConfig) -> Iterator[Finding]:
    for site in project.call_sites:
        if site.payload_args is None:  # *args at the call site
            continue
        candidates: List[Tuple[int, FunctionInfo]] = [
            (implicit, fn) for implicit, info in _bindings(site, project)
            for fn in _candidate_functions(info, project)]
        if not candidates:
            continue  # registration found but target unresolvable: skip
        if any(fn.min_args <= implicit + site.payload_args <= fn.max_args
               for implicit, fn in candidates):
            continue
        implicit = candidates[0][0]
        shapes = ", ".join(
            f"{fn.name}({fn.min_args}"
            + (f"..{'*' if fn.max_args == float('inf') else int(fn.max_args)}"
               if fn.max_args != fn.min_args else "")
            + ")"
            for _, fn in candidates)
        yield _finding(
            site.module, site.node, "REP202",
            f"{site.kind} {site.name!r} would be delivered "
            f"{implicit + site.payload_args} positional argument(s) "
            f"({implicit} implicit + {site.payload_args} payload), but its "
            f"registered implementation accepts {shapes}")


@rule("REP203", ERROR, "handler closes over rank-local mutable state")
def check_closure_capture(project: ProjectContext,
                          config: AnalysisConfig) -> Iterator[Finding]:
    # Columnar handlers are held to the same purity contract as scalar
    # ones: a function of (world, dest, *columns) + the state of the
    # destination ranks only.
    seen: set = set()
    for registry in (project.handlers, project.visitors,
                     project.batch_handlers):
        for name, infos in registry.items():
            for info in infos:
                fn = info.func
                if fn is None or not fn.free_vars:
                    continue
                key = (info.path, info.line, name)
                if key in seen:
                    continue
                seen.add(key)
                captured = ", ".join(fn.free_vars)
                yield Finding(
                    path=info.path, line=info.line, col=1, rule="REP203",
                    severity=ERROR,
                    message=(
                        f"handler {name!r} captures enclosing-scope "
                        f"variable(s) {captured} in a closure; handlers must "
                        "be pure functions of (ctx, *args) + owner-rank "
                        "state — captured locals are rank-local on a real "
                        "cluster and silently diverge"))


_STATS_READS = ("stats", "stats_for")


def _walk_positions(stmt: ast.stmt) -> List[ast.AST]:
    nodes = [n for n in ast.walk(stmt) if hasattr(n, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return nodes


@rule("REP204", WARNING, "stats read after async sends with no barrier")
def check_stats_before_barrier(project: ProjectContext,
                               config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            pending: Optional[ast.AST] = None
            for stmt in fn.body:
                for node in _walk_positions(stmt):
                    if isinstance(node, ast.Call):
                        name = call_method_name(node)
                        if name in EMIT_METHODS:
                            pending = node
                        elif name == "barrier":
                            pending = None
                        elif name in _STATS_READS and pending is not None:
                            yield _finding(
                                module, node, "REP204",
                                "message statistics read while async "
                                "messages may still be buffered/in flight "
                                "(no barrier() since the last emit in this "
                                "scope); counts are incomplete",
                                severity=WARNING)
                            pending = None
                    elif (isinstance(node, ast.Attribute)
                          and node.attr == "stats"
                          and isinstance(node.ctx, ast.Load)
                          and pending is not None):
                        yield _finding(
                            module, node, "REP204",
                            "'.stats' read while async messages may still "
                            "be buffered/in flight (no barrier() since the "
                            "last emit in this scope); counts are incomplete",
                            severity=WARNING)
                        pending = None


@rule("REP205", ERROR, "RPC payload argument is not wire-serializable")
def check_serializable_args(project: ProjectContext,
                            config: AnalysisConfig) -> Iterator[Finding]:
    for site in project.call_sites:
        for arg in site.arg_nodes:
            label: Optional[str] = None
            if isinstance(arg, ast.Lambda):
                label = "a lambda"
            elif isinstance(arg, ast.GeneratorExp):
                label = "a generator expression"
            if label is None:
                continue
            yield _finding(
                site.module, arg, "REP205",
                f"{label} is passed as RPC payload to {site.name!r}; "
                "payloads must be plain data (ids, floats, arrays) — "
                "callables and generators cannot cross a rank boundary on "
                "a real cluster (register a named handler/visitor instead)")
