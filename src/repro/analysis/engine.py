"""Linter engine: file collection, project building, rule dispatch.

Two passes:

1. Parse every file (syntax errors become ``REP000`` findings) and build
   the :class:`~repro.analysis.registry.ProjectContext`: handler and
   visitor registrations, function signatures, and literal-named
   ``async_call`` / ``async_visit`` sites across the whole file set.
2. Run every registered rule over the project and filter out findings
   suppressed by a same-line ``# repro: ignore[RULE,...]`` comment
   (bare ``# repro: ignore`` suppresses every rule on that line but
   REP105, which must be named and given a reason after the bracket).
"""

from __future__ import annotations

import ast
import re
import symtable
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import AnalysisConfig, matches_exclude
from .findings import ERROR, Finding
from .registry import (
    RULES,
    RUN_EMIT_METHODS,
    CallSite,
    FunctionInfo,
    HandlerInfo,
    ProjectContext,
    SourceModule,
    arity_of,
    call_method_name,
    free_variables,
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")
#: Rules a suppression silences only when it names them and gives its
#: reason after the bracket: ``# repro: ignore[REP105] keys are distinct``.
_NEEDS_REASON = frozenset({"REP105"})

#: Positional slots where the handler-name string may sit in an
#: ``async_call``: index 1 for ``ctx.async_call(dest, "h", ...)``,
#: index 2 for ``world.async_call(src, dest, "h", ...)``.
_HANDLER_NAME_SLOTS = (1, 2)
#: ``async_visit(src_rank, key, "visitor", *args)`` — the visitor name
#: is always the third positional argument (the key may be a string).
_VISITOR_NAME_SLOT = 2
#: ``emit_run(src, dests, "h", (col, ...), nbytes, msg_type)`` — see
#: ``registry.RUN_EMIT_METHODS``.
_RUN_NAME_SLOT = 2
_RUN_COLUMNS_SLOT = 3

#: Executor entry points whose first positional argument is a function
#: that will run in task scope (concurrently with the driver and with
#: other ranks) — collected into ``ProjectContext.executor_tasks``.
_TASK_METHODS = frozenset({"submit", "map_ranks", "run_ranks", "run_on_all"})


def collect_files(paths: Sequence[str],
                  config: AnalysisConfig) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list.

    Exclude patterns apply to files discovered by walking directories;
    a file named explicitly on the command line is always linted.
    """
    out: List[Path] = []
    seen: set = set()
    for raw in paths:
        p = Path(raw)
        candidates: Iterable[Path]
        explicit = not p.is_dir()
        candidates = [p] if explicit else sorted(p.rglob("*.py"))
        for f in candidates:
            posix = f.as_posix()
            if posix in seen or (not explicit
                                 and matches_exclude(posix, config)):
                continue
            seen.add(posix)
            out.append(f)
    return out


def parse_modules(files: Sequence[Path]) -> Tuple[List[SourceModule], List[Finding]]:
    modules: List[SourceModule] = []
    findings: List[Finding] = []
    for f in files:
        try:
            source = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(path=str(f), line=1, col=1, rule="REP000",
                                    severity=ERROR,
                                    message=f"cannot read file: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=str(f))
        except SyntaxError as exc:
            findings.append(Finding(path=str(f), line=exc.lineno or 1,
                                    col=(exc.offset or 1), rule="REP000",
                                    severity=ERROR,
                                    message=f"syntax error: {exc.msg}"))
            continue
        try:
            table = symtable.symtable(source, str(f), "exec")
        except (SyntaxError, ValueError):  # pragma: no cover - parse passed
            table = None
        modules.append(SourceModule(path=str(f), source=source, tree=tree,
                                    table=table))
    return modules, findings


def _function_info(module: SourceModule, node: ast.AST,
                   name: str) -> Optional[FunctionInfo]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        required, maximum = arity_of(node.args)
        return FunctionInfo(
            name=node.name, path=module.path, line=node.lineno,
            min_args=required, max_args=maximum,
            free_vars=free_variables(module, node.name, node.lineno),
            node=node, module=module)
    if isinstance(node, ast.Lambda):
        required, maximum = arity_of(node.args)
        return FunctionInfo(
            name=name, path=module.path, line=node.lineno,
            min_args=required, max_args=maximum,
            free_vars=free_variables(module, "lambda", node.lineno),
            is_lambda=True, node=node, module=module)
    return None


def _collect_registrations(module: SourceModule,
                           project: ProjectContext) -> None:
    # All function definitions, keyed by simple name (cross-file handler
    # references are resolved by name; multiple defs keep every candidate
    # so arity checks do not false-positive on name reuse).
    defs: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(module, node, node.name)
            if info is not None:
                project.functions.setdefault(node.name, []).append(info)
            defs.setdefault(node.name, []).append(node)

    # One-hop method aliases (``collect = self._drain_rank``): lets a
    # task submitted through a local name resolve to the method it was
    # bound from.
    attr_aliases: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)):
            attr_aliases[node.targets[0].id] = node.value.attr

    def bind(registry: Dict[str, List[HandlerInfo]], name: str,
             value: ast.expr, call: ast.Call) -> None:
        info = HandlerInfo(name=name, path=module.path, line=call.lineno)
        if isinstance(value, ast.Lambda):
            info.func = _function_info(module, value, name)
            info.line = value.lineno
        elif isinstance(value, ast.Name):
            info.func_name = value.id
            local = [
                _function_info(module, d, value.id)
                for d in defs.get(value.id, [])
            ]
            locals_found = [i for i in local if i is not None]
            if len(locals_found) == 1:
                info.func = locals_found[0]
                info.line = locals_found[0].line
            elif not locals_found and value.id in attr_aliases:
                info.func_name = attr_aliases[value.id]
        elif isinstance(value, ast.Attribute):
            info.func_name = value.attr
        registry.setdefault(name, []).append(info)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        method = call_method_name(node)
        if method == "register_handler" and len(node.args) >= 2:
            target = node.args[0]
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                bind(project.handlers, target.value, node.args[1], node)
        elif method == "register_handlers":
            for kw in node.keywords:
                if kw.arg is not None:
                    bind(project.handlers, kw.arg, kw.value, node)
        elif method == "register_batch_handler" and len(node.args) >= 2:
            target = node.args[0]
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                bind(project.batch_handlers, target.value, node.args[1], node)
        elif method == "register_batch_handlers":
            for kw in node.keywords:
                if kw.arg is not None:
                    bind(project.batch_handlers, kw.arg, kw.value, node)
        elif method == "register_visitor" and len(node.args) >= 2:
            target = node.args[0]
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                bind(project.visitors, target.value, node.args[1], node)
        elif method == "register_kernel":
            # Blocked distance-kernel declarations (DESIGN.md section
            # 17).  Only the callable slots are helper bindings; the
            # attach-time state keywords (ops/cache/stats) are data, not
            # code, and indexing them would make REP203 audit non-
            # functions.  Kernel helpers go into their own registry so
            # REP202's handler arity model never sees them.
            metric = None
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                metric = node.args[0].value
            for kw in node.keywords:
                if kw.arg in ("pairwise", "rowwise", "one_to_many"):
                    label = (f"{metric}.{kw.arg}" if metric is not None
                             else kw.arg)
                    bind(project.kernel_helpers, label, kw.value, node)
        elif method in _TASK_METHODS and node.args:
            target = node.args[0]
            label = (target.id if isinstance(target, ast.Name)
                     else target.attr if isinstance(target, ast.Attribute)
                     else "<lambda>")
            bind(project.executor_tasks, label, target, node)
        elif method in ("Thread", "Process"):
            # Thread targets share the driver's address space and join
            # ``executor_tasks`` (REP4xx concurrent scope).  Process
            # targets run in their own address space — forked copy or
            # spawn re-import — so the thread-interleaving rules do not
            # apply; they are collected separately into
            # ``process_tasks`` so rules can still reason about worker
            # entry points.
            registry = (project.executor_tasks if method == "Thread"
                        else project.process_tasks)
            for kw in node.keywords:
                if kw.arg == "target":
                    label = (kw.value.id if isinstance(kw.value, ast.Name)
                             else kw.value.attr
                             if isinstance(kw.value, ast.Attribute)
                             else "<lambda>")
                    bind(registry, label, kw.value, node)


def _literal_names(expr: ast.expr) -> List[str]:
    """Handler names an argument spells out: a string literal, or a
    conditional expression choosing between two."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, ast.IfExp):
        return _literal_names(expr.body) + _literal_names(expr.orelse)
    return []


def _collect_call_sites(module: SourceModule,
                        project: ProjectContext) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        method = call_method_name(node)
        if method in RUN_EMIT_METHODS:
            if _RUN_COLUMNS_SLOT >= len(node.args) or any(
                    isinstance(a, ast.Starred)
                    for a in node.args[:_RUN_COLUMNS_SLOT + 1]):
                continue
            columns = node.args[_RUN_COLUMNS_SLOT]
            known = (isinstance(columns, ast.Tuple) and not any(
                isinstance(c, ast.Starred) for c in columns.elts))
            for name in _literal_names(node.args[_RUN_NAME_SLOT]):
                project.call_sites.append(CallSite(
                    kind="handler", name=name,
                    payload_args=len(columns.elts) if known else None,
                    module=module, node=node,
                    arg_nodes=tuple(columns.elts) if known else ()))
        elif method == "async_call":
            for slot in _HANDLER_NAME_SLOTS:
                if slot >= len(node.args):
                    break
                arg = node.args[slot]
                if isinstance(arg, ast.Starred):
                    break  # positions beyond a *args expansion are unknown
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    payload = node.args[slot + 1:]
                    starred = any(isinstance(a, ast.Starred) for a in payload)
                    project.call_sites.append(CallSite(
                        kind="handler", name=arg.value,
                        payload_args=None if starred else len(payload),
                        module=module, node=node,
                        arg_nodes=tuple(payload)))
                    break
        elif method == "async_visit":
            if _VISITOR_NAME_SLOT >= len(node.args):
                continue
            arg = node.args[_VISITOR_NAME_SLOT]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                payload = node.args[_VISITOR_NAME_SLOT + 1:]
                starred = any(isinstance(a, ast.Starred) for a in payload)
                project.call_sites.append(CallSite(
                    kind="visitor", name=arg.value,
                    payload_args=None if starred else len(payload),
                    module=module, node=node,
                    arg_nodes=tuple(payload)))


def build_project(modules: List[SourceModule]) -> ProjectContext:
    project = ProjectContext(modules=modules)
    for module in modules:
        _collect_registrations(module, project)
    for module in modules:
        _collect_call_sites(module, project)
    # Late-bind cross-module handler functions (registered by bare name
    # whose def lives in another analyzed file).
    for registry in (project.handlers, project.visitors,
                     project.batch_handlers, project.executor_tasks,
                     project.process_tasks, project.kernel_helpers):
        for infos in registry.values():
            for info in infos:
                if info.func is None and info.func_name is not None:
                    candidates = project.functions.get(info.func_name, [])
                    if len(candidates) == 1:
                        info.func = candidates[0]
    return project


# -- light intra-function dataflow (shared by the REP4xx rules) -------------
#
# The concurrency rules need three approximate facts about a function
# body: which names reach *shared* state (module/class-level bindings,
# ``global`` declarations, and one-hop local aliases of either), which
# statements execute under a lock, and what the leftmost base of an
# attribute/subscript chain is.  All three are deliberately syntactic —
# no type inference — tuned so the repo's sanctioned idioms (rank-indexed
# instance state, driver-side absolute-assignment folds) stay silent.


def base_of(expr: ast.expr) -> Optional[ast.expr]:
    """The leftmost base of an attribute/subscript chain
    (``a.b[k].c`` -> the ``a`` node); None for non-chain expressions."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr


def bound_names(target: ast.expr) -> Iterator[str]:
    """Names a target expression *binds* — descends tuple/list/starred
    destructuring but stops at attribute/subscript targets, which mutate
    an object without rebinding any name (``self.x = v`` binds nothing,
    ``a, (b, c) = v`` binds a/b/c)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from bound_names(target.value)


def is_class_state(expr: ast.expr) -> bool:
    """True when a chain is rooted at the *class* rather than the
    instance: ``cls.x``, ``type(self).x``, ``self.__class__.x``."""
    seen_class_attr = False
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        if isinstance(expr, ast.Attribute) and expr.attr == "__class__":
            seen_class_attr = True
        expr = expr.value
    if isinstance(expr, ast.Name) and expr.id == "cls":
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "type"):
        return True
    return seen_class_attr


def module_bindings(module: SourceModule) -> frozenset:
    """Names bound at module top level — assignments, imports, and class
    definitions.  These are the objects every thread in the process can
    reach, i.e. the linter's notion of shared state.  Function defs are
    excluded: mutating attributes hung off a function object is not an
    idiom this repo uses."""
    names: set = set()
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                names.update(bound_names(target))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(stmt, ast.ClassDef):
            names.add(stmt.name)
    return frozenset(names)


def own_scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function scopes:
    names bound inside a nested def/lambda belong to *that* scope, so
    scope-sensitive facts (local bindings, driver mutations) must not
    see them."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def global_declarations(fn: ast.AST) -> frozenset:
    """Names the function declares ``global`` (writes go to module scope)."""
    names: set = set()
    for node in own_scope_walk(fn):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return frozenset(names)


def local_bindings(fn: ast.AST) -> frozenset:
    """Names bound inside the function — parameters, assignment/loop/
    with targets — which therefore *shadow* same-named module bindings
    (unless declared global)."""
    names: set = set()
    args = fn.args if isinstance(
        fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) else None
    if args is not None:
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            names.add(a.arg)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
    for node in own_scope_walk(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                               ast.NamedExpr)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [item.optional_vars for item in node.items
                       if item.optional_vars is not None]
        for target in targets:
            names.update(bound_names(target))
    return frozenset(names - global_declarations(fn))


def shared_name_resolver(fn: ast.AST, module: SourceModule):
    """Build a predicate ``shared(expr) -> bool``: does this chain's base
    resolve to shared state?

    Resolution is assignment-tracking with one-hop attribute aliasing:
    module-level bindings and ``global`` names are shared unless locally
    shadowed; a local assigned *from* a shared chain (``d = TABLE`` or
    ``d = STATS.cells``) becomes shared itself; class-rooted chains
    (``cls.x``, ``type(self).x``) are always shared.
    """
    mod_names = module_bindings(module)
    globals_ = global_declarations(fn)
    locals_ = local_bindings(fn)

    aliases: set = set()

    def base_shared(expr: ast.expr) -> bool:
        if is_class_state(expr):
            return True
        base = base_of(expr)
        if not isinstance(base, ast.Name):
            return False
        name = base.id
        if name in globals_ or name in aliases:
            return True
        return name in mod_names and name not in locals_

    # Fixed-point over one-hop aliases, in syntactic order; two passes
    # catch alias-of-alias chains without a full worklist.
    for _ in range(2):
        changed = False
        for node in own_scope_walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value,
                                   (ast.Name, ast.Attribute, ast.Subscript))
                    and base_shared(node.value)):
                if node.targets[0].id not in aliases:
                    aliases.add(node.targets[0].id)
                    changed = True
        if not changed:
            break

    return base_shared


def is_lockish(expr: ast.expr, config: AnalysisConfig) -> Optional[str]:
    """The lock name when ``expr`` looks like a lock acquisition context
    (``with self._lock:``, ``with LOCK:``, ``with lock_for(k):``) —
    the last dotted segment either contains "lock" or appears in the
    declared ``lock-order`` hierarchy.  None otherwise."""
    node = expr
    if isinstance(node, ast.Call):
        node = node.func
    name: Optional[str] = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is None:
        return None
    if "lock" in name.lower() or name in config.lock_order:
        return name
    return None


def lock_guarded(fn: ast.AST, config: AnalysisConfig) -> frozenset:
    """``id()`` of every AST node lexically inside a ``with <lock>:``
    block — the lock-context set the mutation rules consult before
    reporting."""
    guarded: set = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(is_lockish(item.context_expr, config)
                   for item in node.items):
                for stmt in node.body:
                    guarded.update(id(sub) for sub in ast.walk(stmt))
    return frozenset(guarded)


def _suppressed(finding: Finding, modules: Dict[str, SourceModule]) -> bool:
    module = modules.get(finding.path)
    if module is None or not 1 <= finding.line <= len(module.lines):
        return False
    line = module.lines[finding.line - 1]
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return False
    rule = finding.rule.upper()
    rules = match.group("rules")
    if rules is None:
        # bare "# repro: ignore" silences the whole line
        return rule not in _NEEDS_REASON
    wanted = {r.strip().upper() for r in rules.split(",") if r.strip()}
    if rule in _NEEDS_REASON and not line[match.end():].strip():
        return False
    return rule in wanted


def run_analysis(paths: Sequence[str], config: Optional[AnalysisConfig] = None,
                 select: Sequence[str] = ()) -> List[Finding]:
    """Lint ``paths`` and return sorted, suppression-filtered findings."""
    config = config or AnalysisConfig()
    files = collect_files(paths, config)
    modules, findings = parse_modules(files)
    project = build_project(modules)
    chosen = tuple(select) or config.select
    for rule_id in sorted(RULES):
        if chosen and rule_id not in chosen:
            continue
        findings.extend(RULES[rule_id](project, config))
    by_path = {m.path: m for m in modules}
    findings = [f for f in findings if not _suppressed(f, by_path)]
    findings.sort(key=lambda f: f.sort_key)
    return findings


# Rule modules self-register on import.  Imported at the bottom because
# the concurrency module imports this module's dataflow helpers.
from . import concurrency as _concurrency  # noqa: E402,F401
from . import determinism as _determinism  # noqa: E402,F401
from . import resilience as _resilience  # noqa: E402,F401
from . import rpc as _rpc  # noqa: E402,F401
