"""Project model + rule registry for the linter.

The engine parses every file once into a :class:`SourceModule`, then
builds a :class:`ProjectContext` — the cross-file facts the RPC rules
need (which handler names are registered anywhere in the analyzed file
set, what arity each handler function accepts, which ``async_call``
sites name which handler).  Rules are plain functions registered with
the :func:`rule` decorator; each receives the whole project and yields
:class:`~repro.analysis.findings.Finding` objects.
"""

from __future__ import annotations

import ast
import math
import symtable
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .config import AnalysisConfig
from .findings import Finding

#: The columnar send API: ``YGMWorld.emit_run(src, dests, handler,
#: columns, ...)`` and the rank program's staging form
#: ``HostBlock.stage(src, dests, handler, columns, ...)`` (the run the
#: driver's pump later hands to ``emit_run``) share one call shape — the
#: handler name third, one column per message argument fourth.  One call
#: sends a whole run of messages.
RUN_EMIT_METHODS = frozenset({"emit_run", "stage"})

#: Methods whose call counts as "emitting a message" for the rules that
#: scope themselves to message-emitting code (REP103, REP204).
EMIT_METHODS = frozenset({"async_call", "async_visit", "async_insert",
                          "async_add"}) | RUN_EMIT_METHODS


@dataclass
class SourceModule:
    """One parsed file."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    table: Optional[symtable.SymbolTable] = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


@dataclass
class FunctionInfo:
    """Callable facts needed for arity and closure checks.

    ``min_args``/``max_args`` count *all* positional parameters
    (including the leading ``ctx``); ``max_args`` is ``inf`` for
    ``*args`` signatures.
    """

    name: str
    path: str
    line: int
    min_args: int
    max_args: float
    free_vars: Tuple[str, ...] = ()
    is_lambda: bool = False
    #: The def/lambda AST node and its module — populated by the engine
    #: so body-analyzing rules (the REP4xx concurrency family) can run
    #: intra-function dataflow without re-locating the definition.
    node: Optional[ast.AST] = None
    module: Optional["SourceModule"] = None


@dataclass
class HandlerInfo:
    """One ``register_handler(s)`` / ``register_visitor`` /
    ``register_batch_handler(s)`` binding."""

    name: str
    path: str
    line: int
    func_name: Optional[str] = None  # None when bound to a lambda
    func: Optional[FunctionInfo] = None


@dataclass
class CallSite:
    """An ``async_call``/``async_visit``/``emit_run`` with a literal
    target name."""

    kind: str  # "handler" | "visitor"
    name: str
    #: Message arguments supplied (for ``emit_run``: columns); None when
    #: ``*args`` or a non-literal column tuple makes the count unknown.
    payload_args: Optional[int]
    module: SourceModule
    node: ast.Call
    arg_nodes: Tuple[ast.expr, ...] = ()


@dataclass
class ProjectContext:
    """Cross-file facts shared by every rule."""

    modules: List[SourceModule]
    handlers: Dict[str, List[HandlerInfo]] = field(default_factory=dict)
    visitors: Dict[str, List[HandlerInfo]] = field(default_factory=dict)
    #: Columnar handlers registered via ``register_batch_handler(s)``:
    #: delivered ``(world, dest, *columns)`` — the host's world, the
    #: column of destination ranks, one array per message argument — so
    #: a name's arity is the same whether a call site sends one message
    #: (``async_call``) or a run (``emit_run``).  A name lives in this
    #: registry or in ``handlers``, and every handler rule reads both.
    batch_handlers: Dict[str, List[HandlerInfo]] = field(default_factory=dict)
    functions: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    call_sites: List[CallSite] = field(default_factory=list)
    #: Functions handed to an executor — ``submit``/``map_ranks``/
    #: ``run_ranks``/``run_on_all`` first arguments and
    #: ``Thread(target=...)`` — i.e. code that may run concurrently with
    #: the driver and with other ranks.  The REP4xx concurrency rules
    #: treat these exactly like registered handlers ("concurrent scope").
    executor_tasks: Dict[str, List[HandlerInfo]] = field(default_factory=dict)
    #: Worker *process* entry points — ``Process(target=...)`` first-class
    #: targets (``multiprocessing`` / a start-method context).  Kept out
    #: of ``executor_tasks`` on purpose: a process target runs in its own
    #: address space (forked copy or spawn re-import), so the REP4xx
    #: thread-interleaving rules do not apply to it — module/class state
    #: it mutates is private to the worker, and the only cross-process
    #: channels are pickled pipes/queues.  Determinism rules still see
    #: these functions through ``functions``/``handlers``.
    process_tasks: Dict[str, List[HandlerInfo]] = field(default_factory=dict)


RuleFn = Callable[[ProjectContext, AnalysisConfig], Iterator[Finding]]

#: rule id -> rule function; populated by the :func:`rule` decorator.
RULES: Dict[str, RuleFn] = {}


def rule(rule_id: str, severity: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule function under ``rule_id``."""

    def decorate(fn: RuleFn) -> RuleFn:
        fn.rule_id = rule_id          # type: ignore[attr-defined]
        fn.severity = severity        # type: ignore[attr-defined]
        fn.summary = summary          # type: ignore[attr-defined]
        RULES[rule_id] = fn
        return fn

    return decorate


def arity_of(args: ast.arguments) -> Tuple[int, float]:
    """(required, maximum) positional-argument counts of a signature."""
    positional = len(args.posonlyargs) + len(args.args)
    required = positional - len(args.defaults)
    maximum = math.inf if args.vararg is not None else float(positional)
    return required, maximum


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chains as a string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_method_name(call: ast.Call) -> Optional[str]:
    """The method/function name being called (last attribute segment)."""
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return None


class ImportMap:
    """Resolve names in one module back to fully-qualified import paths."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}   # local name -> module path
        self.members: Dict[str, str] = {}   # local name -> qualified name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        self.aliases[a.asname] = a.name
                    else:
                        head = a.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for a in node.names:
                    self.members[a.asname or a.name] = f"{node.module}.{a.name}"

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Fully-qualified dotted path of ``call.func`` or None."""
        parts: List[str] = []
        node = call.func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.members:
            prefix = self.members[base]
        elif base in self.aliases:
            prefix = self.aliases[base]
        else:
            return None
        return ".".join([prefix, *reversed(parts)]) if parts else prefix


def iter_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def free_variables(module: SourceModule, name: str, line: int) -> Tuple[str, ...]:
    """Free variables of the function block ``name`` defined at ``line``
    (per the symbol table); empty when the block cannot be located."""
    if module.table is None:
        return ()
    stack = [module.table]
    while stack:
        table = stack.pop()
        if (table.get_type() == "function" and table.get_name() == name
                and table.get_lineno() == line):
            return tuple(sorted(table.get_frees()))
        stack.extend(table.get_children())
    return ()
