"""Determinism rules (REP1xx).

Crash recovery (DESIGN.md section 8) replays a build from a checkpoint
and must reconstruct the *bit-identical* graph; the ablation benchmarks
compare runs that must differ only in the knob under study.  Both break
the moment any code on a simulated rank consumes nondeterministic
input: process-global RNG state, the wall clock, unordered-set
iteration order, or CPython object addresses.  These rules flag the
syntactic shapes of those inputs.

REP101  unseeded-global-rng          ``random.random()``-style global
                                     state and legacy ``np.random.*``
                                     calls; also zero-argument
                                     ``default_rng()`` / ``SeedSequence()``
                                     / ``random.Random()``.
REP102  wall-clock-in-sim            ``time.time()`` and friends inside
                                     the simulation paths (``runtime/``,
                                     ``core/``), where the cost ledger
                                     owns time.
REP103  set-iteration-in-emit        iterating a ``set`` in a function
                                     that emits messages — message order
                                     becomes hash-seed dependent.
REP104  id-based-ordering            ``sorted(..., key=id)`` and
                                     ``id(...)`` inside ordering keys —
                                     object addresses vary run to run.
REP105  unstable-argsort-in-sim      ``argsort`` / ``argpartition``
                                     (function or method) in simulation
                                     paths without a stable ``kind`` —
                                     numpy orders equal keys differently
                                     on AVX-512, AVX2 and scalar builds.
                                     A site whose ties cannot reach the
                                     result says why on its suppression:
                                     ``# repro: ignore[REP105] <reason>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple, Union

from .config import AnalysisConfig, in_sim_path
from .findings import ERROR, Finding
from .registry import (
    EMIT_METHODS,
    ImportMap,
    ProjectContext,
    SourceModule,
    call_method_name,
    rule,
)

#: ``random`` module functions that mutate/consume the hidden global state.
_GLOBAL_RANDOM = frozenset(
    f"random.{name}" for name in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "seed", "getrandbits", "gauss", "normalvariate",
        "betavariate", "expovariate", "triangular", "vonmisesvariate",
    )
)

#: Legacy numpy global-state API (the ``np.random.seed`` / ``np.random.rand``
#: family); ``numpy.random.Generator`` methods are fine.
_NUMPY_LEGACY = frozenset(
    f"numpy.random.{name}" for name in (
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "get_state",
        "set_state", "bytes", "normal", "uniform", "standard_normal",
        "exponential", "poisson", "beta", "gamma", "binomial", "geometric",
    )
)

#: Constructors that are deterministic only when given an explicit seed.
_SEED_REQUIRED = frozenset({
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "random.Random",
})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def _finding(module: SourceModule, node: ast.AST, rule_id: str,
             message: str, severity: str = ERROR) -> Finding:
    return Finding(path=module.path, line=node.lineno,
                   col=node.col_offset + 1, rule=rule_id,
                   severity=severity, message=message)


@rule("REP101", ERROR, "unseeded global-state RNG call")
def check_unseeded_rng(project: ProjectContext,
                       config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.resolve_call(node)
            if qualified is None:
                continue
            if qualified in _GLOBAL_RANDOM or qualified in _NUMPY_LEGACY:
                yield _finding(
                    module, node, "REP101",
                    f"{qualified}() consumes process-global RNG state; "
                    "derive a keyed stream via repro.utils.rng.derive_rng "
                    "so fault replay stays bit-identical")
            elif qualified in _SEED_REQUIRED and not node.args:
                yield _finding(
                    module, node, "REP101",
                    f"{qualified}() without a seed draws entropy from the "
                    "OS; pass an explicit seed (or use "
                    "repro.utils.rng.derive_rng)")


@rule("REP102", ERROR, "wall-clock read inside simulation code")
def check_wall_clock(project: ProjectContext,
                     config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        if not in_sim_path(module.path, config):
            continue
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.resolve_call(node)
            if qualified in _WALL_CLOCK:
                yield _finding(
                    module, node, "REP102",
                    f"{qualified}() reads the wall clock inside simulation "
                    "code; simulated time lives on the cost ledger "
                    "(cluster.ledger) — wall-clock reads make replay "
                    "timing-dependent")


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_method_name(node)
        if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
            return True
        # s.union(t) / s.intersection(t) / ... keep set-ness.
        if (isinstance(node.func, ast.Attribute)
                and name in ("union", "intersection", "difference",
                             "symmetric_difference")
                and _is_set_expr(node.func.value, set_names)):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _set_annotated(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _set_annotated(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet")
    return False


_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _function_scopes(tree: ast.Module) -> Iterator[_FuncNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@rule("REP103", ERROR, "set iteration in message-emitting code")
def check_set_iteration(project: ProjectContext,
                        config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        for fn in _function_scopes(module.tree):
            emits = any(
                isinstance(node, ast.Call)
                and call_method_name(node) in EMIT_METHODS
                for node in ast.walk(fn)
            )
            if not emits:
                continue
            # One-pass local dataflow: names bound to set expressions or
            # annotated as sets inside this function.
            set_names: Set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and _is_set_expr(node.value, set_names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and _set_annotated(node.annotation):
                    if isinstance(node.target, ast.Name):
                        set_names.add(node.target.id)
                elif isinstance(node, ast.arg) and node.annotation is not None:
                    if _set_annotated(node.annotation):
                        set_names.add(node.arg)
            iter_exprs: List[Tuple[ast.AST, ast.expr]] = []
            for node in ast.walk(fn):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iter_exprs.append((node, node.iter))
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    for gen in node.generators:
                        iter_exprs.append((node, gen.iter))
            for holder, expr in iter_exprs:
                if _is_set_expr(expr, set_names):
                    yield _finding(
                        module, expr, "REP103",
                        f"iteration over a set in message-emitting function "
                        f"{fn.name!r}: set order is hash-seed dependent, so "
                        "emitted message order (and replay) varies between "
                        "runs — iterate sorted(...) instead")


def _lambda_uses_id(lam: ast.Lambda) -> bool:
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        for node in ast.walk(lam)
    )


@rule("REP104", ERROR, "ordering keyed on id() object addresses")
def check_id_ordering(project: ProjectContext,
                      config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_method_name(node)
            if name not in ("sorted", "sort", "min", "max"):
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                bad = (isinstance(kw.value, ast.Name) and kw.value.id == "id") \
                    or (isinstance(kw.value, ast.Lambda) and _lambda_uses_id(kw.value))
                if bad:
                    yield _finding(
                        module, kw.value, "REP104",
                        f"{name}(..., key=id) orders by CPython object "
                        "address, which differs every run; key on a stable "
                        "field (vertex id, distance) instead")


#: Sort kinds that keep equal keys in input order.
_STABLE_KINDS = frozenset({"stable", "mergesort"})


def _stable_sort(node: ast.Call, kind_slot: int) -> bool:
    """Whether an argsort call asks for a stable kind (``kind=`` by
    keyword or at positional ``kind_slot``, or ``stable=True``)."""
    values = {kw.arg: kw.value for kw in node.keywords}
    if len(node.args) > kind_slot:
        values.setdefault("kind", node.args[kind_slot])
    kind, stable = values.get("kind"), values.get("stable")
    return ((isinstance(kind, ast.Constant) and kind.value in _STABLE_KINDS)
            or (isinstance(stable, ast.Constant) and stable.value is True))


@rule("REP105", ERROR, "unstable argsort in simulation code")
def check_unstable_argsort(project: ProjectContext,
                           config: AnalysisConfig) -> Iterator[Finding]:
    for module in project.modules:
        if not in_sim_path(module.path, config):
            continue
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_method_name(node)
            if name not in ("argsort", "argpartition"):
                continue
            # np.argsort(a, axis, kind) or a.argsort(axis, kind)
            function = imports.resolve_call(node) == f"numpy.{name}"
            if name == "argsort" and _stable_sort(node, 2 if function else 1):
                continue
            yield _finding(
                module, node, "REP105",
                f"{name}() without a stable kind orders equal keys "
                "differently on AVX-512, AVX2 and scalar numpy builds; "
                "pass kind=\"stable\", or sort keys that cannot tie and "
                "say why on the line: # repro: ignore[REP105] <reason>")
