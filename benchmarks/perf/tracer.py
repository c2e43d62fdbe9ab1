"""Span tracer that instruments the program from outside.

The benchmark may not edit the program, so layer boundaries are recorded
by replacing public callables with timing wrappers for the duration of
one traced pass.  Targets are dotted names resolved at run time: a name
that no longer resolves is listed in ``Tracer.missing`` and its metrics
read ``NOT_MEASURED``, so a refactor can rename or delete a layer
without breaking the benchmark it is judged by.

A span is ``(name, layer, start, end, parent)``.  Self time is a span's
duration minus the time covered by its child spans, so self times over
all spans add up to the wall time of the root spans.  Calls that happen
hundreds of thousands of times per build (heap pushes, owner lookups,
scalar distances) are aggregated per name instead of stored one by one;
their time still counts as a child of the enclosing span.

Single-threaded by design: the sim backend and the process backend's
driver both run on one thread, and those are what the benchmark traces.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

NOT_MEASURED = -1.0
"""Value of a metric whose symbol is gone (see ``Tracer.missing``)."""


@dataclass(frozen=True)
class Target:
    path: str
    """Dotted name, e.g. ``repro.DNND.build``."""
    layer: str
    spans: bool = True
    """False: aggregate only (too many calls to keep one record each)."""


def resolve(path: str):
    """``(owner, attribute name)`` for a dotted path; raises
    ``AttributeError``/``ImportError`` when it does not resolve."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            obj = getattr(obj, attr)
        getattr(obj, parts[-1])
        return obj, parts[-1]
    raise ImportError(f"no importable prefix in {path!r}")


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: list = []
        """``[name, layer, start, end, parent index or -1]`` per stored span."""
        self.stages: dict = {}
        """stage -> name -> ``[calls, total seconds, seconds in children]``."""
        self.layer_of: dict = {}
        self.missing: list = []
        self._totals: dict = {}
        self._stack: list = []
        self._patched: list = []
        self.set_stage("idle")

    # -- instrumentation ------------------------------------------------------

    def set_stage(self, stage: str) -> None:
        """Aggregate subsequent calls under ``stage`` (build/finish/query)."""
        self._totals = self.stages.setdefault(stage, {})

    def wrap(self, fn, name: str, layer: str, spans: bool = True):
        """``fn`` with a span recorded around every call."""
        clock = self._clock
        stack = self._stack
        store = self.spans
        self.layer_of[name] = layer

        def traced(*args, **kwargs):
            index = -1
            if spans:
                index = len(store)
                store.append(None)
            frame = [0.0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[0] += took
                total = self._totals.get(name)
                if total is None:
                    total = self._totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += took
                total[2] += frame[0]
                if spans:
                    store[index] = (name, layer, start, end,
                                    parent[1] if parent is not None else -1)

        return traced

    def _replace(self, path: str, make) -> None:
        """Put ``make(original)`` where ``path`` points, or record the
        path as missing when it no longer resolves."""
        try:
            owner, attr = resolve(path)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return
        raw = vars(owner).get(attr, getattr(owner, attr))
        self._patched.append((owner, attr, raw, attr in vars(owner)))
        setattr(owner, attr, make(raw))

    def install(self, targets) -> None:
        """Replace every resolvable target by its traced wrapper."""
        for target in targets:
            def traced(raw, target=target):
                if isinstance(raw, (classmethod, staticmethod)):
                    return type(raw)(self.wrap(raw.__func__, target.path,
                                               target.layer, target.spans))
                return self.wrap(raw, target.path, target.layer, target.spans)

            self._replace(target.path, traced)

    def install_registrar(self, path: str, layer: str, suffix: str) -> None:
        """Trace every handler passed to the registration method at
        ``path`` (``fn`` is its second positional argument), under the
        name ``handler.<registered name><suffix>``."""
        def registrar(raw):
            def register(world, name, fn, *args, **kwargs):
                return raw(world, name,
                           self.wrap(fn, f"handler.{name}{suffix}", layer),
                           *args, **kwargs)
            return register

        self._replace(path, registrar)

    def uninstall(self) -> None:
        """Put every replaced callable back."""
        while self._patched:
            owner, attr, raw, own = self._patched.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- read-out ---------------------------------------------------------------

    def calls(self, stage: str, prefix: str) -> int:
        return sum(t[0] for n, t in self.stages.get(stage, {}).items()
                   if n.startswith(prefix))

    def total_time(self, stage: str, prefix: str) -> float:
        """Seconds inside spans whose name starts with ``prefix``
        (children included; do not sum over names that nest)."""
        return sum(t[1] for n, t in self.stages.get(stage, {}).items()
                   if n.startswith(prefix))

    def self_time(self, stage: str, prefix: str = "") -> float:
        return sum(t[1] - t[2] for n, t in self.stages.get(stage, {}).items()
                   if n.startswith(prefix))

    def layer_self_times(self, stage: str) -> dict:
        out: dict = {}
        for name, t in self.stages.get(stage, {}).items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + t[1] - t[2]
        return out

    def is_missing(self, prefix: str) -> bool:
        return any(p.startswith(prefix) for p in self.missing)

    def write_chrome_trace(self, path, process_name: str) -> int:
        """Write stored spans as Chrome-trace ``X`` events (load the file
        in chrome://tracing or ui.perfetto.dev); returns the event count.
        Layers are shown as threads so each gets its own track."""
        done = [s for s in self.spans if s is not None]
        origin = min((s[2] for s in done), default=0.0)
        tids = {layer: i for i, layer in
                enumerate(sorted({s[1] for s in done}), start=1)}
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": process_name}}]
        events += [{"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                    "args": {"name": layer}} for layer, tid in tids.items()]
        events += [{"ph": "X", "pid": 1, "tid": tids[layer], "name": name,
                    "cat": layer, "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6, "args": {"parent": parent}}
                   for name, layer, start, end, parent in done]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(done)
