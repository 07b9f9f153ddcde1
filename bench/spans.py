"""In-memory spans around the benchmark's calls into k3lat modules.

A span is ``[name, start_ns, end_ns, parent, op_id]``: ``name`` is
``"<module>.<function>"``, ``parent`` is the index of the enclosing span or
-1.  Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' durations minus the part covered by child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("lattice_core", "root_config", "finite_geometry", "elliptic", "groups", "classifier", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def extend(self, spans) -> None:
        """Adopt spans recorded by a child process, under the open span."""
        base, parent = len(self.spans), self._stack[-1] if self._stack else -1
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end, base + up if up >= 0 else parent, self.op_id])


class TracedModule:
    """Stands in for a k3lat module; calls to its public functions and
    classes are recorded as spans named after the module's layer."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        traced = not name.startswith("_") and (
            inspect.isfunction(attr)
            or (inspect.isclass(attr) and not issubclass(attr, BaseException))
        )
        if not traced:
            return attr
        tracer, span = self._tracer, f"{self._layer}.{name}"

        def wrapper(*args, **kwargs):
            return tracer.call(span, attr, *args, **kwargs)

        setattr(self, name, wrapper)
        return wrapper


class Layers:
    """The k3lat modules as the workloads call them: the modules themselves
    when tracing is off, ``TracedModule`` stand-ins when it is on."""

    def __init__(self, tracer: Tracer | None = None):
        for layer in LAYERS:
            if layer == "cli":
                continue
            module = importlib.import_module(f"k3lat.{layer}")
            setattr(self, layer, module if tracer is None else TracedModule(module, tracer))


def self_times(spans, keep=lambda span: True) -> dict[str, float]:
    """Seconds of self time per span name, over the spans ``keep`` accepts."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if keep(span):
            out[span[0]] += (span[2] - span[1] - child_ns[i]) / 1e9
    return out
