"""Span tracing of vortexao's public functions, from outside the package.

While a :class:`Tracer` is installed, every public function defined in a
``vortexao`` module is replaced, at every module attribute through which it
is looked up (``pipeline.synthesize_fields`` as well as
``dataset.synthesize_fields``, ``network.forward`` as ``train`` calls it), by
a wrapper that records a span. ``DiffractiveLayer.transmission`` is wrapped
too. A span is ``[name, start, end, parent index]``, named after the module
that defines the function; spans stay in memory and are written out at the
end of the run. The benchmark adds its own spans (``stage.<name>``) around
each stage so that counts can be attributed to the stage that caused them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Wrappers for every public vortexao function, and the spans they record."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _build_patches(self) -> None:
        wrappers: dict[object, object] = {}
        names = {"network.transmission"}
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "vortexao"]
        for module in modules:
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("vortexao."):
                    continue
                if value not in wrappers:
                    name = f"{_short(value.__module__)}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                    names.add(name)
                self._patches.append((module, attr, value, wrappers[value]))
        from vortexao.network import DiffractiveLayer

        method = DiffractiveLayer.__dict__["transmission"]
        self._patches.append(
            (DiffractiveLayer, "transmission", method, self._wrap("network.transmission", method))
        )
        self.names = sorted(names)

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span around a stage."""
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()


class SpanTree:
    """Derived views of a list of spans: counts, self time, ancestry."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = np.zeros(len(spans))
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(spans):
            self.self_s[name] += (end - start) - child_time[i]
            self.calls[name] += 1

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count_under(self, name: str, *ancestors: str) -> int:
        """Calls of ``name`` made (at any depth) inside a span of every ancestor."""
        total = 0
        for i, span in enumerate(self.spans):
            if span[0] == name and all(self._has_ancestor(i, a) for a in ancestors):
                total += 1
        return total

    def durations_ms(self, name: str, ancestor: str) -> list[float]:
        return [
            (s[2] - s[1]) * 1e3
            for i, s in enumerate(self.spans)
            if s[0] == name and self._has_ancestor(i, ancestor)
        ]
