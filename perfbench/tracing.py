"""In-memory spans around the calls into each qmaxlik module.

A span is (name, layer, start, end, parent). The benchmark wraps its own
calls with ``Tracer.call``; ``Tracer.patched`` additionally wraps, for the
duration of a ``with`` block, every public function (and the ``Dataset``
constructor) that one package module imported from another, plus
``engine.choose_epsilon_line_search``, so calls between layers get spans too.
Nothing inside the package is edited. A layer's self time is the time its
spans cover minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass

LAYERS = ("io", "povm", "dataset", "engine", "sweep", "simulate")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, name.split(".", 1)[0], time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, package):
        """Wrap cross-layer calls inside ``package`` while the block runs, then restore them."""
        targets = [(package.engine, "choose_epsilon_line_search", package.engine.choose_epsilon_line_search)]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                callee = _layer_of(obj)
                if attr.startswith("_") or callee is None or obj.__module__ == module.__name__:
                    continue
                if inspect.isfunction(obj) or obj is package.Dataset:
                    targets.append((module, attr, obj))
        try:
            for module, attr, obj in targets:
                setattr(module, attr, self._wrap(f"{_layer_of(obj)}.{obj.__name__}", obj))
            yield self
        finally:
            for module, attr, obj in targets:
                setattr(module, attr, obj)

    def stats(self, lo: int = 0, hi: int | None = None) -> tuple[dict, dict]:
        """Over spans[lo:hi]: per name (total s, self s, count), per layer (self s, count).

        The range must hold whole call trees, as one op's spans do.
        """
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent - lo] += s.end - s.start
        by_name: dict[str, tuple[float, float, int]] = {}
        by_layer = {layer: (0.0, 0) for layer in LAYERS}
        for s, c in zip(spans, child):
            total, own, n = by_name.get(s.name, (0.0, 0.0, 0))
            by_name[s.name] = (total + s.end - s.start, own + s.end - s.start - c, n + 1)
            own, n = by_layer.get(s.layer, (0.0, 0))
            by_layer[s.layer] = (own + s.end - s.start - c, n + 1)
        return by_name, by_layer

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


class NullTracer:
    """Tracing off: calls go straight through."""

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    package, _, layer = module.rpartition(".")
    return layer if package == "qmaxlik" and layer in LAYERS else None
