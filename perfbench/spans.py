"""Span recording around the public entry point of each layer.

The benchmark times the program from outside: :class:`Tracer` replaces
a layer's entry point (a module function or a class method) with a
wrapper that records one :class:`Span` per call, and puts the original
back on :meth:`Tracer.uninstall`. Nothing under ``src/`` is edited.

Each thread keeps its own span stack, because the async server runs
``request_many`` on an executor thread while the event loop runs on
another. A span knows its parent (the span open on the same thread
when it started), and a parent accumulates its children's durations as
they close, so a layer's *self* time is its duration minus the time
its child spans cover.

A wrapper marked ``outermost`` records nothing while a span of the same
layer is already open on its thread: ``solve_many`` calls ``solve`` for
each unique problem, and timing both double-counts the search layer.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    """One timed call into a layer."""

    __slots__ = ("layer", "start", "end", "parent", "child_s")

    def __init__(self, layer: str, start: float, parent: Optional["Span"]) -> None:
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """Wrap layer entry points; collect spans and per-layer counters.

    ``counters[layer][name]`` accumulates whatever the ``on_result``
    hooks of that layer's wrappers add from the values the calls
    return (cache hits, states examined, ...). A hook is called with
    the layer's counters, the call's return value and its span.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._wrappers: List[Tuple[Any, str, Any, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        owner: Any,
        attr: str,
        layer: str,
        outermost: bool = False,
        on_result: Optional[Callable[[Dict[str, float], Any, Span], None]] = None,
    ) -> None:
        """Register a wrapper for ``owner.attr``; it takes effect on
        :meth:`install`."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if outermost and any(open_span.layer == layer for open_span in stack):
                return original(*args, **kwargs)
            span = Span(layer, time.perf_counter(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration_s
                tracer.spans.append(span)
            if on_result is not None:
                on_result(tracer.counters[layer], result, span)
            return result

        self._wrappers.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        self.spans = []
        self.counters.clear()

    def layer_spans(self, layer: str) -> List[Span]:
        return [span for span in self.spans if span.layer == layer]

    def self_s(self, layer: str) -> float:
        """Total self time of ``layer`` over the recorded spans."""
        return sum(span.self_s for span in self.spans if span.layer == layer)
