"""Outside-in span tracer: per-layer host time without touching the program.

The tracer replaces chosen entry points on the program's classes with
wrappers that open a *span* named after the entry point's layer for as
long as the call runs, and restores the originals when it is removed.
A layer's *self time* is the time its spans were open minus the time
covered by spans nested inside them, so the self times of all layers
add up to the time the outermost span was open.

The program's blocking operations are generator coroutines driven by
the event loop.  Wrapping such an entry point returns a proxy
generator that forwards one resume at a time (``send``, ``throw`` and
``close``) and holds a span open only while the wrapped generator is
actually running; the time it spends suspended belongs to whoever runs
in the meantime.

Usage::

    tracer = SpanTracer()
    with tracer.installed([(Transport, "rdma_get", "network.transport")]):
        run_the_workload()
    tracer.self_s["network.transport"], tracer.calls["network.transport"]
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter
from types import GeneratorType
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: One patch: (class, attribute name, layer name).
Target = Tuple[type, str, str]


@contextmanager
def patched(cls: type, name: str, fn) -> Iterator:
    """Replace the attribute ``name`` that ``cls`` defines with ``fn``
    for the duration of the ``with`` block; the block gets the original."""
    original = vars(cls)[name]
    setattr(cls, name, fn)
    try:
        yield original
    finally:
        setattr(cls, name, original)


class SpanTracer:
    """Collects per-layer self time and call counts from nested spans."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: Seconds each layer's spans were open, minus nested spans.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Calls into each layer's wrapped entry points.
        self.calls: Dict[str, int] = defaultdict(int)
        # Open spans, innermost last.
        self._stack: List[list] = []

    # -- spans ---------------------------------------------------------
    #
    # A span is a one-element list holding the time its children took;
    # the open spans form a stack.  Closing a span charges its duration
    # minus its children's to its layer, and its duration to its
    # parent's children.  The proxy and wrappers inline this because
    # they run once per resume or call of the traced program.

    def enter(self, layer: str) -> Tuple[str, float, list]:
        frame = [0.0]
        self._stack.append(frame)
        return layer, self.clock(), frame

    def exit(self, span: Tuple[str, float, list]) -> None:
        layer, start, frame = span
        dur = self.clock() - start
        stack = self._stack
        stack.pop()
        self.self_s[layer] += dur - frame[0]
        if stack:
            stack[-1][0] += dur

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- wrapping ------------------------------------------------------

    def proxy(self, gen, layer: str):
        """A generator that forwards to ``gen`` one resume at a time,
        each resume inside a ``layer`` span."""
        out = self._proxy(gen, layer)
        out.__name__ = getattr(gen, "__name__", out.__name__)
        out.__qualname__ = getattr(gen, "__qualname__", out.__qualname__)
        return out

    def _proxy(self, gen, layer: str):
        stack, clock, self_s = self._stack, self.clock, self.self_s
        send = gen.send
        value, exc = None, None
        while True:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                if exc is None:
                    out = send(value)
                else:
                    out, exc = gen.throw(exc), None
            except StopIteration as stop:
                return stop.value
            finally:
                dur = clock() - start
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            try:
                value = yield out
            except GeneratorExit:
                span = self.enter(layer)
                try:
                    gen.close()
                finally:
                    self.exit(span)
                raise
            except BaseException as err:  # forwarded, not handled
                value, exc = None, err

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` with every call counted and run inside a span."""
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[layer] += 1
                return self.proxy(fn(*args, **kwargs), layer)
            return gen_wrapper

        stack, clock, self_s = self._stack, self.clock, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if type(out) is GeneratorType:
                return self.proxy(out, layer)
            return out
        return wrapper

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["SpanTracer"]:
        """Patch every target for the duration of the ``with`` block."""
        with ExitStack() as stack:
            for cls, name, layer in targets:
                if name not in vars(cls):
                    raise AttributeError(
                        f"{cls.__qualname__} defines no {name!r} to trace")
                stack.enter_context(
                    patched(cls, name, self.wrap(vars(cls)[name], layer)))
            yield self

    def shares(self) -> Dict[str, float]:
        """Each layer's self time as a share of all traced time."""
        total = sum(self.self_s.values())
        return {k: (v / total if total else 0.0)
                for k, v in self.self_s.items()}
