"""In-memory spans for the traced benchmark run.

A span records (name, start, end, parent, op): the layer it times, its
perf_counter interval, the index of the enclosing span (-1 at top level) and
the operation it belongs to.  Spans come only from the benchmark: around its
direct calls into polycf, and from wrappers it installs on the module-level
names that polycf code looks up at call time.  A layer's self time is the
sum of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import collections
import functools
import time


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer the workload needs recorded nothing."""


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: a span costs one method call and records nothing."""

    enabled = False
    op = -1

    def span(self, name: str):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.op])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Tracing on: keeps every span and counter in memory until the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str):
        self.counts[name] += 1

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = collections.defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return dict(out)

    def span_counts(self) -> collections.Counter:
        return collections.Counter(name for name, *_ in self.spans)


def _wrap_call(tracer: Tracer, fn, span: str, calls: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(calls)
        with tracer.span(span):
            result = fn(*args, **kwargs)
        if result is None:
            tracer.count(calls + ":none")
        return result

    return wrapper


def _wrap_stream(tracer: Tracer, fn, span: str, calls: str):
    """Time each step of a generator, so the consumer's own work between
    steps stays in the consumer's self time."""

    def timed(it):
        while True:
            with tracer.span(span):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(calls)
        return timed(fn(*args, **kwargs))

    return wrapper


class Wrapped:
    """Install span wrappers on module attributes for the duration of a block.

    ``specs`` holds (module, attribute, span name, kind) with kind "call" or
    "stream".  A missing attribute raises TraceError at install time, so a
    rename in polycf cannot silently zero a layer.  Every wrapper counts its
    calls under call_counter(module, attribute), and a "call" wrapper counts
    the calls that returned None under that name plus ":none".
    """

    def __init__(self, tracer: Tracer, specs):
        self.tracer = tracer
        self.specs = list(specs)
        self.saved: list[tuple] = []

    def __enter__(self):
        for module, attr, span, kind in self.specs:
            if not hasattr(module, attr):
                self.__exit__()
                raise TraceError(f"{module.__name__}.{attr} is missing; cannot trace {span}")
            fn = getattr(module, attr)
            make = _wrap_stream if kind == "stream" else _wrap_call
            self.saved.append((module, attr, fn))
            setattr(module, attr, make(self.tracer, fn, span, call_counter(module, attr)))
        return self

    def __exit__(self, *exc):
        while self.saved:
            module, attr, fn = self.saved.pop()
            setattr(module, attr, fn)
        return False


def call_counter(module, attr: str) -> str:
    return f"calls:{module.__name__}.{attr}"
