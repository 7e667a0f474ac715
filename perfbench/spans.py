"""In-memory spans and counters recorded around calls into movingwell.

The benchmark records spans from its own files only: a boundary inside the
package (for example propagator -> theta) is observed by rebinding the name
the calling module imported, such as ``movingwell.propagator.theta``, to a
timing wrapper for the length of a traced operation.  A target name that no
longer exists is reported as absent instead of failing the run, so a later
refactor that deletes or renames it leaves the benchmark working.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one benchmark run, kept until the run ends."""

    def __init__(self):
        # one span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op_id = -1
        # the program fans some work out to threads: each thread nests its
        # own spans, and a span opened in a worker has no parent
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bindings: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the body, nested under the open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    # ------------------------------------------------------------ wrappers

    def bind(self, module, attr: str, name, on_call=None) -> None:
        """Plan to rebind ``module.attr`` to a span-recording wrapper.

        ``name`` is a span name, or a function of the call's arguments that
        returns one.  ``on_call(args, kwargs, result)`` may add counters.  A
        missing attribute is recorded in ``absent``.
        """
        target = getattr(module, attr, None)
        if target is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = target(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._bindings.append((module, attr, target, wrapper))

    @contextmanager
    def installed(self):
        """Swap every planned wrapper in for the body, then restore."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, target, _ in self._bindings:
                setattr(module, attr, target)

    # ------------------------------------------------------------ reports

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is the span's duration minus the durations of its direct
        children in the same thread, which never overlap one another.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out
