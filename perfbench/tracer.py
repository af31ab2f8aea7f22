"""Outside-in span tracer for the traced benchmark run.

Wrappers are installed on module attributes and class methods of an
imported ``toricsim`` before ``cli.main`` runs; nothing in the package is
edited. Calls that a module binds by ``from ... import`` (``gf2``,
``pauli``) cannot be reached this way, so their cost stays in the self time
of their callers.

Spans live in memory as ``[name, start, end, parent]`` lists and are
written out once the run has ended.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Collects nested spans around wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """Return ``fn`` recording one span per call.

        ``name`` is a string, or a callable ``(args, kwargs) -> str`` for
        spans whose name depends on the arguments.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls, inclusive time and self time per span name.

    A span's self time is its duration minus the durations of the spans
    directly nested in it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out
