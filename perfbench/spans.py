"""In-memory spans and counters, and self times derived from the span tree.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of the
enclosing span in the same list, or -1 at the root. Spans stay in memory
until the traced process hands them over at the end of its run.

The self time of a span is its duration minus the durations of its direct
children. Calls are strictly nested in one thread, so children never overlap
and their summed durations are exactly the part of the interval they cover.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

Span = list  # [name, start, end, parent, job]


class Tracer:
    """Records spans around wrapped calls and named counters.

    A call that would open a span with the same name as the innermost open
    span runs inside it instead: the per-name self time is the same either
    way, and recursive helpers (nested ``*_to_json`` calls, say) then cost
    one span rather than one per element.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.job: str | None = None
        self.in_transform = 0

    def wrap(self, name: str, fn: Callable, calls: bool = False,
             transform: bool = False) -> Callable:
        """``fn`` with a span named ``name`` around each call.

        ``calls`` also counts every call under ``<name>.calls``; ``transform``
        marks the span as one whose ``CycInt`` multiplies are counted apart.
        """
        spans, stack, counters, clock = self.spans, self.stack, self.counters, self.clock
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            if calls:
                counters[calls_key] += 1
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            if transform:
                self.in_transform += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if transform:
                    self.in_transform -= 1
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total self time in seconds)."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        count, total = out.get(name, (0, 0.0))
        out[name] = (count + 1, total + (end - start) - child_total[i])
    return out
