"""In-memory spans recorded around the benchmark's calls into the program.

A :class:`Tracer` keeps every span in a list and writes them out only
when the run ends.  A span records its name, layer, start, end, parent
span and request id.  Disabled, :meth:`Tracer.span` costs one branch and
returns a shared no-op context, so the untraced run measures the program
alone.

A layer's *self time* is its spans' durations minus the part of each
interval that child spans cover.  Spans nest per thread.  Each workload
calls the program from one thread (or one coroutine), so a span the
program opens through a wrapped method while the load generator waits
nests under the generator's open span, and nesting stays exact.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "self_times"]

_NO_SPAN = nullcontext()


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    index: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Index of this thread's innermost open span, if any."""
        stack = self._stack() if self.enabled else None
        return stack[-1] if stack else None

    def span(self, name: str, layer: str, request: Optional[int] = None):
        """Context manager timing one call; no-op while disabled."""
        if not self.enabled:
            return _NO_SPAN
        return self._record(name, layer, request)

    @contextmanager
    def _record(self, name: str, layer: str, request: Optional[int]) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            span = Span(index, name, layer, 0.0, 0.0, parent, request, threading.get_ident())
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call (for bound methods of
        program objects that the program itself calls)."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in start order."""
        return [span.duration for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        """Dump every span as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "i": span.index,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def self_times(spans: List[Span], root: int) -> Dict[str, float]:
    """Per-layer self time of the subtree under span ``root``.

    Each span's self time is its duration minus its direct children's
    durations (children nest inside their parent on one thread, so they
    never overlap each other).  The per-layer sums therefore add up to
    the root's duration exactly, up to float rounding.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: Dict[str, float] = {}
    pending = [spans[root]]
    while pending:
        span = pending.pop()
        kids = children.get(span.index, [])
        own = span.duration - sum(kid.duration for kid in kids)
        totals[span.layer] = totals.get(span.layer, 0.0) + own
        pending.extend(kids)
    return totals
