"""Spans recorded around calls into the program's layers, from outside it.

A :class:`Tracer` replaces chosen functions and methods of the ``repro``
package with wrappers that record one span per call: name, start, end,
parent span and request id.  Spans are kept in memory and written out once,
when the benchmark (or the traced server) ends.  Nothing inside ``src/`` is
edited; uninstalling restores every original attribute.

Sampling: a *request* span (:meth:`Tracer.request`, or a wrapper installed
with ``request=True``) records its layer children only on every second call.
The other half runs with the wrappers inert, so one run yields traced and
untraced latencies of the same mix of requests, and their ratio is the
tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: Marker pushed on a thread's span stack while an unsampled request runs:
#: wrappers below it call straight through.
_SUPPRESSED = object()


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    traced: bool = True
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "parent": self.parent, "request": self.request,
            "name": self.name, "start": self.start, "end": self.end,
            "traced": self.traced, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(**payload)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _open(self, name: str, *, request: bool, attrs: dict | None = None) -> Iterator[Span | None]:
        stack = self._stack()
        if stack and stack[-1] is _SUPPRESSED:
            yield None
            return
        if not stack:
            traced = True
            if request:
                with self._lock:
                    traced = next(self._requests) % 2 == 0
            span_id = next(self._ids)
            span = Span(span_id, None, span_id, name, 0.0, traced=traced, attrs=dict(attrs or {}))
        else:
            parent = stack[-1]
            span = Span(next(self._ids), parent.id, parent.request, name, 0.0, attrs=dict(attrs or {}))
        stack.append(span if span.traced else _SUPPRESSED)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def request(self, name: str, **attrs: Any):
        """Context manager for a sampled top-level request span."""
        return self._open(name, request=True, attrs=attrs)

    def span(self, name: str, **attrs: Any):
        """Context manager for an always-recorded span."""
        return self._open(name, request=False, attrs=attrs)

    # ------------------------------------------------------------ wrapping
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[list], str],
        *,
        request: bool = False,
        attrs: Callable[..., dict] | None = None,
        result_attrs: Callable[[Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``name`` may be a function of the thread's open spans, so a shared
        function (``encode_many``) is named after the layer that called it.
        ``attrs``/``result_attrs`` add counts taken from the arguments or
        from the return value.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        raw = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack and stack[-1] is _SUPPRESSED:
                return raw(*args, **kwargs)
            label = name(stack) if callable(name) else name
            if label is None:
                return raw(*args, **kwargs)
            extra = attrs(*args, **kwargs) if attrs is not None else None
            with tracer._open(label, request=request, attrs=extra) as span:
                result = raw(*args, **kwargs)
                if span is not None and result_attrs is not None:
                    span.attrs.update(result_attrs(result))
                return result

        replacement: Any = wrapper
        if isinstance(original, staticmethod):
            replacement = staticmethod(wrapper)
        elif isinstance(original, classmethod):
            replacement = classmethod(wrapper)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def count(self, owner: Any, attr: str, bump: Callable[[list], None]) -> None:
        """Replace ``owner.attr`` with a wrapper that only calls ``bump``.

        For calls too frequent to pay for a span each: ``bump`` receives the
        thread's open spans and adds to a count on one of them.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack and stack[-1] is not _SUPPRESSED:
                bump(stack)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ---------------------------------------------------------------- I/O
    def dump(self, path: str) -> None:
        with self._lock:
            payload = [span.to_dict() for span in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


def load_spans(path: str) -> list[Span]:
    with open(path) as handle:
        return [Span.from_dict(item) for item in json.load(handle)]


# ------------------------------------------------------------------ analysis
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives its
    parent (a thread it started) never makes self time negative.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: span.duration - union_length(
            (start, end) for start, end in children.get(span.id, []) if end > start
        )
        for span in spans
    }


def descendants(spans: Iterable[Span], root: int) -> list[Span]:
    """Every span below ``root`` in the parent tree."""
    spans = list(spans)
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    found: list[Span] = []
    frontier = [root]
    while frontier:
        for child in kids.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child.id)
    return found
