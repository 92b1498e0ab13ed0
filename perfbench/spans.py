"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` records one :class:`Span` per traced call: its name,
start and end on ``time.perf_counter``, the span that was open when it
started (its parent) and the request id the benchmark set for the work.
Parents follow :mod:`contextvars`, so spans opened by concurrent asyncio
tasks nest under the task that opened them, and a call made on another
thread (for example the service's DSP executor) starts a new root.

A span's *self time* is its duration minus the part of that interval its
children cover; children that overlap each other are counted once (see
:func:`covered_length`).

:class:`Patcher` installs the wrappers: it replaces a module global, a
class attribute or an instance attribute with a timing wrapper and puts
the original back when it closes.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "Patcher",
    "Span",
    "Tracer",
    "bench_span",
    "covered_length",
    "self_times",
    "totals_by_name",
]

_CURRENT_SPAN: ContextVar[int | None] = ContextVar("perfbench_span", default=None)
_CURRENT_REQUEST: ContextVar[str | None] = ContextVar(
    "perfbench_request", default=None
)
_MISSING = object()


@dataclass(frozen=True)
class Span:
    """One traced call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def totals_by_name(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed ``self_s`` and the number of ``calls``."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["self_s"] += own[span.span_id]
        entry["calls"] += 1
    return dict(totals)


class Tracer:
    """Collects spans and named counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the enclosed block as one span named ``name``."""
        span_id = next(self._ids)
        parent = _CURRENT_SPAN.get()
        token = _CURRENT_SPAN.set(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            _CURRENT_SPAN.reset(token)
            record = Span(
                span_id, name, start, end, parent, _CURRENT_REQUEST.get()
            )
            with self._lock:
                self.spans.append(record)

    @staticmethod
    @contextmanager
    def request(request_id: str) -> Iterator[None]:
        """Tag every span opened in the block with ``request_id``."""
        token = _CURRENT_REQUEST.set(request_id)
        try:
            yield
        finally:
            _CURRENT_REQUEST.reset(token)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(
        self,
        function: Callable,
        name: str,
        on_call: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``function`` timed as span ``name``; ``on_call`` sees each call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": [asdict(span) for span in self.spans],
            "counters": dict(self.counters),
        }


@contextmanager
def bench_span(
    tracer: Tracer | None, name: str, request_id: str | None = None
) -> Iterator[None]:
    """Span ``name`` for request ``request_id``; nothing when untraced."""
    if tracer is None:
        yield
        return
    if request_id is None:
        with tracer.span(name):
            yield
        return
    with tracer.request(request_id), tracer.span(name):
        yield


class Patcher:
    """Replaces attributes with wrappers and restores them on close."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        previous = vars(owner).get(attribute, _MISSING)
        if previous is _MISSING and not hasattr(owner, attribute):
            raise AttributeError(f"{owner!r} has no attribute {attribute!r}")
        self._undo.append((owner, attribute, previous))
        setattr(owner, attribute, value)

    def wrap(
        self,
        tracer: Tracer,
        owner: Any,
        attribute: str,
        name: str,
        on_call: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as span ``name``."""
        self.replace(
            owner,
            attribute,
            tracer.wrap(getattr(owner, attribute), name, on_call),
        )

    def close(self) -> None:
        while self._undo:
            owner, attribute, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
