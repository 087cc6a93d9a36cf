"""Span-based revision tracing with JSON and Chrome trace-event export.

A maintenance update is a tree of timed phases: the root span covers the
whole ``insert_fact`` / ``delete_fact`` / ``apply_batch`` call, with
nested spans for the removal and addition phases, the per-stratum work,
and the semi-naive rounds (each carrying its delta sizes). Plan-step
records (estimated vs. actual matched rows per join step) attach to the
innermost open span as *events*.

The tracer keeps a bounded deque of completed root spans.  Export comes
in two shapes:

* :meth:`Span.to_dict` / :meth:`Span.from_dict` — a nested JSON tree that
  round-trips exactly (the archival form, and what the CLI ``trace``
  verb prints);
* :meth:`Tracer.chrome_events` — the flat Chrome trace-event format
  (``chrome://tracing`` / Perfetto ``X`` complete events, microsecond
  timestamps), for eyeballing where a revision burned its time.

Spans are context managers handed out by :meth:`Tracer.span`. When
tracing is disabled the runtime returns the shared falsy
:data:`NULL_SPAN` instead, so instrumentation sites write::

    with OBS.span("phase:removal") as span:
        ...
        if span:
            span.set("evicted", len(evicted))

and pay one attribute lookup plus a no-op context manager when disabled.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from types import TracebackType
from typing import Callable, Optional


class Span:
    """One timed, attributed node of a trace tree."""

    __slots__ = ("name", "start", "duration", "attrs", "events", "children",
                 "_tracer")

    def __init__(
        self,
        name: str,
        start: float,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration: Optional[float] = None
        self.attrs: dict = {}
        self.events: list[dict] = []
        self.children: list[Span] = []
        self._tracer = tracer

    def set(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def event(self, name: str, **attrs: object) -> None:
        self.events.append({"name": name, **attrs})

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._close(self)
        return False

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready nested tree; round-trips via :meth:`from_dict`."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "events": [dict(event) for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["name"], data["start"])
        span.duration = data.get("duration")
        span.attrs = dict(data.get("attrs") or {})
        span.events = [dict(event) for event in data.get("events") or ()]
        span.children = [
            cls.from_dict(child) for child in data.get("children") or ()
        ]
        return span

    def pretty(self, indent: int = 0) -> str:
        """An indented one-line-per-span rendering for terminals."""
        pad = "  " * indent
        duration = (
            f"{self.duration * 1000:.3f}ms"
            if self.duration is not None
            else "open"
        )
        attrs = "".join(
            f" {key}={value}" for key, value in sorted(self.attrs.items())
        )
        lines = [f"{pad}{self.name} [{duration}]{attrs}"]
        for event in self.events:
            name = event.get("name", "event")
            rest = {k: v for k, v in event.items() if k != "name"}
            lines.append(f"{pad}  * {name} {rest}" if rest else f"{pad}  * {name}")
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {len(self.children)} children)"


class _NullSpan:
    """Falsy, reentrant, stateless stand-in for a disabled tracer."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False

    def set(self, key: str, value: object) -> None:
        pass

    def event(self, name: str, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """A stack-shaped span builder with a bounded completed-trace history.

    The open-span stack is **thread-local**: each thread calling into the
    concurrent service builds its own span tree (a span opened on one
    thread never becomes the child of another thread's span), while the
    completed-trace deque is shared — ``deque.append`` is atomic, so
    roots from every thread land in one history, interleaved by
    completion time.
    """

    def __init__(
        self,
        max_traces: int = 64,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self._local = threading.local()
        self.traces: deque[Span] = deque(maxlen=max_traces)

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> Span:
        """Open a child of the innermost open span (or a new root)."""
        span = Span(name, self._clock(), self)
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return span

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any traced region."""
        stack = self._stack
        return stack[-1] if stack else None

    @property
    def last(self) -> Optional[Span]:
        """The most recently completed root span."""
        return self.traces[-1] if self.traces else None

    def _close(self, span: Span) -> None:
        span.duration = self._clock() - span.start
        # Exceptions may unwind several spans through one __exit__ chain;
        # pop (and close) everything above the span being exited.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
            if top.duration is None:
                top.duration = self._clock() - top.start
        if not stack:
            self.traces.append(span)

    def reset(self) -> None:
        # Only the calling thread's open stack can be dropped safely;
        # other threads' stacks die with their threads.
        self._stack.clear()
        self.traces.clear()

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        """All completed traces as Chrome trace-event ``X`` records.

        Timestamps are microseconds relative to the earliest recorded
        span, which is what ``chrome://tracing`` and Perfetto expect of a
        self-contained file: ``json.dump({"traceEvents": events}, fh)``.
        """
        events: list[dict] = []
        if not self.traces:
            return events
        origin = min(span.start for span in self.traces)

        def emit(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.duration or 0.0) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        **span.attrs,
                        **(
                            {"events": span.events} if span.events else {}
                        ),
                    },
                }
            )
            for child in span.children:
                emit(child)

        for root in self.traces:
            emit(root)
        return events
