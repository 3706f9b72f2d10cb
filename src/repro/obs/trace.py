"""Per-query tracing spans.

A :class:`Tracer` records a bounded tree of :class:`Span` records for
one query.  The design constraints, in order of importance:

* **Zero cost when disabled.**  There is no global "maybe" tracer:
  :func:`get_tracer` returns ``None`` unless a trace is active on the
  current context, and every instrumented call site guards on that.
* **Bit-identity.**  Recording a span touches only ``perf_counter_ns``
  and Python lists — never the executor RNG, never fold order — so
  traced runs produce bit-identical estimates, variances, and samples.
* **Determinism across worker counts.**  Per-chunk work is *not*
  recorded from inside the chunk task: the task measures and returns
  ``(start_ns, end_ns, rows)`` plus one record per plan node it ran,
  and the driver records the spans via :meth:`Tracer.record_span`
  **in chunk order**.  Span ids and tree shape therefore depend only
  on the chunking.
* **Bounded.**  A trace keeps at most ``max_spans`` spans; further
  spans are counted in :attr:`Trace.dropped` but not stored, so a
  pathological plan cannot balloon memory.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter_ns

#: Default bound on spans retained per trace.
DEFAULT_MAX_SPANS = 10_000


@dataclass
class Span:
    """One timed operation.  ``parent_id`` links the tree explicitly."""

    name: str
    kind: str
    span_id: int
    parent_id: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)


class _NullSpan:
    """Attribute sink returned once the span bound is hit."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict = {}


@dataclass(frozen=True)
class Trace:
    """A finished, immutable span tree."""

    name: str
    spans: tuple[Span, ...]
    dropped: int = 0

    @property
    def root(self) -> Span | None:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    def children_of(self, span_id: int | None) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time_ns(self, span: Span) -> int:
        child_total = sum(
            c.duration_ns for c in self.spans if c.parent_id == span.span_id
        )
        return max(0, span.duration_ns - child_total)

    def skeleton(self, *, drop_kinds: frozenset[str] = frozenset()) -> tuple:
        """Timing-free shape of the tree, for determinism comparisons.

        Returns a nested tuple of ``(name, kind, stable_attrs, children)``
        where ``stable_attrs`` excludes the wall-clock (``*_ns``)
        attributes that legitimately vary run to run.
        """

        def build(parent_id: int | None) -> tuple:
            out = []
            for span in self.spans:
                if span.parent_id != parent_id:
                    continue
                if span.kind in drop_kinds:
                    continue
                stable = tuple(
                    sorted(
                        (k, v)
                        for k, v in span.attrs.items()
                        if not k.endswith("_ns")
                    )
                )
                out.append(
                    (span.name, span.kind, stable, build(span.span_id))
                )
            return tuple(out)

        return build(None)


class Tracer:
    """Collects spans for one query on one logical control flow.

    The nesting stack is plain instance state: a tracer is owned by the
    thread that runs the query, and chunk-task measurements enter
    through :meth:`record_span` (called by the driver), so no lock is
    needed on the hot path.
    """

    def __init__(
        self, name: str = "query", max_spans: int = DEFAULT_MAX_SPANS
    ) -> None:
        self.name = name
        self.max_spans = int(max_spans)
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[Span] = []

    # -- recording ---------------------------------------------------------

    def current_id(self) -> int | None:
        return self._stack[-1].span_id if self._stack else None

    def start(self, name: str, kind: str = "phase", **attrs):
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return _NullSpan()
        span = Span(
            name=name,
            kind=kind,
            span_id=self._next_id,
            parent_id=self.current_id(),
            start_ns=perf_counter_ns(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span) -> None:
        if isinstance(span, _NullSpan):
            return
        span.end_ns = perf_counter_ns()
        # Pop back to (and including) this span; tolerate mismatched
        # finishes from exception unwinds.
        while self._stack:
            top = self._stack.pop()
            if top.span_id == span.span_id:
                break

    @contextmanager
    def span(self, name: str, kind: str = "phase", **attrs):
        span = self.start(name, kind, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def record_span(
        self,
        name: str,
        kind: str,
        *,
        start_ns: int,
        end_ns: int,
        parent_id: int | None = None,
        **attrs,
    ) -> int | None:
        """Record an already-measured span (driver-side chunk merge).

        Returns the new span's id (``None`` once the bound is hit) so
        the caller can parent further recorded spans under it.
        """
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        self.spans.append(
            Span(
                name=name,
                kind=kind,
                span_id=self._next_id,
                parent_id=(
                    parent_id if parent_id is not None else self.current_id()
                ),
                start_ns=start_ns,
                end_ns=end_ns,
                attrs=dict(attrs),
            )
        )
        self._next_id += 1
        return self._next_id - 1

    def finish_trace(self) -> Trace:
        # Close any spans left open by exception unwinds.
        for span in reversed(self._stack):
            span.end_ns = perf_counter_ns()
        self._stack.clear()
        return Trace(
            name=self.name, spans=tuple(self.spans), dropped=self.dropped
        )


@contextmanager
def maybe_span(tracer: Tracer | None, name: str, kind: str = "phase", **attrs):
    """A span when a tracer is active; a throwaway attribute sink else.

    Call sites on per-query (not per-row) paths use this to stay
    readable; the disabled cost is one generator frame and one tiny
    allocation per phase.
    """
    if tracer is None:
        yield _NullSpan()
        return
    span = tracer.start(name, kind, **attrs)
    try:
        yield span
    finally:
        tracer.finish(span)


# -- context-var plumbing --------------------------------------------------

_ACTIVE: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)


def get_tracer() -> Tracer | None:
    """The tracer active on this context, or ``None`` (the fast path)."""
    return _ACTIVE.get()


@contextmanager
def start_trace(name: str = "query", max_spans: int = DEFAULT_MAX_SPANS):
    """Install a fresh tracer for the dynamic extent of a query.

    The root span opens immediately; :meth:`Tracer.finish_trace` closes
    it.  Nested ``start_trace`` calls stack cleanly (the inner trace
    wins for its extent), and the previous tracer is restored on exit.
    """
    tracer = Tracer(name=name, max_spans=max_spans)
    root = tracer.start(name, kind="query")
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
        tracer.finish(root)


def env_trace_enabled() -> bool:
    """``REPRO_TRACE`` opt-in: ``1``/anything truthy enables tracing."""
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")
