"""Tracer mechanics: span trees, bounds, context plumbing, renderers."""

import random
import threading

import pytest

from repro.obs import trace as trace_module
from repro.obs.report import profile_table, render_trace
from repro.obs.trace import (
    Trace,
    Tracer,
    env_trace_enabled,
    get_tracer,
    maybe_span,
    start_trace,
)


class TestTracer:
    def test_nested_spans_link_parents(self):
        tracer = Tracer("t")
        with tracer.span("outer") as outer:
            with tracer.span("inner", kind="kernel") as inner:
                pass
        trace = tracer.finish_trace()
        assert [s.name for s in trace.spans] == ["outer", "inner"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert trace.root is outer
        assert trace.children_of(outer.span_id) == [inner]

    def test_span_ids_are_creation_ordered(self):
        tracer = Tracer("t")
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        trace = tracer.finish_trace()
        assert [s.span_id for s in trace.spans] == [0, 1]

    def test_attrs_and_duration(self):
        tracer = Tracer("t")
        with tracer.span("work", rows=7) as sp:
            sp.attrs["extra"] = "x"
        trace = tracer.finish_trace()
        (span,) = trace.find("work")
        assert span.attrs == {"rows": 7, "extra": "x"}
        assert span.end_ns >= span.start_ns
        assert span.duration_ns >= 0

    def test_max_spans_bound_counts_dropped(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS", 2)
        tracer = Tracer("t")
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        trace = tracer.finish_trace()
        assert len(trace.spans) == 2
        assert trace.dropped == 3
        assert "3 spans dropped" in render_trace(trace)

    def test_dropped_span_is_attribute_sink(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS", 1)
        tracer = Tracer("t")
        with tracer.span("kept"):
            pass
        with tracer.span("dropped") as sp:
            sp.attrs["rows"] = 1  # must not raise
        assert tracer.dropped == 1

    def test_bound_is_read_when_the_tracer_is_built(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS", 1)
        tracer = Tracer("t")
        monkeypatch.setattr(trace_module, "MAX_SPANS", 10)
        for name in ("kept", "dropped"):
            with tracer.span(name):
                pass
        assert [s.name for s in tracer.spans] == ["kept"]
        assert tracer.dropped == 1

    def test_finish_trace_closes_open_spans(self):
        tracer = Tracer("t")
        span = tracer.start("never-finished")
        trace = tracer.finish_trace()
        assert span.end_ns >= span.start_ns
        assert trace.spans[0] is span

    def test_exception_unwind_still_finishes(self):
        tracer = Tracer("t")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.current_id() is None
        trace = tracer.finish_trace()
        assert trace.spans[0].end_ns > 0


class TestSkeleton:
    def _tree(self):
        tracer = Tracer("t")
        with tracer.span("draw", rows=10, merge_ns=123):
            with tracer.span("chunk[0]", kind="chunk", chunk=0):
                pass
        return tracer.finish_trace()

    def test_skeleton_drops_ns_attrs(self):
        skel = self._tree().skeleton()
        ((name, kind, attrs, children),) = skel
        assert name == "draw"
        assert attrs == (("rows", 10),)
        assert children == (("chunk[0]", "chunk", (("chunk", 0),), ()),)

    def test_skeleton_drop_kinds(self):
        skel = self._tree().skeleton(drop_kinds=frozenset({"chunk"}))
        ((_, _, _, children),) = skel
        assert children == ()


class TestContextPlumbing:
    def test_no_tracer_by_default(self):
        assert get_tracer() is None

    def test_start_trace_installs_and_restores(self):
        with start_trace("q") as tracer:
            assert get_tracer() is tracer
            with start_trace("inner") as inner:
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is None

    def test_tracer_is_context_local(self):
        seen = []
        with start_trace("q"):
            t = threading.Thread(target=lambda: seen.append(get_tracer()))
            t.start()
            t.join()
        assert seen == [None]

    def test_maybe_span_with_none_tracer_is_sink(self):
        with maybe_span(None, "x") as sp:
            sp.attrs["rows"] = 3
        assert get_tracer() is None

    def test_env_trace_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not env_trace_enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not env_trace_enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert env_trace_enabled()


class TestRenderers:
    def _trace(self):
        tracer = Tracer("q")
        with tracer.span("query", kind="query"):
            with tracer.span("draw", rows=4):
                with tracer.span("draw.lineage_hash", kind="kernel"):
                    pass
            with tracer.span("estimate"):
                pass
        return tracer.finish_trace()

    def test_render_trace_tree_shape(self):
        text = render_trace(self._trace())
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert any(line.startswith("|- draw") for line in lines)
        assert any("`- estimate" in line for line in lines)
        assert "[rows=4]" in text

    def test_profile_table_names_kernels_and_attributes_all(self):
        text = profile_table(self._trace())
        assert "draw.lineage_hash (lineage-hash draw)" in text
        # Self-time decomposition covers the whole root duration.
        assert "attributed 100.0%" in text


class _FullScanTrace(Trace):
    """The reference: every lookup scans every span."""

    def children_of(self, span_id):
        return [s for s in self.spans if s.parent_id == span_id]

    def self_time_ns(self, span):
        child_total = sum(
            c.duration_ns for c in self.spans if c.parent_id == span.span_id
        )
        return max(0, span.duration_ns - child_total)

    def skeleton(self, *, drop_kinds=frozenset()):
        def build(parent_id):
            return tuple(
                (
                    s.name,
                    s.kind,
                    tuple(
                        sorted(
                            (k, v)
                            for k, v in s.attrs.items()
                            if not k.endswith("_ns")
                        )
                    ),
                    build(s.span_id),
                )
                for s in self.children_of(parent_id)
                if s.kind not in drop_kinds
            )

        return build(None)


def _random_trace(seed: int, n_ops: int) -> Trace:
    """A random span tree: starts and finishes interleaved at random,
    several roots once the first closes, cut at ``MAX_SPANS``."""
    rng = random.Random(seed)
    tracer = Tracer("q")
    open_spans = [tracer.start("q", kind="query")]
    for _ in range(n_ops):
        if open_spans and (len(open_spans) > 6 or rng.random() < 0.45):
            tracer.finish(open_spans.pop())
            continue
        span = tracer.start(
            rng.choice(["draw", "chunk[0]", "Scan(t)", "draw.lineage_hash"]),
            rng.choice(["phase", "chunk", "node", "kernel"]),
            rows=rng.randrange(100),
            wait_ns=rng.randrange(1000),
        )
        open_spans.append(span)
    return tracer.finish_trace()


@pytest.mark.parametrize(
    "seed, max_spans", [(0, 10_000), (1, 10_000), (2, 10_000), (3, 150)]
)
def test_indexed_tree_matches_a_full_scan(seed, max_spans, monkeypatch):
    monkeypatch.setattr(trace_module, "MAX_SPANS", max_spans)
    trace = _random_trace(seed, 600)
    reference = _FullScanTrace(trace.name, trace.spans, trace.dropped)
    assert bool(trace.dropped) == (max_spans < 600)
    for span_id in [None, -1, *(s.span_id for s in trace.spans)]:
        assert trace.children_of(span_id) == reference.children_of(span_id)
    for span in trace.spans:
        assert trace.self_time_ns(span) == reference.self_time_ns(span)
    assert render_trace(trace) == render_trace(reference)
    assert profile_table(trace) == profile_table(reference)
    for drop in (frozenset(), frozenset({"chunk", "kernel"})):
        assert trace.skeleton(drop_kinds=drop) == reference.skeleton(
            drop_kinds=drop
        )
