"""Renderers for traces: span trees, hot-path tables, EXPLAIN ANALYZE."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import Span, Trace

#: Kernel span names -> the ROADMAP hot-path labels they realize.  Every
#: key is emitted by the pipeline (the row gather of a join is its node
#: span's self time; the moment fold is its chunk span's).
KERNEL_LABELS = {
    "draw.lineage_hash": "lineage-hash draw",
    "draw.table_sample": "table-sample draw",
    "join.factorize_probe": "join key factorization + probe",
}


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f} us"
    return f"{ns} ns"


def _fmt_attrs(span: Span) -> str:
    parts = []
    for key in sorted(span.attrs):
        value = span.attrs[key]
        if key.endswith("_ns"):
            value = _fmt_ns(int(value))
        parts.append(f"{key}={value}")
    return "  ".join(parts)


def render_trace(trace: Trace) -> str:
    """Indented span tree with per-span timings and attributes."""
    lines: list[str] = []

    def walk(parent_id: int | None, prefix: str) -> None:
        children = trace.children_of(parent_id)
        for i, span in enumerate(children):
            last = i == len(children) - 1
            if parent_id is None:
                branch, extend = "", ""
            else:
                branch = "`- " if last else "|- "
                extend = "   " if last else "|  "
            attrs = _fmt_attrs(span)
            attrs = f"  [{attrs}]" if attrs else ""
            lines.append(
                f"{prefix}{branch}{span.name}  "
                f"{_fmt_ns(span.duration_ns)}{attrs}"
            )
            walk(span.span_id, prefix + extend)

    walk(None, "")
    if trace.dropped:
        lines.append(f"... ({trace.dropped} spans dropped at the cap)")
    return "\n".join(lines)


def profile_table(trace: Trace, top: int = 12) -> str:
    """Hot-path table: self-time by span name, share of total.

    Self-time sums to the root duration by construction (each span's
    self-time is its duration minus its children's), so attribution
    covers ~100% of the traced wall time minus only dropped spans.
    """
    root = trace.root
    total_ns = root.duration_ns if root is not None else 0
    groups: dict[str, dict] = {}
    for span in trace.spans:
        row = groups.setdefault(
            span.name, {"kind": span.kind, "count": 0, "self_ns": 0}
        )
        row["count"] += 1
        row["self_ns"] += trace.self_time_ns(span)
    ranked = sorted(
        groups.items(), key=lambda kv: kv[1]["self_ns"], reverse=True
    )
    lines = [
        f"{'hot path':<42} {'kind':<7} {'calls':>6} "
        f"{'self':>10} {'share':>7}"
    ]
    attributed = 0
    for name, row in ranked[:top]:
        attributed += row["self_ns"]
        share = row["self_ns"] / total_ns if total_ns else 0.0
        label = KERNEL_LABELS.get(name)
        shown = f"{name} ({label})" if label else name
        lines.append(
            f"{shown:<42} {row['kind']:<7} {row['count']:>6} "
            f"{_fmt_ns(row['self_ns']):>10} {share:>6.1%}"
        )
    rest = sum(row["self_ns"] for _, row in ranked[top:])
    if rest:
        share = rest / total_ns if total_ns else 0.0
        lines.append(
            f"{'(other)':<42} {'':<7} {'':>6} "
            f"{_fmt_ns(rest):>10} {share:>6.1%}"
        )
    covered = (attributed + rest) / total_ns if total_ns else 1.0
    lines.append(
        f"-- attributed {covered:.1%} of {_fmt_ns(total_ns)} traced time"
        f" across {len(trace.spans)} spans"
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class ExplainAnalyzeReport:
    """Result of ``EXPLAIN ANALYZE``: the executed answer plus its trace."""

    result: object
    trace: Trace

    def render_trace(self) -> str:
        reuse = getattr(self.result, "reuse", None)
        header = "-- EXPLAIN ANALYZE"
        # A version difference carries one reuse info (or None) per side.
        sides = reuse.items() if isinstance(reuse, dict) else [("", reuse)]
        for side, info in sides:
            if info is not None:
                header += (
                    f"  ({side + ' ' if side else ''}reuse: {info.kind}, "
                    f"entry {info.entry_id}, "
                    f"{info.stored_rows} -> {info.served_rows} rows)"
                )
        return header + "\n" + render_trace(self.trace)
