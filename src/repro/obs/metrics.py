"""Process-wide metrics: counters, gauges, log-bucket histograms.

Histograms use a **fixed** log-scaled bucket layout (4 buckets per
octave, covering ~1e-9 .. ~1e6) so that

* quantiles (p50/p95/p99) are computable from bucket counts with a
  bounded relative error of ``2**0.25`` (≈19%), and
* snapshots from different threads or processes merge by
  element-wise addition — merging is exact and associative, the same
  contract as the chunked executor's moment-sketch merge.

Everything here is per-query-granularity accounting (a lock and a few
integer adds per event), cheap enough to stay always-on; per-row hot
paths are instrumented with spans instead, which are off by default.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

#: Buckets per octave (powers of two): resolution factor 2**0.25.
_SUB = 4
#: Lowest bucket index: 2**(LO/SUB) ≈ 9.3e-10 (sub-nanosecond seconds).
_LO = -120
#: Highest bucket index: 2**(HI/SUB) ≈ 1e6.
_HI = 80
_N_BUCKETS = _HI - _LO + 1


def bucket_index(value: float) -> int:
    """Fixed log-bucket index of a value (non-positives clamp low)."""
    if value <= 0.0:
        return 0
    i = math.floor(math.log2(value) * _SUB)
    return min(max(i - _LO, 0), _N_BUCKETS - 1)


def bucket_upper_bound(index: int) -> float:
    """Exclusive upper bound of a bucket, in value units."""
    return 2.0 ** ((index + _LO + 1) / _SUB)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable, mergeable histogram state."""

    counts: tuple[int, ...]
    count: int
    total: float
    minimum: float
    maximum: float

    @staticmethod
    def empty() -> "HistogramSnapshot":
        return HistogramSnapshot(
            counts=(0,) * _N_BUCKETS,
            count=0,
            total=0.0,
            minimum=math.inf,
            maximum=-math.inf,
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Element-wise merge: exact, commutative, associative."""
        return HistogramSnapshot(
            counts=tuple(
                a + b for a, b in zip(self.counts, other.counts)
            ),
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile.

        Deterministic in the bucket counts alone, so merged snapshots
        agree exactly with a single histogram fed the same values.
        The result is clamped into ``[minimum, maximum]`` (exact
        extremes are tracked alongside the buckets).
        """
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= rank:
                bound = bucket_upper_bound(i)
                return min(max(bound, self.minimum), self.maximum)
        return self.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Counter:
    """Monotone float counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Thread-safe fixed-log-bucket histogram."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * _N_BUCKETS
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        i = bucket_index(value)
        with self._lock:
            self._counts[i] += 1
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                counts=tuple(self._counts),
                count=self._count,
                total=self._total,
                minimum=self._min,
                maximum=self._max,
            )


def _metric_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Get-or-create registry of named (and labelled) metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def _get(self, table: dict, factory, name: str, labels: dict):
        key = _metric_key(name, labels)
        with self._lock:
            metric = table.get(key)
            if metric is None:
                metric = table[key] = factory()
            return metric

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time values: ``{(name, labels): value|snapshot}``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: dict = {}
        for key, c in counters.items():
            out[key] = c.value
        for key, g in gauges.items():
            out[key] = g.value
        for key, h in histograms.items():
            out[key] = h.snapshot()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry's current state.

        Histograms export as summaries (quantile labels + sum/count):
        the fixed bucket layout is an internal representation; the
        served quantiles are what dashboards and SLOs consume.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), c in counters:
            type_line(name, "counter")
            lines.append(f"{name}{_labels_text(labels)} {_num(c.value)}")
        for (name, labels), g in gauges:
            type_line(name, "gauge")
            lines.append(f"{name}{_labels_text(labels)} {_num(g.value)}")
        for (name, labels), h in histograms:
            snap = h.snapshot()
            type_line(name, "summary")
            for q in (0.5, 0.95, 0.99):
                q_labels = labels + (("quantile", str(q)),)
                lines.append(
                    f"{name}{_labels_text(q_labels)} "
                    f"{_num(snap.quantile(q))}"
                )
            lines.append(
                f"{name}_sum{_labels_text(labels)} {_num(snap.total)}"
            )
            lines.append(f"{name}_count{_labels_text(labels)} {snap.count}")
        return "\n".join(lines) + "\n"


def _labels_text(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _num(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-wide registry: engine layers record here.
REGISTRY = MetricsRegistry()

#: Histogram name for per-phase wall times (labelled by phase).
PHASE_SECONDS = "repro_phase_seconds"


def observe_phase_seconds(phase: str, seconds: float) -> None:
    """Record one phase timing (draw/estimate/merge/catalog_probe/...)."""
    REGISTRY.histogram(PHASE_SECONDS, phase=phase).observe(seconds)


def phase_seconds_snapshot() -> dict[str, dict]:
    """Cumulative per-phase timings: ``{phase: {count, seconds}}``.

    Benchmarks snapshot this before and after a run and record the
    difference, so concurrent accounting elsewhere in the process only
    ever adds unrelated phases, never corrupts the delta.
    """
    out: dict[str, dict] = {}
    for (name, labels), value in REGISTRY.snapshot().items():
        if name != PHASE_SECONDS:
            continue
        phase = dict(labels).get("phase", "")
        if isinstance(value, HistogramSnapshot):
            out[phase] = {"count": value.count, "seconds": value.total}
    return out


#: Gauge name for the process's peak resident set size, in bytes.
PEAK_RSS_BYTES = "repro_peak_rss_bytes"


def read_peak_rss_bytes() -> float:
    """The process's high-water resident set size, in bytes.

    Reads ``VmHWM`` from ``/proc/self/status`` where procfs exists and
    falls back to ``resource.getrusage`` elsewhere (``ru_maxrss`` is
    KiB on Linux, bytes on macOS).  Returns 0.0 when neither source is
    available.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:  # pragma: no cover - non-procfs platforms
        pass
    try:  # pragma: no cover - non-procfs platforms
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(peak) if sys.platform == "darwin" else peak * 1024.0
    except Exception:  # pragma: no cover - no rusage either
        return 0.0


def update_peak_rss_gauge() -> float:
    """Refresh the peak-RSS gauge from the OS and return the reading."""
    peak = read_peak_rss_bytes()
    REGISTRY.gauge(PEAK_RSS_BYTES).set(peak)
    return peak


def phase_seconds_delta(before: dict, after: dict) -> dict[str, dict]:
    """Per-phase counts/seconds accrued between two snapshots.

    Phases with no new observations are omitted, so a benchmark's
    recorded phases are exactly the ones its workload exercised.
    """
    out: dict[str, dict] = {}
    for phase, end in after.items():
        start = before.get(phase, {"count": 0, "seconds": 0.0})
        count = end["count"] - start["count"]
        if count > 0:
            out[phase] = {
                "count": count,
                "seconds": end["seconds"] - start["seconds"],
            }
    return out
