"""Human-readable and machine-readable renderings of a run."""

from __future__ import annotations

import dataclasses
import json
import os

from .harness import END_TO_END, Report


def render(report: Report) -> str:
    """Every metric by name with its unit, then counts and checks."""
    e = report.environment
    lines = [
        f"== {report.workload}  seed={report.seed}  scale={report.sizing.scale:g}  "
        f"rounds={report.rounds}  seconds={report.seconds:g}",
        f"   python {e['python']}  numpy {e['numpy']}  nproc {e['nproc']}  "
        + " ".join(f"{k}={v}" for k, v in e["pinned_env"].items()),
        "-- end to end",
    ]

    def row(name: str, value: float, unit: str) -> str:
        n = report.samples.get(name)
        cls = report.lands_in.get(name)
        return (
            f"   {name:<28}{value:>14.4f} {unit:<6}"
            + (f" n={n}" if n else "")
            + (f"  (a {cls} request)" if cls else "")
        )

    for name, unit in END_TO_END.items():
        lines.append(row(name, report.end_to_end[name], unit))
    lines.append("-- per class")
    for name, value in report.class_metrics.items():
        lines.append(row(name, value, "ms"))
    if report.per_layer:
        from .layers import PER_LAYER

        lines.append("-- per layer")
        for name, unit in PER_LAYER.items():
            lines.append(row(name, report.per_layer[name], unit))
    if report.layer_table:
        lines += ["-- traced round", report.layer_table]
    lines.append("-- counts over the timed rounds (repeat exactly for a seed)")
    for name, value in report.counts.items():
        lines.append(f"   {name:<28}{value:>14d}")
    v = report.verdict
    lines.append(
        f"-- ops_attempted={v.attempted}  ops_failed={v.failed}  "
        f"coverage95={v.coverage:.4f} over {v.distinct} fresh-draw operations "
        f"(floor {v.coverage_floor:.3f})"
        + (f", {v.covered_reused / v.reused:.4f} over {v.reused} reused"
           if v.reused else "")
        + (f"  failures={v.reasons}" if v.reasons else "")
    )
    for problem in report.problems:
        lines.append(f"!! {problem}")
    lines.append(f"-- correct={report.correct}")
    return "\n".join(lines)


def write_json(report: Report, out_dir: str) -> str:
    """``out/result_<workload>.json``: the run with its provenance."""
    payload = {
        "workload": report.workload,
        "seed": report.seed,
        "seconds": report.seconds,
        "rounds": report.rounds,
        "sizing": dataclasses.asdict(report.sizing),
        "environment": report.environment,
        "end_to_end": report.end_to_end,
        "class_metrics": report.class_metrics,
        "lands_in": report.lands_in,
        "per_layer": report.per_layer,
        "samples": report.samples,
        "counts": report.counts,
        "phases": report.phases,
        "ops_attempted": report.verdict.attempted,
        "ops_failed": report.verdict.failed,
        "failure_reasons": report.verdict.reasons,
        "coverage95": report.verdict.coverage,
        "problems": report.problems,
        "correct": report.correct,
    }
    path = os.path.join(out_dir, f"result_{report.workload}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
