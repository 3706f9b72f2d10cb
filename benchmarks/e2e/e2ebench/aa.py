"""A/A self-check: does the benchmark agree with itself?

``--aa K`` makes 2K full runs of every workload from this one checkout,
alternating between set A and set B (A and B use the same K seeds), and
compares the sets' medians per (end-to-end metric, workload).  Nothing
changed between A and B, so every gap is noise: a metric passes when the
gap is within half its bound and the run-to-run spread (inter-quartile
distance over the median, all 2K runs) is within the bound.

Each run is its own process: ``ru_maxrss`` never goes down, so runs
sharing a process would report each other's peaks.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from . import env
from .stats import iqr_share
from .streams import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(k: int, seed: int, seconds: float, spec: dict, out_dir: str) -> int:
    env.check_environment()
    lines = [
        f"# A/A self-check: {k} + {k} runs per workload, seeds {seed}..{seed + k - 1}, "
        f"{seconds:g} s timed per run",
        "",
        "Environment: `" + json.dumps(env.describe(), sort_keys=True) + "`",
        "",
        "| workload | metric | unit | median A | median B | B worse by | IQR / median "
        "| bound | verdict |",
        "|---|---|---|---:|---:|---:|---:|---:|---|",
    ]
    failed = 0
    for workload in WORKLOADS:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for i in range(2 * k):
            result = one_run(workload, seed + i // 2, seconds)
            if not result["correct"] or result["failed"]:
                failed += 1
                lines.append(f"<!-- {workload} seed {seed + i // 2}: incorrect run -->")
            sets[i % 2].append(result["metrics"])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name]["value"] for m in sets[0]]
            b = [m[name]["value"] for m in sets[1]]
            gap = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            spread = iqr_share(a + b)
            # setup_s is exempt from the spread rule (see BENCHMARK.json).
            ok = abs(gap) <= bound / 2 and (spread <= bound or name == "setup_s")
            failed += not ok
            lines.append(
                f"| {workload} | {name} | {metric['unit']} | {statistics.median(a):.4f} "
                f"| {statistics.median(b):.4f} | {gap:+.2%} | {spread:.2%} "
                f"| {bound:.0%} | {'PASS' if ok else 'FAIL'} |"
            )
    lines += ["", f"{'ALL PASS' if not failed else f'{failed} FAILED'}"]
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out_dir, "AA.md"), "w") as handle:
        handle.write(text + "\n")
    return 1 if failed else 0
