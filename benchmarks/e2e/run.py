#!/usr/bin/env python3
"""SQL in, estimate out: the repo's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload adhoc_inram --seed 1
    python3 benchmarks/e2e/run.py --all --seed 1
    python3 benchmarks/e2e/run.py --workload served_reuse --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --aa 5

Run from the root of a checkout; the engine is imported from ``src/``
beside this directory.  See README.md here for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

from e2ebench import env  # noqa: E402

env.pin_environment()  # before anything imports numpy


def contract_line(report, trace: bool) -> str:
    """The last line of standard output: the driver's JSON object."""
    from e2ebench.harness import END_TO_END
    from e2ebench.layers import PER_LAYER

    if trace:
        metrics = {
            name: {"value": report.per_layer[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": report.end_to_end[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return json.dumps(
        {
            "correct": report.correct,
            "attempted": report.verdict.attempted,
            "failed": report.verdict.failed,
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workload names")
    parser.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=None,
                        metavar="K", help="A/A self-check: 2K runs per workload")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"no engine to measure: {REPO}/src/repro is missing", file=sys.stderr)
        return 2

    from e2ebench import aa, harness, report as reporting
    from e2ebench.streams import WORKLOADS

    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)

    if args.aa is not None:
        return aa.main(args.aa, args.seed, seconds, spec, OUT)
    if args.all:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    ok = True
    for name in names:
        result = harness.run(
            name, args.seed, seconds, trace=bool(args.trace), out_dir=OUT
        )
        print(reporting.render(result))
        reporting.write_json(result, OUT)
        ok = ok and result.correct
        # Last, so it is the final line of standard output for one workload.
        print(contract_line(result, bool(args.trace)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
