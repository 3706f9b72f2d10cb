"""Smoke test of the end-to-end benchmark: every workload, tiny, one round.

Collected by the tier-1 run.  It checks the harness, not the engine's
speed: that what a run prints matches ``BENCHMARK.json``, that counts
repeat for a seed, that the traced decomposition computes the one-call
answers, and that a wrong answer or a timeout is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from e2ebench import env, harness, layers, workloads  # noqa: E402
from e2ebench.streams import WORKLOADS  # noqa: E402

SMOKE = workloads.Sizing(scale=0.2, round_s=1.0, shrink=5, writes=3)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def clean_env():
    """The tier-1 matrix sets engine switches the benchmark refuses."""
    saved = {name: os.environ.pop(name, None) for name in env.FORBIDDEN_ENV}
    yield
    for name, value in saved.items():
        if value is not None:
            os.environ[name] = value


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("e2e_out"))


@pytest.fixture(scope="module")
def runs(clean_env, out_dir):
    """Per workload: a traced run and an untraced run of one seed, and
    an untraced run of another."""

    def run(name, seed, trace):
        return harness.run(
            name, seed, 1.0, trace=trace, sizing=SMOKE, out_dir=out_dir, rounds=1
        )

    return {
        name: (run(name, 1, True), run(name, 1, False), run(name, 2, False))
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_spec_lists_what_the_harness_measures(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_is_complete_and_correct(runs, name):
    traced, untraced, _ = runs[name]
    for report in (traced, untraced):
        # At 12 k rows a 1 % budget escalates past the families' 20 %, and
        # what it stores then serves the "misses": the class-integrity
        # check is right to object, and only means something at full size.
        assert [p for p in report.problems if "were served as" not in p] == []
        assert report.verdict.failed == 0 and report.verdict.attempted > 0
        assert set(report.end_to_end) == set(harness.END_TO_END)
        assert all(v > 0 for v in report.end_to_end.values())
    assert set(traced.per_layer) == set(layers.PER_LAYER)
    assert traced.per_layer["serve.timeouts"] == 8  # the two known serve defects
    assert traced.per_layer["serve.degraded"] == traced.per_layer["serve.rejected"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_for_a_seed_and_answers_move_with_it(runs, name):
    traced, untraced, other = runs[name]
    assert traced.counts == untraced.counts
    width = "rel_halfwidth_p50"
    assert traced.end_to_end[width] == untraced.end_to_end[width]
    assert other.end_to_end[width] != untraced.end_to_end[width]


@pytest.mark.parametrize("name", WORKLOADS)
def test_staged_answers_equal_one_call_answers(runs, out_dir, name):
    traced, _, _ = runs[name]
    assert not [p for p in traced.problems if "trace rejected" in p]
    with open(os.path.join(out_dir, f"trace_{name}.json")) as handle:
        spans = json.load(handle)
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == traced.verdict.attempted
    assert all(s["end"] >= s["start"] for s in spans)


def test_layers_the_workloads_are_meant_to_bypass(runs):
    assert runs["adhoc_inram"][1].counts["store.lookups"] == 0
    reuse = runs["served_reuse"][1].counts
    assert reuse["store.pushdown_hits"] > 0 and reuse["store.thin_hits"] > 0
    assert reuse["service.result_cache_hits"] > 0
    churn = runs["served_churn"][1].counts
    assert churn["store.invalidations"] > 0


def test_wrong_answer_and_timeout_are_failed_operations(clean_env, out_dir):
    workload = workloads.make_workload("adhoc_inram", 1, SMOKE, out_dir)
    workload.setup()
    try:
        result = workload.run_round(1)
        cell, (value, half) = next(iter(result.outcomes[0].answer.items()))
        result.outcomes[0].answer[cell] = (value + 100.0 * half, half)
        verdict = harness.judge_rounds(workload, [result], 1)
    finally:
        workload.teardown()
    assert verdict.failed == 1 and verdict.reasons == {"off-oracle": 1}

    impatient = dataclasses.replace(SMOKE, request_timeout_s=1e-6, shrink=20)
    workload = workloads.make_workload("served_reuse", 1, impatient, out_dir)
    workload.setup()
    try:
        result = workload.run_round(1)
        workload.quiesce()
        verdict = harness.judge_rounds(workload, [result], 1)
    finally:
        workload.teardown()
    assert verdict.failed == verdict.attempted == len(result.outcomes)
    assert verdict.reasons == {"timeout": verdict.attempted}
