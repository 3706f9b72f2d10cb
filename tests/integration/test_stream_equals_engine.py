"""The streaming tier and the engine hold the same accumulator.

``SBox.run`` folds every chunk of a plan into a moment bundle and merges
them; a streaming estimator holds a one-vector bundle of the same class,
and a grouped stream is a one-vector ``GroupedMomentBundle`` read out by
``grouped_estimates_from_moments``.  Fed the very chunks the engine saw,
either must therefore return the engine's answer bit for bit — not "equal up to summation order" — string GROUP BY
keys included, at every chunking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import estimate_from_moments, grouped_estimates_from_moments
from repro.core.gus import bernoulli_gus
from repro.relational.aggregates import aggregate_input_vector
from repro.relational.pipeline import ChunkedExecutor
from repro.relational.plan import GroupAggregate
from repro.stream import GroupedMomentBundle, StreamingEstimator

SCAN = "lineitem TABLESAMPLE (30 PERCENT)"
# Both sides sampled: two active lineage dimensions, and every kept order
# id repeats on each of its line items (fan-out), also across chunks.
JOIN = f"{SCAN}, orders TABLESAMPLE (60 PERCENT) WHERE l_orderkey = o_orderkey"
STATEMENTS = {
    "scan_string_key": (
        f"SELECT l_returnflag, SUM(l_extendedprice) AS s FROM {SCAN} GROUP BY l_returnflag"
    ),
    "join_scalar": f"SELECT SUM(l_extendedprice * o_totalprice) AS s FROM {JOIN}",
    "join_string_key": (
        f"SELECT o_orderstatus, SUM(l_quantity) AS s FROM {JOIN} GROUP BY o_orderstatus"
    ),
}
SEED = 5


@pytest.mark.parametrize("chunk_size", [None, 7, 64, 250])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_streamed_chunks_equal_sbox_run_bit_for_bit(tpch_db, name, chunk_size):
    plan = tpch_db.plan_sql(STATEMENTS[name])
    grouped = isinstance(plan, GroupAggregate)
    engine = tpch_db.sbox().run(
        plan, rng=tpch_db.rng(SEED), chunk_size=chunk_size, keep_sample=False
    )

    pruned = engine.gus.project_out_inactive()
    if grouped:
        streaming = GroupedMomentBundle(pruned.lattice, len(plan.keys), 1)
    else:
        streaming = StreamingEstimator(engine.gus)
    executor = ChunkedExecutor(tpch_db.tables, tpch_db.rng(SEED), chunk_size=chunk_size)
    n_chunks = 0
    for chunk in executor.iter_chunks(plan.child):
        n_chunks += 1
        f = aggregate_input_vector(chunk, plan.specs[0])
        if grouped:
            # Plain object-dtype strings: the stream tier needs no pre-factorizing.
            streaming.update([f], chunk.lineage, [chunk.column(k) for k in plan.keys])
        else:
            streaming.update(f, chunk.lineage)
    assert (n_chunks == 1) == (chunk_size is None)

    want = engine.estimates["s"]
    if grouped:
        keys, ys, totals, counts = streaming.moments()
        got = grouped_estimates_from_moments(
            pruned, engine.gus.a, ys[0], totals[0], counts
        )
        assert [k.tolist() for k in keys] == [engine.keys[k].tolist() for k in plan.keys]
        assert keys[0].dtype == object and got.n_groups >= 3
        assert got.values.tobytes() == want.values.tobytes()
        assert got.variance_raw.tobytes() == want.variance_raw.tobytes()
        assert got.n_samples.tolist() == want.n_samples.tolist()
    else:
        got = streaming.estimate()
        assert (got.value, got.variance_raw, got.n_sample) == (
            want.value,
            want.variance_raw,
            want.n_sample,
        )
    assert got.extras == want.extras


def test_one_group_grouped_finish_equals_scalar_finish_to_the_last_bit():
    rng = np.random.default_rng(3)
    params = bernoulli_gus("l", 0.3)
    size = params.lattice.size
    for _ in range(50):
        plugin_y = rng.uniform(0.0, 1e6, size)
        total, n = float(rng.normal(0.0, 1e3)), int(rng.integers(1, 500))
        scalar = estimate_from_moments(params, plugin_y, total, n, label="REV")
        grouped = grouped_estimates_from_moments(
            params,
            params.a,
            plugin_y[None, :],
            np.array([total]),
            np.array([n]),
            label="REV",
        )
        assert grouped.n_groups == 1
        assert grouped.estimate(0) == scalar
