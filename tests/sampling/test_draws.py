"""A draw is its kept positions: equal to the whole-table draw, O(sample).

No sampler makes a value per table row any more.  The references are
the whole-table formulas a draw used to be — a uniform, a keep flag and
a lineage id per table row — and each family's ``(rows, lineage)`` has
to equal them exactly, leaving the generator in the same state, at
table sizes around the block sizes the draws are made in.  The memory
tests then hold the point of the change: a draw, and a query of a
memory-mapped table, allocate in proportion to the sample and the
chunk, not the table.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import _HASH_BLOCK, hash_keep
from repro.core.subsample import SubsampleSpec
from repro.data.tpch import tpch_database
from repro.relational.database import Database
from repro.relational.table import Table
from repro.sampling import (
    Bernoulli,
    BlockBernoulli,
    BlockWithoutReplacement,
    CoordinatedBernoulli,
    LineageHashBernoulli,
    WithoutReplacement,
)
from repro.sampling.bernoulli import DRAW_BLOCK_ROWS

RATES = st.sampled_from([0.0, 1e-9, 0.2, 1.0])
SEEDS = st.integers(0, 2**32 - 1)


def sizes(block: int) -> st.SearchStrategy[int]:
    """0, 1, one either side of a block boundary, and k blocks + r."""
    edges = st.sampled_from([0, 1, block - 1, block, block + 1])
    return edges | st.builds(
        lambda k, r: k * block + r, st.integers(2, 3), st.integers(0, block - 1)
    )


def _check(draw, rows: np.ndarray, lineage: np.ndarray) -> None:
    assert draw.rows.dtype == np.int64 and draw.lineage.dtype == np.int64
    assert np.all(draw.rows[1:] > draw.rows[:-1])
    np.testing.assert_array_equal(draw.rows, rows)
    np.testing.assert_array_equal(draw.lineage, lineage)
    assert not draw.rows.flags.writeable
    assert not draw.lineage.flags.writeable


class TestTheWholeTableDraw:
    @settings(max_examples=40, deadline=None)
    @given(n=sizes(DRAW_BLOCK_ROWS), p=RATES, seed=SEEDS)
    def test_bernoulli(self, n, p, seed):
        reference = np.random.default_rng(seed)
        rows = np.flatnonzero(reference.random(n) < p)
        rng = np.random.default_rng(seed)
        draw = Bernoulli(p).draw(n, rng)
        _check(draw, rows, rows)
        assert draw.lineage is draw.rows
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(n=sizes(_HASH_BLOCK), p=RATES, seed=SEEDS)
    def test_lineage_hash(self, n, p, seed):
        for method in (
            LineageHashBernoulli(p, seed=seed),
            CoordinatedBernoulli(p, namespace="t", salt=seed),
        ):
            rows = np.flatnonzero(
                hash_keep(method.seed, np.arange(n, dtype=np.int64), p)
            )
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            draw = method.draw(n, rng)
            _check(draw, rows, rows)
            assert draw.lineage is draw.rows
            assert rng.bit_generator.state == before

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(1, 9),
        p=RATES,
        seed=SEEDS,
        data=st.data(),
    )
    def test_block_bernoulli(self, width, p, seed, data):
        n = data.draw(sizes(width))
        reference = np.random.default_rng(seed)
        blocks = np.arange(n, dtype=np.int64) // width
        keep_block = reference.random(-(-n // width)) < p
        mask = keep_block[blocks]
        rng = np.random.default_rng(seed)
        draw = BlockBernoulli(p, width).draw(n, rng)
        _check(draw, np.flatnonzero(mask), blocks[mask])
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(1, 9),
        p=RATES,
        seed=SEEDS,
        data=st.data(),
    )
    def test_block_without_replacement(self, width, p, seed, data):
        n = data.draw(sizes(width))
        total = -(-n // width)
        k = math.ceil(p * (total + 1))  # p = 1 asks for more than there is
        reference = np.random.default_rng(seed)
        blocks = np.arange(n, dtype=np.int64) // width
        keep_block = np.zeros(total, dtype=bool)
        if min(k, total):
            chosen = reference.choice(total, size=min(k, total), replace=False)
            keep_block[chosen] = True
        mask = keep_block[blocks]
        rng = np.random.default_rng(seed)
        draw = BlockWithoutReplacement(k, width).draw(n, rng)
        _check(draw, np.flatnonzero(mask), blocks[mask])
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(n=sizes(DRAW_BLOCK_ROWS), p=RATES, seed=SEEDS)
    def test_without_replacement(self, n, p, seed):
        size = math.ceil(p * (n + 1))  # p = 1 asks for more than there is
        reference = np.random.default_rng(seed)
        mask = np.zeros(n, dtype=bool)
        if min(size, n):
            mask[reference.choice(n, size=min(size, n), replace=False)] = True
        rows = np.flatnonzero(mask)
        rng = np.random.default_rng(seed)
        draw = WithoutReplacement(size).draw(n, rng)
        _check(draw, rows, rows)
        assert draw.lineage is draw.rows
        assert rng.bit_generator.state == reference.bit_generator.state


def test_a_stored_synopsis_cannot_be_written() -> None:
    """A catalog miss stores the draw's positions as the sample's
    lineage (and as its pending gathers' index): they are read-only."""
    db = tpch_database(0.5, seed=3)
    db.attach_catalog()
    db.sql(
        "SELECT SUM(l_extendedprice) AS v FROM lineitem "
        "TABLESAMPLE (10 PERCENT)",
        seed=4,
    )
    (synopsis,) = db.synopses._entries.values()
    lineage = synopsis.sample.lineage["lineitem"]
    with pytest.raises(ValueError):
        lineage[0] = -1


# -- memory ----------------------------------------------------------------


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_one_percent_draw_of_four_million_rows_allocates_the_sample():
    rng = np.random.default_rng(0)
    peak = _peak_bytes(lambda: Bernoulli(0.01).draw(4_000_000, rng))
    # The kept positions are about 0.3 MB; the old draw made 36 MB.
    assert peak < 2 * 2**20


MMAP_ROWS = 2_000_000

MMAP_QUERIES = {
    "sum": "SELECT SUM(x) AS s FROM t TABLESAMPLE (1 PERCENT)",
    "grouped": (
        "SELECT g, SUM(x) AS s FROM t TABLESAMPLE (1 PERCENT) GROUP BY g"
    ),
}


@pytest.fixture(scope="module")
def mmap_db(tmp_path_factory):
    rng = np.random.default_rng(11)
    table = Table(
        "t",
        {
            "x": rng.random(MMAP_ROWS),
            "g": rng.integers(0, 8, MMAP_ROWS, dtype=np.int64),
        },
    )
    db = Database.from_tables({"t": table}, seed=1)
    db.persist("t", str(tmp_path_factory.mktemp("draws") / "t"))
    return db


@pytest.mark.parametrize("subsample", [None, SubsampleSpec(rate=0.5)])
@pytest.mark.parametrize("query", sorted(MMAP_QUERIES))
def test_an_mmap_query_allocates_the_sample_and_a_chunk(
    mmap_db, query, subsample
):
    """Default chunks over a 2 M-row memory-mapped table: the driver's
    allocations follow the 20 k-row sample, not the table (the old
    whole-table draw alone allocated about 20 MB here)."""
    text = MMAP_QUERIES[query]

    def run():
        mmap_db.sql(text, seed=5, subsample=subsample)

    run()  # first-use caches (encodings, statistics) are not per query
    assert _peak_bytes(run) < 4 * 2**20
