"""Row-range partitioning: the chunk bounds under the pipeline executor.

A chunk is a contiguous ``[start, stop)`` row range of a source, given
by its *global* coordinates in the base table: sampling draws and
lineage ids are functions of the global row position, never the
chunk-local one, so any partitioning of the same rows yields the same
sample.  :func:`chunk_bounds` computes the ranges; the pipeline's scan
slices zero-copy column views out of the base table per range.  The
chunking is a property of the source alone: unless a query names a
``chunk_size``, a source of up to :data:`CHUNK_ROWS` rows is one chunk
and a larger one is cut into :data:`CHUNK_ROWS`-row chunks.

Alignment matters for exactness, not just speed: block-level sampling
(``TABLESAMPLE SYSTEM``) assigns one lineage id to a whole block of
consecutive rows.  The partition-merge estimator folds each chunk into
a compacted per-lineage-key sum table; if a block straddled a chunk
boundary its partial sums would be added in a partition-dependent
order and the merged floats could wobble in the last ulp across
chunkings.  :func:`required_alignment` therefore walks the plan for
block sampling nodes and the partitioner rounds chunk boundaries up to
a multiple of every block size, so each lineage key is always wholly
inside one chunk and the merge is bit-for-bit independent of the
partitioning.
"""

from __future__ import annotations

import math

from repro.relational import plan as p

__all__ = [
    "CHUNK_ROWS",
    "chunk_bounds",
    "required_alignment",
]

#: Rows per chunk when no ``chunk_size`` is given.  Every source of up
#: to this many rows folds as one chunk — one dictionary, one key
#: packing and one set of ``bincount`` passes per query instead of one
#: per chunk — and a larger source is cut into chunks of this size, so
#: no fold's working set grows with the table.
CHUNK_ROWS = 1 << 20

#: Ceiling on the block-size lcm the partitioner will honour; beyond it
#: chunks simply grow to one-block-per-chunk granularity.
_MAX_ALIGNMENT = 1 << 22


def chunk_bounds(
    n_rows: int, chunk_size: int | None = None, align: int = 1
) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into ``[start, stop)`` ranges.

    Chunks hold ``chunk_size`` rows — :data:`CHUNK_ROWS` when ``None``
    — rounded down to a multiple of ``align`` (at least one ``align``),
    so boundaries land on multiples of ``align`` (except the final
    stop).  An empty input yields one empty range so a pipeline always
    carries at least one (schema-bearing) chunk.
    """
    chunk_size = max(1, int(CHUNK_ROWS if chunk_size is None else chunk_size))
    align = max(1, int(align))
    step = max(chunk_size, align)
    if align > 1:
        step = (step // align) * align
    if n_rows <= 0:
        return [(0, 0)]
    return [
        (start, min(start + step, n_rows))
        for start in range(0, n_rows, step)
    ]


def required_alignment(plan: p.PlanNode) -> int:
    """Chunk-boundary alignment the plan's sampling methods require.

    The lcm of every block sampler's rows-per-block (capped); 1 when
    all sampling is tuple-level.
    """
    align = 1
    for node in p.walk(plan):
        if isinstance(node, p.TableSample):
            block = getattr(node.method, "rows_per_block", None)
            if block:
                align = math.lcm(align, int(block))
                if align > _MAX_ALIGNMENT:
                    return _MAX_ALIGNMENT
    return align
