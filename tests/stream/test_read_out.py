"""The bundles' read-out: one reduce of every part, and Section 7 there.

``update`` compacts a batch and appends it, ``merge`` appends the other
bundle's parts, and ``compact()`` — run by every read — concatenates
the parts and reduces them once.  The reference below is the left fold
the bundles used to run: every merge concatenated the whole state with
the incoming part and reduced again.  Both must agree bit for bit,
because a stable reduce adds each key's partial sums in arrival order.

The sub-sampler of Section 7 keeps or drops whole lineage keys, so
``moments(keep=...)`` over the state equals the moments of the kept
rows, and the SBox answers a sub-sampled query without gathering the
sample's rows again.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import kernels
from repro.core.estimator import (
    group_keys,
    group_reduce_multi,
    grouped_y_terms_multi,
    y_terms,
    y_terms_from_groups,
)
from repro.core.lattice import SubsetLattice
from repro.core.subsample import SubsampleSpec
from repro.relational.database import Database
from repro.relational.expressions import col
from repro.relational.plan import (
    Aggregate,
    AggSpec,
    GroupAggregate,
    Join,
    Scan,
    TableSample,
)
from repro.sampling import Bernoulli
from repro.sampling.composed import BiDimensionalBernoulli
from repro.stream import sketch
from repro.stream.sketch import GroupedMomentBundle, MomentSketchBundle

# -- the left fold the bundles ran before, kept as the reference --------


def _left_fold_scalar(parts):
    """Every merge re-reduces the whole state with the next part."""
    keys, sums = [list(p) for p in parts[0]]
    for part_keys, part_sums in parts[1:]:
        keys, sums = group_reduce_multi(
            [np.concatenate(pair) for pair in zip(keys, part_keys)],
            [np.concatenate(pair) for pair in zip(sums, part_sums)],
        )
    return keys, sums


def _left_fold_grouped(parts, n_vectors):
    """Every merge unions two dictionaries and re-reduces the state."""
    dictionary, codes, keys, sums, counts = parts[0]
    for theirs, their_codes, their_keys, their_sums, their_counts in parts[1:]:
        n_mine = dictionary[0].shape[0]
        both = [np.concatenate(pair) for pair in zip(dictionary, theirs)]
        dictionary, union, _ = group_keys(both, both[0].shape[0])
        merged = [
            np.concatenate([union[:n_mine][codes], union[n_mine:][their_codes]])
        ] + [np.concatenate(pair) for pair in zip(keys, their_keys)]
        weights = [np.concatenate(pair) for pair in zip(sums, their_sums)] + [
            np.concatenate([counts, their_counts])
        ]
        if not kernels.strictly_ascending(merged[1:]):
            merged, weights = group_reduce_multi(merged, weights)
        codes, keys = merged[0], merged[1:]
        sums, counts = weights[:n_vectors], weights[n_vectors]
    return dictionary, codes, keys, sums, counts


def _scalar_bytes(lattice, keys, sums):
    return [y_terms_from_groups(s, keys, lattice).tobytes() for s in sums] + [
        np.float64(np.sum(s)).tobytes() for s in sums
    ]


def _grouped_bytes(lattice, dictionary, codes, keys, sums, counts):
    n_groups = dictionary[0].shape[0]
    ys = grouped_y_terms_multi(sums, keys, codes, n_groups, lattice)
    totals = [np.bincount(codes, weights=s, minlength=n_groups) for s in sums]
    return (
        [d.tolist() for d in dictionary],
        [y.tobytes() for y in ys],
        [t.tobytes() for t in totals],
        np.bincount(codes, weights=counts, minlength=n_groups).tobytes(),
    )


def _bundle_grouped_bytes(bundle):
    dictionary, ys, totals, counts = bundle.moments()
    return (
        [d.tolist() for d in dictionary],
        [y.tobytes() for y in ys],
        [t.tobytes() for t in totals],
        counts.tobytes(),
    )


_WORDS = np.array(["N", "A", "R", "", "ä"], dtype=object)


def _rows(shape, n, seed):
    """``fs``, lineage and two group columns for ``n`` rows."""
    rng = np.random.default_rng(seed)
    if shape == "ascending":  # a scan-order sample of one relation
        lineage = {"l": np.sort(rng.choice(50 * n, n, replace=False))}
    elif shape == "repeated":  # ids repeated across chunks, any order
        lineage = {
            "l": rng.integers(0, 40, n),
            "o": rng.integers(0, 25, n),
        }
    else:  # no sampled dimension
        lineage = {}
    fs = [
        rng.choice([-0.0, 0.0, 0.1, -2.5, 1e9], n) * rng.uniform(0.5, 2, n),
        rng.uniform(-3, 5, n),
    ]
    groups = [_WORDS[rng.integers(0, 5, n)], rng.integers(-2, 2, n)]
    return fs, lineage, groups


def _chunks(n, k):
    return np.array_split(np.arange(n), k)


@pytest.mark.parametrize("shape", ["ascending", "repeated", "unsampled"])
@pytest.mark.parametrize("k", [1, 2, 9, 128])
class TestKWayEqualsLeftFold:
    def test_scalar_bundle(self, shape, k):
        fs, lineage, _ = _rows(shape, 40 * k, seed=k)
        lattice = SubsetLattice(tuple(lineage))
        parts, merged = [], None
        for idx in _chunks(40 * k, k):
            chunk = MomentSketchBundle(lattice, 2).update(
                [f[idx] for f in fs], {d: c[idx] for d, c in lineage.items()}
            )
            parts.append(chunk.compact())
            merged = chunk if merged is None else merged.merge(chunk)
        want = _scalar_bytes(lattice, *_left_fold_scalar(parts))
        got = [m.tobytes() for m in merged.moments()] + [
            np.float64(t).tobytes() for t in merged.totals()
        ]
        assert got == want
        assert merged.n_rows == 40 * k

    def test_grouped_bundle(self, shape, k):
        fs, lineage, groups = _rows(shape, 40 * k, seed=k)
        lattice = SubsetLattice(tuple(lineage))
        parts, merged = [], None
        for idx in _chunks(40 * k, k):
            chunk = GroupedMomentBundle(lattice, 2, 2).update(
                [f[idx] for f in fs],
                {d: c[idx] for d, c in lineage.items()},
                [g[idx] for g in groups],
            )
            parts.append(chunk.compact())
            merged = chunk if merged is None else merged.merge(chunk)
        reference = _left_fold_grouped(parts, 2)
        assert _bundle_grouped_bytes(merged) == _grouped_bytes(lattice, *reference)
        assert merged.n_entries == reference[4].shape[0]


def test_a_copy_keeps_its_parts_when_the_original_reads_out():
    lattice = SubsetLattice(("l", "o"))
    fs, lineage, _ = _rows("repeated", 300, seed=3)
    bundle = MomentSketchBundle(lattice, 2)
    for idx in _chunks(300, 3):
        bundle.update([f[idx] for f in fs], {d: c[idx] for d, c in lineage.items()})
    snapshot = bundle.copy()
    before = [m.tobytes() for m in bundle.moments()]
    bundle.update([f[:10] for f in fs], {d: c[:10] for d, c in lineage.items()})
    bundle.moments()
    assert [m.tobytes() for m in snapshot.moments()] == before
    assert snapshot.n_rows == 300


# -- (b) one reduce and one dictionary union per read-out ----------------


@pytest.mark.parametrize("k", [2, 9, 32])
def test_a_k_chunk_fold_reduces_and_unions_once(k, monkeypatch):
    fs, lineage, groups = _rows("repeated", 30 * k, seed=k)
    lattice = SubsetLattice(tuple(lineage))
    scalar, grouped = [], []
    for idx in _chunks(30 * k, k):
        batch = [f[idx] for f in fs], {d: c[idx] for d, c in lineage.items()}
        scalar.append(MomentSketchBundle(lattice, 2).update(*batch))
        grouped.append(
            GroupedMomentBundle(lattice, 2, 2).update(
                *batch, [g[idx] for g in groups]
            )
        )
    calls = {"reduce": 0, "union": 0}

    def reduce(*args):
        calls["reduce"] += 1
        return group_reduce_multi(*args)

    def union(*args):
        calls["union"] += 1
        return group_keys(*args)

    monkeypatch.setattr(sketch, "group_reduce_multi", reduce)
    monkeypatch.setattr(sketch, "group_keys", union)
    merged = scalar[0]
    for chunk in scalar[1:]:
        merged.merge(chunk)
    assert calls == {"reduce": 0, "union": 0}
    merged.moments(), merged.totals(), merged.lineage_keys()
    assert calls == {"reduce": 1, "union": 0}

    calls.update(reduce=0)
    merged = grouped[0]
    for chunk in grouped[1:]:
        merged.merge(chunk)
    assert calls == {"reduce": 0, "union": 0}
    merged.moments(), merged.groups(), merged.lineage_keys()
    assert calls == {"reduce": 1, "union": 1}


def _two_pass_grouped_moments(bundle, keep):
    """The read-out counting each vector's totals twice: once for the
    totals, once more inside ``grouped_y_terms_multi`` for ``y_∅``."""
    dictionary, owner, n_groups = bundle.groups()
    _, _, keys, sums, entry_counts = bundle.compact()
    totals = [np.bincount(owner, weights=s, minlength=n_groups) for s in sums]
    counts = np.bincount(owner, weights=entry_counts, minlength=n_groups)
    if keep is not None:
        owner, keys = owner[keep], [k[keep] for k in keys]
        sums = [s[keep] for s in sums]
    ys = grouped_y_terms_multi(sums, keys, owner, n_groups, bundle.lattice)
    return dictionary, ys, totals, counts


def _moment_bytes(dictionary, ys, totals, counts):
    return (
        [d.tolist() for d in dictionary],
        [y.tobytes() for y in ys],
        [t.tobytes() for t in totals],
        counts.tobytes(),
    )


@pytest.mark.parametrize("shape", ["ascending", "repeated", "unsampled"])
@pytest.mark.parametrize("restricted", [False, True])
def test_grouped_read_out_counts_the_totals_once(shape, restricted, monkeypatch):
    """``y_∅`` squares the totals the read-out already counted: bit for
    bit the two-pass answer, one ``bincount`` per vector fewer when
    nothing is kept out (a ``keep`` mask needs its own kept totals)."""
    fs, lineage, groups = _rows(shape, 600, seed=7)
    lattice = SubsetLattice(tuple(lineage))
    bundle = GroupedMomentBundle(lattice, 2, 2)
    for idx in _chunks(600, 3):
        bundle.update(
            [f[idx] for f in fs],
            {d: c[idx] for d, c in lineage.items()},
            [g[idx] for g in groups],
        )
    keep = None
    if restricted:
        keep = np.random.default_rng(1).random(bundle.n_entries) < 0.6
    bundle.compact()  # a cached reduce, outside both counts
    bincount = np.bincount

    def bincounts(read_out):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        try:
            return read_out(), len(calls)
        finally:
            monkeypatch.undo()

    want, two_pass = bincounts(lambda: _two_pass_grouped_moments(bundle, keep))
    got, one_pass = bincounts(lambda: bundle.moments(keep))
    assert _moment_bytes(*got) == _moment_bytes(*want)
    assert two_pass - one_pass == (0 if restricted else bundle.n_vectors)


# -- (c) Section 7 filters the state ------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_one_chunk_kept_moments_equal_y_terms_of_the_kept_rows(seed):
    rng = np.random.default_rng(seed)
    n = 3000
    lineage = {
        "l": rng.integers(0, 400, n).astype(np.int64),
        "o": rng.integers(0, 120, n).astype(np.int64),
    }
    f = rng.uniform(-2, 9, n)
    lattice = SubsetLattice(("l", "o"))
    sampler = BiDimensionalBernoulli({"l": 0.4, "o": 0.6}, seed=seed)
    bundle = MomentSketchBundle(lattice, 1).update([f], lineage)
    got = bundle.moments(keep=sampler.keep(bundle.lineage_keys()))[0]
    rows = sampler.keep(lineage)
    want = y_terms(f[rows], {d: c[rows] for d, c in lineage.items()}, lattice)
    assert got.tobytes() == want.tobytes()


def _events_db(n=900, seed=4):
    db = Database(seed=seed)
    rng = np.random.default_rng(seed)
    db.create_table(
        "events",
        {
            "one": np.zeros(n, dtype=np.int64),
            "kind": rng.integers(0, 3, n).astype(np.int64),
            "value": rng.uniform(1, 30, n),
            "ref": rng.integers(0, 60, n).astype(np.int64),
        },
    )
    db.create_table(
        "refs",
        {
            "r_id": np.arange(60, dtype=np.int64),
            "weight": rng.uniform(0, 2, 60),
        },
    )
    return db


def _joined():
    return Join(
        TableSample(Scan("events"), Bernoulli(0.5)),
        TableSample(Scan("refs"), Bernoulli(0.7)),
        ["ref"],
        ["r_id"],
    )


SPECS = [
    AggSpec("sum", col("value"), "s"),
    AggSpec("count", None, "n"),
    AggSpec("avg", col("value"), "m"),
]


@pytest.mark.parametrize("chunk_size", [None, 97])
def test_one_group_matches_the_scalar_answer(chunk_size):
    db = _events_db()
    spec = SubsampleSpec(rate=0.5, seed=2)
    scalar = db.estimate(
        Aggregate(_joined(), SPECS), seed=1, chunk_size=chunk_size, subsample=spec
    )
    grouped = db.estimate(
        GroupAggregate(_joined(), ["one"], SPECS),
        seed=1,
        chunk_size=chunk_size,
        subsample=spec,
    )
    assert grouped.n_groups == 1
    for alias in ("s", "n", "m"):
        one, many = scalar.estimates[alias], grouped.estimates[alias]
        assert many.values[0] == pytest.approx(one.value, rel=1e-12)
        assert many.variance_raw[0] == pytest.approx(one.variance_raw, rel=1e-9)
        assert many.extras["n_subsample"] == one.extras["n_subsample"]


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("chunk_size", [None, 97])
def test_a_subsampled_query_never_concatenates_its_sample(
    grouped, chunk_size, monkeypatch
):
    from repro.relational import pipeline

    real = pipeline.concat_tables

    def concat_tables(chunks):
        caller = sys._getframe(1).f_globals["__name__"]
        assert caller != "repro.core.sbox", "the SBox concatenated a sample"
        return real(chunks)

    monkeypatch.setattr(pipeline, "concat_tables", concat_tables)
    db = _events_db()
    plan = (
        GroupAggregate(_joined(), ["kind"], SPECS)
        if grouped
        else Aggregate(_joined(), SPECS)
    )
    result = db.sbox().run(
        plan,
        subsample=SubsampleSpec(rate=0.5, seed=1),
        rng=db.rng(3),
        chunk_size=chunk_size,
        keep_sample=False,
    )
    assert result.sample is None
    assert "n_subsample" in result.estimates["s"].extras
