"""A coordinated version difference draws once and nets by position.

The lineage hash gives each row position the same keep decision in
every version, so the two sides of ``t MINUS AT VERSION k TABLESAMPLE
(r PERCENT) REPEATABLE (s)`` over versions of one length keep the same
positions: one ``hash_keep_positions`` call serves both, and sides with
equal, ascending key rows net row by row instead of sorting the
hi-then-lo concatenation.  Every answer keeps its bits; sides of
different lengths and RNG-driven samplers never share a draw.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.estimator as estimator
import repro.relational.pipeline as pipeline
import repro.sampling.pseudorandom as pseudorandom
from repro.core.estimator import difference_inputs, group_reduce_multi
from repro.relational import plan as p
from repro.relational.database import Database
from repro.relational.pipeline import shared_draw
from repro.relational.table import Table
from repro.sampling import Bernoulli, WithoutReplacement
from repro.sampling.coordinated import CoordinatedBernoulli
from repro.versions.engine import estimate_version_diff
from repro.versions.plan import VersionDiff

N_ROWS = 3000
N_APPENDED = 400

SCALAR = (
    "SELECT SUM(val) AS s, COUNT(*) AS n FROM fact MINUS AT VERSION {v} "
    "TABLESAMPLE (10 PERCENT) REPEATABLE (3)"
)
GROUPED = (
    "SELECT SUM(val) AS s, COUNT(*) AS n FROM fact MINUS AT VERSION {v} "
    "TABLESAMPLE (10 PERCENT) REPEATABLE (3) GROUP BY cat"
)
VERSIONS = ("AT VERSION 2 MINUS AT VERSION 1", "MINUS AT VERSION 2", "MINUS AT VERSION 1")


def make_db() -> Database:
    """v1 = original; v2 = v1 with 2 % of ``val`` changed; live = v2
    with ``N_APPENDED`` rows appended."""
    db = Database(seed=5)
    key = np.arange(N_ROWS, dtype=np.int64)
    db.create_table(
        "fact",
        {
            "key": key,
            "cat": key % 4,
            "val": 1.0 + (key % 37).astype(np.float64),
        },
    )
    fact = db.table("fact")
    val = np.asarray(fact.column("val")).copy()
    val[::50] += 10.0
    db.update_table("fact", fact.with_columns({"val": val}))
    fact = db.table("fact")
    extra = np.arange(N_ROWS, N_ROWS + N_APPENDED, dtype=np.int64)
    appended = {
        "key": np.concatenate([np.asarray(fact.column("key")), extra]),
        "cat": np.concatenate([np.asarray(fact.column("cat")), extra % 4]),
        "val": np.concatenate([val, np.full(N_APPENDED, 2.5)]),
    }
    db.update_table("fact", Table("fact", appended))
    return db


@pytest.fixture
def hash_calls(monkeypatch):
    """The row counts of every ``hash_keep_positions`` call."""
    calls: list[int] = []
    real = pseudorandom.hash_keep_positions

    def counted(seed, n, rate):
        calls.append(n)
        return real(seed, n, rate)

    monkeypatch.setattr(pseudorandom, "hash_keep_positions", counted)
    return calls


def _unshared(monkeypatch):
    """Make every draw on its own, as before the map existed."""
    real = pipeline.shared_draw
    monkeypatch.setattr(
        pipeline,
        "shared_draw",
        lambda shared, method, n_rows, rng: real(None, method, n_rows, rng),
    )


def _bits(result) -> list:
    out = [result.n_matched]
    for alias, est in result.estimates.items():
        out.append(np.asarray(result.values[alias]).tobytes())
        out.append(np.asarray(est.variance_raw).tobytes())
    for col in getattr(result, "keys", {}).values():
        out.append(col.tolist())
    return out


# -- (a) one hash per coordinated difference --------------------------------


class TestOneDraw:
    @pytest.mark.parametrize("text", [SCALAR, GROUPED], ids=["scalar", "grouped"])
    def test_same_length_version_hashes_once(self, hash_calls, text):
        db = make_db()
        db.sql(text.format(v=1).replace("FROM fact", "FROM fact AT VERSION 2"))
        assert hash_calls == [N_ROWS]

    @pytest.mark.parametrize("text", [SCALAR, GROUPED], ids=["scalar", "grouped"])
    def test_appended_to_version_hashes_each_side(self, hash_calls, text):
        db = make_db()
        db.sql(text.format(v=2))
        assert hash_calls == [N_ROWS + N_APPENDED, N_ROWS]

    @pytest.mark.parametrize("text", [SCALAR, GROUPED], ids=["scalar", "grouped"])
    @pytest.mark.parametrize("versions", VERSIONS)
    def test_shared_draw_keeps_every_bit(self, monkeypatch, text, versions):
        statement = text.format(v=0).replace("MINUS AT VERSION 0", versions)
        shared = make_db().sql(statement, seed=2)
        _unshared(monkeypatch)
        alone = make_db().sql(statement, seed=2)
        assert _bits(shared) == _bits(alone)

    def test_where_on_a_changed_column_keeps_every_bit(self, monkeypatch):
        statement = (
            "SELECT SUM(val) AS s FROM fact AT VERSION 2 MINUS AT VERSION 1 "
            "TABLESAMPLE (20 PERCENT) REPEATABLE (4) WHERE val > 20"
        )
        shared = make_db().sql(statement)
        _unshared(monkeypatch)
        alone = make_db().sql(statement)
        assert _bits(shared) == _bits(alone)

    def test_only_equal_lengths_share(self):
        method = CoordinatedBernoulli(0.1, namespace="fact", salt=3)
        shared: dict = {}
        long = shared_draw(shared, method, N_ROWS + N_APPENDED, None)
        short = shared_draw(shared, method, N_ROWS, None)
        assert shared_draw(shared, method, N_ROWS, None) is short
        assert shared_draw(shared, method, N_ROWS + N_APPENDED, None) is long
        assert not np.shares_memory(short.rows, long.rows)
        expected = method.draw(N_ROWS, None)
        np.testing.assert_array_equal(short.rows, expected.rows)
        np.testing.assert_array_equal(short.lineage, expected.lineage)
        assert len(shared) == 2

    @pytest.mark.parametrize(
        "method",
        [Bernoulli(0.3), WithoutReplacement(50)],
        ids=["bernoulli", "wor"],
    )
    def test_rng_samplers_never_share(self, monkeypatch, method):
        shared: dict = {}
        rng = np.random.default_rng(7)
        first = shared_draw(shared, method, N_ROWS, rng)
        second = shared_draw(shared, method, N_ROWS, rng)
        assert shared == {}
        assert not np.array_equal(first.rows, second.rows)

        calls: list[int] = []
        real = type(method).draw

        def counted(self, n_rows, rng):
            calls.append(n_rows)
            return real(self, n_rows, rng)

        monkeypatch.setattr(type(method), "draw", counted)
        db = make_db()
        coordinated = db.plan_sql(SCALAR.format(v=1).replace("FROM fact", "FROM fact AT VERSION 2"))
        plan = VersionDiff(
            p.TableSample(p.Scan("fact@v2"), method),
            p.TableSample(p.Scan("fact@v1"), method),
            coordinated.specs,
            base="fact",
            lo_version=1,
            hi_version=2,
            rate=0.3,
        )
        estimate_version_diff(db, plan, seed=1)
        assert calls == [N_ROWS, N_ROWS]


# -- (b) position netting is the concatenation's reduce, bit for bit --------


def _values(rng, n: int) -> np.ndarray:
    """Normals with ±0.0 and NaNs of either sign and random payloads."""
    v = rng.normal(size=n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    payload = rng.integers(1, 1 << 51, size=n).astype(np.uint64)
    sign = rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)
    nans = (np.uint64(0x7FF0000000000000) | payload | sign).view(np.float64)
    where = rng.random(n) < 0.1
    v[where] = nans[where]
    return v


def _reference(hi_keys, hi_fs, lo_keys, lo_fs):
    columns = [np.concatenate([h, l]) for h, l in zip(hi_keys, lo_keys)]
    weights = [np.concatenate([h, -l]) for h, l in zip(hi_fs, lo_fs)]
    return group_reduce_multi(columns, weights)


def _assert_same_bits(got, want):
    (got_keys, got_g), (want_keys, want_g) = got, want
    assert len(got_keys) == len(want_keys)
    for a, b in zip(got_keys, want_keys):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert len(got_g) == len(want_g)
    for a, b in zip(got_g, want_g):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestPositionNetting:
    @pytest.fixture
    def reduce_calls(self, monkeypatch):
        """The row counts of every ``group_reduce_multi`` call."""
        calls: list[int] = []
        real = group_reduce_multi

        def counted(columns, weights):
            calls.append(columns[0].shape[0])
            return real(columns, weights)

        monkeypatch.setattr(estimator, "group_reduce_multi", counted)
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_order_lineage(self, seed):
        rng = np.random.default_rng(seed)
        n = 2000
        lineage = np.sort(rng.choice(10 * n, n, replace=False)).astype(np.int64)
        hi = [_values(rng, n), _values(rng, n)]
        lo = [_values(rng, n), _values(rng, n)]
        # NaN on both sides of some rows.
        both = rng.random(n) < 0.05
        hi[0][both] = np.float64(np.nan)
        lo[0][both] = -np.float64(np.nan)
        with np.errstate(invalid="ignore"):
            want = _reference([lineage], hi, [lineage], lo)
        _assert_same_bits(difference_inputs([lineage], hi, [lineage], lo), want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, object])
    def test_grouped_keys_in_scan_order(self, seed, dtype):
        rng = np.random.default_rng(seed)
        n = 1500
        lineage = np.sort(rng.choice(5 * n, n, replace=False)).astype(np.int64)
        group = rng.integers(0, 6, size=n).astype(dtype)
        hi, lo = [_values(rng, n)], [_values(rng, n)]
        keys = [group, lineage]
        want = _reference(keys, hi, keys, lo)
        _assert_same_bits(difference_inputs(keys, hi, keys, lo), want)

    def test_unequal_keys_take_the_concatenation(self, reduce_calls):
        rng = np.random.default_rng(3)
        n = 1000
        hi_lin = np.sort(rng.choice(3 * n, n, replace=False)).astype(np.int64)
        lo_lin = hi_lin.copy()
        lo_lin[::9] += 1  # some keys on one side only, some shared
        lo_lin = np.unique(lo_lin)
        hi, lo = [_values(rng, n)], [_values(rng, lo_lin.shape[0])]
        want = _reference([hi_lin], hi, [lo_lin], lo)
        reduce_calls.clear()
        got = difference_inputs([hi_lin], hi, [lo_lin], lo)
        _assert_same_bits(got, want)
        assert reduce_calls == [n + lo_lin.shape[0]]

    def test_unordered_keys_take_the_concatenation(self, reduce_calls):
        rng = np.random.default_rng(11)
        n = 800
        lineage = rng.permutation(n).astype(np.int64)
        group = rng.integers(0, 3, size=n).astype(np.int64)
        hi, lo = [_values(rng, n)], [_values(rng, n)]
        for keys in ([lineage], [group, lineage], [np.arange(n)[::-1].copy()]):
            want = _reference(keys, hi, keys, lo)
            reduce_calls.clear()
            _assert_same_bits(difference_inputs(keys, hi, keys, lo), want)
            assert reduce_calls == [2 * n]

    def test_equal_keys_skip_the_concatenation(self, reduce_calls):
        lineage = np.arange(0, 40, 3, dtype=np.int64)
        keys, (g,) = difference_inputs([lineage], [np.full(14, 2.0)], [lineage], [np.ones(14)])
        np.testing.assert_array_equal(keys[0], lineage)
        np.testing.assert_array_equal(g, np.ones(14))
        # Group columns in scan order: the lineage, most significant, ascends.
        group = lineage % 3
        keys, (g,) = difference_inputs(
            [group, lineage], [np.full(14, 2.0)], [group, lineage], [np.ones(14)]
        )
        np.testing.assert_array_equal(keys[0], group)
        assert reduce_calls == []



# -- (c) a shared draw is read-only -----------------------------------------


class TestSharedDrawReadOnly:
    def test_writing_into_a_shared_draw_raises(self):
        method = CoordinatedBernoulli(0.2, namespace="fact", salt=1)
        shared: dict = {}
        whole = shared_draw(shared, method, 1000, None)
        again = shared_draw(shared, method, 1000, None)
        assert again is whole
        for arr in (whole.rows, whole.lineage):
            with pytest.raises(ValueError):
                arr[0] = 7
            with pytest.raises(ValueError):
                arr += 1
