"""The profile surface: self-time attribution and the CLI subcommand."""

import re

import pytest

from repro.obs.report import KERNEL_LABELS, profile_table
from repro.obs.trace import start_trace

JOIN_Q = (
    "SELECT SUM(l_extendedprice) AS rev "
    "FROM lineitem TABLESAMPLE (20 PERCENT) REPEATABLE (11), orders "
    "WHERE l_orderkey = o_orderkey"
)


def _attributed_percent(table: str) -> float:
    match = re.search(r"-- attributed ([0-9.]+)% of", table)
    assert match, table
    return float(match.group(1))


class TestAttribution:
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_profile_attributes_most_of_traced_time(self, tpch_db, workers):
        with start_trace("profile") as tracer:
            tpch_db.sql(
                JOIN_Q,
                seed=5,
                workers=workers,
                chunk_size=256 if workers else None,  # 1 chunk vs 5
            )
        trace = tracer.finish_trace()
        table = profile_table(trace)
        # Self-time decomposition is exhaustive by construction; the
        # acceptance bar is >= 90% of traced wall time attributed.
        assert _attributed_percent(table) >= 90.0
        assert "join key factorization + probe" in table
        assert "Scan(lineitem)" in table

    def test_every_kernel_label_is_emitted(self, tpch_db):
        # A label no run can produce is a row the profile never shows.
        from repro.relational.plan import Join, LineageSample, Scan
        from repro.sampling.composed import BiDimensionalBernoulli

        join = Join(
            Scan("lineitem"), Scan("orders"), ["l_orderkey"], ["o_orderkey"]
        )
        hashed = LineageSample(
            join, BiDimensionalBernoulli({"lineitem": 0.5, "orders": 0.5}, seed=3)
        )
        with start_trace("labels") as tracer:
            tpch_db.sql(JOIN_Q, seed=5)
            fused = tpch_db.execute(hashed, workers=2, chunk_size=256)
        seen = {s.name for s in tracer.finish_trace().spans if s.kind == "kernel"}
        assert seen == set(KERNEL_LABELS)
        # Tracing compiles the fused lineage filter apart; same rows.
        plain = tpch_db.execute(hashed, workers=2, chunk_size=256)
        assert plain.n_rows == fused.n_rows
        for name in plain.columns:
            assert (plain.column(name) == fused.column(name)).all()


class TestProfileCLI:
    @pytest.mark.parametrize("workers", ["0", "1", "4"])
    def test_profile_subcommand_end_to_end(self, capsys, workers):
        from repro.cli import main

        code = main(
            [
                "--scale",
                "0.02",
                "--workers",
                workers,
                "profile",
                "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
                "TABLESAMPLE (20 PERCENT) REPEATABLE (7)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rev = " in out
        assert "hot path" in out
        assert "draw.table_sample (table-sample draw)" in out
        assert "Scan(lineitem)" in out
        assert "rows_out=" in out
        assert _attributed_percent(out) >= 90.0

    def test_profile_rejects_bad_sql(self, capsys):
        from repro.cli import main

        code = main(
            ["--scale", "0.02", "profile", "SELECT FROM nothing WHERE"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
