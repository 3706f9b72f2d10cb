"""CLI shell tests (driven in-process through run_statement/main)."""

from __future__ import annotations

import pytest

from repro.cli import main, run_statement
from repro.data.tpch import tpch_database


@pytest.fixture(scope="module")
def db():
    return tpch_database(scale=0.01, seed=0)


class TestRunStatement:
    def test_aggregate_query_prints_interval(self, db):
        out = run_statement(
            db,
            "SELECT COUNT(*) AS n FROM lineitem TABLESAMPLE (50 PERCENT)",
        )
        assert "n = " in out
        assert "@95%" in out
        assert "sample rows" in out

    def test_projection_prints_rows(self, db):
        out = run_statement(db, "SELECT o_orderkey FROM orders")
        lines = out.splitlines()
        assert lines[0] == "o_orderkey"
        assert "rows total" in lines[-1]

    def test_tables_command(self, db):
        out = run_statement(db, "\\tables")
        assert "lineitem" in out and "orders" in out

    def test_explain_command(self, db):
        out = run_statement(
            db,
            "\\explain SELECT SUM(l_tax) AS s FROM lineitem "
            "TABLESAMPLE (10 PERCENT)",
        )
        assert "SOA-equivalent" in out
        assert "GUS" in out

    def test_exact_command(self, db):
        out = run_statement(
            db,
            "\\exact SELECT COUNT(*) AS n FROM lineitem "
            "TABLESAMPLE (10 PERCENT)",
        )
        n = db.table("lineitem").n_rows
        assert out.splitlines()[0] == "n"
        assert str(float(n)) in out

    def test_error_budget_query(self, db):
        out = run_statement(
            db,
            "SELECT SUM(l_extendedprice) AS rev "
            "FROM lineitem TABLESAMPLE (30 PERCENT) "
            "WITHIN 10 % CONFIDENCE 0.95",
        )
        assert "rev = " in out
        assert "plan:" in out
        assert "budget ±10%" in out
        assert "attempt" in out

    def test_explain_sampling_statement(self, db):
        out = run_statement(
            db,
            "EXPLAIN SAMPLING SELECT SUM(l_extendedprice) AS rev "
            "FROM lineitem TABLESAMPLE (30 PERCENT) "
            "WITHIN 10 % CONFIDENCE 0.95",
        )
        assert "candidate" in out and "pred. ±" in out
        assert "chosen:" in out
        # EXPLAIN never executes the final plan, only ranks candidates.
        assert "rev = " not in out

    def test_grouped_query_renders_per_group_cis(self, db):
        out = run_statement(
            db,
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
            "COUNT(*) AS n FROM lineitem TABLESAMPLE (40 PERCENT) "
            "GROUP BY l_returnflag, l_linestatus",
        )
        lines = out.splitlines()
        header = lines[0].split("\t")
        assert header[:2] == ["l_returnflag", "l_linestatus"]
        assert header[2:] == ["sum_qty [lo, hi]", "n [lo, hi]"]
        # One row per group, each aggregate cell carrying its interval.
        body = [line for line in lines[1:] if not line.startswith("--")]
        assert len(body) >= 2
        for line in body:
            assert line.count("[") == 2 and line.count("]") == 2
        assert "groups @95%" in lines[-1]
        assert "sample rows" in lines[-1]

    def test_grouped_query_with_having(self, db):
        out = run_statement(
            db,
            "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
            "TABLESAMPLE (50 PERCENT) GROUP BY o_orderstatus "
            "HAVING n > 1",
        )
        assert "o_orderstatus" in out.splitlines()[0]
        assert "groups @95%" in out

    def test_grouped_exact_command(self, db):
        out = run_statement(
            db,
            "\\exact SELECT o_orderstatus, COUNT(*) AS n FROM orders "
            "GROUP BY o_orderstatus",
        )
        lines = out.splitlines()
        assert lines[0] == "o_orderstatus\tn"
        counts = {
            parts[0]: float(parts[1])
            for parts in (line.split("\t") for line in lines[1:])
        }
        assert sum(counts.values()) == db.table("orders").n_rows

    def test_quit_raises_eof(self, db):
        with pytest.raises(EOFError):
            run_statement(db, "\\quit")

    def test_unknown_command(self, db):
        assert "unknown command" in run_statement(db, "\\frobnicate")

    def test_empty_line(self, db):
        assert run_statement(db, "   ") == ""


class TestMain:
    def test_single_command_mode(self, capsys):
        code = main(
            [
                "--scale",
                "0.01",
                "-c",
                "SELECT COUNT(*) AS n FROM orders",
            ]
        )
        assert code == 0
        assert "n = " in capsys.readouterr().out

    def test_sql_error_returns_nonzero(self, capsys):
        code = main(["--scale", "0.01", "-c", "SELECT FROM"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_csv_loading(self, tmp_path, capsys):
        path = tmp_path / "inventory.csv"
        path.write_text("item_id,qty\n1,5\n2,7\n")
        code = main(
            [
                "--load",
                f"inventory={path}",
                "-c",
                "SELECT SUM(qty) AS total FROM inventory",
            ]
        )
        assert code == 0
        assert "total = 12" in capsys.readouterr().out

    def test_bad_load_spec(self, capsys):
        code = main(["--load", "nonsense", "-c", "SELECT 1 FROM x"])
        assert code == 2
        assert "name=path" in capsys.readouterr().err


class TestStreamSubcommand:
    def test_runs_and_reports_session(self, capsys):
        code = main(
            [
                "stream",
                "--windows", "3",
                "--arrivals", "800",
                "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "session:" in out
        assert "rows kept:" in out
        # One table row per window.
        assert sum(line.strip().startswith(d) for d in "012" for line in out.splitlines()) >= 3

    def test_cumulative_column_merges_every_window(self, capsys):
        """A sliding window as long as the session merges the same
        batches the cumulative estimator merged, so the two columns
        agree on every row, and the kept rows add up to the session's."""
        code = main(
            [
                "stream",
                "--windows", "4",
                "--arrivals", "300",
                "--sliding", "4",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = [
            line.split()
            for line in out.splitlines()
            if line.strip()[:1].isdigit()
        ]
        assert len(rows) == 4
        assert all(row[-2] == row[-1] for row in rows)
        kept = sum(int(row[2]) for row in rows)
        assert f"rows kept: {kept} of " in out

    def test_invalid_rate_rejected(self, capsys):
        code = main(["stream", "--rate", "1.5"])
        assert code == 2
        assert "not in (0, 1]" in capsys.readouterr().err

    def test_invalid_windows_rejected(self, capsys):
        code = main(["stream", "--windows", "0"])
        assert code == 2
        assert ">= 1" in capsys.readouterr().err


class TestNoEngineWorkersFlag:
    """The engine sizes its own chunks and one engine thread serves:
    ``--workers`` is an unknown option everywhere, ``repro serve``
    included."""

    QUERY = (
        "SELECT COUNT(*) AS n FROM lineitem "
        "TABLESAMPLE (25 PERCENT) REPEATABLE (3)"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scale", "0.02", "--workers=3", "-c", QUERY],
            ["--scale", "0.02", "profile", "--workers=3", QUERY],
            ["--scale", "0.02", "serve", "--workers=3"],
            ["--scale", "0.02", "serve", "--selftest", "--workers=3"],
        ],
        ids=["main", "profile", "serve", "serve-selftest"],
    )
    def test_workers_is_an_unknown_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments: --workers=3" in capsys.readouterr().err
