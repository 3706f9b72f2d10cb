"""Five-minute tour of coordinated snapshots and version differences.

An A/B-delta dashboard in miniature: a fact table evolves through
updates, each ``update_table`` freezes the pre-mutation state as a
numbered snapshot (copy-on-write — untouched columns share arrays),
and ``AT VERSION n MINUS AT VERSION m`` estimates *what changed*
between two versions from one coordinated sample.  Because the sample
keeps the same per-key decisions on every version, unchanged rows
cancel exactly in the difference — only changed rows contribute
variance, so a tiny sample nails a 1% change that independent per-side
samples would bury in noise.

Run:  python examples/coordinated_snapshots_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.relational.database import Database
from repro.service import render_result

N_USERS = 200_000


def main() -> None:
    rng = np.random.default_rng(11)
    db = Database(seed=0)

    # 1. Day-0 revenue table: one row per user.
    user = np.arange(N_USERS, dtype=np.int64)
    db.create_table(
        "revenue",
        {
            "user": user,
            "cohort": user % 4,
            "spend": rng.gamma(2.0, 15.0, N_USERS),
        },
    )

    # 2. Day 1: an experiment nudges 1% of users.  update_table freezes
    #    the pre-mutation table as version 1 and swaps in the new live
    #    contents; the untouched user/cohort columns are shared, not
    #    copied.
    spend = db.table("revenue").column("spend").copy()
    treated = rng.choice(N_USERS, size=N_USERS // 100, replace=False)
    spend[treated] *= 1.25
    db.update_table(
        "revenue", db.table("revenue").with_columns({"spend": spend})
    )
    print(f"versions of revenue: {db.versions_of('revenue')}")
    v1 = db.table("revenue", version=1)
    assert np.shares_memory(
        np.asarray(v1.column("user")),
        np.asarray(db.table("revenue").column("user")),
    )

    # 3. The dashboard question: how much did total spend move?  The
    #    live-MINUS form nets live against the snapshot per key; with a
    #    10% coordinated sample only the ~2,000 changed rows feed the
    #    variance.
    delta = db.sql(
        "SELECT SUM(spend) AS lift\n"
        "FROM revenue MINUS AT VERSION 1 "
        "TABLESAMPLE (10 PERCENT) REPEATABLE (7)"
    )
    truth = float(
        np.asarray(
            db.sql_exact(
                "SELECT SUM(spend) AS lift\nFROM revenue MINUS AT VERSION 1"
            ).column("lift")
        )[0]
    )
    print(render_result(delta, 0.95))
    print(f"exact lift: {truth:,.0f}  (sampled keys: {delta.n_matched})\n")

    # 4. Why coordination matters: difference two *independent* samples
    #    instead and the full-population variances add.
    independent = sum(
        db.sql(
            f"SELECT SUM(spend) AS s\nFROM revenue {clause} "
            f"TABLESAMPLE (10 PERCENT) REPEATABLE ({seed})"
        )
        .estimates["s"]
        .variance_raw
        for clause, seed in (("", 1), ("AT VERSION 1", 2))
    )
    coordinated = delta.estimates["lift"].variance_raw
    print(
        f"variance, coordinated diff:  {coordinated:,.0f}\n"
        f"variance, independent sides: {independent:,.0f} "
        f"({independent / coordinated:,.0f}x worse)\n"
    )

    # 5. Per-cohort deltas with intervals: GROUP BY works on
    #    differences too, and table() materializes bounds columns.
    per_cohort = db.sql(
        "SELECT SUM(spend) AS lift\n"
        "FROM revenue MINUS AT VERSION 1 "
        "TABLESAMPLE (25 PERCENT) REPEATABLE (3)\n"
        "GROUP BY cohort"
    )
    print(render_result(per_cohort, 0.95))

    # 6. Snapshots pin reports: freeze today's live table explicitly,
    #    keep mutating, and yesterday's numbers stay reproducible.
    pinned = db.snapshot("revenue")
    fresh = db.table("revenue").column("spend").copy()
    fresh[: N_USERS // 200] += 5.0
    db.update_table(
        "revenue", db.table("revenue").with_columns({"spend": fresh})
    )
    report = db.sql(
        f"SELECT SUM(spend) AS total\nFROM revenue AT VERSION {pinned} "
        "TABLESAMPLE (25 PERCENT) REPEATABLE (9)"
    )
    print(f"\npinned report (version {pinned}): {report['total']:,.0f}")


if __name__ == "__main__":
    main()
