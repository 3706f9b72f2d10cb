"""Synthetic TPC-H-style data and the paper's workload queries."""

from repro.data.distributions import skewed_ints, zipf_ranks
from repro.data.tpch import TPCH_TABLES, generate_tpch, tpch_database
from repro.data.workloads import figure4_plan, figure5_plan, query1_plan

__all__ = [
    "generate_tpch",
    "tpch_database",
    "TPCH_TABLES",
    "zipf_ranks",
    "skewed_ints",
    "query1_plan",
    "figure4_plan",
    "figure5_plan",
]
