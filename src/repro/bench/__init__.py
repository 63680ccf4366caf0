"""Experiment harness: drivers for every paper table and figure."""

from repro.bench.harness import (
    fig6_rows,
    fig7_rows,
    fig8_rows,
    fig9_rows,
    fig10_rows,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.bench.reporting import format_table
from repro.bench.rounds import ReorderRounds, sage_reorder_rounds
from repro.bench.session import SessionTrace, crossover_query, run_query_session
from repro.bench.workloads import (
    APP_NAMES,
    app_factory,
    needs_source,
    pick_sources,
)

__all__ = [
    "APP_NAMES",
    "ReorderRounds",
    "SessionTrace",
    "app_factory",
    "crossover_query",
    "fig6_rows",
    "fig7_rows",
    "fig8_rows",
    "fig9_rows",
    "fig10_rows",
    "format_table",
    "needs_source",
    "pick_sources",
    "run_query_session",
    "sage_reorder_rounds",
    "table1_rows",
    "table2_rows",
    "table3_rows",
]
