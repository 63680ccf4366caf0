"""Kernel hazard sanitizer: racecheck-style invariant checking for runs.

The simulator's correctness story rests on invariants the cost model only
assumes: atomic-aggregation apps (BC/PR) may issue duplicate destination
writes, but non-atomic apps (BFS, pull-style PageRank) must never see two
writes to the same destination inside one scheduled work unit; every
vertex/edge index must stay inside the CSR extents; address arithmetic
must not overflow the batch dtype; frontiers are deduplicated by
contraction and, for monotone-level traversals, never revisit a settled
node.  :class:`Sanitizer` checks all of these on the live batches of a
run — opt-in (``repro run --sanitize``), with zero effect on simulated
timing or gated metrics when disabled.

Work units are the per-frontier-node adjacency segments (the unit every
scheduler decomposes; duplicate destinations *across* segments are
legitimate concurrency, duplicates *inside* one segment are a
write-write hazard for non-atomic filters).  Scheduler- and device-level
hooks additionally validate the tile decomposition's coverage and the
consistency of every :class:`~repro.gpusim.cost.KernelBatch` scored.

Findings are structured (:class:`Finding`), flow into :mod:`repro.obs`
as ``sanitizer.*`` counters, and export as a JSON report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.gpusim.memory import dtype_address_capacity
from repro.obs import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.apps.base import App
    from repro.graph.csr import CSRGraph
    from repro.gpusim.cost import KernelBatch, KernelStats

SCHEMA_VERSION = 1

#: Every finding code the sanitizer can report, with a one-line meaning.
FINDING_CODES: dict[str, str] = {
    "write_write_hazard": (
        "duplicate destination writes inside one work unit of a non-atomic app"
    ),
    "oob_vertex_index": "vertex index outside [0, num_nodes)",
    "oob_edge_index": "edge position outside [0, num_edges)",
    "dtype_overflow": "address arithmetic can overflow the batch dtype",
    "frontier_duplicates": "duplicate node ids in a claimed-unique frontier",
    "nonmonotone_level": "settled node re-entered a later frontier of a monotone-level app",
    "invalid_permutation": "reorder commit is not a bijection over the nodes",
    "work_unit_gap": "scheduled tiles do not cover the edge batch exactly",
    "kernel_stats_inconsistent": "scheduler-reported kernel stats are inconsistent",
}

#: Example indices carried per finding (enough to debug, bounded output).
MAX_EXAMPLES = 5

#: Findings recorded in full; later ones are only counted, so a
#: systematically-broken run stays bounded.
MAX_FINDINGS = 1000

#: Bytes per value-array element in the address-overflow check.
VALUE_BYTES = 4


@dataclass(frozen=True)
class Finding:
    """One structured sanitizer diagnostic."""

    code: str
    message: str
    app: str = ""
    iteration: int | None = None
    work_unit: int | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view."""
        return {
            "code": self.code,
            "message": self.message,
            "app": self.app,
            "iteration": self.iteration,
            "work_unit": self.work_unit,
            "details": dict(self.details),
        }

    def __str__(self) -> str:
        where = []
        if self.app:
            where.append(f"app={self.app}")
        if self.iteration is not None:
            where.append(f"iteration={self.iteration}")
        if self.work_unit is not None:
            where.append(f"work_unit={self.work_unit}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return f"{self.code}: {self.message}{suffix}"


def _kernel_problems(stats: "KernelStats") -> list[str]:
    """What is inconsistent in one kernel's stats, as finding messages."""
    problems: list[str] = []
    if stats.active_edges < 0:
        problems.append(f"negative active_edges ({stats.active_edges})")
    if stats.issued_lane_cycles + 1e-9 < stats.active_edges:
        problems.append(
            f"issued lanes ({stats.issued_lane_cycles}) < active edges "
            f"({stats.active_edges})"
        )
    if stats.value_sector_unique > stats.value_sector_touches:
        problems.append(
            f"unique sectors ({stats.value_sector_unique}) exceed "
            f"touches ({stats.value_sector_touches})"
        )
    for label, value in (
        ("overhead_cycles", stats.overhead_cycles),
        ("extra_dram_bytes", stats.extra_dram_bytes),
        ("atomic_conflicts", stats.atomic_conflicts),
        ("concurrency_warps", stats.concurrency_warps),
    ):
        if not np.isfinite(value) or value < 0:
            problems.append(f"non-finite or negative {label} ({value})")
    if stats.active_edges > 0 and stats.concurrency_warps <= 0:
        problems.append("active edges with zero concurrency")
    return problems


def _examples(values: np.ndarray) -> list[int]:
    """Bounded example list for finding details."""
    return [int(v) for v in np.asarray(values).ravel()[:MAX_EXAMPLES]]


class Sanitizer:
    """Checks traversal batches and scheduled work units for hazards.

    Usable standalone in tests (construct, :meth:`begin_run`, feed
    batches to :meth:`check_level`) or threaded through a
    :class:`~repro.core.pipeline.TraversalPipeline` via its ``sanitizer``
    argument, which also audits every kernel batch a scheduler or the
    simulated device stacks (:meth:`check_kernel_batch`) and the SAGE
    scheduler's tile decomposition (:meth:`check_work_units`).

    Args:
        metrics: observability registry receiving ``sanitizer.*``
            counters (attach later with :meth:`set_metrics`).
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.findings: list[Finding] = []
        self.total_findings = 0
        self.levels_checked = 0
        self.edges_checked = 0
        self.kernels_checked = 0
        self._app_name = ""
        self._uses_atomics = True
        self._frontier_unique = True
        self._monotone_levels = False
        self._num_nodes = 0
        self._num_edges = 0
        self._settled: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def set_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Attach the run's observability registry."""
        self.metrics = metrics if metrics is not None else NULL_REGISTRY

    def begin_run(self, graph: "CSRGraph", app: "App") -> None:
        """Capture the run's extents and the app's declared contract."""
        self._app_name = app.name
        self._uses_atomics = bool(app.uses_atomics)
        self._frontier_unique = bool(getattr(app, "frontier_unique", True))
        self._monotone_levels = bool(getattr(app, "monotone_levels", False))
        self._num_nodes = int(graph.num_nodes)
        self._num_edges = int(graph.num_edges)
        self._settled = (
            np.zeros(self._num_nodes, dtype=bool) if self._monotone_levels else None
        )
        # CSR container extents must themselves be representable: an
        # offsets array whose dtype cannot hold num_edges (or a targets
        # array whose dtype cannot hold the last node id) has already
        # overflowed before any kernel runs.
        for label, arr, needed in (
            ("offsets", graph.offsets, self._num_edges),
            ("targets", graph.targets, max(0, self._num_nodes - 1)),
        ):
            capacity = dtype_address_capacity(arr.dtype)
            if capacity is not None and capacity < needed:
                self._record(
                    Finding(
                        code="dtype_overflow",
                        message=(
                            f"CSR {label} dtype {arr.dtype} cannot represent "
                            f"{needed} (max {capacity})"
                        ),
                        app=self._app_name,
                        details={"array": label, "dtype": str(arr.dtype)},
                    )
                )

    def end_run(self) -> None:
        """Finish one run (kept for API symmetry; counters are live)."""
        self._settled = None

    # ------------------------------------------------------------------
    # Level-granular checks (the pipeline's memory access batches)
    # ------------------------------------------------------------------

    def check_level(
        self,
        iteration: int,
        frontier: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> list[Finding]:
        """Check one iteration's frontier and expanded edge batch.

        Returns the findings recorded for this level (also accumulated
        on the sanitizer).
        """
        before = len(self.findings)
        self._check_frontier(iteration, frontier)
        self._check_vertex_bounds(iteration, "edge_dst", edge_dst)
        if edge_pos is not None and edge_pos.size:
            bad = (edge_pos < 0) | (edge_pos >= self._num_edges)
            if bad.any():
                self._record(
                    Finding(
                        code="oob_edge_index",
                        message=(
                            f"{int(bad.sum())} edge positions outside "
                            f"[0, {self._num_edges})"
                        ),
                        app=self._app_name,
                        iteration=iteration,
                        details={"examples": _examples(edge_pos[bad])},
                    )
                )
        self._check_address_dtype(iteration, edge_dst)
        if not self._uses_atomics:
            self._check_write_write(iteration, degrees, edge_dst)
        self.levels_checked += 1
        self.edges_checked += int(edge_dst.size)
        self.metrics.count("sanitizer.levels_checked")
        self.metrics.count("sanitizer.edges_checked", int(edge_dst.size))
        return self.findings[before:]

    def _check_frontier(self, iteration: int, frontier: np.ndarray) -> None:
        self._check_vertex_bounds(iteration, "frontier", frontier)
        if frontier.size == 0:
            return
        unique, counts = np.unique(frontier, return_counts=True)
        if self._frontier_unique and unique.size != frontier.size:
            dup = unique[counts > 1]
            self._record(
                Finding(
                    code="frontier_duplicates",
                    message=(
                        f"{int(frontier.size - unique.size)} duplicate ids in a "
                        f"claimed-unique frontier of {int(frontier.size)}"
                    ),
                    app=self._app_name,
                    iteration=iteration,
                    details={"examples": _examples(dup)},
                )
            )
        if self._settled is not None:
            valid = frontier[(frontier >= 0) & (frontier < self._num_nodes)]
            revisits = valid[self._settled[valid]]
            if revisits.size:
                self._record(
                    Finding(
                        code="nonmonotone_level",
                        message=(
                            f"{int(revisits.size)} settled nodes re-entered the "
                            f"frontier (levels must be monotone for "
                            f"{self._app_name})"
                        ),
                        app=self._app_name,
                        iteration=iteration,
                        details={"examples": _examples(revisits)},
                    )
                )
            self._settled[valid] = True

    def _check_vertex_bounds(
        self, iteration: int, label: str, ids: np.ndarray
    ) -> None:
        if ids.size == 0:
            return
        bad = (ids < 0) | (ids >= self._num_nodes)
        if bad.any():
            self._record(
                Finding(
                    code="oob_vertex_index",
                    message=(
                        f"{int(bad.sum())} {label} indices outside "
                        f"[0, {self._num_nodes})"
                    ),
                    app=self._app_name,
                    iteration=iteration,
                    details={"array": label, "examples": _examples(ids[bad])},
                )
            )

    def _check_address_dtype(self, iteration: int, edge_dst: np.ndarray) -> None:
        """Byte-address arithmetic (``id * value_bytes``) must fit the dtype.

        Catches narrowed index arrays (int16/int32 on large graphs) whose
        scaled addresses silently wrap in the simulated gather.
        """
        capacity = dtype_address_capacity(edge_dst.dtype)
        if capacity is None or edge_dst.size == 0:
            return
        max_id = max(int(edge_dst.max()), self._num_nodes - 1)
        max_address = max_id * VALUE_BYTES
        if max_address > capacity:
            self._record(
                Finding(
                    code="dtype_overflow",
                    message=(
                        f"byte address {max_address} (= {max_id} * "
                        f"{VALUE_BYTES} B) overflows {edge_dst.dtype} "
                        f"(max {capacity})"
                    ),
                    app=self._app_name,
                    iteration=iteration,
                    details={
                        "dtype": str(edge_dst.dtype),
                        "max_id": max_id,
                        "value_bytes": VALUE_BYTES,
                    },
                )
            )

    def _check_write_write(
        self, iteration: int, degrees: np.ndarray, edge_dst: np.ndarray
    ) -> None:
        """Duplicate destinations inside one work unit (non-atomic apps).

        Work units are the per-frontier-node segments given by
        ``degrees``; one flat composite-key sort finds all intra-segment
        duplicates without assuming the CSR sorted-slice invariant.
        """
        if edge_dst.size == 0 or degrees.size == 0:
            return
        degrees = np.asarray(degrees, dtype=np.int64)
        if int(degrees.sum()) != int(edge_dst.size):
            # Mismatched segmentation is reported by the coverage check;
            # the hazard scan would mis-attribute duplicates, so skip.
            return
        seg_of = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
        span = max(1, self._num_nodes, int(edge_dst.max()) + 1)
        if degrees.size * span < 2**62:
            key = seg_of * span + np.asarray(edge_dst, dtype=np.int64)
            key = np.sort(key)
            dup_mask = key[1:] == key[:-1]
            if not dup_mask.any():
                return
            dup_keys = np.unique(key[1:][dup_mask])
            units = dup_keys // span
            dests = dup_keys % span
        else:  # pragma: no cover - astronomically sparse id ranges
            order = np.lexsort((edge_dst, seg_of))
            s, d = seg_of[order], edge_dst[order]
            dup_mask = (s[1:] == s[:-1]) & (d[1:] == d[:-1])
            if not dup_mask.any():
                return
            units, dests = s[1:][dup_mask], d[1:][dup_mask]
        self._record(
            Finding(
                code="write_write_hazard",
                message=(
                    f"{int(dup_mask.sum())} duplicate destination writes "
                    f"inside {int(np.unique(units).size)} work units of "
                    f"non-atomic app {self._app_name!r}"
                ),
                app=self._app_name,
                iteration=iteration,
                work_unit=int(units[0]),
                details={
                    "work_units": _examples(units),
                    "destinations": _examples(dests),
                },
            )
        )

    # ------------------------------------------------------------------
    # Scheduler- and device-level hooks
    # ------------------------------------------------------------------

    def check_work_units(self, covered_edges: int, total_edges: int) -> None:
        """Scheduled tiles + fragments must cover the batch exactly.

        ``covered_edges`` is the sum of the scheduled work-unit sizes.
        """
        covered = int(covered_edges)
        if covered != int(total_edges):
            self._record(
                Finding(
                    code="work_unit_gap",
                    message=(
                        f"tile decomposition covers {covered} edges of a "
                        f"{int(total_edges)}-edge batch"
                    ),
                    app=self._app_name,
                    details={
                        "covered": covered,
                        "total_edges": int(total_edges),
                    },
                )
            )

    def check_kernel_batch(self, batch: "KernelBatch") -> None:
        """Consistency of each row of a batch of scheduler-reported
        kernels, in row order."""
        self.kernels_checked += len(batch)
        self.metrics.count("sanitizer.kernels_checked", len(batch))
        for index in range(len(batch)):
            for problem in _kernel_problems(batch.row(index)):
                self._record(
                    Finding(
                        code="kernel_stats_inconsistent",
                        message=problem,
                        app=self._app_name,
                    )
                )

    def check_commit(self, perm: np.ndarray, num_nodes: int) -> None:
        """A reorder commit must be a bijection over the node ids."""
        perm = np.asarray(perm)
        ok = perm.size == num_nodes
        if ok and num_nodes:
            ok = bool(
                perm.min() >= 0
                and perm.max() < num_nodes
                and np.bincount(perm, minlength=num_nodes).max() == 1
            )
        if not ok:
            self._record(
                Finding(
                    code="invalid_permutation",
                    message=(
                        f"reorder commit of size {perm.size} is not a "
                        f"bijection over {num_nodes} nodes"
                    ),
                    app=self._app_name,
                    details={"size": int(perm.size), "num_nodes": int(num_nodes)},
                )
            )

    def notify_reordered(self, perm: np.ndarray) -> None:
        """Relabel tracked per-node state after a reordering commit."""
        if self._settled is not None and perm.size == self._settled.size:
            remapped = np.zeros_like(self._settled)
            remapped[perm] = self._settled
            self._settled = remapped

    # ------------------------------------------------------------------
    # Recording / reporting
    # ------------------------------------------------------------------

    def _record(self, finding: Finding) -> None:
        if finding.code not in FINDING_CODES:  # pragma: no cover - dev error
            raise ValueError(f"unknown finding code {finding.code!r}")
        self.total_findings += 1
        self.metrics.count("sanitizer.findings")
        self.metrics.count(f"sanitizer.{finding.code}")
        if len(self.findings) < MAX_FINDINGS:
            self.findings.append(finding)

    @property
    def clean(self) -> bool:
        """Whether no finding has been recorded."""
        return self.total_findings == 0

    def counts_by_code(self) -> dict[str, int]:
        """Recorded findings grouped by code."""
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return out

    def report(self) -> dict[str, Any]:
        """The JSON-ready structured report."""
        return {
            "schema_version": SCHEMA_VERSION,
            "clean": self.clean,
            "total_findings": self.total_findings,
            "levels_checked": self.levels_checked,
            "edges_checked": self.edges_checked,
            "kernels_checked": self.kernels_checked,
            "counts_by_code": self.counts_by_code(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the report to ``path`` and return it."""
        out = Path(path)
        out.write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return out

    def format_summary(self) -> str:
        """Human-readable findings summary (the CLI's output)."""
        lines = [
            f"sanitizer: {'clean' if self.clean else 'FINDINGS'} — "
            f"{self.total_findings} findings over {self.levels_checked} "
            f"levels / {self.edges_checked} edges / "
            f"{self.kernels_checked} kernels"
        ]
        for code, count in sorted(self.counts_by_code().items()):
            lines.append(f"  {code:26s} {count}")
        for finding in self.findings[:20]:
            lines.append(f"  - {finding}")
        if len(self.findings) > 20:
            lines.append(f"  ... {len(self.findings) - 20} more")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sanitizer({self.total_findings} findings, "
            f"{self.levels_checked} levels checked)"
        )
