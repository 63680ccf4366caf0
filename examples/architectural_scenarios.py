"""One application, three architectures: single-GPU, out-of-core, 2 GPUs.

The paper's programmability pitch (Section 1): the same filter-based
application should run unchanged whether the graph fits one GPU, spills
to host memory, or spans multiple GPUs.  This script runs the identical
``BFSApp`` under all three execution environments and reports how each
architecture's bottleneck shows up.

Run with:  python examples/architectural_scenarios.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import BFSApp
from repro.core import SageScheduler, run_app
from repro.graph import datasets
from repro.multigpu import MultiGpuRunner, chunk_partition, edge_cut, metis_like
from repro.outofcore import SageOutOfCoreRunner, SubwayRunner


def main() -> None:
    graph = datasets.friendster_like(scale=0.7).graph
    source = int(np.argmax(graph.out_degrees()))
    print(f"graph: {graph}, BFS source {source}\n")

    # --- single GPU, everything resident --------------------------------
    single = run_app(graph, BFSApp(), SageScheduler(), source=source)
    print("single-GPU (in-core):")
    print(f"  {single.seconds * 1e3:8.4f} ms  {single.gteps:6.2f} GTEPS")

    # --- out-of-core: device holds 20% of the CSR -----------------------
    print("\nout-of-core (device = 20% of graph, PCIe 3.0 x16):")
    for runner in (SageOutOfCoreRunner(device_fraction=0.2),
                   SubwayRunner()):
        result = runner.run(graph, BFSApp(), source)
        xfer = result.extras["transfer_seconds"] * 1e3
        mb = result.extras["bytes_transferred"] / 1e6
        print(f"  {runner.name:10s} {result.seconds * 1e3:8.4f} ms  "
              f"{result.gteps:6.2f} GTEPS  "
              f"(moved {mb:6.2f} MB in {xfer:7.3f} ms)")

    # --- two GPUs --------------------------------------------------------
    print("\nmulti-GPU (2 devices, NVLink):")
    chunks = chunk_partition(graph.num_nodes, 2)
    metis = metis_like(graph, 2)
    print(f"  edge cut: chunk {edge_cut(graph, chunks)}, "
          f"metis-like {edge_cut(graph, metis)} "
          f"of {graph.num_edges} edges")
    for label, assignment, async_mode in (
        ("sage async (chunk)", chunks, True),
        ("sage sync  (chunk)", chunks, False),
        ("sage sync  (metis)", metis, False),
    ):
        runner = MultiGpuRunner(SageScheduler, assignment,
                                async_mode=async_mode)
        result = runner.run(graph, BFSApp(), source)
        comm = result.extras["comm_seconds"] * 1e3
        print(f"  {label:20s} {result.seconds * 1e3:8.4f} ms  "
              f"{result.gteps:6.2f} GTEPS  (comm {comm:6.3f} ms)")

    print("\nSame application object, zero code changes across scenarios.")


if __name__ == "__main__":
    main()
