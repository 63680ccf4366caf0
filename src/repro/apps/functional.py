"""Functional application builder (Medusa/Gunrock-style programmability).

The paper's programmability pitch (Sections 1, 2.2): platforms like
Medusa [53] and Gunrock [48] let users express graph algorithms through
a few user-defined functions instead of hand-written kernels.  This
module is that layer for the repro framework: build a full
:class:`~repro.apps.base.App` from three plain functions, no subclassing.

Example — reachability in five lines::

    from repro.apps.functional import make_app

    reach = make_app(
        "reach",
        init=lambda graph, source: {"seen": one_hot(graph, source)},
        edge_filter=lambda state, src, dst: ~state["seen"][dst],
        on_pass=lambda state, nodes: state["seen"].__setitem__(nodes, True),
    )
    result = run_app(graph, reach(), SageScheduler(), source=0)

The three callbacks mirror the pipeline's steps: ``init`` allocates node
state, ``edge_filter`` is Algorithm 1's ``filter(frontier, neighbor)``
vectorized over the edge batch, and ``on_pass`` applies updates to the
contracted next frontier.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.apps.base import App, contract
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

State = dict[str, np.ndarray]
InitFn = Callable[[CSRGraph, "int | None"], State]
EdgeFilterFn = Callable[[State, np.ndarray, np.ndarray], np.ndarray]
OnPassFn = Callable[[State, np.ndarray], None]
FrontierFn = Callable[[State, CSRGraph, "int | None"], np.ndarray]


class FunctionalApp(App):
    """An :class:`App` assembled from user callbacks."""

    uses_atomics = False

    def __init__(
        self,
        name: str,
        init: InitFn,
        edge_filter: EdgeFilterFn,
        *,
        on_pass: OnPassFn | None = None,
        initial_frontier: FrontierFn | None = None,
        max_iterations: int | None = None,
        uses_atomics: bool = False,
        value_access_factor: float = 1.0,
    ) -> None:
        super().__init__()
        self.name = name
        self._init = init
        self._edge_filter = edge_filter
        self._on_pass = on_pass
        self._initial_frontier = initial_frontier
        self._max_iterations = max_iterations
        self.uses_atomics = uses_atomics
        self.value_access_factor = value_access_factor
        self.state: State = {}
        self._source: int | None = None
        self._iteration = 0

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if source is not None and not 0 <= source < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.graph = graph
        self._source = source
        self._iteration = 0
        self.state = self._init(graph, source)
        if not isinstance(self.state, dict):
            raise InvalidParameterError("init must return a state dict")

    def initial_frontier(self) -> np.ndarray:
        assert self.graph is not None
        if self._initial_frontier is not None:
            return np.asarray(
                self._initial_frontier(self.state, self.graph, self._source),
                dtype=np.int64,
            )
        if self._source is None:
            return np.arange(self.graph.num_nodes, dtype=np.int64)
        return np.array([self._source], dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        passes = np.asarray(self._edge_filter(self.state, edge_src, edge_dst))
        if passes.shape != edge_dst.shape or passes.dtype != bool:
            raise InvalidParameterError(
                "edge_filter must return a boolean mask over the edge batch"
            )
        next_frontier = contract(edge_dst[passes])
        if self._on_pass is not None:
            self._on_pass(self.state, next_frontier)
        self._iteration += 1
        if (self._max_iterations is not None
                and self._iteration >= self._max_iterations):
            return np.empty(0, dtype=np.int64)
        return next_frontier

    def result(self) -> dict[str, np.ndarray]:
        return dict(self.state)

    def remap_nodes(self, perm: np.ndarray) -> None:
        assert self.graph is not None
        n = self.graph.num_nodes
        for key, val in self.state.items():
            arr = np.asarray(val)
            if arr.ndim == 1 and arr.size == n:
                remapped = np.empty_like(arr)
                remapped[perm] = arr
                self.state[key] = remapped
        if self._source is not None:
            self._source = int(perm[self._source])


def make_app(
    name: str,
    init: InitFn,
    edge_filter: EdgeFilterFn,
    **kwargs,
) -> Callable[[], FunctionalApp]:
    """Factory of factories: returns a zero-arg constructor for the app.

    Matches how schedulers/benchmarks expect app factories, so a
    functional app drops into any harness slot::

        my_app = make_app("mine", init, edge_filter)
        run_app(graph, my_app(), SageScheduler(), source=0)
    """
    return lambda: FunctionalApp(name, init, edge_filter, **kwargs)


def one_hot(graph: CSRGraph, node: int) -> np.ndarray:
    """Convenience: a boolean indicator array with ``node`` set."""
    out = np.zeros(graph.num_nodes, dtype=bool)
    out[node] = True
    return out
