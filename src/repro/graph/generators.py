"""Synthetic graph generators.

These produce the structural regimes the paper's evaluation attributes its
results to (Section 7.2): regular hierarchies (web crawls), near-uniform
dense graphs (the ``brain`` dataset), and power-law social networks with
varying skew (``ljournal``, ``twitter``, ``friendster``).

All generators are deterministic given a :class:`numpy.random.Generator`
and return :class:`~repro.graph.csr.CSRGraph`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.coo import EDGE_DTYPE
from repro.graph.csr import CSRGraph


def _rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


# ----------------------------------------------------------------------
# Toy graphs (used heavily in unit tests)
# ----------------------------------------------------------------------

def path_graph(n: int) -> CSRGraph:
    """A directed path ``0 -> 1 -> ... -> n - 1``."""
    if n < 1:
        raise InvalidParameterError("path_graph needs n >= 1")
    src = np.arange(n - 1, dtype=EDGE_DTYPE)
    return CSRGraph.from_edges(n, src, src + 1)


def cycle_graph(n: int) -> CSRGraph:
    """A directed cycle on ``n`` nodes."""
    if n < 2:
        raise InvalidParameterError("cycle_graph needs n >= 2")
    src = np.arange(n, dtype=EDGE_DTYPE)
    return CSRGraph.from_edges(n, src, (src + 1) % n)


def star_graph(n: int) -> CSRGraph:
    """Node 0 points at all other ``n - 1`` nodes (maximal skew)."""
    if n < 2:
        raise InvalidParameterError("star_graph needs n >= 2")
    dst = np.arange(1, n, dtype=EDGE_DTYPE)
    return CSRGraph.from_edges(n, np.zeros(n - 1, dtype=EDGE_DTYPE), dst)


def complete_graph(n: int) -> CSRGraph:
    """Every ordered pair (u, v), u != v."""
    if n < 1:
        raise InvalidParameterError("complete_graph needs n >= 1")
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = src != dst
    return CSRGraph.from_edges(n, src[mask].ravel(), dst[mask].ravel())


def grid_2d(rows: int, cols: int) -> CSRGraph:
    """A 4-neighbor grid, edges in both directions (regular, local)."""
    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid_2d needs positive dimensions")
    n = rows * cols
    ids = np.arange(n).reshape(rows, cols)
    pairs = []
    if cols > 1:
        pairs.append((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    if rows > 1:
        pairs.append((ids[:-1, :].ravel(), ids[1:, :].ravel()))
    if not pairs:
        return CSRGraph.from_edges(n, np.empty(0, int), np.empty(0, int))
    src = np.concatenate([p[0] for p in pairs])
    dst = np.concatenate([p[1] for p in pairs])
    return CSRGraph.from_edges(n, src, dst, symmetric=True)


# ----------------------------------------------------------------------
# Random-graph families
# ----------------------------------------------------------------------

def erdos_renyi(
    n: int,
    avg_degree: float,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """G(n, m)-style uniform random digraph with ``n * avg_degree`` edges."""
    if n < 1 or avg_degree < 0:
        raise InvalidParameterError("erdos_renyi needs n >= 1, avg_degree >= 0")
    rng = _rng(seed)
    m = int(round(n * avg_degree))
    src = rng.integers(0, n, size=m, dtype=EDGE_DTYPE)
    dst = rng.integers(0, n, size=m, dtype=EDGE_DTYPE)
    return CSRGraph.from_edges(n, src, dst, dedup=True, drop_self_loops=True)


def random_regular(
    n: int,
    degree: int,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Near-regular random digraph: every node has out-degree ``degree``.

    Targets are drawn by permuting stub lists; a handful of self loops and
    duplicates are dropped, so realized degrees may be a whisker below
    ``degree``.  This is the "brain"-style near-uniform regime.
    """
    if n < 2 or degree < 0 or degree >= n:
        raise InvalidParameterError("random_regular needs 0 <= degree < n, n >= 2")
    rng = _rng(seed)
    src = np.repeat(np.arange(n, dtype=EDGE_DTYPE), degree)
    # Draw each node's neighbors without replacement via a shifted base
    # permutation: cheap and collision-free per node.
    base = rng.permutation(n).astype(EDGE_DTYPE)
    shifts = rng.integers(1, n, size=n, dtype=EDGE_DTYPE)
    dst = (base[np.tile(np.arange(degree), n)]
           + np.repeat(shifts, degree)) % n
    return CSRGraph.from_edges(n, src, dst, dedup=True, drop_self_loops=True)


def barabasi_albert(
    n: int,
    m: int,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Preferential-attachment graph (power-law in-degrees), symmetrized.

    Each new node attaches to ``m`` existing nodes sampled proportionally
    to degree, using the standard repeated-endpoints trick.
    """
    if n < 2 or m < 1 or m >= n:
        raise InvalidParameterError("barabasi_albert needs 1 <= m < n")
    rng = _rng(seed)
    # repeated-endpoint pool: sampling uniformly from it is sampling
    # proportionally to degree.
    pool = list(range(m))
    src = []
    dst = []
    for new in range(m, n):
        pool_arr = np.asarray(pool)
        picks = rng.choice(pool_arr, size=min(m, len(pool)), replace=False)
        for p in picks:
            src.append(new)
            dst.append(int(p))
            pool.append(int(p))
            pool.append(new)
    return CSRGraph.from_edges(
        n, np.asarray(src), np.asarray(dst), symmetric=True
    )


def power_law_configuration(
    n: int,
    exponent: float,
    avg_degree: float,
    seed: int | np.random.Generator | None = 0,
    *,
    max_degree: int | None = None,
    hub_count: int = 0,
    hub_degree: int | None = None,
    community_count: int = 0,
    community_bias: float = 0.85,
    scramble_ids: bool = False,
) -> CSRGraph:
    """Configuration-model digraph with power-law out-degrees.

    Out-degrees are drawn from ``P(d) ~ d^-exponent`` on ``[1, max_degree]``
    and rescaled to hit ``avg_degree``.  Optionally the first ``hub_count``
    nodes are forced to degree ``hub_degree`` to emulate twitter-style
    super-hubs ("|outdegrees| of some nodes up to several millions", paper
    Section 7.3).

    With ``community_count > 0``, nodes belong to equal latent communities
    and each edge lands inside its source's community with probability
    ``community_bias`` — the clustering structure real social networks
    have and reordering methods exploit.  ``scramble_ids`` then hides the
    structure behind a random relabeling (crawled social graphs arrive
    with essentially arbitrary ids), so locality is *recoverable* but not
    present in the input order.
    """
    if n < 2 or exponent <= 1.0 or avg_degree <= 0:
        raise InvalidParameterError(
            "power_law_configuration needs n >= 2, exponent > 1, avg_degree > 0"
        )
    if not 0.0 <= community_bias <= 1.0:
        raise InvalidParameterError("community_bias must be in [0, 1]")
    rng = _rng(seed)
    if max_degree is None:
        max_degree = max(2, n // 10)
    ds = np.arange(1, max_degree + 1, dtype=np.float64)
    probs = ds ** (-exponent)
    probs /= probs.sum()
    degrees = rng.choice(
        np.arange(1, max_degree + 1), size=n, p=probs
    ).astype(np.float64)
    degrees *= avg_degree / degrees.mean()
    degrees = np.maximum(1, np.round(degrees)).astype(EDGE_DTYPE)
    if hub_count:
        hd = hub_degree if hub_degree is not None else n // 5
        degrees[:hub_count] = min(hd, n - 1)
    src = np.repeat(np.arange(n, dtype=EDGE_DTYPE), degrees)
    m = int(degrees.sum())
    if community_count > 1:
        comm_size = -(-n // community_count)
        comm_of_src = src // comm_size
        local = rng.random(m) < community_bias
        # Super-hubs fan out across the whole graph (their reach is what
        # makes them hubs); communities would cap their distinct targets.
        if hub_count:
            local &= src >= hub_count
        within = rng.integers(0, comm_size, size=m, dtype=EDGE_DTYPE)
        local_dst = np.minimum(comm_of_src * comm_size + within, n - 1)
        dst = np.where(local, local_dst,
                       rng.integers(0, n, size=m, dtype=EDGE_DTYPE))
    else:
        dst = rng.integers(0, n, size=m, dtype=EDGE_DTYPE)
    graph = CSRGraph.from_edges(n, src, dst, dedup=True, drop_self_loops=True)
    if scramble_ids:
        graph = graph.permute(rng.permutation(n).astype(EDGE_DTYPE))
    return graph


def watts_strogatz(
    n: int,
    k: int,
    p: float,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Small-world ring lattice with rewiring probability ``p``."""
    if n < 3 or k < 2 or k % 2 or k >= n:
        raise InvalidParameterError(
            "watts_strogatz needs n >= 3 and even 2 <= k < n"
        )
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("rewiring probability must be in [0, 1]")
    rng = _rng(seed)
    src = np.repeat(np.arange(n, dtype=EDGE_DTYPE), k // 2)
    hops = np.tile(np.arange(1, k // 2 + 1, dtype=EDGE_DTYPE), n)
    dst = (src + hops) % n
    rewire = rng.random(dst.size) < p
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()), dtype=EDGE_DTYPE)
    return CSRGraph.from_edges(n, src, dst, drop_self_loops=True, symmetric=True)


#: R-MAT's (a, b, c) quadrant probabilities; d is 1 - a - b - c.
RMAT_QUADRANTS = (0.57, 0.19, 0.19)


def rmat(
    scale: int,
    edge_factor: int,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Graph500-style Kronecker (R-MAT) generator.

    ``2**scale`` nodes and ``edge_factor * 2**scale`` directed edges with
    the Graph500 recursive quadrant probabilities :data:`RMAT_QUADRANTS`.
    Vectorized over all edges at once: one random draw per bit level.
    """
    if scale < 1 or edge_factor < 1:
        raise InvalidParameterError("rmat needs scale >= 1, edge_factor >= 1")
    a, b, c = RMAT_QUADRANTS
    rng = _rng(seed)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=EDGE_DTYPE)
    dst = np.zeros(m, dtype=EDGE_DTYPE)
    for _ in range(scale):
        r = rng.random(m)
        src_bit = (r >= a + b).astype(EDGE_DTYPE)
        dst_bit = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(EDGE_DTYPE)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return CSRGraph.from_edges(n, src, dst, dedup=True, drop_self_loops=True)


def web_hierarchy(
    n: int,
    avg_degree: float,
    seed: int | np.random.Generator | None = 0,
    *,
    locality: float = 0.8,
    span: int = 64,
) -> CSRGraph:
    """Web-crawl-like graph: regular hierarchy with high id locality.

    Crawlers assign ids in discovery order, so most hyperlinks land near
    the source id (paper Section 7.2 credits uk-2002's "relatively regular
    hierarchy" for its high traversal speed).  A fraction ``locality`` of
    each node's edges go to ids within ``span`` of the source; the rest are
    uniform "cross links".  Degrees are mildly skewed (lognormal).
    """
    if n < 4 or avg_degree <= 0 or not 0 <= locality <= 1 or span < 1:
        raise InvalidParameterError("web_hierarchy parameters out of range")
    rng = _rng(seed)
    degrees = np.maximum(
        1, rng.lognormal(mean=np.log(avg_degree), sigma=0.6, size=n)
    ).astype(EDGE_DTYPE)
    src = np.repeat(np.arange(n, dtype=EDGE_DTYPE), degrees)
    m = int(degrees.sum())
    local = rng.random(m) < locality
    offsets = rng.integers(-span, span + 1, size=m, dtype=EDGE_DTYPE)
    dst = np.where(
        local,
        np.clip(src + offsets, 0, n - 1),
        rng.integers(0, n, size=m, dtype=EDGE_DTYPE),
    )
    return CSRGraph.from_edges(n, src, dst, dedup=True, drop_self_loops=True)
