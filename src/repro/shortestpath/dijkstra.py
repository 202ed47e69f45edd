"""Dijkstra: scipy's compiled backend plus a pure-Python reference.

All functions accept ``weights`` overriding the graph's stored per-edge
weights (aligned with the CSR edge order); the SND ground-distance builder
relies on this to evaluate many cost models over one structure without
copying the graph.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_nonnegative

__all__ = ["dijkstra", "dijkstra_multi", "multi_source_distances"]


def _edge_weights(graph: DiGraph, weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        w = graph.weights
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != graph.indices.shape:
            raise ValidationError(
                f"weights must align with the graph's {graph.num_edges} edges"
            )
    return check_nonnegative(w, "edge weights")


def dijkstra(
    graph: DiGraph,
    source: int,
    *,
    weights: np.ndarray | None = None,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Single-source shortest-path distances from *source* (reference).

    Parameters
    ----------
    targets:
        Optional node set; the search stops once all targets are settled
        (distances to other nodes are still valid where computed).

    Returns
    -------
    Array of length ``n`` with ``np.inf`` for unreachable nodes.
    """
    return dijkstra_multi(graph, [source], weights=weights, targets=targets)


def dijkstra_multi(
    graph: DiGraph,
    sources,
    *,
    weights: np.ndarray | None = None,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-source Dijkstra: distance from the *nearest* source to each node.

    The pure-Python reference the scipy backend is tested against: a
    :mod:`heapq` priority queue with lazy deletion (stale entries are
    skipped by the ``settled`` check instead of being decreased in place).
    """
    n = graph.num_nodes
    w = _edge_weights(graph, weights)
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return np.full(n, np.inf)
    if sources.min() < 0 or sources.max() >= n:
        raise ValidationError("source nodes out of range")

    dist = np.full(n, np.inf)
    settled = np.zeros(n, dtype=bool)
    dist[sources] = 0.0
    pq = [(0.0, int(s)) for s in np.unique(sources)]

    remaining_targets: set[int] | None = None
    if targets is not None:
        remaining_targets = {int(t) for t in np.atleast_1d(targets)}

    indptr, indices = graph.indptr, graph.indices
    while pq:
        du, u = heapq.heappop(pq)
        if settled[u]:
            continue
        settled[u] = True
        if remaining_targets is not None:
            remaining_targets.discard(u)
            if not remaining_targets:
                break
        lo, hi = indptr[u], indptr[u + 1]
        for k in range(lo, hi):
            v = int(indices[k])
            if settled[v]:
                continue
            alt = du + w[k]
            if alt < dist[v]:
                dist[v] = alt
                heapq.heappush(pq, (alt, v))
    return dist


def multi_source_distances(
    graph: DiGraph,
    sources,
    *,
    weights: np.ndarray | None = None,
    reverse: bool = False,
) -> np.ndarray:
    """Distances from *each* source to all nodes: an ``(k, n)`` matrix.

    This is the bulk operation of the fast SND pipeline: one row per changed
    user, all dispatched to :func:`scipy.sparse.csgraph.dijkstra` in one
    call. With ``reverse=True``, distances are measured *into* the sources
    (i.e. along reversed edges), which Theorem 4 uses when the lighter side
    of the transportation problem supplies the Dijkstra sources.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return np.empty((0, graph.num_nodes))
    work_graph, w = _oriented(graph, weights, reverse)
    matrix = work_graph.to_scipy_csr(_edge_weights(work_graph, w))
    return np.atleast_2d(sp_dijkstra(matrix, directed=True, indices=sources))


def _oriented(
    graph: DiGraph, weights: np.ndarray | None, reverse: bool
) -> tuple[DiGraph, np.ndarray | None]:
    """*graph* (or its reverse) with *weights* aligned to that CSR order."""
    if not reverse:
        return graph, weights
    if weights is not None:
        # Re-align the override weights with the reversed CSR ordering.
        graph._ensure_reverse()  # noqa: SLF001 - intentional internal access
        weights = np.asarray(weights, dtype=np.float64)[graph._rev_edge_ids]  # noqa: SLF001
    return graph.reverse(), weights
