"""Shortest paths over :class:`~repro.graph.digraph.DiGraph`.

:func:`multi_source_distances` is the one production backend: it hands all
sources to the compiled :func:`scipy.sparse.csgraph.dijkstra` in one call.
The ground-distance builder of :mod:`repro.snd` calls it once per term —
one single-source run per changed user (Theorem 4).

:func:`dijkstra` / :func:`dijkstra_multi` are a pure-Python reference
(stdlib :mod:`heapq`) that the tests compare the scipy backend against.
The paper states Theorem 4's bound for a radix/Fibonacci heap; this
deviation is recorded in ``docs/design.md`` §6.
"""

from repro.shortestpath.dijkstra import (
    dijkstra,
    dijkstra_multi,
    multi_source_distances,
)

__all__ = ["dijkstra", "dijkstra_multi", "multi_source_distances"]
