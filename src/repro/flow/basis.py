"""Spanning-tree bases of transportation problems.

The sparse network simplex (:mod:`repro.flow.network_simplex`) and the
hybrid tier's restricted exact solve maintain a *basis*: a set of
``n + m - 1`` cells whose bipartite graph (suppliers 0..n-1, consumers
n..n+m-1) forms a spanning tree. This module holds the representation and
its validation helper:

* :class:`TransportBasis` — an immutable cell set, cheap to cache
  (``nbytes`` is exact, so :class:`repro.snd.cache.CacheManager` can
  budget it) and cheap to remap: entries may be *local indices* of one
  instance or *stable labels* (global node ids), which is how a basis
  survives the trip between two different reduced SND instances.
* :func:`validate_basis` — spanning-tree check used by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TransportBasis", "validate_basis"]


@dataclass(frozen=True)
class TransportBasis:
    """An immutable set of basis cells ``(rows[k], cols[k])``.

    The coordinate space is caller-defined: solvers exchange *local
    indices* into one instance's supplier/consumer axes, while the SND
    basis cache stores *labels* (global graph-node ids, with bank bins
    encoded as negative labels) so a basis can be re-anchored onto the
    reduced instance of a *different* — but temporally nearby — state
    pair.
    """

    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.int64))
        cols = np.ascontiguousarray(np.asarray(self.cols, dtype=np.int64))
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"basis rows/cols must be equal-length vectors, got "
                f"{rows.shape} and {cols.shape}"
            )
        rows.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def nbytes(self) -> int:
        """Exact retained payload bytes (cache accounting)."""
        return int(self.rows.nbytes + self.cols.nbytes)

    def transpose(self) -> "TransportBasis":
        """The basis of the role-swapped instance (suppliers <-> consumers).

        A term ``EMD*(q, p)`` reduces to the transpose of the instance of
        ``EMD*(p, q)`` — same node sets with roles swapped — so the stored
        tree transposed is a structurally valid warm start for the
        reversed term.
        """
        return TransportBasis(rows=self.cols, cols=self.rows)

    def cells(self) -> list[tuple[int, int]]:
        """The cells as a plain list of ``(row, col)`` tuples."""
        return list(zip(self.rows.tolist(), self.cols.tolist()))


def validate_basis(cells, n: int, m: int) -> bool:
    """``True`` iff *cells* form a spanning tree of the ``n x m`` instance.

    Exactly ``n + m - 1`` distinct in-range cells, connected and acyclic
    over the bipartite node set — the invariant every simplex pivot
    preserves and every exported basis must satisfy.
    """
    cells = list(cells)
    if len(cells) != n + m - 1:
        return False
    if len(set(cells)) != len(cells):
        return False
    parent = list(range(n + m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in cells:
        if not (0 <= i < n and 0 <= j < m):
            return False
        ri, rj = find(i), find(n + j)
        if ri == rj:
            return False  # cycle
        parent[ri] = rj
    roots = {find(x) for x in range(n + m)}
    return len(roots) == 1
