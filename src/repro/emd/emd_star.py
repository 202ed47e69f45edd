"""EMD* — the paper's generalisation of EMD with *local* bank bins (§4).

Instead of one global bank (EMDα) or a structure-blind penalty (EMD̂),
EMD* attaches ``N_b`` bank bins to every cluster of histogram bins. The mass
mismatch is split over the lighter histogram's banks proportionally to each
cluster's mass, so moving "extra" mass is cheap next to where mass already
lives and expensive far from it — the property Fig. 5 demonstrates.

Metricity (Theorem 3) requires each bank's ground distance γ to satisfy
``γ^(i)_j ≥ ½ · max intra-cluster distance`` — :func:`metric_gammas` builds
exactly-threshold values from a dense ground distance.

Bank-capacity formula: the paper's printed expression divides cluster mass
by the mismatch, which contradicts the stated requirements (proportionality
+ mass evening). We implement the stated intent:
``P^(i) = (cluster_mass / total_mass) · Δ`` split uniformly over the
cluster's banks, falling back to size-proportional allocation when the
lighter histogram is empty (see docs/design.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.emd.base import emd_raw_cost
from repro.exceptions import ClusteringError, HistogramError, ValidationError
from repro.graph.clustering import validate_partition
from repro.utils.validation import check_nonnegative, check_vector

__all__ = ["EmdStarExtension", "build_extension", "emd_star", "metric_gammas", "cluster_distance_matrix"]


def _normalise_clusters(clusters, n: int) -> list[np.ndarray]:
    if clusters is None:
        return [np.arange(n, dtype=np.int64)]
    out = [np.asarray(c, dtype=np.int64) for c in clusters]
    validate_partition(out, n)
    return out


def _normalise_gammas(gammas, n_clusters: int, n_banks: int) -> list[np.ndarray]:
    """Accept a scalar, per-cluster sequence, or per-cluster-per-bank arrays."""
    if np.isscalar(gammas):
        g = float(gammas)
        if g < 0:
            raise ValidationError(f"gamma must be non-negative, got {g}")
        return [np.full(n_banks, g) for _ in range(n_clusters)]
    gam_list = list(gammas)
    if len(gam_list) != n_clusters:
        raise ValidationError(
            f"need gammas for {n_clusters} clusters, got {len(gam_list)}"
        )
    out = []
    for ci, g in enumerate(gam_list):
        arr = np.atleast_1d(np.asarray(g, dtype=np.float64))
        if arr.shape[0] == 1 and n_banks > 1:
            arr = np.full(n_banks, float(arr[0]))
        if arr.shape[0] != n_banks:
            raise ValidationError(
                f"cluster {ci}: expected {n_banks} bank gammas, got {arr.shape[0]}"
            )
        check_nonnegative(arr, f"gammas[{ci}]")
        out.append(arr)
    return out


def metric_gammas(
    costs: np.ndarray, clusters, *, n_banks: int = 1, scale: float = 1.0
) -> list[np.ndarray]:
    """Per-cluster bank distances at the Theorem 3 metricity threshold.

    ``γ^(i) = scale · ½ · max_{p,q ∈ C_i} D_pq`` — with ``scale >= 1`` the
    metric guarantee holds; smaller scales trade metricity for sensitivity.
    """
    costs = np.asarray(costs, dtype=np.float64)
    gammas = []
    for members in clusters:
        members = np.asarray(members, dtype=np.int64)
        block = costs[np.ix_(members, members)]
        finite = block[np.isfinite(block)]
        diameter = float(finite.max()) if finite.size else 0.0
        gammas.append(np.full(n_banks, scale * 0.5 * diameter))
    return gammas


def cluster_distance_matrix(costs: np.ndarray, clusters: list[np.ndarray]) -> np.ndarray:
    """Inter-cluster distances ``d_ij = min_{p∈C_i, q∈C_j} D_pq`` (§4).

    The diagonal is zero (a cluster contains its own bins, and D_pp = 0 for
    any semimetric D).
    """
    nc = len(clusters)
    d = np.zeros((nc, nc))
    for i in range(nc):
        for j in range(nc):
            if i == j:
                continue
            block = costs[np.ix_(clusters[i], clusters[j])]
            d[i, j] = float(block.min()) if block.size else np.inf
    return d


@dataclass(frozen=True)
class EmdStarExtension:
    """The extended transportation instance underlying an EMD* evaluation.

    ``p_ext``/``q_ext`` have layout ``[original bins | C_1 banks | ... |
    C_Nc banks]``; ``d_ext`` is the extended ground distance D̃ of Eq. (4).
    """

    p_ext: np.ndarray
    q_ext: np.ndarray
    d_ext: np.ndarray
    n_original: int
    n_banks: int
    clusters: tuple
    gammas: tuple

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_mass(self) -> float:
        """Common total mass of both extended histograms (= max(ΣP, ΣQ))."""
        return float(self.p_ext.sum())


def _bank_capacities(
    histogram: np.ndarray,
    clusters: list[np.ndarray],
    n_banks: int,
    deficit: float,
    bank_shares: str,
) -> np.ndarray:
    """Distribute *deficit* over the histogram's banks.

    ``bank_shares="mass"`` follows the paper's stated intent (capacity
    proportional to the cluster's mass in the lighter histogram; size
    fallback when it is empty). ``"size"`` uses the fixed size-proportional
    profile, which is partner-independent and therefore provably metric
    (see the module docstring / docs/design.md §1).
    """
    nc = len(clusters)
    caps = np.zeros(nc * n_banks)
    if deficit <= 0:
        return caps
    sizes = np.array([len(c) for c in clusters], dtype=np.float64)
    if bank_shares == "size":
        shares = sizes / sizes.sum()
    elif bank_shares == "mass":
        cluster_mass = np.array([float(histogram[c].sum()) for c in clusters])
        total = cluster_mass.sum()
        if total > 0:
            shares = cluster_mass / total
        else:
            # Empty lighter histogram: fall back to size-proportional shares.
            shares = sizes / sizes.sum()
    else:
        raise ValidationError(
            f"bank_shares must be 'mass' or 'size', got {bank_shares!r}"
        )
    for ci in range(nc):
        caps[ci * n_banks : (ci + 1) * n_banks] = shares[ci] * deficit / n_banks
    return caps


def build_extension(
    p,
    q,
    costs,
    clusters=None,
    gammas=None,
    *,
    n_banks: int = 1,
    bank_metric: str = "nearest",
    bank_shares: str = "mass",
) -> EmdStarExtension:
    """Construct the EMD* extended histograms and ground distance (Eq. 4).

    Parameters
    ----------
    p, q:
        Histograms over the same ``n`` bins.
    costs:
        ``(n, n)`` ground distance.
    clusters:
        Partition of ``0..n-1`` as a list of index arrays; defaults to one
        global cluster (recovering EMDα behaviour).
    gammas:
        Bank ground distances: a scalar, one value per cluster, or an
        ``n_banks`` array per cluster. Defaults to the Theorem 3 metricity
        threshold computed from *costs*.
    bank_metric:
        How a bin prices travel to/from another cluster's banks:

        * ``"nearest"`` (default) — ``γ + min over the bank cluster's
          members of the bin-to-member distance``. This refines the paper's
          Eq. 4: it keeps the extended ground distance a semimetric through
          original bins (the cluster-level variant can violate the triangle
          inequality across clusters, a gap in the Thm. 3/Lemma 2 proofs;
          see docs/design.md §1), which is what makes the Theorem 4 reduction exact.
        * ``"cluster"`` — the literal Eq. 4:
          ``γ + d[cluster(bin), cluster(bank)]``.
    bank_shares:
        How the mass mismatch is split over the lighter histogram's banks:

        * ``"mass"`` (default) — proportional to the cluster's mass, the
          paper's stated intent. Because the capacity profile then depends
          on the comparison *pair*, the triangle inequality can fail across
          three histograms (a counterexample lives in the test suite) —
          Theorem 3's proof implicitly assumes partner-independent
          extensions.
        * ``"size"`` — proportional to cluster size: a fixed profile, for
          which the Theorem 3 metricity argument goes through rigorously.
    """
    p = check_nonnegative(check_vector(p, "P"), "P")
    q = check_nonnegative(check_vector(q, "Q"), "Q")
    n = p.shape[0]
    if q.shape[0] != n:
        raise HistogramError("EMD* requires histograms over the same bin set")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (n, n):
        raise HistogramError(f"ground distance must be ({n}, {n}), got {costs.shape}")
    if n_banks < 1:
        raise ValidationError(f"n_banks must be >= 1, got {n_banks}")

    if bank_metric not in ("nearest", "cluster"):
        raise ValidationError(
            f"bank_metric must be 'nearest' or 'cluster', got {bank_metric!r}"
        )
    cluster_list = _normalise_clusters(clusters, n)
    nc = len(cluster_list)
    if gammas is None:
        gamma_list = metric_gammas(costs, cluster_list, n_banks=n_banks)
    else:
        gamma_list = _normalise_gammas(gammas, nc, n_banks)

    total_p, total_q = float(p.sum()), float(q.sum())
    delta = abs(total_p - total_q)
    p_banks = _bank_capacities(
        p, cluster_list, n_banks, delta if total_p < total_q else 0.0, bank_shares
    )
    q_banks = _bank_capacities(
        q, cluster_list, n_banks, delta if total_q < total_p else 0.0, bank_shares
    )

    p_ext = np.concatenate([p, p_banks])
    q_ext = np.concatenate([q, q_banks])

    # --- extended ground distance (Eq. 4, assembled blockwise) --- #
    n_ext = n + nc * n_banks
    d_ext = np.zeros((n_ext, n_ext))
    d_ext[:n, :n] = costs

    cluster_of = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(cluster_list):
        cluster_of[members] = ci
    inter = cluster_distance_matrix(costs, cluster_list)
    gamma_flat = np.concatenate(gamma_list)  # length nc * n_banks
    bank_cluster = np.repeat(np.arange(nc), n_banks)

    if bank_metric == "cluster":
        # bin (in cluster a) <-> bank (of cluster c): gamma_bank + d[a, c]
        bin_bank = gamma_flat[None, :] + inter[cluster_of][:, bank_cluster]
        d_ext[:n, n:] = bin_bank
        d_ext[n:, :n] = bin_bank.T
    else:
        # "nearest": gamma_bank + distance to/from the closest member of the
        # bank's cluster — semimetric-preserving refinement of Eq. 4.
        to_cluster = np.stack(
            [costs[:, members].min(axis=1) for members in cluster_list], axis=1
        )  # (n, nc): min_q∈Cc D[v, q]
        from_cluster = np.stack(
            [costs[members, :].min(axis=0) for members in cluster_list], axis=0
        )  # (nc, n): min_p∈Cc D[p, v]
        d_ext[:n, n:] = gamma_flat[None, :] + to_cluster[:, bank_cluster]
        d_ext[n:, :n] = gamma_flat[:, None] + from_cluster[bank_cluster, :]

    # bank <-> bank: gamma_i + gamma_j + d[cluster_i, cluster_j]; self = 0.
    bank_bank = (
        gamma_flat[:, None]
        + gamma_flat[None, :]
        + inter[np.ix_(bank_cluster, bank_cluster)]
    )
    np.fill_diagonal(bank_bank, 0.0)
    d_ext[n:, n:] = bank_bank

    return EmdStarExtension(
        p_ext=p_ext,
        q_ext=q_ext,
        d_ext=d_ext,
        n_original=n,
        n_banks=n_banks,
        clusters=tuple(np.asarray(c) for c in cluster_list),
        gammas=tuple(gamma_list),
    )


def emd_star(
    p,
    q,
    costs,
    clusters=None,
    gammas=None,
    *,
    n_banks: int = 1,
    bank_metric: str = "nearest",
    bank_shares: str = "mass",
    method: str = "ssp",
) -> float:
    """Compute EMD* (Eq. 4): ``EMD(P̃, Q̃, D̃) · max(ΣP, ΣQ)``.

    Since the extension balances both histograms at ``max(ΣP, ΣQ)`` total
    mass, the result equals the raw optimal cost of the extended
    transportation problem.
    """
    ext = build_extension(
        p,
        q,
        costs,
        clusters,
        gammas,
        n_banks=n_banks,
        bank_metric=bank_metric,
        bank_shares=bank_shares,
    )
    if ext.total_mass <= 0.0:
        return 0.0
    return emd_raw_cost(ext.p_ext, ext.q_ext, ext.d_ext, method=method)
