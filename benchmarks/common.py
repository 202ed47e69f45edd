"""Shared helpers for the experiment benchmarks.

Every bench module exposes ``run_experiment(verbose=True) -> dict`` (the
full paper experiment at the configured scale, printing a paper-vs-measured
table) plus pytest-benchmark ``test_*`` functions timing its core
computation. Results are appended to ``benchmarks/results.sqlite`` so that
EXPERIMENTS.md rows are regenerable.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.snd import SND, allocate_banks
from repro.store import ExperimentStore

RESULTS_DB = Path(__file__).parent / "results.sqlite"


def results_store() -> ExperimentStore:
    """The shared on-disk results store."""
    return ExperimentStore(RESULTS_DB)


def record(experiment: str, metric: str, value: float, **params) -> None:
    """Append one scalar result row (best-effort; never fails the bench)."""
    try:
        with results_store() as store:
            store.record_result(experiment, metric, float(value), params=params)
    except Exception:  # pragma: no cover - diagnostics only
        pass


def experiment_snd(graph, *, n_clusters: int = 24, gamma_scale: float = 0.5, **kwargs) -> SND:
    """The SND configuration used by the §6 experiments.

    γ is sized from hop eccentricity at the typical model-agnostic edge
    cost (1 + ... ≈ per-hop cost 1..3) scaled down for sensitivity — the §4
    guidance that γ should match intra-cluster distances, not the worst
    case (see docs/design.md §1). Banks: one per cluster, balanced BFS clusters.
    """
    banks = allocate_banks(
        graph,
        n_clusters=min(n_clusters, max(2, graph.num_nodes // 8)),
        hop_cost=1.0,
        gamma_scale=gamma_scale,
        seed=0,
    )
    return SND(graph, banks=banks, **kwargs)


def print_table(title: str, headers: list[str], rows: list[list], *, verbose: bool = True) -> None:
    """Plain-text experiment table."""
    if not verbose:
        return
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def paper_scale() -> bool:
    return os.environ.get("REPRO_SCALE", "ci").lower() == "paper"


def series_scores(distances: np.ndarray, active_counts: np.ndarray, burn_in: int = 0):
    """Normalise a distance series and score it, dropping *burn_in*."""
    from repro.analysis.anomaly import anomaly_scores, normalize_distance_series

    norm = normalize_distance_series(distances, active_counts)
    scores = anomaly_scores(norm)
    return norm, scores[burn_in:]
