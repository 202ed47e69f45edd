"""Simulated political-Twitter dataset (the Fig. 9 substitute).

The paper's Twitter data (10k users, ~130 follower edges each, quarterly
states May'08-Aug'11, from Macropol et al.) is not publicly available. This
module generates a synthetic stand-in that preserves everything the
experiment consumes:

* a directed follower graph with scale-free in-degrees and two latent
  political communities (homophilous but not perfectly so);
* a quarterly series of opinion states evolving by the neighbor-voting
  process, with ground-truth events injected per
  :data:`repro.datasets.events.DEFAULT_TIMELINE` —
  **consensus** events add activation volume through normal propagation
  (all distance measures should spike), while **polarizing** events flip
  and activate users along community lines at near-constant volume (only
  propagation-aware measures should spike);
* a Google-Trends-like "search interest" series spiking at the events.

See docs/design.md §2 for why this substitution preserves the experiment's
discriminative structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.events import DEFAULT_TIMELINE, QUARTER_LABELS, Event
from repro.graph.digraph import DiGraph
from repro.opinions.dynamics import evolve_state, seed_state
from repro.opinions.state import NEUTRAL, NetworkState, StateSeries
from repro.utils.rng import as_rng

__all__ = ["TwitterDataset", "simulated_twitter_dataset"]


@dataclass
class TwitterDataset:
    """The simulated dataset bundle consumed by the Fig. 9 harness."""

    graph: DiGraph
    series: StateSeries
    quarters: tuple[str, ...]
    events: tuple[Event, ...]
    interest: np.ndarray
    communities: np.ndarray

    @property
    def event_quarters(self) -> dict[int, Event]:
        return {e.quarter: e for e in self.events}


def _homophilous_follower_graph(
    n: int, avg_degree: int, homophily: float, rng: np.random.Generator
) -> tuple[DiGraph, np.ndarray]:
    """Directed preferential-attachment follower graph with two leanings.

    Each user picks ``avg_degree / 2`` accounts to follow, preferring
    popular accounts (preferential attachment) of her own leaning with
    probability *homophily*. Edge direction is influencer -> follower
    (influence flows along it).
    """
    communities = rng.integers(0, 2, size=n)
    follows_per_user = max(1, avg_degree // 2)
    popularity = np.ones(n)
    edges: list[tuple[int, int]] = []
    by_side = [np.flatnonzero(communities == side) for side in (0, 1)]
    for u in range(n):
        own = by_side[communities[u]]
        other = by_side[1 - communities[u]]
        for _ in range(follows_per_user):
            pool = own if rng.random() < homophily else other
            if pool.size == 0:
                pool = np.arange(n)
            weights = popularity[pool]
            target = int(pool[rng.choice(pool.size, p=weights / weights.sum())])
            if target != u:
                edges.append((target, u))  # target influences follower u
                popularity[target] += 1.0
    return DiGraph(n, edges), communities


def _apply_consensus_event(
    graph: DiGraph,
    state: NetworkState,
    intensity: float,
    volume: int,
    rng: np.random.Generator,
) -> NetworkState:
    """Volume shock: many users activate *through normal propagation*
    (several neighbor-voting waves), so placement stays structure-driven."""
    boosted = state
    waves = 1 + int(round(2 * intensity))
    for _ in range(waves):
        boosted = evolve_state(
            graph, boosted, p_nbr=0.5 * intensity, p_ext=0.02, seed=rng,
            candidate_fraction=min(1.0, 3.0 * volume / max(1, graph.num_nodes)),
        )
    return boosted


def _apply_polarizing_event(
    graph: DiGraph,
    state: NetworkState,
    communities: np.ndarray,
    intensity: float,
    volume: int,
    rng: np.random.Generator,
) -> NetworkState:
    """Polarization shock: *volume* users activate along community lines
    (community 0 -> positive, community 1 -> negative), scattered within
    their side rather than propagated.

    Crucially this *replaces* (rather than adds to) the quarter's organic
    growth — the caller hands over the volume organic propagation would
    have produced — so activation counts stay on trend and only the
    *placement* of new opinions is abnormal. That is what makes polarizing
    events invisible to volume-driven measures and visible to SND (§6.2).
    """
    neutral = np.flatnonzero(state.values == NEUTRAL)
    k = min(int(round(volume * intensity)), neutral.size)
    if k == 0:
        return state
    chosen = rng.choice(neutral, size=k, replace=False)
    opinions = np.where(communities[chosen] == 0, 1, -1).astype(np.int8)
    return state.with_opinions(chosen, opinions)


def simulated_twitter_dataset(
    *,
    n_users: int | None = None,
    avg_degree: int | None = None,
    homophily: float = 0.7,
    n_quarters: int = len(QUARTER_LABELS),
    events: tuple[Event, ...] = DEFAULT_TIMELINE,
    seed: int = 2008,
) -> TwitterDataset:
    """Build the simulated political-Twitter dataset.

    Defaults scale with ``REPRO_SCALE``: 10k users / ~130 edges each at
    paper scale, 1.5k users / ~24 edges each in CI.
    """
    from repro.datasets.synthetic import paper_scale

    if n_users is None:
        n_users = 10_000 if paper_scale() else 1_500
    if avg_degree is None:
        avg_degree = 130 if paper_scale() else 24
    rng = as_rng(seed)
    graph, communities = _homophilous_follower_graph(
        n_users, avg_degree, homophily, rng
    )

    base_volume = max(10, n_users // 50)
    event_by_quarter = {e.quarter: e for e in events}

    states = [seed_state(graph, base_volume, seed=rng)]
    interest = [0.25 + 0.05 * rng.random()]
    organic_fraction = min(1.0, 2.0 * base_volume / n_users)
    for t in range(1, n_quarters):
        event = event_by_quarter.get(t)
        if event is not None and event.kind == "polarizing":
            # Measure what organic growth would have produced, then realise
            # (1 - intensity) of it organically and the rest as scattered
            # community-aligned activations: volume on trend, placement
            # anomalous.
            probe = evolve_state(
                graph, states[-1], p_nbr=0.10, p_ext=0.005,
                candidate_fraction=organic_fraction, seed=np.random.default_rng(
                    int(rng.integers(2**63))
                ),
            )
            organic_volume = max(1, probe.n_active - states[-1].n_active)
            nxt = evolve_state(
                graph, states[-1], p_nbr=0.10, p_ext=0.005,
                candidate_fraction=organic_fraction * (1.0 - event.intensity),
                seed=rng,
            )
            nxt = _apply_polarizing_event(
                graph, nxt, communities, event.intensity, organic_volume, rng
            )
        else:
            nxt = evolve_state(
                graph,
                states[-1],
                p_nbr=0.10,
                p_ext=0.005,
                candidate_fraction=organic_fraction,
                seed=rng,
            )
            if event is not None:  # consensus: volume shock on top
                nxt = _apply_consensus_event(
                    graph, nxt, event.intensity, base_volume, rng
                )
        if event is not None:
            interest.append(min(1.0, 0.3 + 0.7 * event.intensity + 0.05 * rng.random()))
        else:
            interest.append(0.2 + 0.1 * rng.random())
        states.append(nxt)

    labels = [QUARTER_LABELS[t % len(QUARTER_LABELS)] for t in range(n_quarters)]
    return TwitterDataset(
        graph=graph,
        series=StateSeries(states, labels=labels),
        quarters=tuple(labels),
        events=tuple(e for e in events if e.quarter < n_quarters),
        interest=np.asarray(interest),
        communities=communities,
    )
