"""Seed-stable inputs for every workload, built with the program's own
generators and written to an :class:`~repro.store.ExperimentStore`
before any timing.

Work per pair must not drift with ``--seed``, so the §6.1 process is
held to a fixed number of changed users per transition (``n_delta``,
within ``n_delta_tol``) by redrawing a transition until it lands in the
band, and every corpus state has exactly the same adopter count.  The
serve request schedule has fixed slot positions; the seed only picks
which pairs fill them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Graph shape shared by every workload (the CLI generator's graph).
EXPONENT = -2.3
K_MIN = 2
N_CLUSTERS = 24
SOLVER = "auto"
BANK_SEED = 0
GRAPH_NAME = "bench"

#: One serve schedule block: M = unseen near-diagonal pair (cache miss),
#: H = repeat of a pair answered at least two blocks earlier (cache hit),
#: D = duplicate of the newest M, sent at the same instant so that it is
#: coalesced onto the M's solve while it runs.  The M slots are evenly
#: spaced (3 or 4 slots apart, across block boundaries too): two misses
#: a solve apart would make the latency tail hinge on whether one solve
#: happens to finish before the next miss arrives.
SERVE_BLOCK = "MDHMHHHMDHMHHMDHHMHH"
SERVE_LAGS = (1, 2)


@dataclass(frozen=True)
class SeriesSpec:
    n_nodes: int
    n_states: int
    n_seeds: int
    n_delta: int
    n_delta_tol: int
    p_nbr: float = 0.10
    p_ext: float = 0.01
    candidate_fraction: float = 0.05


SWEEP = SeriesSpec(n_nodes=20_000, n_states=9, n_seeds=100, n_delta=16, n_delta_tol=2)
SERVE = SeriesSpec(
    n_nodes=10_000, n_states=400, n_seeds=100, n_delta=2, n_delta_tol=0,
    candidate_fraction=0.02,
)
CORPUS_NODES = 2_000
CORPUS_STATES = 12
CORPUS_ADOPTERS = 120  # 6% of the users active in each state
#: Share of a corpus state's adopters holding the positive opinion.  All
#: of them: each pair then reduces to one two-sided 120 x 120 transport
#: problem, where a 50/50 split gives two 60 x 60 ones, and the transport
#: solve, not the Dijkstra rows, is the largest layer (see the README).
CORPUS_BALANCE = 1.0
WARMUP_STATES = 4  # states of the pool warm-up call, shared with no input


def graph_for(n_nodes: int, seed: int):
    from repro.graph.generators import powerlaw_configuration_graph

    return powerlaw_configuration_graph(
        n_nodes, EXPONENT, k_min=K_MIN, seed=np.random.default_rng([seed, n_nodes])
    )


def held_series(graph, spec: SeriesSpec, seed: int):
    """A §6.1 series whose every transition changes ``n_delta ± n_delta_tol``
    users: a draw outside the band is discarded and redrawn from the same
    seeded stream, so the series is a pure function of *seed*."""
    from repro.opinions.dynamics import evolve_state, seed_state
    from repro.opinions.state import StateSeries

    rng = np.random.default_rng([seed, spec.n_nodes, spec.n_states])
    states = [seed_state(graph, spec.n_seeds, seed=rng)]
    low, high = spec.n_delta - spec.n_delta_tol, spec.n_delta + spec.n_delta_tol
    draws = 0
    while len(states) < spec.n_states:
        draws += 1
        if draws > 200 * spec.n_states:
            raise RuntimeError(f"could not hold n_delta in [{low}, {high}]")
        nxt = evolve_state(
            graph,
            states[-1],
            p_nbr=spec.p_nbr,
            p_ext=spec.p_ext,
            candidate_fraction=spec.candidate_fraction,
            seed=rng,
        )
        if low <= n_delta(states[-1], nxt) <= high:
            states.append(nxt)
    return StateSeries(states)


def n_delta(a, b) -> int:
    return int(np.count_nonzero(a.values != b.values))


def corpus_states(graph, seed: int, index: int, count: int = CORPUS_STATES):
    """*count* independently seeded states with exactly
    :data:`CORPUS_ADOPTERS` adopters each, split by :data:`CORPUS_BALANCE`."""
    from repro.opinions.dynamics import seed_state

    return [
        seed_state(
            graph,
            CORPUS_ADOPTERS,
            balance=CORPUS_BALANCE,
            seed=np.random.default_rng([seed, index, k]),
        )
        for k in range(count)
    ]


def write_store(path, graph, named) -> None:
    """Write the graph and each named state list to a fresh store at *path*."""
    from repro.opinions.state import StateSeries
    from repro.store import ExperimentStore

    with ExperimentStore(path) as store:
        store.save_graph(GRAPH_NAME, graph)
        for name, states in named.items():
            store.save_series(GRAPH_NAME, name, StateSeries(list(states)))


# --------------------------------------------------------------------- #
# Serve schedule
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Request:
    slot: int
    kind: str  # "M", "H" or "D"
    i: int
    j: int
    #: Offset of the scheduled send from the phase start (open loop only).
    due: float


def near_diagonal_pairs(n_states: int, seed: int) -> list[tuple[int, int]]:
    """Every ``(i, i + lag)`` pair with ``lag`` in :data:`SERVE_LAGS`, in a
    seeded order."""
    pairs = [(i, i + lag) for lag in SERVE_LAGS for i in range(n_states - lag)]
    order = np.random.default_rng([seed, 7]).permutation(len(pairs))
    return [pairs[k] for k in order]


def serve_schedule(
    fresh: list[tuple[int, int]],
    warm: list[tuple[int, int]],
    n_requests: int,
    rate: float,
    seed: int,
) -> tuple[list[Request], list[tuple[int, int]]]:
    """Requests laid out in repeated :data:`SERVE_BLOCK` slots.

    M slots take the next pair of *fresh*; H slots repeat an M pair of the
    block two back (or a *warm* pair in the first two blocks), so it was
    answered long before; D slots repeat the newest M pair and share its
    send time.  Slot kinds do not depend on *seed*; only the choice of
    repeated pair does.  Returns the requests and the unused fresh pairs.
    """
    rng = np.random.default_rng([seed, 11])
    fresh_iter = iter(fresh)
    requests: list[Request] = []
    block_misses: list[list[tuple[int, int]]] = []
    newest = None
    newest_due = 0.0
    for slot in range(n_requests):
        block, pos = divmod(slot, len(SERVE_BLOCK))
        if pos == 0:
            block_misses.append([])
        kind = SERVE_BLOCK[pos]
        due = slot / rate
        if kind == "M":
            try:
                pair = next(fresh_iter)
            except StopIteration:
                raise ValueError("not enough fresh pairs for the schedule") from None
            block_misses[-1].append(pair)
            newest, newest_due = pair, due
        elif kind == "D":
            pair, due = newest, newest_due
        else:
            pool = block_misses[block - 2] if block >= 2 else warm
            pair = pool[int(rng.integers(len(pool)))]
        requests.append(Request(slot, kind, pair[0], pair[1], due))
    return requests, list(fresh_iter)


def slot_counts(requests) -> dict[str, int]:
    counts = {"M": 0, "H": 0, "D": 0}
    for r in requests:
        counts[r.kind] += 1
    return counts
