"""Seed-stable inputs and the serve schedule's fixed slot counts."""

import numpy as np
import pytest

from sndbench import inputs

SMALL = inputs.SeriesSpec(
    n_nodes=600, n_states=6, n_seeds=20, n_delta=6, n_delta_tol=2, candidate_fraction=0.3
)


def test_graph_and_series_are_a_function_of_the_seed():
    g1, g2 = inputs.graph_for(600, 5), inputs.graph_for(600, 5)
    assert np.array_equal(g1.indptr, g2.indptr) and np.array_equal(g1.indices, g2.indices)
    s1, s2 = inputs.held_series(g1, SMALL, 5), inputs.held_series(g2, SMALL, 5)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(s1, s2))
    other = inputs.held_series(g1, SMALL, 6)
    assert any(not np.array_equal(a.values, b.values) for a, b in zip(s1, other))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_series_holds_n_delta_in_its_band(seed):
    graph = inputs.graph_for(600, seed)
    series = inputs.held_series(graph, SMALL, seed)
    deltas = [inputs.n_delta(a, b) for a, b in series.transitions()]
    assert len(deltas) == SMALL.n_states - 1
    assert all(abs(d - SMALL.n_delta) <= SMALL.n_delta_tol for d in deltas)


def test_corpus_states_have_a_fixed_adopter_count():
    graph = inputs.graph_for(inputs.CORPUS_NODES, 4)
    first = inputs.corpus_states(graph, 4, 0)
    again = inputs.corpus_states(graph, 4, 0)
    assert [s.n_active for s in first] == [inputs.CORPUS_ADOPTERS] * inputs.CORPUS_STATES
    assert all(np.array_equal(a.values, b.values) for a, b in zip(first, again))
    warmup = inputs.corpus_states(graph, 4, 1, count=inputs.WARMUP_STATES)
    fingerprints = {s.values.tobytes() for s in first}
    assert not fingerprints & {s.values.tobytes() for s in warmup}


def _schedule(seed, n=400):
    pairs = inputs.near_diagonal_pairs(300, seed)
    return inputs.serve_schedule(pairs[8:], pairs[:8], n, 70.0, seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_serve_slot_counts_do_not_depend_on_the_seed(seed):
    requests, _ = _schedule(seed)
    # 400 slots = 20 blocks of 6 misses, 11 hits, 3 duplicates.
    assert inputs.slot_counts(requests) == {"M": 120, "H": 220, "D": 60}
    assert [r.kind for r in requests] == [r.kind for r in _schedule(1)[0]]


def test_serve_schedule_shapes_hits_misses_and_duplicates():
    requests, rest = _schedule(9)
    misses = [(r.i, r.j) for r in requests if r.kind == "M"]
    assert len(set(misses)) == len(misses)  # every miss is an unseen pair
    assert all(j - i in inputs.SERVE_LAGS for i, j in misses)
    block = len(inputs.SERVE_BLOCK)
    for pos, r in enumerate(requests):
        if r.kind == "D":  # duplicates the M just before it, same send time
            prev = requests[pos - 1]
            assert prev.kind == "M" and (prev.i, prev.j) == (r.i, r.j) and prev.due == r.due
        if r.kind == "H" and pos >= 2 * block:
            # Repeats a miss of the block two back: answered long before.
            start = (pos // block - 2) * block
            earlier = {(q.i, q.j) for q in requests[start : start + block] if q.kind == "M"}
            assert (r.i, r.j) in earlier
    assert not set(misses) & set(rest)
    assert requests == _schedule(9)[0]
