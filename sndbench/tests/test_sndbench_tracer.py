"""The tracer: wall-time split, install/restore, the codebase's traps,
and HTTP request matching."""

import importlib
import sys
import types

import numpy as np
import pytest

from sndbench import layers
from sndbench.tracer import Span, Tracer, layer_split, match_requests, resolve


def _span(layer, thread, start, end, parent=None, **info):
    return Span(layer, layer, thread, start, end, parent=parent, info=info)


def test_layer_split_sums_to_the_wall_time():
    a = _span("a", 1, 0.0, 10.0)
    b = _span("b", 1, 2.0, 5.0, parent=a)
    c = _span("c", 1, 6.0, 7.0, parent=a)
    d = _span("d", 2, 4.0, 12.0)
    split = layer_split([a, b, c, d], 0.0, 15.0)
    assert split["by_layer"] == pytest.approx({"a": 4.0, "b": 2.5, "c": 0.5, "d": 5.0})
    assert split["other"] == pytest.approx(3.0)
    assert sum(split["by_layer"].values()) + split["other"] == pytest.approx(split["wall"])


def test_layer_split_clips_to_the_window():
    spans = [_span("a", 1, 0.0, 10.0), _span("b", 1, 1.0, 9.0), _span("c", 3, 8.0, 20.0)]
    split = layer_split(spans, 5.0, 12.0)
    assert split["by_layer"] == pytest.approx({"b": 3.5, "a": 0.5, "c": 3.0})
    assert split["other"] == pytest.approx(0.0)
    assert split["wall"] == pytest.approx(7.0)


def _raw(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_then_restore_leaves_every_attribute_identical():
    sites = [resolve(site) for p in layers.WRAP_POINTS for site in p.sites]
    before = [_raw(owner, attr) for owner, attr in sites]
    tracer = Tracer()
    tracer.install(layers.WRAP_POINTS)
    try:
        during = [_raw(owner, attr) for owner, attr in sites]
        assert all(now is not orig for now, orig in zip(during, before))
    finally:
        tracer.restore()
    after = [_raw(owner, attr) for owner, attr in sites]
    assert all(now is orig for now, orig in zip(after, before))


def test_module_is_resolved_past_the_reexported_function():
    import repro.shortestpath

    # The package attribute is the re-exported function, not the module...
    assert not isinstance(repro.shortestpath.dijkstra, types.ModuleType)
    owner, attr = resolve("repro.shortestpath.dijkstra:multi_source_distances")
    # ...so the tracer must take the module from importlib.
    assert owner is sys.modules["repro.shortestpath.dijkstra"]
    assert attr == "multi_source_distances"


def _small_snd(solver):
    from repro.graph.generators import erdos_renyi_graph
    from repro.opinions.state import NetworkState
    from repro.snd import SND

    graph = erdos_renyi_graph(40, 0.15, seed=3)
    snd = SND(graph, n_clusters=3, seed=0, solver=solver)
    a = NetworkState.from_active_sets(40, positive=[0, 1, 2, 3], negative=[10, 11])
    b = NetworkState.from_active_sets(40, positive=[0, 5, 6], negative=[10, 12, 13])
    return snd, a, b


def test_fast_bindings_are_rebound_and_values_unchanged():
    dijkstra_module = importlib.import_module("repro.shortestpath.dijkstra")
    fast = importlib.import_module("repro.snd.fast")
    flow = importlib.import_module("repro.flow")
    originals = {
        "multi_source_distances": fast.multi_source_distances,
        "solve_mcf_ssp": fast.solve_mcf_ssp,
        "solve_mcf_cost_scaling": fast.solve_mcf_cost_scaling,
    }
    snd, a, b = _small_snd("ssp")
    untraced = snd.distance(a, b)
    tracer = Tracer()
    tracer.install(layers.WRAP_POINTS)
    try:
        assert fast.multi_source_distances is dijkstra_module.multi_source_distances
        assert fast.solve_mcf_ssp is flow.solve_mcf_ssp
        assert fast.solve_mcf_cost_scaling is flow.solve_mcf_cost_scaling
        for name, original in originals.items():
            assert getattr(fast, name) is not original
        traced = snd.distance(a, b)
    finally:
        tracer.restore()
    assert traced == untraced
    names = {s.name for s in tracer.spans}
    # SND.evaluate has no row cache, so fast's own bindings carry every call.
    assert {"term", "multi_source_distances", "solve_mcf_ssp"} <= names
    counts = layers.span_counts(tracer.spans)
    assert counts["term.calls"] == 4
    assert counts["flow.solves"] == counts["flow.solves.ssp"] > 0
    assert counts["dijkstra.sources"] > 0


def test_row_cache_spans_nest_their_dijkstra_calls():
    from repro.snd import CacheManager, SNDEngine

    snd, a, b = _small_snd("auto")
    tracer = Tracer()
    tracer.install(layers.WRAP_POINTS)
    try:
        SNDEngine(snd, jobs=None, caches=CacheManager()).distance(a, b)
    finally:
        tracer.restore()
    inner = [s for s in tracer.spans if s.name == "multi_source_distances"]
    assert inner and all(s.parent is not None and s.parent.name == "rows" for s in inner)
    assert 0.0 <= layers.span_counts(tracer.spans)["rows.hit_ratio"] <= 1.0


def test_http_requests_are_matched_by_pair_and_interval():
    served = [
        _span("service", 7, 1.10, 1.30, i=0, j=1),  # solves the first (0, 1)
        _span("service", 8, 1.12, 1.31, i=0, j=1),  # its coalesced duplicate
        _span("service", 7, 2.00, 2.01, i=3, j=4),
    ]
    records = [
        {"i": 0, "j": 1, "sent": 1.09, "done": 1.32},
        {"i": 0, "j": 1, "sent": 1.11, "done": 1.33},
        {"i": 3, "j": 4, "sent": 1.99, "done": 2.02},
        {"i": 3, "j": 4, "sent": 3.00, "done": 3.05},  # no server span
    ]
    matched, unmatched = match_requests(records, served)
    assert len(matched) == 3 and unmatched == [records[3]]
    for rec, span in matched:
        assert (rec["i"], rec["j"]) == (span.info["i"], span.info["j"])
        assert rec["sent"] <= span.start and span.end <= rec["done"]
    assert len({id(span) for _, span in matched}) == 3
    overhead = [(r["done"] - r["sent"]) - s.duration for r, s in matched]
    assert all(x >= 0 for x in overhead) and np.isclose(min(overhead), 0.02)
