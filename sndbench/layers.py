"""Where each layer is traced, and the metrics the benchmark reports.

:data:`WRAP_POINTS` names the public functions at each layer boundary
(module names as in ``src/repro``).  :data:`END_TO_END` and
:data:`PER_LAYER` are the metric tables ``BENCHMARK.json`` is written
from; each per-layer row also records the end-to-end metric it should
move and the workloads where its layer does the most and the least work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sndbench.tracer import WrapPoint


def _sources_at(position: int):
    """Span info: how many Dijkstra sources the call was given."""

    def info(args, kwargs) -> dict:
        sources = kwargs["sources"] if "sources" in kwargs else args[position]
        return {"sources": int(np.atleast_1d(np.asarray(sources)).size)}

    return info


def _method(name):
    return lambda args, kwargs: {"method": name}


def _transport_method(args, kwargs) -> dict:
    return {"method": kwargs.get("method", "ssp")}


def _pair(args, kwargs) -> dict:
    return {"i": int(args[2]), "j": int(args[3])}


def _rows_written(args, kwargs) -> dict:
    return {"rows": len(args[2])}


STORE = "repro.store.database:ExperimentStore"
WRAP_POINTS = (
    # store: the sqlite ExperimentStore
    WrapPoint("store", "load_graph", (f"{STORE}.load_graph",)),
    WrapPoint("store", "load_series", (f"{STORE}.load_series",)),
    WrapPoint("store", "load_transitions", (f"{STORE}.load_transitions",)),
    WrapPoint("store", "save_transitions", (f"{STORE}.save_transitions",), _rows_written),
    # graph + snd.banks: bank allocation (SND binds it at import)
    WrapPoint(
        "banks",
        "allocate_banks",
        (
            "repro.snd.banks:allocate_banks",
            "repro.snd.snd:allocate_banks",
            "repro.snd:allocate_banks",
        ),
    ),
    # snd.ground: Eq. 2 cost builds and their GroundCostCache
    WrapPoint("ground", "cache", ("repro.snd.cache:GroundCostCache.edge_costs",)),
    WrapPoint("ground", "build", ("repro.snd.ground:GroundDistanceConfig.edge_costs",)),
    # shortestpath + snd.cache rows: Dijkstra rows and the DijkstraRowCache
    WrapPoint("dijkstra", "rows", ("repro.snd.cache:DijkstraRowCache.distance_rows",), _sources_at(2)),
    WrapPoint(
        "dijkstra",
        "multi_source_distances",
        (
            "repro.shortestpath.dijkstra:multi_source_distances",
            "repro.shortestpath:multi_source_distances",
            "repro.snd.fast:multi_source_distances",
        ),
        _sources_at(1),
    ),
    # flow: the transport solvers (fast imports solve_transportation and
    # the warm solvers at call time, the MCF solvers at import)
    WrapPoint("flow", "solve_transportation", ("repro.flow:solve_transportation",), _transport_method),
    WrapPoint(
        "flow",
        "network_simplex",
        (
            "repro.flow.network_simplex:solve_transportation_network_simplex",
            "repro.flow:solve_transportation_network_simplex",
        ),
        _method("network-simplex"),
    ),
    WrapPoint(
        "flow",
        "sinkhorn_hybrid",
        (
            "repro.flow.sinkhorn_hybrid:solve_transportation_sinkhorn_hybrid",
            "repro.flow:solve_transportation_sinkhorn_hybrid",
        ),
        _method("sinkhorn-hybrid"),
    ),
    WrapPoint(
        "flow",
        "solve_mcf_ssp",
        ("repro.flow.ssp:solve_mcf_ssp", "repro.flow:solve_mcf_ssp", "repro.snd.fast:solve_mcf_ssp"),
        _method("ssp"),
    ),
    WrapPoint(
        "flow",
        "solve_mcf_cost_scaling",
        (
            "repro.flow.cost_scaling:solve_mcf_cost_scaling",
            "repro.flow:solve_mcf_cost_scaling",
            "repro.snd.fast:solve_mcf_cost_scaling",
        ),
        _method("cost-scaling"),
    ),
    # snd.fast: one EMD* term (Lemma 1/2 reduction, folding, solver choice)
    WrapPoint("fast", "term", ("repro.snd.snd:SND.term",)),
    # snd.scheduler: admission, coalescing, transition-cache answers
    WrapPoint("scheduler", "evaluate", ("repro.snd.scheduler:PairScheduler.evaluate",)),
    WrapPoint("scheduler", "solve", ("repro.snd.scheduler:PairScheduler._solve",)),
    # snd.engine: entry points, the serial path, pool dispatch
    WrapPoint("engine", "evaluate_series", ("repro.snd.engine:SNDEngine.evaluate_series",)),
    WrapPoint("engine", "pairwise_matrix", ("repro.snd.engine:SNDEngine.pairwise_matrix",)),
    WrapPoint("engine", "solve_local", ("repro.snd.engine:SNDEngine._solve_pairs_local",)),
    WrapPoint("engine", "dispatch", ("repro.snd.engine:SNDEngine._dispatch_chunks",)),
    WrapPoint("engine", "ensure_pool", ("repro.snd.engine:SNDEngine._ensure_process_pool",)),
    # serve.service: the shard and its persistence flushes
    WrapPoint("service", "distance_pair", ("repro.serve.service:SNDService.distance_pair",), _pair),
    WrapPoint("service", "shard_init", ("repro.serve.service:EngineShard.__init__",)),
    WrapPoint("service", "ensure_snd", ("repro.serve.service:EngineShard.ensure_snd",)),
    WrapPoint("service", "flush", ("repro.serve.service:EngineShard.flush_transitions",)),
)

FLOW_METHODS = ("ssp", "simplex", "network-simplex", "lp", "sinkhorn-hybrid")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    most: str = ""
    least: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("pairs_per_s", "1/s", "higher"),
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p99_ms", "ms", "lower"),
    Metric("goodput_rps", "1/s", "higher"),
    Metric("capacity_rps", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_BATCH = "sweep-20k"
_CORPUS = "corpus-2k-pool"
_SERVE = "serve-10k"
PER_LAYER = (
    Metric("setup.store_load_s", "s", "lower", "setup_s", _SERVE, _CORPUS),
    Metric("setup.banks_s", "s", "lower", "setup_s", _BATCH, _CORPUS),
    Metric("setup.pool_start_s", "s", "lower", "setup_s", _CORPUS, _BATCH),
    Metric("ground.builds", "count", "lower", "pairs_per_s", _BATCH, _CORPUS),
    Metric("ground.hit_ratio", "ratio", "higher", "pairs_per_s", _BATCH, _CORPUS),
    Metric("ground.s", "s", "lower", "pairs_per_s", _BATCH, _CORPUS),
    Metric("dijkstra.sources", "count", "lower", "pairs_per_s", _BATCH, _SERVE),
    Metric("dijkstra.s", "s", "lower", "pairs_per_s", _BATCH, _SERVE),
    Metric("rows.hit_ratio", "ratio", "higher", "pairs_per_s", _BATCH, _SERVE),
    Metric("rows.evictions", "count", "lower", "pairs_per_s", _CORPUS, _SERVE),
    Metric("flow.solves", "count", "lower", "pairs_per_s", _CORPUS, _BATCH),
    Metric("flow.s", "s", "lower", "pairs_per_s", _CORPUS, _BATCH),
    *(
        Metric(f"flow.solves.{m}", "count", "lower", "pairs_per_s", _CORPUS, _BATCH)
        for m in FLOW_METHODS
    ),
    Metric("flow.pivots_per_solve.cold", "count", "lower", "pairs_per_s", _CORPUS, _BATCH),
    Metric("flow.pivots_per_solve.warm", "count", "lower", "pairs_per_s", _CORPUS, _BATCH),
    Metric("bases.hit_ratio", "ratio", "higher", "pairs_per_s", _CORPUS, _BATCH),
    Metric("term.calls", "count", "lower", "pairs_per_s", _CORPUS, _SERVE),
    Metric("fast.self_s", "s", "lower", "pairs_per_s", _CORPUS, _SERVE),
    Metric("scheduler.requested", "count", "higher", "capacity_rps", _SERVE, _BATCH),
    Metric("scheduler.cache_answered", "count", "higher", "latency_p50_ms", _SERVE, _BATCH),
    Metric("scheduler.coalesced", "count", "higher", "latency_p50_ms", _SERVE, _BATCH),
    Metric("scheduler.solved", "count", "lower", "capacity_rps", _SERVE, _BATCH),
    Metric("scheduler.rejected", "count", "lower", "goodput_rps", _SERVE, _BATCH),
    Metric("scheduler.peak_pending", "count", "lower", "latency_p99_ms", _SERVE, _BATCH),
    Metric("scheduler.self_s", "s", "lower", "latency_p50_ms", _SERVE, _BATCH),
    Metric("scheduler.wait_ms", "ms", "lower", "latency_p50_ms", _SERVE, _BATCH),
    Metric("engine.dispatch_s", "s", "lower", "pairs_per_s", _CORPUS, _BATCH),
    Metric("engine.slot_writes", "count", "lower", "pairs_per_s", _CORPUS, _BATCH),
    Metric("engine.pool_starts", "count", "lower", "setup_s", _CORPUS, _BATCH),
    Metric("engine.parallel_efficiency", "ratio", "higher", "pairs_per_s", _CORPUS, _BATCH),
    Metric("service.self_s", "s", "lower", "latency_p99_ms", _SERVE, _BATCH),
    Metric("store.flush_s", "s", "lower", "latency_p99_ms", _SERVE, _BATCH),
    Metric("store.transitions_written", "count", "lower", "latency_p99_ms", _SERVE, _BATCH),
    Metric("http.overhead_ms", "ms", "lower", "latency_p50_ms", _SERVE, _BATCH),
    Metric("http.non200", "count", "lower", "goodput_rps", _SERVE, _BATCH),
    Metric("http.unmatched", "count", "lower", "capacity_rps", _SERVE, _BATCH),
    Metric("cache.nbytes", "bytes", "lower", "peak_rss_mb", _BATCH, _CORPUS),
    Metric("trace.overhead_frac", "ratio", "lower", "(validity)", _CORPUS, _SERVE),
    Metric("trace.other_s", "s", "lower", "(validity)", _SERVE, _BATCH),
    Metric("generator.lag_p99_ms", "ms", "lower", "(validity)", _SERVE, _BATCH),
)


def span_counts(spans) -> dict:
    """Counts taken at layer boundaries from the traced spans."""
    flow_outer = [
        s for s in spans if s.layer == "flow" and (s.parent is None or s.parent.layer != "flow")
    ]
    methods = {m: 0 for m in FLOW_METHODS}
    for s in flow_outer:
        method = s.info.get("method")
        if method in methods:
            methods[method] += 1
    msd = [s for s in spans if s.name == "multi_source_distances"]
    requested_rows = sum(s.info["sources"] for s in spans if s.name == "rows")
    computed_rows = sum(
        s.info["sources"] for s in msd if s.parent is not None and s.parent.name == "rows"
    )
    return {
        "flow.solves": len(flow_outer),
        **{f"flow.solves.{m}": n for m, n in methods.items()},
        "dijkstra.sources": sum(s.info["sources"] for s in msd),
        "rows.hit_ratio": (
            1.0 - computed_rows / requested_rows if requested_rows else 0.0
        ),
        "term.calls": sum(1 for s in spans if s.name == "term"),
        "store.flush_s": sum(s.duration for s in spans if s.name == "flush"),
        "store.transitions_written": sum(
            s.info["rows"] for s in spans if s.name == "save_transitions"
        ),
        "scheduler.wait_ms": _scheduler_wait_ms(spans),
    }


def _scheduler_wait_ms(spans) -> float:
    """Mean ms a scheduler request spent in ``PairScheduler.evaluate``
    outside the solves it owned (admission, cache probes, coalesced waits)."""
    owned: dict[int, float] = {}
    for s in spans:
        if s.name == "solve" and s.parent is not None:
            owned[id(s.parent)] = owned.get(id(s.parent), 0.0) + s.duration
    waits = [s.duration - owned.get(id(s), 0.0) for s in spans if s.name == "evaluate"]
    return 1000.0 * float(np.mean(waits)) if waits else 0.0


def split_metrics(split: dict) -> dict:
    """Per-layer seconds from a :func:`~sndbench.tracer.layer_split`."""
    by_layer, by_name = split["by_layer"], split["by_name"]
    return {
        "ground.s": by_layer.get("ground", 0.0),
        "dijkstra.s": by_layer.get("dijkstra", 0.0),
        "flow.s": by_layer.get("flow", 0.0),
        "fast.self_s": by_layer.get("fast", 0.0),
        "scheduler.self_s": by_layer.get("scheduler", 0.0),
        "engine.dispatch_s": by_name.get(("engine", "dispatch"), 0.0)
        + by_name.get(("engine", "ensure_pool"), 0.0),
        "service.self_s": by_layer.get("service", 0.0),
        "trace.other_s": split["other"],
    }


def cache_metrics(stats_list) -> dict:
    """Ground, row-eviction and basis figures summed over
    :meth:`CacheManager.stats` snapshots (one per cache hierarchy used)."""
    g_hits = sum(s["ground"]["hits"] for s in stats_list)
    g_miss = sum(s["ground"]["misses"] for s in stats_list)
    b_hits = sum(s["bases"]["hits"] for s in stats_list)
    b_miss = sum(s["bases"]["misses"] for s in stats_list)
    return {
        "ground.builds": g_miss,
        "ground.hit_ratio": g_hits / (g_hits + g_miss) if g_hits + g_miss else 0.0,
        "rows.evictions": sum(s["rows"]["evictions"] for s in stats_list),
        "bases.hit_ratio": b_hits / (b_hits + b_miss) if b_hits + b_miss else 0.0,
        "cache.nbytes": max((s["total_nbytes"] for s in stats_list), default=0),
    }


def simplex_metrics(before: dict, after: dict) -> dict:
    """Network-simplex pivots per solve over a window (process-local
    counters, so only solves that ran in this process)."""
    out = {}
    for kind in ("cold", "warm"):
        solves = after[f"{kind}_solves"] - before[f"{kind}_solves"]
        pivots = after[f"{kind}_pivots"] - before[f"{kind}_pivots"]
        out[f"flow.pivots_per_solve.{kind}"] = pivots / solves if solves else 0.0
    return out


def scheduler_metrics(stats_list, before: dict | None = None) -> dict:
    """Scheduler counters summed over the ``scheduler.stats()`` snapshots
    of one or more engines, less *before* (an earlier snapshot of a single
    scheduler); the peak queue depth is their maximum."""
    keys = ("requested", "cache_answered", "coalesced", "solved", "rejected")
    out = {
        f"scheduler.{k}": sum(s[k] for s in stats_list) - (before[k] if before else 0)
        for k in keys
    }
    out["scheduler.peak_pending"] = max((s["peak_pending"] for s in stats_list), default=0)
    return out
