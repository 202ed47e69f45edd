"""The two batch workloads.

``sweep-20k``
    A serial ``SNDEngine(jobs=None).evaluate_series`` over a §6.1 series
    on a 20k-node graph, a fresh ``CacheManager`` for every call.  Four
    set-up sessions (store load, bank allocation, SND) are spread
    through the run; each is followed by timed calls.
``corpus-2k-pool``
    ``SNDEngine(jobs=2, executor="process").pairwise_matrix`` over a
    corpus of independently seeded states on a 2k-node graph.  Every
    session launches a fresh pool (with a warm-up call on states no
    input shares) and then times one call on the cold workers.

In a batch call every value reaches the caller when the call returns, so
a value's latency is the call's duration divided by its pairs; goodput
and capacity count values, like ``pairs_per_s`` (see the README).
"""

from __future__ import annotations

import numpy as np

from sndbench import common, inputs, layers, refcheck
from sndbench.context import POOL_ONLY, SERVE_ONLY, SOLVED_DEFECT, Traced, merged_split
from sndbench.tracer import Tracer, clock

#: Set-up sessions per sweep run (and the minimum for a corpus run).
SESSIONS = 4
MAX_CORPUS_SESSIONS = 12


def _setup(store_path, names):
    """One cold set-up: store load and bank allocation; returns the graph
    loads, the SND instance and the two stage times."""
    from repro.snd import SND, banks
    from repro.store import ExperimentStore

    t0 = clock()
    with ExperimentStore(store_path) as store:
        graph = store.load_graph(inputs.GRAPH_NAME)
        loaded = {n: list(store.load_series(inputs.GRAPH_NAME, n)) for n in names}
    t1 = clock()
    allocation = banks.allocate_banks(
        graph, n_clusters=inputs.N_CLUSTERS, seed=inputs.BANK_SEED
    )
    t2 = clock()
    snd = SND(graph, banks=allocation, solver=inputs.SOLVER)
    return snd, loaded, {"store_load_s": t1 - t0, "banks_s": t2 - t1}


def _batch_end_to_end(run, calls, setups) -> None:
    """End-to-end metrics of a batch run from ``(seconds, pairs, ok)``
    timed calls: rates are medians over the calls, so one call slowed by
    the host does not set the run's figure."""
    per_value = [1000.0 * s / n for s, n, _ in calls for _ in range(n)]
    tail = common.tail(per_value, 99.0)
    limit = run.latency_limit_ms
    run.set("setup_s", common.median([s["setup_s"] for s in setups]))
    run.set("pairs_per_s", common.median([n / s for s, n, _ in calls]))
    run.set("latency_p50_ms", common.nearest_rank(per_value, 50.0))
    run.set("latency_p99_ms", tail["value"])
    run.set(
        "goodput_rps",
        common.median([ok / s if 1000.0 * s / n <= limit else 0.0 for s, n, ok in calls]),
    )
    run.set("capacity_rps", common.median([ok / s for s, _, ok in calls]))
    run.header["latency_p99_samples"] = {k: tail[k] for k in ("n", "beyond", "valid")}
    run.header["call_s"] = [c[0] for c in calls]
    if not tail["valid"]:
        run.flag(
            "latency_p99_ms",
            f"batch calls return all values at once: {tail['n']} per-value samples "
            f"from {len(calls)} calls, {tail['beyond']} beyond the p99 (< "
            f"{common.MIN_BEYOND}); it reads the slowest call, not a p99",
        )


def _setup_layer_metrics(run, setups, traced_setups) -> None:
    rows = traced_setups or setups
    run.set("setup.store_load_s", common.median([s["store_load_s"] for s in rows]))
    run.set("setup.banks_s", common.median([s["banks_s"] for s in rows]))
    run.set(
        "setup.pool_start_s", common.median([s.get("pool_start_s", 0.0) for s in rows])
    )


# --------------------------------------------------------------------- #
# sweep-20k
# --------------------------------------------------------------------- #


def run_sweep(run) -> None:
    from repro.flow.network_simplex import SIMPLEX_METRICS
    from repro.snd import CacheManager, SNDEngine

    spec = inputs.SWEEP
    graph = inputs.graph_for(spec.n_nodes, run.seed)
    series = inputs.held_series(graph, spec, run.seed)
    store_path = run.work / "sweep.sqlite"
    inputs.write_store(store_path, graph, {"series": series})
    run.header.update(
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        states=len(series),
        n_delta=[inputs.n_delta(a, b) for a, b in series.transitions()],
    )

    tracer = Tracer() if run.trace else None
    setups, traced_setups = [], []
    calls, traced_calls = [], []
    outputs = []
    cache_stats, sched = [], []
    windows = []
    simplex_before = SIMPLEX_METRICS.snapshot()
    budget = run.seconds / SESSIONS
    for k in range(SESSIONS):
        if k == SESSIONS // 2:
            run.probe("middle")
        with Traced(tracer, run.trace):
            t0 = clock()
            snd, loaded, times = _setup(store_path, ["series"])
            times["setup_s"] = clock() - t0
        (traced_setups if run.trace else setups).append(times)
        states = loaded["series"]
        n_pairs = len(states) - 1
        spent = 0.0
        flip = False
        while spent < budget:
            # A traced run pairs every untraced call with the same call
            # traced, alternating which goes first, so both sets measure
            # equal work under the same host conditions.
            order = (flip, not flip) if run.trace else (False,)
            flip = not flip
            for traced in order:
                engine = SNDEngine(snd, jobs=None, caches=CacheManager())
                with Traced(tracer, traced):
                    c0 = clock()
                    values = engine.evaluate_series(states)
                    c1 = clock()
                outputs.append((values, traced))
                (traced_calls if traced else calls).append((c1 - c0, n_pairs))
                if traced:
                    windows.append((c0, c1))
                    cache_stats.append(engine.caches.stats())
                    sched.append(engine.scheduler.stats())
                spent += c1 - c0
                engine = values = None
                common.release()
    rss = common.self_peak_rss_mb()
    run.probe("end")

    # Correctness, after the timed region: every value of every call
    # against the serial SND.evaluate path.
    reference = [snd.evaluate(a, b).value for a, b in zip(states, states[1:])]
    wrong = [
        sum(not refcheck.close_enough(v, r) for v, r in zip(values, reference))
        for values, _ in outputs
    ]
    run.checked = True
    run.record(sum(len(v) for v, _ in outputs), sum(wrong))
    if not run.trace:
        untraced_wrong = [w for w, (_, traced) in zip(wrong, outputs) if not traced]
        _batch_end_to_end(
            run, [(s, n, n - w) for (s, n), w in zip(calls, untraced_wrong)], setups
        )
        run.set("peak_rss_mb", rss)
        return

    _setup_layer_metrics(run, setups, traced_setups)
    _trace_metrics(run, tracer, windows, calls, traced_calls)
    run.metrics.update(layers.cache_metrics(cache_stats))
    run.metrics.update(layers.simplex_metrics(simplex_before, SIMPLEX_METRICS.snapshot()))
    run.metrics.update(layers.scheduler_metrics(sched))
    run.flag("scheduler.solved", SOLVED_DEFECT)
    run.zero(POOL_ONLY + SERVE_ONLY)


def _trace_metrics(run, tracer, windows, untraced_calls, traced_calls) -> None:
    """Layer split and span counts over the traced windows, plus the
    tracing overhead against the untraced twin calls."""
    run.record_split(tracer, windows)
    untraced = sum(c[0] for c in untraced_calls)
    traced = sum(c[0] for c in traced_calls)
    run.set("trace.overhead_frac", traced / untraced - 1.0)


# --------------------------------------------------------------------- #
# corpus-2k-pool
# --------------------------------------------------------------------- #


def _pool_session(store_path, tracer, traced: bool):
    """One corpus session: cold set-up, pool launch with a warm-up call,
    then one timed ``pairwise_matrix`` on the cold workers.  Also returns
    the workers' summed peak RSS, read before the pool shuts down."""
    from repro.snd import CacheManager, SNDEngine

    with Traced(tracer, traced):
        t0 = clock()
        snd, loaded, times = _setup(store_path, ["corpus", "warmup"])
        with SNDEngine(snd, jobs=2, executor="process", caches=CacheManager()) as engine:
            t1 = clock()
            engine.pairwise_matrix(loaded["warmup"])
            t2 = clock()
            matrix = engine.pairwise_matrix(loaded["corpus"])
            t3 = clock()
            stats = engine.stats()
            workers_rss = common.children_peak_rss_mb()
    times.update(setup_s=t2 - t0, pool_start_s=t2 - t1)
    return times, (t2, t3), matrix, stats, workers_rss


def run_corpus(run) -> None:
    from repro.flow.network_simplex import SIMPLEX_METRICS
    from repro.snd import CacheManager, SNDEngine

    graph = inputs.graph_for(inputs.CORPUS_NODES, run.seed)
    corpus = inputs.corpus_states(graph, run.seed, 0)
    # The warm-up states come from their own seed stream: no input shares them.
    warmup = inputs.corpus_states(graph, run.seed, 1, count=inputs.WARMUP_STATES)
    store_path = run.work / "corpus.sqlite"
    inputs.write_store(store_path, graph, {"corpus": corpus, "warmup": warmup})
    n = len(corpus)
    n_pairs = n * (n - 1) // 2
    run.header.update(
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        corpus_states=n,
        adopters=[int(s.n_active) for s in corpus],
    )

    # A traced run alternates untraced and traced sessions until each set
    # has half the measuring time; an untraced run uses all of it.
    tracer = Tracer() if run.trace else None
    setups, traced_setups = [], []
    calls, traced_calls = [], []
    matrices, pool_windows, traced_stats = [], [], []
    pool_rss = 0.0
    while True:
        untraced_s = sum(c[0] for c in calls)
        traced_s = sum(c[0] for c in traced_calls)
        sessions = len(calls) + len(traced_calls)
        if run.trace:
            done = min(untraced_s, traced_s) >= run.seconds / 2 and sessions >= 4
        else:
            done = untraced_s >= run.seconds and sessions >= SESSIONS
        if done or sessions >= MAX_CORPUS_SESSIONS:
            break
        if sessions == 2:
            run.probe("middle")
        traced = run.trace and sessions % 2 == 1
        times, (c0, c1), matrix, stats, workers_rss = _pool_session(store_path, tracer, traced)
        (traced_setups if traced else setups).append(times)
        (traced_calls if traced else calls).append((c1 - c0, n_pairs))
        matrices.append(matrix)
        if traced:
            pool_windows.append((c0, c1))
            traced_stats.append(stats)
        common.release()
        pool_rss = max(pool_rss, workers_rss)
    if stats["caches"]["rows"]["misses"] == 0 and stats["network_simplex"]["solves"] == 0:
        run.header["pool_counters_zero"] = True

    # The serial twin of a traced run: the same corpus in process, untraced
    # and traced in ABBA order, for the worker-side layer breakdown.
    twin_calls, twin_traced_calls, twin_windows, twin_stats = [], [], [], []
    simplex_before = SIMPLEX_METRICS.snapshot()
    if run.trace:
        snd, loaded, _ = _setup(store_path, ["corpus"])
        for twin_traced in (False, True, True, False):
            twin = SNDEngine(snd, jobs=None, caches=CacheManager())
            with Traced(tracer, twin_traced):
                c0 = clock()
                matrices.append(twin.pairwise_matrix(loaded["corpus"]))
                c1 = clock()
            (twin_traced_calls if twin_traced else twin_calls).append((c1 - c0, n_pairs))
            if twin_traced:
                twin_windows.append((c0, c1))
                twin_stats.append(twin.caches.stats())
    simplex_after = SIMPLEX_METRICS.snapshot()
    rss = common.self_peak_rss_mb() + pool_rss
    run.probe("end")

    # Correctness: each matrix equals the serial twin bit for bit, and every
    # value matches SND.evaluate within the relative tolerance.
    rows, cols = np.triu_indices(n, 1)
    upper = list(zip(rows.tolist(), cols.tolist()))
    with refcheck.reference_pool(store_path, ["corpus"]) as pool:
        twin_f = pool.submit(refcheck.twin_matrix, "corpus")
        eval_f = [pool.submit(refcheck.evaluate_pairs, "corpus", c) for c in refcheck.split(upper, 2)]
        reference_twin = twin_f.result()
        evaluated = [v for f in eval_f for v in f.result()]
    wrong = [
        sum(
            v != t or not refcheck.close_enough(v, r)
            for v, t, r in zip(m[rows, cols], reference_twin[rows, cols], evaluated)
        )
        for m in matrices
    ]
    run.checked = True
    run.record(n_pairs * len(matrices), sum(wrong))
    run.header["sessions"] = len(calls) + len(traced_calls)

    if not run.trace:
        # Untraced runs time every session, in order.
        _batch_end_to_end(run, [(s, p, p - w) for (s, p), w in zip(calls, wrong)], setups)
        run.set("peak_rss_mb", rss)
        return

    _setup_layer_metrics(run, setups, traced_setups)
    # Worker-side layers come from the serial twin: under the process pool
    # engine.stats() reads zero for them (a known defect), and spans inside
    # the workers are out of reach of outside tracing.
    _trace_metrics(run, tracer, twin_windows + pool_windows, twin_calls, twin_traced_calls)
    run.header["twin_layers_s"] = merged_split(tracer, twin_windows)["by_layer"]
    run.metrics.update(layers.cache_metrics(twin_stats))
    run.metrics.update(layers.simplex_metrics(simplex_before, simplex_after))
    run.metrics.update(layers.scheduler_metrics([s["scheduler"] for s in traced_stats]))
    run.set("engine.slot_writes", sum(s["slot_writes"] for s in traced_stats))
    run.set("engine.pool_starts", sum(s["pool_starts"] for s in traced_stats))
    pool_rate = sum(c[1] for c in calls) / sum(c[0] for c in calls)
    twin_rate = sum(c[1] for c in twin_calls) / sum(c[0] for c in twin_calls)
    run.set("engine.parallel_efficiency", pool_rate / (2.0 * twin_rate))
    pool_traced = sum(c[0] for c in traced_calls) / sum(c[1] for c in traced_calls)
    run.header["pool_trace_overhead_frac"] = pool_traced * pool_rate - 1.0
    twin_source = "serial twin (process-pool workers are not traced; engine.stats() "
    twin_source += "reads zero for worker-side counters, a known defect)"
    for name in (
        "ground.builds", "ground.hit_ratio", "ground.s", "dijkstra.sources", "dijkstra.s",
        "rows.hit_ratio", "rows.evictions", "flow.solves", "flow.s",
        *(f"flow.solves.{m}" for m in layers.FLOW_METHODS),
        "flow.pivots_per_solve.cold", "flow.pivots_per_solve.warm", "bases.hit_ratio",
        "term.calls", "fast.self_s", "cache.nbytes",
    ):
        run.flag(name, twin_source)
    run.flag("scheduler.solved", SOLVED_DEFECT)
    run.zero(SERVE_ONLY)
