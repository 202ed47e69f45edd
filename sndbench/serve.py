"""The ``serve-10k`` workload: ``repro-snd serve`` under HTTP load.

Each session copies the pristine store (so persisted transitions never
turn misses into hits), starts a :class:`~repro.serve.http.BackgroundServer`
and ends when the first request is answered; that span is the set-up
time.  Five sessions run: the first hosts phase 1, an open loop at the
fixed :data:`SERVE_RATE_RPS`; the third hosts phase 2, a closed loop over
fresh pairs; the others measure set-up only.  A traced run traces the
first session and repeats phase 2 traced on the fourth, reading the
tracing overhead off the two phase-2 capacities.

The load comes from :mod:`sndbench.loadgen` in its own process over two
keep-alive connections; the request mix is :data:`~sndbench.inputs.SERVE_BLOCK`.
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys

import numpy as np

from sndbench import common, inputs, layers, refcheck
from sndbench.context import POOL_ONLY, SOLVED_DEFECT, Traced
from sndbench.loadgen import TIMEOUT_S, _post
from sndbench.tracer import Tracer, clock, match_requests

WARM_PAIRS = 8
#: Phase-1 open-loop rate in requests/s: about 40% of the closed-loop
#: capacity (~130/s on a 2-CPU host), so that the server keeps up and
#: phase-1 latency is not queueing behind an overloaded server.
SERVE_RATE_RPS = 55.0
#: Phase 1 lasts at least long enough to hold this many requests, so that
#: at least 10 of them lie beyond the p99.
P99_REQUESTS = 1050
#: Seconds between periodic transition-cache flushes (the serve default,
#: 30 s, would never flush inside a run).
FLUSH_INTERVAL_S = 2.0
PHASE2_FRACTION = 1.0 / 3.0


def _config():
    from repro.serve import EngineConfig

    return EngineConfig(
        clusters=inputs.N_CLUSTERS,
        solver=inputs.SOLVER,
        seed=inputs.BANK_SEED,
        jobs=1,
        flush_interval=FLUSH_INTERVAL_S,
    )


class Session:
    """One fresh server over a fresh copy of the store."""

    def __init__(self, run, pristine, index: int, first_pair) -> None:
        from repro.serve import SNDService
        from repro.serve.http import BackgroundServer

        path = run.work / f"session{index}.sqlite"
        shutil.copyfile(pristine, path)
        t0 = clock()
        self.service = SNDService(str(path), config=_config())
        self.server = BackgroundServer(self.service).start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        status, value = _post(self.conn, inputs.GRAPH_NAME, *first_pair)
        self.window = (t0, clock())
        self.setup_s = self.window[1] - t0
        self.answers = [(first_pair, status, value)]
        self.records: list[dict] = []

    def warm(self, pairs) -> None:
        for pair in pairs:
            status, value = _post(self.conn, inputs.GRAPH_NAME, *pair)
            self.answers.append((pair, status, value))

    def engine(self):
        return self.service.shard(inputs.GRAPH_NAME).engine()

    def close(self) -> None:
        """Stop the server, keeping the values its engine computed (the
        transition cache, read without touching its counters)."""
        self.conn.close()
        rows = self.engine().caches.transitions.export_rows()
        self.computed = {(a, b): value for a, b, value in rows}
        self.server.stop()
        self.conn = self.server = self.service = None
        common.release()


def _phase(run, session, requests, mode: str, duration: float, tag: str) -> dict:
    """Drive *requests* through the load generator process."""
    schedule = run.work / f"{tag}-schedule.json"
    out = run.work / f"{tag}-out.json"
    schedule.write_text(
        json.dumps(
            {
                "graph": inputs.GRAPH_NAME,
                "requests": [[r.slot, r.kind, r.i, r.j, r.due] for r in requests],
            }
        )
    )
    cmd = [
        sys.executable, "-m", "sndbench.loadgen",
        "--port", str(session.server.port),
        "--schedule", str(schedule), "--out", str(out), "--mode", mode,
    ]
    if mode == "closed":
        cmd += ["--duration", str(duration)]
    proc = subprocess.Popen(cmd, cwd=run.root)
    try:
        proc.wait(timeout=duration + 90)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited with {proc.returncode}")
    result = json.loads(out.read_text())
    records = result["records"]
    result["end"] = max(r["done"] for r in records)
    return result


def phase1_latency_ms(records) -> list[float]:
    """Each phase-1 request's latency from its scheduled send, in ms.

    A failed request (non-200, timeout or wrong value) counts as
    unanswered for at least the client's whole timeout: it misses every
    latency limit and lands in the tail, yet keeps the percentiles finite
    so that the run still reports its result line.
    """
    return [
        1000.0 * (r["done"] - r["due"] if r["ok"] else max(r["done"] - r["due"], TIMEOUT_S))
        for r in records
    ]


def phase1_metrics(records, seconds: float, limit_ms: float) -> dict:
    """The phase-1 end-to-end metrics of checked *records* (each with
    ``ok``) over *seconds* of phase 1."""
    latency = phase1_latency_ms(records)
    # The median over requests that needed a solve (fresh pairs and their
    # coalesced duplicates): over all requests it would sit in the gap
    # between cache answers (~1 ms) and solves (20-30 ms).
    solved = [x for x, r in zip(latency, records) if r["kind"] != "H"]
    return {
        "latency_p50_ms": common.nearest_rank(solved, 50.0),
        "latency_p99_ms": common.tail(latency, 99.0)["value"],
        "goodput_rps": sum(x <= limit_ms for x in latency) / seconds,
    }


def run_serve(run) -> None:
    from repro.flow.network_simplex import SIMPLEX_METRICS

    spec = inputs.SERVE
    rate = SERVE_RATE_RPS
    graph = inputs.graph_for(spec.n_nodes, run.seed)
    series = inputs.held_series(graph, spec, run.seed)
    pristine = run.work / "serve.sqlite"
    inputs.write_store(pristine, graph, {"series": series})

    pairs = inputs.near_diagonal_pairs(len(series), run.seed)
    warm, fresh = pairs[:WARM_PAIRS], pairs[WARM_PAIRS:]
    n1 = max(int(round(rate * run.seconds)), P99_REQUESTS)
    phase1, fresh = inputs.serve_schedule(fresh, warm, n1, rate, run.seed)
    per_block = inputs.SERVE_BLOCK.count("M")
    n2 = (len(fresh) // per_block) * len(inputs.SERVE_BLOCK)
    phase2, _ = inputs.serve_schedule(fresh, warm, n2, rate, run.seed + 1)
    duration2 = run.seconds * PHASE2_FRACTION
    run.header.update(
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        states=len(series),
        rate_rps=rate,
        n_delta_mean=float(np.mean([inputs.n_delta(a, b) for a, b in series.transitions()])),
        phase1_slots=inputs.slot_counts(phase1),
        phase2_slots_offered=inputs.slot_counts(phase2),
    )

    tracer = Tracer() if run.trace else None
    # One session per entry: (phase it hosts, traced).  Set-up-only
    # sessions sit between the phases so that set-up is sampled through
    # the run, not in a burst.
    plan = [
        ("p1", run.trace),
        (None, False),
        ("p2", False),
        ("p2t", True) if run.trace else (None, False),
        (None, False),
    ]
    sessions, phases = [], {}
    for index, (phase, traced) in enumerate(plan, 1):
        with Traced(tracer, traced):
            session = Session(run, pristine, index, warm[0])
        sessions.append(session)
        if phase is not None:
            session.warm(warm[1:])
            engine = session.engine()
            sched_before = engine.scheduler.stats()
            simplex_before = SIMPLEX_METRICS.snapshot()
            with Traced(tracer, traced):
                if phase == "p1":
                    result = _phase(run, session, phase1, "open", n1 / rate, phase)
                else:
                    result = _phase(run, session, phase2, "closed", duration2, phase)
            phases[phase] = result
            session.records = result["records"]
            if phase == "p1":
                # Phase-1 counters for the traced run's per-layer metrics.
                observed = {
                    **layers.simplex_metrics(simplex_before, SIMPLEX_METRICS.snapshot()),
                    **layers.scheduler_metrics([engine.scheduler.stats()], sched_before),
                    **layers.cache_metrics([engine.caches.stats()]),
                }
            engine = None  # let session.close() free the server's caches
        session.close()
        if index == 2:
            run.probe("middle")
    rss = common.self_peak_rss_mb()
    run.probe("end")

    # Correctness: every 200 answer equals the value the server's engine
    # computed for it bit for bit (HTTP adds nothing), and the serial
    # SND.evaluate value within the relative tolerance.
    served = [(s, r) for s in sessions for r in s.records]
    served += [
        (s, {"i": p[0], "j": p[1], "status": st, "value": v})
        for s in sessions
        for p, st, v in s.answers
    ]
    asked = sorted({(r["i"], r["j"]) for _, r in served})
    with refcheck.reference_pool(pristine, ["series"]) as pool:
        futures = [pool.submit(refcheck.evaluate_pairs, "series", c) for c in refcheck.split(asked, 2)]
        evaluated = dict(zip(asked, [v for f in futures for v in f.result()]))
    fingerprint = [s.values.tobytes() for s in series]
    for session, r in served:
        pair = (r["i"], r["j"])
        key = (fingerprint[pair[0]], fingerprint[pair[1]])
        r["ok"] = (
            r["status"] == 200
            and r["value"] == session.computed.get(key)
            and refcheck.close_enough(r["value"], evaluated[pair])
        )
    records = [r for _, r in served]
    run.checked = True
    run.record(len(records), sum(not r["ok"] for r in records))
    run.report["failures"] = [r for r in records if not r["ok"]][:50]
    run.header["setup_s_sessions"] = [s.setup_s for s in sessions]

    p1 = phases["p1"]
    p1_latency = phase1_latency_ms(p1["records"])
    tail = common.tail(p1_latency, 99.0)
    run.report["phase1_latency_ms"] = p1_latency
    run.report["phase1_kinds"] = [r["kind"] for r in p1["records"]]
    p1_seconds = p1["end"] - p1["start"]
    p2 = phases["p2"]
    p2_seconds = p2["end"] - p2["start"]
    lag = [1000.0 * (r["sent"] - max(r["due"], r["took"])) for r in p1["records"]]
    lag_tail = common.tail(lag, 99.0)
    run.header.update(
        phase1_requests=len(p1["records"]),
        phase1_s=p1_seconds,
        phase2_requests=len(p2["records"]),
        phase2_s=p2_seconds,
        latency_p99_samples={k: tail[k] for k in ("n", "beyond", "valid")},
        generator_lag_p99_ms=lag_tail,
    )
    if not tail["valid"]:
        run.flag("latency_p99_ms", f"only {tail['beyond']} samples beyond the p99")

    if not run.trace:
        run.set("setup_s", common.median([s.setup_s for s in sessions]))
        for name, value in phase1_metrics(p1["records"], p1_seconds, run.latency_limit_ms).items():
            run.set(name, value)
        run.set("capacity_rps", sum(r["ok"] for r in p2["records"]) / p2_seconds)
        # A fixed share (the M slots, 6 of 20) of capacity_rps: the closed
        # loop replays the same slot mix.
        run.set(
            "pairs_per_s",
            sum(r["ok"] and r["kind"] == "M" for r in p2["records"]) / p2_seconds,
        )
        run.set("peak_rss_mb", rss)
        return

    run.metrics.update(observed)
    _serve_trace_metrics(run, tracer, [sessions[0], sessions[3]], phases, lag_tail)


def _serve_trace_metrics(run, tracer, traced_sessions, phases, lag_tail) -> None:
    store_s, banks_s = [], []
    for session in traced_sessions:
        setup_spans = tracer.window(*session.window)
        store_s.append(sum(s.duration for s in setup_spans if s.layer == "store"))
        banks_s.append(sum(s.duration for s in setup_spans if s.layer == "banks"))
    run.set("setup.store_load_s", common.median(store_s))
    run.set("setup.banks_s", common.median(banks_s))
    run.set("setup.pool_start_s", 0.0)

    p1 = phases["p1"]
    spans = run.record_split(tracer, [(p1["start"], p1["end"])])
    served = [r for r in p1["records"] if r["status"] == 200]
    matched, unmatched = match_requests(
        served, [s for s in spans if s.name == "distance_pair"]
    )
    overhead = [1000.0 * ((r["done"] - r["sent"]) - s.duration) for r, s in matched]
    run.set("http.overhead_ms", common.median(overhead) if overhead else 0.0)
    run.set("http.non200", sum(r["status"] != 200 for r in p1["records"]))
    run.set("http.unmatched", len(unmatched))
    run.set("generator.lag_p99_ms", lag_tail["value"])
    if not lag_tail["valid"]:
        run.flag("generator.lag_p99_ms", f"only {lag_tail['beyond']} samples beyond the p99")

    untraced = phases["p2"]
    traced = phases["p2t"]
    cap_u = sum(r["ok"] for r in untraced["records"]) / (untraced["end"] - untraced["start"])
    cap_t = sum(r["ok"] for r in traced["records"]) / (traced["end"] - traced["start"])
    run.set("trace.overhead_frac", cap_u / cap_t - 1.0)
    run.flag("scheduler.solved", SOLVED_DEFECT)
    run.zero(POOL_ONLY)
