"""Failed serve requests are counted, never crash the result line."""

import json
import math

from sndbench import layers
from sndbench.context import Run
from sndbench.loadgen import TIMEOUT_S
from sndbench.serve import SERVE_RATE_RPS, phase1_metrics

N = 1050
FAILED = 60  # about 6% of phase 1: beyond the p99 and half the solves


def _phase1(failed_every: int) -> list[dict]:
    """A synthetic phase 1: answers 5 ms after their due time, except
    every *failed_every*-th request, which failed."""
    records = []
    for k in range(N):
        due = k / SERVE_RATE_RPS
        ok = k % failed_every != 0
        kind = "M" if k % 2 else "H"
        done = due + (0.005 if ok else 0.001)  # a fast 503 still fails
        records.append({"kind": kind, "due": due, "done": done, "ok": ok})
    return records


def test_failed_requests_keep_the_phase_1_metrics_finite():
    records = _phase1(N // FAILED)
    n_failed = sum(not r["ok"] for r in records)
    assert n_failed > 0.05 * N
    seconds = N / SERVE_RATE_RPS
    metrics = phase1_metrics(records, seconds, limit_ms=100.0)
    assert all(math.isfinite(v) for v in metrics.values())
    # The failures fill the tail at the client's timeout ...
    assert metrics["latency_p99_ms"] >= 1000.0 * TIMEOUT_S
    # ... and miss the latency limit; the rest meet it.
    assert metrics["goodput_rps"] == (N - n_failed) / seconds


def test_solve_median_stays_finite_when_most_solves_fail():
    records = _phase1(1)  # every request failed
    metrics = phase1_metrics(records, N / SERVE_RATE_RPS, limit_ms=100.0)
    assert metrics["latency_p50_ms"] >= 1000.0 * TIMEOUT_S
    assert metrics["goodput_rps"] == 0.0


def test_a_run_with_failures_still_prints_its_result_line(tmp_path):
    records = _phase1(N // FAILED)
    run = Run(
        root=tmp_path, workload="serve-10k", seed=1, seconds=1.0, trace=False,
        latency_limit_ms=100.0,
    )
    run.checked = True
    run.record(len(records), sum(not r["ok"] for r in records))
    for name, value in phase1_metrics(records, N / SERVE_RATE_RPS, 100.0).items():
        run.set(name, value)
    for name in ("setup_s", "pairs_per_s", "capacity_rps", "peak_rss_mb"):
        run.set(name, 1.0)
    result = json.loads(json.dumps(run.result(), allow_nan=False))
    assert result["correct"] is False
    assert result["attempted"] == N
    assert result["failed"] == sum(not r["ok"] for r in records)
    assert set(result["metrics"]) == {m.name for m in layers.END_TO_END}
