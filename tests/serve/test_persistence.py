"""Transition-cache persistence: spill on close, warm start on build,
and the kill-and-restart replay guarantee (solved == 0 on the second
run), counter-asserted end to end."""

import json
import logging
import signal
import sqlite3
import subprocess
import sys
import urllib.request

import pytest

from repro.cli import main
from repro.serve import EngineConfig, SNDService
from repro.serve.http import BackgroundServer
from repro.store import ExperimentStore


@pytest.fixture
def store_path(tmp_path):
    path = str(tmp_path / "exp.sqlite")
    rc = main(
        [
            "generate",
            "--nodes", "60",
            "--states", "5",
            "--seeds", "8",
            "--seed", "3",
            "--store", path,
            "--name", "t",
        ]
    )
    assert rc == 0
    return path


CONFIG = EngineConfig(clusters=2)
PAIRS = [(0, 1), (1, 2), (0, 3), (2, 4)]


def _replay(service):
    return [service.distance_pair("t", i, j) for i, j in PAIRS]


class TestServiceRoundTrip:
    def test_restart_answers_replay_without_solving(self, store_path):
        with SNDService(store_path, config=CONFIG) as first:
            values = _replay(first)
            stats = first.stats()["shards"]["t"]
            assert stats["scheduler"]["solved"] == len(PAIRS)
            assert stats["transitions_loaded"] == 0
        # close() flushed; a brand-new service over the same store warms
        # its transition cache and answers the identical trace with zero
        # fresh solves — the restart-robustness guarantee.
        with SNDService(store_path, config=CONFIG) as second:
            again = _replay(second)
            assert again == values  # bit-identical across restart
            stats = second.stats()["shards"]["t"]
            assert stats["scheduler"]["solved"] == 0
            assert stats["scheduler"]["cache_answered"] == len(PAIRS)
            assert stats["transitions_loaded"] >= len(PAIRS)

    def test_flush_is_incremental(self, store_path):
        with SNDService(store_path, config=CONFIG) as service:
            service.distance_pair("t", 0, 1)
            assert service.flush() > 0
            # Nothing new solved since: the dirty-state snapshot makes
            # the second flush a no-op.
            assert service.flush() == 0
            service.distance_pair("t", 1, 2)
            assert service.flush() > 0
            stats = service.stats()["shards"]["t"]
            assert stats["transitions_persisted"] > 0

    def test_persistence_disabled_writes_nothing(self, store_path):
        config = CONFIG.replace(persist_transitions=False)
        with SNDService(store_path, config=config) as service:
            _replay(service)
            assert service.flush() == 0
        with ExperimentStore(store_path) as store:
            assert store.count_transitions("t") == 0
        # ...and a warm service over the same store has nothing to load.
        with SNDService(store_path, config=CONFIG) as service:
            shard = service.shard("t")
            shard.ensure_snd()
            assert shard.stats()["transitions_loaded"] == 0

    def test_failed_flush_is_retried_logged_and_counted(
        self, store_path, monkeypatch, caplog
    ):
        """A store write that raises once must not mark the cache clean:
        the next flush writes every row, and the failure is logged and
        exported as a counter."""
        from repro.serve.metrics import samples_from_stats

        real_save = ExperimentStore.save_transitions
        failures = []

        def save_failing_once(self, graph_name, rows):
            if not failures:
                failures.append(len(rows))
                raise sqlite3.OperationalError("disk I/O error")
            return real_save(self, graph_name, rows)

        monkeypatch.setattr(ExperimentStore, "save_transitions", save_failing_once)
        with SNDService(store_path, config=CONFIG) as service:
            _replay(service)
            with caplog.at_level(logging.ERROR, logger="repro.serve"):
                assert service.flush() == 0
            assert failures
            assert any("flush" in r.getMessage() for r in caplog.records)
            n_cached = len(service.shard("t").ensure_snd().caches.transitions)
            # Nothing new was solved since the failed write, yet the
            # retry writes every row.
            assert service.flush() == n_cached
            stats = service.stats()
            shard = stats["shards"]["t"]
            assert shard["flush_failures"] == 1
            assert shard["transitions_persisted"] == n_cached
            samples = {s.name: s.value for s in samples_from_stats(stats)}
            assert samples["snd_persistence_flush_failures_total"] == 1
        with ExperimentStore(store_path) as store:
            assert store.count_transitions("t") == n_cached

    def test_concurrent_flushes_write_each_snapshot_once(self, store_path):
        """Flushes racing from many threads (the periodic task against
        ``close()``) write a dirty snapshot once and count it once."""
        import threading

        with SNDService(store_path, config=CONFIG) as service:
            _replay(service)
            n_cached = len(service.shard("t").ensure_snd().caches.transitions)
            written = []
            start = threading.Barrier(8)

            def flush():
                start.wait(timeout=30)
                written.append(service.flush())

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=flush) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(written) == [0] * 7 + [n_cached]
            shard = service.stats()["shards"]["t"]
            assert shard["transitions_persisted"] == n_cached

    def test_spilled_rows_survive_in_store(self, store_path):
        with SNDService(store_path, config=CONFIG) as service:
            _replay(service)
        with ExperimentStore(store_path) as store:
            n = store.count_transitions("t")
            assert n >= len(PAIRS)
            rows = store.load_transitions("t")
            assert len(rows) == n
            assert all(isinstance(v, float) for _a, _b, v in rows)


class TestRestartOverHttp:
    def _post(self, server, path, payload):
        url = f"http://{server.host}:{server.port}{path}"
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            return json.loads(resp.read().decode())

    def _stats(self, server):
        url = f"http://{server.host}:{server.port}/v1/stats"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read().decode())

    def test_kill_and_restart_replay(self, store_path):
        """Full server lifecycle: serve a trace, tear the server down,
        start a fresh one on the same store, replay — zero solves."""
        trace = [{"name": "t", "i": i, "j": j} for i, j in PAIRS]
        with BackgroundServer(SNDService(store_path, config=CONFIG)) as server:
            cold = [self._post(server, "/v1/distance", r)["distance"] for r in trace]
            assert self._stats(server)["shards"]["t"]["scheduler"]["solved"] == len(PAIRS)
        with BackgroundServer(SNDService(store_path, config=CONFIG)) as server:
            warm = [self._post(server, "/v1/distance", r)["distance"] for r in trace]
            stats = self._stats(server)["shards"]["t"]
            assert warm == cold
            assert stats["scheduler"]["solved"] == 0
            assert stats["transitions_loaded"] >= len(PAIRS)

    def test_sigterm_flushes_before_exit(self, store_path):
        """Process managers stop services with SIGTERM: the server must
        flush the transition cache on the way down, exactly like SIGINT,
        so the next process warm-starts."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", store_path, "--port", "0", "--clusters", "2",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, bufsize=1,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1])

            class _Addr:
                host = "127.0.0.1"

            server = _Addr()
            server.port = port
            cold = [
                self._post(server, "/v1/distance", {"name": "t", "i": i, "j": j})
                for i, j in PAIRS
            ]
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                proc.kill()
                raise
        assert proc.returncode == 0, err
        assert "shutting down" in out
        with ExperimentStore(store_path) as store:
            assert store.count_transitions("t") >= len(PAIRS)
        with SNDService(store_path, config=CONFIG) as service:
            warm = _replay(service)
            assert warm == [r["distance"] for r in cold]
            assert service.stats()["shards"]["t"]["scheduler"]["solved"] == 0
