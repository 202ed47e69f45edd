"""HTTP load generator for ``serve-10k``, run as its own process.

Two worker threads each hold one keep-alive connection and take the next
request of the schedule in order.

* ``open``: a request is sent at its due time (or as soon as a worker is
  free, if both are busy); its latency is timed from the due time, and
  the generator's own lateness (send time minus the later of the due
  time and the moment a worker took it) is recorded.
* ``closed``: a worker sends its next request as soon as its previous
  answer arrived, until ``--duration`` seconds have passed.

Usage: ``python3 -m sndbench.loadgen --port P --schedule in.json --out
out.json --mode open|closed [--duration S]``.  Times are
``time.perf_counter()`` values (CLOCK_MONOTONIC, shared with the server
process on Linux).
"""

from __future__ import annotations

import argparse
import http.client
import json
import socket
import threading
import time

TIMEOUT_S = 20.0
START_DELAY_S = 0.2


def _post(conn, graph: str, i: int, j: int):
    body = json.dumps({"name": graph, "i": i, "j": j})
    conn.request(
        "POST", "/v1/distance", body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    payload = response.read()
    if response.status != 200:
        return response.status, None
    return 200, float(json.loads(payload)["distance"])


def drive(port: int, graph: str, requests: list, mode: str, duration: float) -> dict:
    lock = threading.Lock()
    cursor = [0]
    records: list[dict] = []
    conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S) for _ in range(2)]
    for conn in conns:
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    start = time.perf_counter() + START_DELAY_S
    stop_at = start + duration

    def worker(conn) -> None:
        while True:
            with lock:
                k = cursor[0]
                if k >= len(requests):
                    return
                cursor[0] += 1
            slot, kind, i, j, due = requests[k]
            took = time.perf_counter()
            if mode == "closed" and took >= stop_at:
                return
            due_at = start + due if mode == "open" else max(took, start)
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, value = _post(conn, graph, i, j)
            except (OSError, http.client.HTTPException):
                status, value = 0, None  # timeout or broken connection
                conn.close()
            done = time.perf_counter()
            with lock:
                records.append(
                    {
                        "slot": slot, "kind": kind, "i": i, "j": j,
                        "due": due_at, "took": took, "sent": sent, "done": done,
                        "status": status, "value": value,
                    }
                )

    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for conn in conns:
        conn.close()
    return {"start": start, "records": sorted(records, key=lambda r: r["slot"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serve-10k load generator")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--schedule", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("open", "closed"), required=True)
    parser.add_argument("--duration", type=float, default=float("inf"))
    args = parser.parse_args(argv)
    with open(args.schedule) as fh:
        spec = json.load(fh)
    result = drive(args.port, spec["graph"], spec["requests"], args.mode, args.duration)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
