"""Small helpers shared by every workload: percentiles, medians, the
host-speed probe, peak RSS and the run header.

Nothing here imports the program under test, so the self-tests can run
these helpers without building any input.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: A tail percentile is reported only when at least this many samples lie
#: beyond it (so a p99 needs at least 1,000 samples).
MIN_BEYOND = 10

#: Iterations of the host-speed probe loop (about 0.1 s on a 2-CPU host).
PROBE_ITERATIONS = 1_000_000


def nearest_rank(samples, q: float) -> float:
    """The nearest-rank *q*-th percentile (0 < q <= 100) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the nearest-rank *q*-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail(samples, q: float = 99.0) -> dict:
    """The *q*-th percentile with its sample count and validity.

    ``valid`` is true only when at least :data:`MIN_BEYOND` samples lie
    beyond the percentile; an invalid tail must not be read as a p99.
    """
    n = len(samples)
    beyond = samples_beyond(n, q) if n else 0
    return {
        "value": nearest_rank(samples, q) if n else float("nan"),
        "n": n,
        "beyond": beyond,
        "valid": beyond >= MIN_BEYOND,
    }


def median(values) -> float:
    return float(statistics.median(values))


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The probe explains a slow run in the header; it never rescales a
    metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def release() -> None:
    """Free what the call or session that just ended allocated.

    A ``CacheManager`` and its caches, and an engine and its scheduler,
    reference each other, so only the cyclic collector frees them.
    Running it between timed calls, outside the timed region, makes peak
    RSS the working set of one call rather than a record of when the
    collector happened to run.
    """
    gc.collect()


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident sets of this process's live ``multiprocessing``
    children (a process pool's workers), summed, in MB.

    Read from ``VmHWM`` in ``/proc/<pid>/status`` while the children run:
    ``RUSAGE_CHILDREN`` would give only the largest reaped child, not the
    sum over the pool.
    """
    import multiprocessing

    total_kib = 0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:  # exited meanwhile
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, so runs of checkouts that
    are not git repositories can still be told apart."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_header(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def jsonable(value):
    """*value* with tuple keys joined and numpy scalars made plain."""
    if isinstance(value, dict):
        return {
            ".".join(map(str, k)) if isinstance(k, tuple) else str(k): jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
