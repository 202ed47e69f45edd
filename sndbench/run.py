"""SND benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 sndbench/run.py \
        --latency-limit-ms sweep-20k=400,corpus-2k-pool=150,serve-10k=100 \
        --workload sweep-20k --seed 1 --seconds 15 --trace 0

Workloads: ``sweep-20k``, ``corpus-2k-pool``, ``serve-10k`` (see
``sndbench/README.md``).  Inputs are generated from ``--seed``; the run
measures for about ``--seconds`` seconds, checks every value against the
serial ``SND.evaluate`` path, and prints one ``header`` line and, as its
last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  ``--latency-limit-ms`` gives
each workload's goodput latency limit; ``BENCHMARK.json`` fixes it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-20k", "corpus-2k-pool", "serve-10k")


def _prepare_imports() -> None:
    """Make ``repro`` (from ``src/``) and ``sndbench`` importable here and
    in every process this run spawns."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"sndbench: no program source under {src}")
    # The script's own directory would let its modules shadow top-level
    # names; everything here is imported as ``sndbench.*`` instead.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(here)]
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    extra = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(src)] + ([extra] if extra else [])
    )


def latency_limits(text: str) -> dict[str, float]:
    """Parse ``WORKLOAD=MS,...``: one positive limit for every workload."""
    limits = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        try:
            limits[name.strip()] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not WORKLOAD=MS: {item!r}") from None
    if sorted(limits) != sorted(WORKLOADS) or min(limits.values()) <= 0:
        raise argparse.ArgumentTypeError(
            f"need one positive limit for each of {', '.join(WORKLOADS)}"
        )
    return limits


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--latency-limit-ms", type=latency_limits, required=True,
        help="goodput latency limit per workload, WORKLOAD=MS,... (BENCHMARK.json fixes it)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _prepare_imports()
    from sndbench import common
    from sndbench.context import Run

    run = Run(
        root=ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        latency_limit_ms=args.latency_limit_ms[args.workload],
    )
    try:
        if args.workload == "serve-10k":
            from sndbench.serve import run_serve

            run_serve(run)
        else:
            from sndbench.batch import run_corpus, run_sweep

            (run_sweep if args.workload == "sweep-20k" else run_corpus)(run)
        result = run.result()
    finally:
        run.write_report()
        shutil.rmtree(run.work, ignore_errors=True)
        # Process pools and shared memory start multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    print("header " + json.dumps(common.jsonable(run.header), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
