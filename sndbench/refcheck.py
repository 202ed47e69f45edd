"""Reference values, computed after the timed region on both CPUs.

Each worker of a spawn-context pool loads the graph and the named state
lists from the run's store once, allocates banks exactly as the program
does (same cluster count and seed), and answers tasks:

* :func:`evaluate_pairs` — the serial ``SND.evaluate`` path, no caches;
* :func:`twin_matrix` — the serial twin of a pool ``pairwise_matrix``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
import multiprocessing

from sndbench import inputs

REL_TOL = 1e-9

_STATE: dict = {}


def _init(store_path: str, series_names: tuple[str, ...]) -> None:
    from repro.snd import SND
    from repro.store import ExperimentStore

    with ExperimentStore(store_path) as store:
        graph = store.load_graph(inputs.GRAPH_NAME)
        _STATE["series"] = {
            name: list(store.load_series(inputs.GRAPH_NAME, name)) for name in series_names
        }
    _STATE["snd"] = SND(
        graph, n_clusters=inputs.N_CLUSTERS, seed=inputs.BANK_SEED, solver=inputs.SOLVER
    )


def evaluate_pairs(name: str, pairs: list[tuple[int, int]]) -> list[float]:
    states, snd = _STATE["series"][name], _STATE["snd"]
    return [snd.evaluate(states[i], states[j]).value for i, j in pairs]


def twin_matrix(name: str):
    from repro.snd import CacheManager, SNDEngine

    engine = SNDEngine(_STATE["snd"], jobs=None, caches=CacheManager())
    return engine.pairwise_matrix(_STATE["series"][name])


def reference_pool(store_path: str, series_names) -> ProcessPoolExecutor:
    """Two spawn workers primed with the store's graph and state lists."""
    return ProcessPoolExecutor(
        max_workers=2,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init,
        initargs=(str(store_path), tuple(series_names)),
    )


def split(items: list, parts: int) -> list[list]:
    """*items* cut into *parts* contiguous, nearly equal chunks."""
    step, extra = divmod(len(items), parts)
    out, pos = [], 0
    for k in range(parts):
        size = step + (1 if k < extra else 0)
        out.append(items[pos : pos + size])
        pos += size
    return [chunk for chunk in out if chunk]


def close_enough(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(abs(reference), 1e-300)
