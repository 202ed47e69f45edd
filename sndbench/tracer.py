"""Layer tracing from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary,
records one span per call (layer, name, thread, start, end, parent) in
memory, and puts every original attribute back on :meth:`Tracer.restore`.
Nothing inside ``src/`` is changed.

Three properties of this codebase shape the wrapping:

* ``repro.shortestpath`` re-exports a *function* named ``dijkstra``, so
  ``repro.shortestpath.dijkstra`` as an attribute is that function, not
  the module.  Modules are therefore resolved with
  :func:`importlib.import_module`, which returns the module from
  ``sys.modules``.
* ``repro.snd.fast`` binds ``multi_source_distances``, ``solve_mcf_ssp``
  and ``solve_mcf_cost_scaling`` at import, so replacing them only where
  they are defined would miss every call from the SND pipeline.  A wrap
  point lists every module that binds the function, and one wrapper is
  installed at all of them.
* HTTP requests carry no id; :func:`match_requests` pairs each client
  request with a server span by pair and time interval.

:func:`layer_split` turns spans into per-layer wall time: each instant
goes to the innermost active span of each thread, split evenly across
the threads that have one, so the layer times plus the time no span
covers sum exactly to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: shared by processes


@dataclass(eq=False)
class Span:
    layer: str
    name: str
    thread: int
    start: float
    end: float = float("nan")
    parent: "Span | None" = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WrapPoint:
    """One function (or method) to trace, and every place that binds it.

    *sites* are ``"module:attribute"`` or ``"module:Class.attribute"``
    strings; the first site defines the function, the others re-export
    or import-bind it.  *info* maps ``(args, kwargs)`` to extra span
    fields (a pair, a source count, a solver name).
    """

    layer: str
    name: str
    sites: tuple[str, ...]
    info: Callable | None = None


def resolve(site: str):
    """``(owner, attribute)`` for a ``"module:attr"`` / ``"module:Cls.attr"``
    site; the module comes from :func:`importlib.import_module`."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        # (owner, attribute, raw original) in install order.
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, func, point: WrapPoint):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                point.layer,
                point.name,
                threading.get_ident(),
                clock(),
                parent=stack[-1] if stack else None,
            )
            if point.info is not None:
                span.info = point.info(args, kwargs)
            stack.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self, points) -> None:
        """Wrap every site of every point (one wrapper per function)."""
        for point in points:
            wrappers: dict[int, object] = {}
            for site in point.sites:
                owner, attr = resolve(site)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                traced = wrappers.get(id(func))
                if traced is None:
                    traced = wrappers[id(func)] = self._wrapper(func, point)
                replacement = staticmethod(traced) if isinstance(raw, staticmethod) else traced
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every original attribute, last installed first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def window(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``[start, end]``."""
        return [s for s in self.spans if start <= s.start <= end]


# --------------------------------------------------------------------- #
# Wall-time split
# --------------------------------------------------------------------- #


def _thread_segments(spans: list[Span]) -> list[tuple[float, float, tuple[str, str]]]:
    """Per-thread ``(start, end, (layer, name))`` segments of the innermost
    active span (the most recently started one still open)."""
    events = []
    for k, span in enumerate(spans):
        events.append((span.start, 1, k))
        events.append((span.end, 0, k))
    events.sort()
    open_spans: list[int] = []
    segments = []
    last = None
    for t, is_start, k in events:
        if open_spans and last is not None and t > last:
            top = spans[open_spans[-1]]
            segments.append((last, t, (top.layer, top.name)))
        if is_start:
            open_spans.append(k)
        else:
            open_spans.remove(k)
        last = t
    return segments


def layer_split(spans: list[Span], start: float, end: float) -> dict:
    """Wall time of ``[start, end]`` split by ``(layer, name)``.

    Returns ``{"by_name": {(layer, name): s}, "by_layer": {layer: s},
    "other": s, "wall": s}``; ``sum(by_layer) + other == wall`` up to
    rounding.
    """
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.end > start and span.start < end:
            by_thread[span.thread].append(span)
    events = []
    for thread, thread_spans in by_thread.items():
        for a, b, key in _thread_segments(thread_spans):
            a, b = max(a, start), min(b, end)
            if b > a:
                events.append((a, 1, thread, key))
                events.append((b, 0, thread, key))
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict[int, tuple[str, str]] = {}
    by_name: dict[tuple[str, str], float] = defaultdict(float)
    other = 0.0
    last = start
    for t, is_start, thread, key in events:
        if t > last:
            dt = t - last
            if active:
                share = dt / len(active)
                for k in active.values():
                    by_name[k] += share
            else:
                other += dt
            last = t
        if is_start:
            active[thread] = key
        elif active.get(thread) == key:
            del active[thread]
    other += max(0.0, end - last)
    by_layer: dict[str, float] = defaultdict(float)
    for (layer, _), seconds in by_name.items():
        by_layer[layer] += seconds
    return {
        "by_name": dict(by_name),
        "by_layer": dict(by_layer),
        "other": other,
        "wall": end - start,
    }


# --------------------------------------------------------------------- #
# HTTP request matching
# --------------------------------------------------------------------- #


def match_requests(records: list[dict], spans: list[Span], slack: float = 1e-4):
    """Pair client requests with server ``distance_pair`` spans.

    *records* hold ``i``, ``j``, ``sent`` and ``done`` (client clock);
    a span matches when it serves the same pair and lies inside the
    request's interval (widened by *slack* seconds).  Each span matches
    at most one request, earliest first.  Returns ``(matched, unmatched)``
    where *matched* is a list of ``(record, span)``.
    """
    free: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for span in sorted(spans, key=lambda s: s.start):
        free[(span.info["i"], span.info["j"])].append(span)
    matched = []
    unmatched = []
    for rec in sorted(records, key=lambda r: r["sent"]):
        candidates = free.get((rec["i"], rec["j"]), [])
        for pos, span in enumerate(candidates):
            if span.start >= rec["sent"] - slack and span.end <= rec["done"] + slack:
                matched.append((rec, span))
                del candidates[pos]
                break
        else:
            unmatched.append(rec)
    return matched, unmatched
