"""Lightweight wall-clock stage profiler for the batch-preparation
hot paths.

Unlike the simulated cost model (``repro.transfer.hardware``), which
converts *counts* into hypothetical cluster seconds, this profiler
measures the *actual* python wall time spent in the hot kernels —
block assembly, aggregation-matrix construction, evaluation sampling —
plus hit/miss counters for the memoization layers.  Engines snapshot the
profiler around an epoch and attach the delta to their
:class:`~repro.dist.engine.EpochStats`, so benchmarks can see real time
next to simulated time.

The module-level :data:`PERF` singleton is what the hot paths write to;
its overhead is two ``perf_counter`` calls per timed region, negligible
next to the numpy work inside.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

__all__ = ["StageProfiler", "PERF", "percentile", "wall_clock"]


def wall_clock():
    """The sanctioned wall-clock read: ``time.perf_counter()``.

    Every real-time measurement in the library flows through this
    module (the determinism linter's RPR002 enforces it), so one grep
    finds every place host timing can enter a result.  Simulated paths
    must never call this — they advance the cost model's clock instead.
    """
    return time.perf_counter()


#: Sentinel distinguishing "no default supplied" from ``default=None``.
_RAISE = object()


def percentile(values, q, default=_RAISE, *, presorted=False):
    """The ``q``-th percentile of ``values`` with linear interpolation
    between closest ranks (the same definition as
    ``numpy.percentile(..., method="linear")``), implemented directly so
    the serving metrics do not round-trip observation lists through
    numpy for every report.

    ``values`` may be empty only when ``default`` is supplied: the
    default is returned instead of raising.  Report builders that must
    render zero-traffic entities (a fleet replica that received no
    requests) pass ``default=None`` so their latency fields serialize
    as JSON ``null`` rather than a fabricated number.  ``q`` is checked
    first, so an out-of-range ``q`` raises even then.

    ``presorted=True`` promises ``values`` is already in ascending
    order and skips the sort, making the read O(1).  A caller that keeps
    its sample sorted as it grows (``bisect.insort``) gets bit-identical
    results to the sorting path, since both interpolate over the same
    sorted array.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        if default is not _RAISE:
            return default
        raise ValueError("percentile of an empty observation list")
    ordered = values if presorted else sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return float(ordered[low] * (1.0 - fraction)
                 + ordered[high] * fraction)


class StageProfiler:
    """Accumulates named counters and named wall-clock timers.

    Counters and timers live in separate namespaces: ``count(name)``
    increments ``counters[name]``; ``timed(name)`` adds elapsed seconds
    to ``seconds[name]`` and bumps ``counters[name + "_calls"]``.
    A third namespace holds *distributions*: ``observe(name, value)``
    records an individual measurement (a request latency, a queue
    depth) so percentiles can be read back with :meth:`percentile` or
    :meth:`summary` — the histogram layer the serving metrics build on.
    """

    def __init__(self):
        self.counters = {}
        self.seconds = {}
        self.observations = {}

    # -- counters ------------------------------------------------------
    def count(self, name, value=1):
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_seconds(self, name, seconds):
        """Add measured ``seconds`` to timer ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)
        self.count(name + "_calls")

    @contextmanager
    def timed(self, name):
        """Time a ``with`` block into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - start)

    # -- distributions -------------------------------------------------
    def observe(self, name, value):
        """Record one measurement into distribution ``name`` and bump
        ``counters[name + "_observed"]`` (so :meth:`delta` shows that
        the distribution moved)."""
        self.observations.setdefault(name, []).append(float(value))
        self.count(name + "_observed")

    def percentile(self, name, q, default=_RAISE):
        """The ``q``-th percentile of distribution ``name`` (linear
        interpolation); raises :class:`KeyError` for an unobserved
        name unless ``default`` is supplied (zero-traffic entities then
        report the default instead of raising)."""
        if name not in self.observations:
            if default is not _RAISE:
                return default
            raise KeyError(f"no observations recorded under {name!r}")
        return percentile(self.observations[name], q, default=default)

    def merge(self, other):
        """Fold another profiler's counters, timers, and observations
        into this one (observation lists are concatenated in ``other``'s
        recording order).  The fleet report builder uses this to
        aggregate per-replica histograms into one fleet-wide
        distribution without re-observing every measurement."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + value
        for name, values in other.observations.items():
            self.observations.setdefault(name, []).extend(values)
        return self

    def summary(self, name):
        """count/mean/p50/p95/p99/max digest of distribution ``name``,
        or ``None`` if nothing was observed under it."""
        values = self.observations.get(name)
        if not values:
            return None
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
            "max": max(values),
        }

    # -- reading -------------------------------------------------------
    def snapshot(self):
        """A flat copy of all counters and timers (timers suffixed
        ``_seconds``)."""
        out = dict(self.counters)
        for name, value in self.seconds.items():
            out[name + "_seconds"] = value
        return out

    def delta(self, before):
        """Counters/timers accumulated since ``before = snapshot()``,
        dropping entries that did not move."""
        now = self.snapshot()
        out = {}
        for name, value in now.items():
            moved = value - before.get(name, 0)
            if moved:
                out[name] = moved
        return out

    def reset(self):
        """Zero every counter, timer, and distribution."""
        self.counters.clear()
        self.seconds.clear()
        self.observations.clear()


#: Process-wide profiler written to by the hot paths.
PERF = StageProfiler()
