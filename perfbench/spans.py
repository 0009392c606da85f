"""Wall-clock spans recorded from outside the program.

The benchmark never edits ``src/``: it replaces the public entry points
of each layer with thin wrappers, at the module or class attribute that
callers actually look up, and restores the originals afterwards.  Each
wrapped call opens a span named ``<layer>.<what>`` on a
:class:`Tracer`, which keeps only running aggregates in memory:

* a span's *busy* time is its inclusive duration;
* its *self* time is that duration minus the part covered by its
  direct child spans (children nest strictly, because the program is
  single-threaded, so their durations simply add up);
* a layer's busy time counts only its outermost spans, so a layer that
  re-enters itself is not counted twice.

Entry points are named ``"module:attribute"`` or
``"module:Class.attribute"``.  The attribute must be defined on that
exact module or class: patching an inherited method or a re-export
would leave the program calling the original, and the wrapper would
never fire.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["EntryPoint", "KEPT_DURATIONS", "SpanStats", "Tracer",
           "installed", "resolve", "traced"]

#: Spans whose individual durations the tracer keeps, for the batch
#: percentiles ``layers.py`` reports; every other span keeps totals only.
KEPT_DURATIONS = ("serve.execute",)


@dataclass
class SpanStats:
    """Running totals of one span name (or of one layer)."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span recorder.

    ``clock`` is injectable so the span arithmetic can be tested with a
    fake clock.  The individual durations of the spans named in
    :data:`KEPT_DURATIONS` are kept in :attr:`durations`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.layers = {}
        self.counts = {}
        self.refs = {}
        self.durations = {name: [] for name in KEPT_DURATIONS}
        self._stack = []
        self._open_layers = {}
        self._open_names = {}

    def enter(self, name, layer):
        """Open a span; every :meth:`enter` needs one :meth:`exit`."""
        self._open_layers[layer] = self._open_layers.get(layer, 0) + 1
        self._open_names[name] = self._open_names.get(name, 0) + 1
        self._stack.append([name, layer, self.clock(), 0.0])

    def exit(self):
        """Close the innermost open span."""
        end = self.clock()
        name, layer, start, covered = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        own = duration - covered

        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = SpanStats()
        span.calls += 1
        span.self_s += own
        self._open_names[name] -= 1
        if not self._open_names[name]:
            span.busy_s += duration

        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = SpanStats()
        totals.calls += 1
        totals.self_s += own
        self._open_layers[layer] -= 1
        if not self._open_layers[layer]:
            totals.busy_s += duration

        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)

    def count(self, name, value=1):
        """Add ``value`` to the free-form counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def keep(self, name, obj):
        """Hold ``obj`` (once, by identity) so its counters can be read
        after the run instead of inside the timed region."""
        self.refs.setdefault(name, {})[id(obj)] = obj

    def kept(self, name):
        """The objects held under ``name``, in first-seen order."""
        return list(self.refs.get(name, {}).values())

    def stats(self, name):
        """Totals of span ``name`` (zeros when it never ran)."""
        return self.spans.get(name, SpanStats())

    def layer(self, layer):
        """Totals of ``layer`` (zeros when it never ran)."""
        return self.layers.get(layer, SpanStats())

    def coverage(self, wall_s, residual=()):
        """Share of ``wall_s`` spent in the self time of spans other
        than ``residual`` — the entry-point spans whose self time is
        the loop code no layer claims."""
        if wall_s <= 0:
            return 0.0
        named = sum(stats.self_s for name, stats in self.spans.items()
                    if name not in residual)
        return named / wall_s

    def top_self(self, count=3):
        """The ``count`` span names with the most self time."""
        ranked = sorted(self.spans.items(),
                        key=lambda item: item[1].self_s, reverse=True)
        return [(name, stats.self_s) for name, stats in ranked[:count]]


def traced(tracer, name, fn, on_return=None):
    """``fn`` wrapped in a span ``name`` on ``tracer``.  ``on_return``
    runs after the span closes, with ``(tracer, args, kwargs,
    result)``; it should only count or keep references."""
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return wrapper


@dataclass(frozen=True)
class EntryPoint:
    """One attribute to wrap: ``target`` is ``"module:attr"`` or
    ``"module:Class.attr"``; ``span`` is ``"<layer>.<what>"``."""

    target: str
    span: str
    on_return: Optional[Callable] = None


def resolve(target):
    """``(owner, attribute name)`` for an entry-point target, checking
    that the attribute is a plain function defined on that owner."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    value = vars(owner).get(attr)
    if value is None:
        raise LookupError(
            f"{target}: {attr!r} is not defined on {owner!r} itself; "
            f"patch it where it is defined or imported")
    if not callable(value) or isinstance(value, (staticmethod,
                                                 classmethod)):
        raise TypeError(f"{target}: cannot wrap {type(value).__name__}")
    return owner, attr


@contextmanager
def installed(tracer, entry_points):
    """Patch every entry point to record on ``tracer`` for the duration
    of the ``with`` block; the originals are always restored."""
    patched = []
    try:
        for entry in entry_points:
            owner, attr = resolve(entry.target)
            original = vars(owner)[attr]
            setattr(owner, attr, traced(tracer, entry.span, original,
                                        entry.on_return))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
