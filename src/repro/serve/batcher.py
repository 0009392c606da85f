"""Dynamic micro-batching with bounded-queue backpressure.

GNN inference is throughput-friendly but latency-sensitive: a bigger
micro-batch amortizes sampling and PCIe transfer over more queries
(the same economics as training batch preparation), but every query in
the batch pays the wait for the last one to arrive.  The
:class:`MicroBatcher` implements the standard two-knob policy —
``max_batch_size`` (flush when full) and ``max_wait`` (flush when the
oldest queued request has waited long enough) — plus a bounded
admission queue: when more requests are waiting than ``max_queue``
allows, new arrivals are rejected with a typed
:class:`~repro.errors.AdmissionError` instead of growing the tail
latency without bound (open-loop load cannot be slowed down, so
shedding is the only backpressure available).

Like :mod:`repro.dist.engine`, everything runs in *simulated* time:
the batcher never reads a clock — callers pass ``now`` in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import AdmissionError, ServingError

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """The two batching knobs.

    Attributes
    ----------
    max_batch_size:
        Flush as soon as this many requests are queued.
    max_wait:
        Flush (a possibly partial batch) once the oldest queued request
        has waited this many simulated seconds.  ``0`` degenerates to
        per-request dispatch.
    """

    max_batch_size: int = 32
    max_wait: float = 2e-3

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait < 0:
            raise ServingError(
                f"max_wait must be >= 0, got {self.max_wait}")

    def describe(self):
        """Short policy label used in reports and benchmark tables."""
        return f"b{self.max_batch_size}/w{1e3 * self.max_wait:g}ms"


class MicroBatcher:
    """FIFO admission queue with size/deadline flush semantics.

    Parameters
    ----------
    policy:
        The :class:`BatchPolicy` deciding when a batch is ready.
    max_queue:
        Bound on *queued* (admitted, not yet dispatched) requests;
        ``None`` means unbounded.  :meth:`submit` raises
        :class:`~repro.errors.AdmissionError` when full — the request
        is rejected, the queue is unchanged.
    """

    def __init__(self, policy=None, max_queue=None):
        self.policy = policy or BatchPolicy()
        if max_queue is not None and max_queue < 1:
            raise ServingError(
                f"max_queue must be >= 1 or None, got {max_queue}")
        self.max_queue = max_queue
        self._queue = deque()
        self.admitted = 0
        self.rejected = 0

    def __len__(self):
        return len(self._queue)

    def submit(self, request):
        """Admit ``request``, or raise :class:`AdmissionError` if the
        queue is at capacity."""
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            self.rejected += 1
            raise AdmissionError(
                f"admission queue full ({self.max_queue} waiting); "
                f"rejecting request {request.request_id}")
        self._queue.append(request)
        self.admitted += 1

    def oldest_deadline(self):
        """Simulated time at which the current head of the queue forces
        a flush, or ``None`` when the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0].arrival + self.policy.max_wait

    def ready(self, now=None, draining=False):
        """The flush rule: when the head batch becomes dispatchable.

        At once (``0.0``) when the queue holds a full batch or when
        ``draining`` (no further arrivals will ever come, so waiting is
        pointless); otherwise once the oldest request's ``max_wait``
        deadline has passed.  Returns that time (``None`` on an empty
        queue) or, given ``now``, whether it has come.
        """
        if not self._queue:
            return None if now is None else False
        if draining or len(self._queue) >= self.policy.max_batch_size:
            at = 0.0
        else:
            at = self.oldest_deadline()
        return at if now is None else now >= at

    def drain(self):
        """Remove and return every queued request, FIFO order.  Used by
        the fleet's crash failover: a dead replica's queue is handed
        back to the router for re-routing (the requests were admitted
        but never served, so they do not count as rejected here)."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def cancel(self, request_id):
        """Remove the queued request with ``request_id`` if present;
        returns whether one was removed.  Used by the fleet's hedged
        requests: when one copy of a hedged pair completes, the twin
        still sitting in another replica's queue is cancelled so it
        never consumes service time (first-response-wins)."""
        for index, queued in enumerate(self._queue):
            if queued.request_id == request_id:
                del self._queue[index]
                return True
        return False

    def take(self):
        """Pop the next batch (up to ``max_batch_size`` requests, FIFO
        order).  Raises :class:`ServingError` on an empty queue."""
        if not self._queue:
            raise ServingError("take() from an empty batch queue")
        size = min(len(self._queue), self.policy.max_batch_size)
        return [self._queue.popleft() for _ in range(size)]
