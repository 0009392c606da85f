"""One serving replica: a shard-aware executor behind its own
micro-batch queue.

:class:`ShardExecutor` specializes the single-server
:class:`~repro.serve.executor.BatchExecutor` for a fleet node that owns
one graph shard: any row the local hierarchy cannot resolve is split by
:class:`~repro.fleet.shards.ShardMap` ownership, and the foreign rows
are billed over the cluster network
(:meth:`~repro.transfer.hardware.HardwareSpec.network_time`, one
message per distinct owning shard) instead of local disk.  It
overrides only that remote split: a fetch without remote rows is billed
by the base executor itself, so the single server — a 1-replica fleet —
charges exactly the base executor's seconds.

:class:`ReplicaServer` is the queueing shell around one executor: a
per-replica :class:`~repro.serve.batcher.MicroBatcher`, a seeded rng,
a :class:`~repro.perf.StageProfiler` recording latency/batch/queue
distributions, deadline shedding and the degraded fallback, and the
liveness flags (``alive`` — crash faults;
``active``/``draining`` — autoscaling) the router and fleet engine
steer by.  It holds no clock: the engine passes simulated time in.
"""

from __future__ import annotations

import numpy as np

from ..errors import AdmissionError, FleetError
from ..perf.profiler import StageProfiler
from ..serve.batcher import MicroBatcher
from ..serve.executor import BatchExecutor
from ..serve.requests import InferenceResponse
from ..transfer.tiered import TieredCache

__all__ = ["ShardExecutor", "ReplicaServer"]


class ShardExecutor(BatchExecutor):
    """A :class:`BatchExecutor` whose non-resident fetches respect
    shard ownership.

    Parameters are the base executor's plus:

    shards:
        The fleet's :class:`~repro.fleet.shards.ShardMap`.
    replica_id:
        This node's shard id in ``0..num_shards-1``.

    Extra counters: ``local_rows`` / ``remote_rows`` (rows resolved
    on-node vs. fetched from other shards over the network),
    ``remote_seconds`` (simulated network+share time of those fetches),
    and ``last_remote_rows`` (remote rows of the most recent fetch —
    the per-batch locality attribution the fleet report aggregates).
    """

    def __init__(self, shards, replica_id, dataset, model, **kwargs):
        self.shards = shards
        self.replica_id = int(replica_id)
        if not 0 <= self.replica_id < shards.num_shards:
            raise FleetError(
                f"replica id {replica_id} out of range "
                f"[0, {shards.num_shards})")
        super().__init__(dataset, model, **kwargs)
        self.local_rows = 0
        self.remote_rows = 0
        self.remote_seconds = 0.0
        self.last_remote_rows = 0
        self.last_remote_seconds = 0.0

    def _bill_remote(self, remote, row_bytes, pcie_share):
        """Network path of a remote fetch: scatter-gather on the owning
        nodes, one network message per distinct owner shard, plus this
        fetch's share of the local PCIe DMA."""
        remote_bytes = len(remote) * row_bytes
        messages = len(np.unique(self.shards.owner(remote)))
        seconds = (self.spec.gather_time(remote_bytes)
                   + self.spec.network_time(remote_bytes,
                                            messages=messages)
                   + pcie_share)
        self.remote_seconds += seconds
        self.last_remote_seconds = seconds
        return seconds

    def _remote(self, ids, total):
        """The rows of ``ids`` this shard does not hold; counts this
        fetch's ``total`` rows as local or remote."""
        remote = ids[self.shards.remote_mask(self.replica_id, ids)]
        self.local_rows += total - len(remote)
        self.remote_rows += len(remote)
        self.last_remote_rows = len(remote)
        self.last_remote_seconds = 0.0
        return remote

    def _bill_tiered(self, lookup, row_bytes):
        """Tiered billing with the cold tier split by ownership: local
        cold rows keep the disk path, remote cold rows pay the network
        path, and PCIe is shared by bytes over everything moved.  A
        fetch without remote rows is the base executor's bill."""
        cold = lookup.cold_ids
        remote = self._remote(cold, len(lookup.vertices))
        if not len(remote):
            return super()._bill_tiered(lookup, row_bytes)

        warm_bytes = lookup.num_warm * row_bytes
        lcold_bytes = (len(cold) - len(remote)) * row_bytes
        rcold_bytes = len(remote) * row_bytes
        moved = warm_bytes + lcold_bytes + rcold_bytes
        pcie = self.spec.pcie_time(moved)
        warm_share = pcie * warm_bytes / moved
        nonwarm_share = pcie - warm_share
        remote_share = (nonwarm_share * rcold_bytes
                        / (lcold_bytes + rcold_bytes)) if lcold_bytes \
            else nonwarm_share

        warm_seconds = (self.spec.host_cache_time(warm_bytes)
                        + warm_share) if warm_bytes else 0.0
        lcold_seconds = (self.spec.disk_time(lcold_bytes)
                         + self.spec.gather_time(lcold_bytes)
                         + (nonwarm_share - remote_share)) \
            if lcold_bytes else 0.0
        remote_seconds = self._bill_remote(remote, row_bytes,
                                           remote_share)
        self.tier_seconds["warm"] += warm_seconds
        self.tier_seconds["cold"] += lcold_seconds + remote_seconds
        return warm_seconds + lcold_seconds + remote_seconds

    def _bill_flat(self, misses, row_bytes):
        """Flat billing with misses split by ownership (PCIe shared by
        bytes, as on the tiered path)."""
        remote = self._remote(misses, len(misses))
        if not len(remote):
            return super()._bill_flat(misses, row_bytes)

        local_bytes = (len(misses) - len(remote)) * row_bytes
        remote_bytes = len(remote) * row_bytes
        pcie = self.spec.pcie_time(local_bytes + remote_bytes)
        remote_share = pcie * remote_bytes / (local_bytes + remote_bytes)
        local_seconds = (self.spec.gather_time(local_bytes)
                         + (pcie - remote_share)) if local_bytes else 0.0
        return local_seconds + self._bill_remote(remote, row_bytes,
                                                 remote_share)


class ReplicaServer:
    """One fleet node: shard executor + micro-batch queue + metrics.

    Parameters
    ----------
    replica_id:
        Shard this node serves (also its index in the fleet).
    shards:
        The shared :class:`~repro.fleet.shards.ShardMap`.
    executor:
        The node's :class:`ShardExecutor` (its ``replica_id`` must
        match).
    policy, max_queue:
        Per-replica :class:`~repro.serve.batcher.BatchPolicy` and
        admission bound, as in ``ServeEngine``.
    seed:
        Base seed; the node's rng is ``default_rng((seed, replica_id))``
        so replicas draw independent, reproducible sampling streams.
    deadline, fallback:
        Per-request deadline (simulated seconds) and the ``sampled``
        mode's degraded fallback, as in ``FleetEngine``, which
        validates them.
    """

    def __init__(self, replica_id, shards, executor, policy=None,
                 max_queue=None, seed=0, deadline=None, fallback=False):
        if executor.replica_id != replica_id:
            raise FleetError(
                f"executor serves shard {executor.replica_id}, "
                f"replica is {replica_id}")
        self.replica_id = int(replica_id)
        self.shards = shards
        self.executor = executor
        self.batcher = MicroBatcher(policy, max_queue)
        self.policy = self.batcher.policy
        self.rng = np.random.default_rng((int(seed), self.replica_id))
        self.metrics = StageProfiler()
        self.deadline = deadline
        self.fallback = fallback
        self.service_estimate = None   # EWMA of the service time
        self.last_shed = []            # requests the last dispatch shed

        self.free_at = 0.0          # simulated time the node idles again
        self.alive = True           # False while a crash fault holds
        self.active = True          # False while scaled down
        self.draining = False       # scale-down decided, queue emptying

        self.routed = 0
        self.owner_routed = 0
        self.spill_routed = 0
        self.completed = 0
        self.rejected = 0
        self.zero_remote_completed = 0
        self.num_batches = 0
        self.bp_seconds = 0.0
        self.dt_seconds = 0.0
        self.nn_seconds = 0.0
        self.crashes = 0
        self.down_seconds = 0.0

    @property
    def accepting(self):
        """Whether the router may send this node new requests."""
        return self.alive and self.active and not self.draining

    @property
    def queue_depth(self):
        return len(self.batcher)

    def submit(self, request, is_owner):
        """Enqueue one routed request; returns False (and counts a
        rejection) when the admission queue is full."""
        self.routed += 1
        if is_owner:
            self.owner_routed += 1
        else:
            self.spill_routed += 1
        try:
            self.batcher.submit(request)
        except AdmissionError:
            self.rejected += 1
            return False
        self.metrics.observe("queue_depth", len(self.batcher))
        return True

    def next_dispatch_time(self, draining):
        """Earliest simulated time this node can dispatch its next
        batch, or ``None`` when it has nothing to dispatch.  ``draining``
        is the *fleet-wide* no-more-arrivals flag (partial batches then
        flush immediately)."""
        if not self.alive:
            return None
        ready_at = self.batcher.ready(draining=draining or self.draining)
        return None if ready_at is None else max(self.free_at, ready_at)

    def dispatch(self, clock, straggle=1.0, slowlink=1.0):
        """Serve one micro-batch at simulated time ``clock``; returns
        the responses (stamped with this replica's id).

        With a ``deadline``, requests already past it are *shed* first
        (answering them late wastes capacity the live requests need);
        they are left in ``last_shed``, and a batch shed whole returns
        no responses and leaves the node idle.  With ``fallback``, a
        batch whose estimated service time (an EWMA of past batches)
        would push its oldest request past the deadline is answered from
        the precomputed table instead (exact-but-stale beats
        sampled-but-late) and its responses are flagged ``degraded``.

        ``straggle`` multiplies the whole service time (a slow node);
        ``slowlink`` scales network bandwidth, stretching this batch's
        remote-fetch seconds by ``1/slowlink``.  Both default to 1.0
        and are only *applied* when they differ — the healthy path's
        float arithmetic is untouched (bit-exact baseline)."""
        batch = self.batcher.take()
        self.last_shed = []
        if self.deadline is not None:
            self.last_shed = [r for r in batch
                              if clock > r.arrival + self.deadline]
            if self.last_shed:
                batch = [r for r in batch
                         if clock <= r.arrival + self.deadline]
                if not batch:
                    return []
        degrade = (self.fallback and self.service_estimate is not None
                   and clock + self.service_estimate
                   > min(r.arrival for r in batch) + self.deadline)

        vertices = np.array([r.vertex for r in batch], dtype=np.int64)
        if degrade:
            predictions, bp, dt, nn = \
                self.executor.execute_degraded(vertices)
            remote_rows, remote_seconds = 0, 0.0
        else:
            predictions, bp, dt, nn = self.executor.execute(vertices,
                                                            self.rng)
            remote_rows = self.executor.last_remote_rows
            remote_seconds = self.executor.last_remote_seconds
        service = bp + dt + nn
        if slowlink != 1.0:
            service += remote_seconds * (1.0 / slowlink - 1.0)
        if straggle != 1.0:
            service *= straggle
        if self.fallback and not degrade:
            self.service_estimate = service \
                if self.service_estimate is None \
                else 0.5 * (self.service_estimate + service)
        completion = clock + service
        self.free_at = completion

        self.num_batches += 1
        self.completed += len(batch)
        self.bp_seconds += bp
        self.dt_seconds += dt
        self.nn_seconds += nn
        if remote_rows == 0:
            self.zero_remote_completed += len(batch)
        self.metrics.observe("batch_size", len(batch))

        responses = []
        for request, prediction in zip(batch, predictions):
            self.metrics.observe("latency",
                                 completion - request.arrival)
            responses.append(InferenceResponse(
                request=request, prediction=int(prediction),
                completion=completion, batch_id=self.num_batches,
                batch_size=len(batch), degraded=degrade,
                replica=self.replica_id))
        return responses

    def crash(self, clock, down_seconds, cold=False):
        """Take the node down at ``clock``; returns the queued requests
        the router must re-route (failover).  ``cold`` drops the
        in-memory cache residency with the process (the fleet's
        recovery layer then re-warms it from a snapshot on rejoin);
        the default keeps PR 7's process-restart semantics."""
        self.alive = False
        self.crashes += 1
        self.down_seconds += down_seconds
        # An in-flight batch is lost with the node; queued-but-unserved
        # requests survive in the router's hands.
        self.free_at = max(self.free_at, clock)
        if cold:
            cache = self.executor.cache
            if isinstance(cache, TieredCache):
                cache.evict_all()
        return self.batcher.drain()

    def recover(self, clock):
        """Bring the node back (empty queue, cache state retained —
        a process restart, not a cold node)."""
        self.alive = True
        self.free_at = max(self.free_at, clock)

    def report(self):
        """This node's :class:`~repro.fleet.metrics.ReplicaReport`."""
        from .metrics import ReplicaReport, _latency_fields

        cache = self.executor.cache
        if isinstance(cache, TieredCache):
            rates = cache.hit_rates()
            hit, hot, warm = rates["hot"], rates["hot"], rates["warm"]
        elif cache is not None:
            hit, hot, warm = cache.hit_rate, cache.hit_rate, 0.0
        else:
            hit = hot = warm = 0.0

        queue = self.metrics.summary("queue_depth")
        return ReplicaReport(
            replica=self.replica_id,
            shard_vertices=int(self.shards.shard_sizes()
                               [self.replica_id]),
            routed=self.routed,
            owner_routed=self.owner_routed,
            spill_routed=self.spill_routed,
            completed=self.completed,
            rejected=self.rejected,
            num_batches=self.num_batches,
            mean_batch_size=(self.completed / self.num_batches
                             if self.num_batches else 0.0),
            **_latency_fields(self.metrics.summary("latency")),
            queue_depth_mean=queue["mean"] if queue else 0.0,
            queue_depth_max=queue["max"] if queue else 0.0,
            bp_seconds=self.bp_seconds,
            dt_seconds=self.dt_seconds,
            nn_seconds=self.nn_seconds,
            local_rows=self.executor.local_rows,
            remote_rows=self.executor.remote_rows,
            remote_seconds=self.executor.remote_seconds,
            zero_remote_completed=self.zero_remote_completed,
            cache_hit_rate=hit,
            hot_hit_rate=hot,
            warm_hit_rate=warm,
            tier_seconds=dict(self.executor.tier_seconds),
            crashes=self.crashes,
            down_seconds=self.down_seconds,
        )

    def __repr__(self):
        state = "alive" if self.alive else "down"
        if not self.active:
            state = "inactive"
        elif self.draining:
            state = "draining"
        return (f"ReplicaServer(id={self.replica_id}, {state}, "
                f"queue={self.queue_depth})")
