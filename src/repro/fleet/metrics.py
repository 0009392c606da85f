"""Fleet metrics: one report per replica, aggregated into one per run.

Each :class:`~repro.fleet.replica.ReplicaServer` records its own
latency/batch/queue distributions on a private
:class:`~repro.perf.StageProfiler`; the fleet engine merges them
(:meth:`~repro.perf.StageProfiler.merge`) so fleet-wide percentiles
are computed over the union of every replica's observations — not
averaged averages.

Zero-traffic replicas are a real state (a cold standby the autoscaler
never activated, a shard the load never touched): their latency fields
are ``None`` and serialize as JSON ``null``, never a fabricated zero —
see :func:`repro.perf.profiler.percentile`'s ``default`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ReplicaReport", "FleetReport"]


def _latency_fields(summary):
    """Map a :meth:`StageProfiler.summary` digest (or ``None`` for a
    zero-traffic entity) onto the five latency fields."""
    if summary is None:
        return {"latency_mean": None, "latency_p50": None,
                "latency_p95": None, "latency_p99": None,
                "latency_max": None}
    return {"latency_mean": summary["mean"],
            "latency_p50": summary["p50"],
            "latency_p95": summary["p95"],
            "latency_p99": summary["p99"],
            "latency_max": summary["max"]}


@dataclass
class ReplicaReport:
    """Everything one replica measured over a fleet run.

    Latency fields are ``None`` (JSON ``null``) when the replica
    completed no requests.  ``remote_rows`` counts rows actually
    fetched from other shards over the network (a foreign row already
    resident in the local cache is not a remote fetch);
    ``local_rows`` counts rows resolved on-node (owned or cached).
    """

    replica: int
    shard_vertices: int
    routed: int                    # requests the router sent here
    owner_routed: int              # ... because this shard owns them
    spill_routed: int              # ... by spillover/failover
    completed: int
    rejected: int
    num_batches: int
    mean_batch_size: float
    latency_mean: float | None
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    latency_max: float | None
    queue_depth_mean: float
    queue_depth_max: float
    bp_seconds: float
    dt_seconds: float
    nn_seconds: float
    local_rows: int
    remote_rows: int
    remote_seconds: float          # network share of dt_seconds
    zero_remote_completed: int     # requests answered w/o remote rows
    cache_hit_rate: float
    hot_hit_rate: float
    warm_hit_rate: float
    tier_seconds: dict = field(default_factory=dict)
    crashes: int = 0
    down_seconds: float = 0.0

    def to_dict(self):
        """JSON-serializable summary."""
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


@dataclass
class FleetReport:
    """One sharded-serving run, in simulated seconds.

    ``routing_locality`` is the fraction of completed requests answered
    with **zero remote rows** — the headline §5-style metric: it is
    what partition-aware routing buys over random dispatch.
    ``remote_row_fraction`` is the row-level companion (remote rows /
    all rows fetched).  Fleet latency percentiles are computed over the
    merged per-replica observation lists.
    """

    mode: str
    policy: str
    partitioner: str
    num_replicas: int
    num_requests: int
    completed: int
    rejected: int
    spillovers: int
    failovers: int
    requeued: int                  # failover re-submissions after crash
    duration_seconds: float
    throughput: float
    latency_mean: float | None
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    latency_max: float | None
    bp_seconds: float
    dt_seconds: float
    nn_seconds: float
    remote_seconds: float
    precompute_seconds: float
    accuracy: float
    routing_locality: float
    remote_row_fraction: float
    cache_hit_rate: float
    hot_hit_rate: float
    warm_hit_rate: float
    cache_policy: str = "lru"
    scale_events: list = field(default_factory=list)
    replicas_active_max: int = 0
    dropped: int = 0               # lost outright: unroutable or over
    #                                the retry budget (subset of
    #                                ``rejected``); their ids are kept
    dropped_request_ids: list = field(default_factory=list)
    shed: int = 0                  # past their deadline at dispatch
    degraded: int = 0              # answered by the precomputed fallback
    replication_factor: float = 1.0
    resilience: dict | None = None  # detector/hedge/breaker/recovery
    #                                 counters; None on baseline runs
    replicas: list = field(default_factory=list)
    responses: list = field(repr=False, default_factory=list)

    @property
    def reject_rate(self):
        return self.rejected / self.num_requests \
            if self.num_requests else 0.0

    @property
    def drop_rate(self):
        return self.dropped / self.num_requests \
            if self.num_requests else 0.0

    def breakdown(self):
        """Serving-time shares of the three data-management steps,
        with the network share of data transferring split out (the
        routing cost the fleet exists to manage)."""
        total = self.bp_seconds + self.dt_seconds + self.nn_seconds
        if total == 0:
            return {"batch_preparation": 0.0, "data_transferring": 0.0,
                    "nn_computation": 0.0, "remote_transfer": 0.0}
        return {
            "batch_preparation": self.bp_seconds / total,
            "data_transferring": self.dt_seconds / total,
            "nn_computation": self.nn_seconds / total,
            "remote_transfer": self.remote_seconds / total,
        }

    def to_dict(self):
        """JSON-serializable summary (responses omitted; replica
        reports inlined)."""
        out = {name: getattr(self, name)
               for name in self.__dataclass_fields__
               if name not in ("responses", "replicas")}
        out["reject_rate"] = self.reject_rate
        out["drop_rate"] = self.drop_rate
        out["breakdown"] = self.breakdown()
        out["replicas"] = [r.to_dict() for r in self.replicas]
        return out
