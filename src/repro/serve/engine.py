"""The single simulated serving node: a 1-replica serving fleet.

:class:`ServeEngine` is the single-server face of the serving stack.  It
runs no event loop of its own: :meth:`ServeEngine.run` drives the
fleet's loop (:class:`~repro.fleet.engine.FleetEngine`) with one replica
owning the whole graph, and maps that replica onto a
:class:`~repro.serve.metrics.ServeReport`.  The replica's
:class:`~repro.serve.batcher.MicroBatcher` admits and batches requests,
its executor (:mod:`repro.serve.executor`) serves each micro-batch, and
every byte/edge/FLOP a batch touches is converted to simulated seconds
through the same :class:`~repro.transfer.hardware.HardwareSpec` cost
model the training engines use.  With one shard no row is remote, so
nothing is billed over the network.

Execution modes
---------------
``sampled``
    On-demand sampled inference: the batch's seeds go through the
    training stack's :class:`~repro.sampling.NeighborSampler` and
    ``build_block`` hot path, features are fetched through an optional
    GPU feature cache, and the model runs forward.  Approximate (it
    samples), cheap, the BGL/Serafini-style serving answer.
``full``
    On-demand *full-fanout* inference: the query's entire L-hop
    neighborhood, computed exactly via
    :class:`~repro.serve.precompute.LayerwiseEmbeddings`'s reference
    path.  Exact but explodes with depth — the mode that motivates
    precomputation.
``precomputed``
    Layer-wise precomputed embeddings: serving is an embedding-table
    lookup (through an LRU *historical-embedding cache*) plus the MLP
    head, evaluated row-wise so each answer is a pure function of the
    queried vertex (batching-invariant — see
    :meth:`~repro.serve.precompute.LayerwiseEmbeddings.rowwise_logits`).

Runs are deterministic: simulated arrivals come from a seeded
:class:`~repro.serve.requests.LoadGenerator` trace, sampling uses one
seeded rng, and no wall clock is ever read on the simulated-time path.
Every run starts from a fresh replica: cold cache, fresh rng, empty
queue.

Graceful degradation (``deadline``/``fallback``): with a per-request
deadline, requests that are already past it at dispatch are *shed*,
and in ``sampled`` mode with ``fallback=True`` a batch whose predicted
sampled-path service time would miss the deadline is served from
precomputed layer-wise embeddings instead (see
:meth:`~repro.fleet.replica.ReplicaServer.dispatch`).  Sheds, degraded
answers, and residual deadline misses are all reported on
:class:`~repro.serve.metrics.ServeReport`.
"""

from __future__ import annotations

import numpy as np

from ..partition.base import PartitionResult
from ..transfer.tiered import TieredCache
from .executor import SERVE_MODES
from .metrics import ServeReport

__all__ = ["ServeEngine", "SERVE_MODES"]


class ServeEngine:
    """Single-node online inference over a trained model.

    Parameters
    ----------
    dataset:
        The :class:`~repro.graph.datasets.Dataset` being served.
    model:
        A trained block-stack model (``GCN``/``GraphSAGE``; ``sampled``
        mode also accepts ``GAT``).
    mode:
        One of :data:`SERVE_MODES`.
    policy, max_queue:
        Micro-batching policy and admission bound (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    fanout:
        Per-layer fanout for ``sampled`` mode.
    cache_policy, cache_ratio:
        ``sampled``/``full``: the GPU *feature* cache ("lru" or
        "degree"); ``precomputed``: the *embedding-row* cache.
        ``cache_ratio=0`` disables caching (every row is fetched).
    warm_ratio, cache_scores:
        ``warm_ratio > 0`` (or ``cache_policy="lfu"``, which has no
        flat equivalent) upgrades the cache to a multi-tier
        :class:`~repro.transfer.tiered.TieredCache`: ``cache_ratio``
        of the rows GPU-hot, ``warm_ratio`` pinned-host-warm, the rest
        disk-cold — the policies grow to "lru"/"lfu"/"degree"/
        "presample"/"static" ("presample"/"static" need
        ``cache_scores``, e.g. measured request frequencies from a
        trace prefix).  The report then carries per-tier hit rates and
        the per-tier split of ``dt_seconds``.
    spec:
        Hardware cost model; defaults to the paper's simulated node.
    seed:
        Seeds the sampling rng — the only randomness in the engine.
    embeddings:
        Optional prebuilt :class:`LayerwiseEmbeddings` to share across
        engines (skips the offline pass).
    deadline:
        Optional per-request deadline in simulated seconds.  At
        dispatch, requests already past their deadline are *shed*
        (dropped without an answer — serving a guaranteed-stale reply
        wastes capacity the queued requests need); completed requests
        that still finish late are counted as deadline misses.
    fallback:
        ``sampled`` mode only: when True, a batch whose sampled-path
        service time is predicted to miss the deadline is served from
        precomputed layer-wise embeddings instead (graceful
        degradation: exact-but-stale beats sampled-but-late).  Builds a
        :class:`LayerwiseEmbeddings` table unless ``embeddings`` is
        supplied; the offline cost lands in ``precompute_seconds``.
    """

    def __init__(self, dataset, model, mode="sampled", policy=None,
                 max_queue=None, fanout=(10, 10), cache_policy="lru",
                 cache_ratio=0.0, warm_ratio=0.0, cache_scores=None,
                 spec=None, seed=0, embeddings=None, deadline=None,
                 fallback=False):
        # Function-level import: the fleet layer sits above this one.
        from ..fleet.engine import FleetEngine

        whole_graph = PartitionResult(
            np.zeros(dataset.graph.num_vertices, dtype=np.int64), 1,
            method="single")
        self.fleet = FleetEngine(
            dataset, model, partition=whole_graph, mode=mode,
            policy=policy, max_queue=max_queue, fanout=fanout,
            cache_policy=cache_policy, cache_ratio=cache_ratio,
            warm_ratio=warm_ratio, cache_scores=cache_scores, spec=spec,
            seed=seed, embeddings=embeddings, deadline=deadline,
            fallback=fallback)
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.policy = self.fleet.policy
        self.max_queue = max_queue
        self.spec = self.fleet.spec
        self.seed = self.fleet.seed
        self.deadline = self.fleet.deadline
        self.fallback = self.fleet.fallback

    # Back-compatible views onto the execution layer: the replica of the
    # last run (before the first, the one built at construction).
    @property
    def executor(self):
        return self.fleet.replicas[0].executor

    @property
    def sampler(self):
        return self.executor.sampler

    @property
    def embeddings(self):
        return self.executor.embeddings

    @property
    def cache(self):
        return self.executor.cache

    @property
    def cache_ratio(self):
        return self.executor.cache_ratio

    @property
    def warm_ratio(self):
        return self.executor.warm_ratio

    @property
    def cache_policy(self):
        return self.executor.cache_policy

    @property
    def hidden_dim(self):
        return self.executor.hidden_dim

    @property
    def precompute_seconds(self):
        return self.executor.precompute_seconds

    def run(self, requests):
        """Serve a request trace; returns a
        :class:`~repro.serve.metrics.ServeReport`.

        ``requests`` must be sorted by arrival time (what
        :meth:`LoadGenerator.generate` produces).  Arrivals at time
        ``t`` are admitted (in order) before any dispatch decision at
        ``t``; a batch launches when the server is free and the batcher
        is ready (full, past the oldest deadline, or draining).
        """
        fleet = self.fleet.run(requests)
        replica = self.fleet.replicas[0]
        cache = self.cache
        tiered = isinstance(cache, TieredCache)
        latency, batch, depth = (
            replica.metrics.summary(name) or {}
            for name in ("latency", "batch_size", "queue_depth"))
        responses = fleet.responses
        return ServeReport(
            mode=self.mode,
            policy=fleet.policy,
            cache_ratio=self.cache_ratio,
            num_requests=fleet.num_requests,
            completed=fleet.completed,
            rejected=fleet.rejected,
            duration_seconds=fleet.duration_seconds,
            throughput=fleet.throughput,
            latency_mean=latency.get("mean", 0.0),
            latency_p50=latency.get("p50", 0.0),
            latency_p95=latency.get("p95", 0.0),
            latency_p99=latency.get("p99", 0.0),
            latency_max=latency.get("max", 0.0),
            num_batches=replica.num_batches,
            mean_batch_size=batch.get("mean", 0.0),
            batch_occupancy=(batch.get("mean", 0.0)
                             / self.policy.max_batch_size),
            queue_depth_mean=depth.get("mean", 0.0),
            queue_depth_max=depth.get("max", 0.0),
            cache_hit_rate=cache.hit_rate if cache is not None else 0.0,
            bp_seconds=replica.bp_seconds,
            dt_seconds=replica.dt_seconds,
            nn_seconds=replica.nn_seconds,
            precompute_seconds=self.precompute_seconds,
            accuracy=fleet.accuracy,
            deadline=self.deadline or 0.0,
            shed=fleet.shed,
            degraded=fleet.degraded,
            deadline_misses=(sum(
                1 for r in responses if r.latency > self.deadline)
                if self.deadline is not None else 0),
            cache_policy=self.cache_policy,
            warm_ratio=self.warm_ratio,
            hot_hit_rate=cache.hot_hit_rate if tiered else 0.0,
            warm_hit_rate=cache.warm_hit_rate if tiered else 0.0,
            tier_seconds=(dict(self.executor.tier_seconds)
                          if tiered else {}),
            responses=responses,
        )
