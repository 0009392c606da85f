"""The online inference engine: a single simulated serving node.

Ties the layer together: an admission queue + micro-batcher
(:mod:`repro.serve.batcher`) feeds a :class:`~repro.serve.executor.
BatchExecutor`, and every byte/edge/FLOP a batch touches is converted
to simulated seconds through the same
:class:`~repro.transfer.hardware.HardwareSpec` cost model the training
engines use.  The executor is a separate layer on purpose: the fleet
tier (:mod:`repro.fleet`) runs one executor per graph shard behind a
partition-aware router, while this engine is the single-server
baseline the fleet must bit-match.

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

The event loop is deterministic: simulated arrivals come from a seeded
:class:`~repro.serve.requests.LoadGenerator` trace, sampling uses one
seeded rng, and no wall clock is ever read on the simulated-time path.

Graceful degradation (``deadline``/``fallback``): with a per-request
deadline, requests that are already past it at dispatch are *shed*
(load shedding — answering them late wastes capacity the live requests
need), and in ``sampled`` mode with ``fallback=True`` a batch whose
predicted sampled-path service time would miss the deadline is served
from precomputed layer-wise embeddings instead (exact-but-stale beats
sampled-but-late).  Sheds, degraded answers, and residual deadline
misses are all reported on :class:`~repro.serve.metrics.ServeReport`.
"""

from __future__ import annotations

import numpy as np

from ..errors import AdmissionError, ServingError
from ..perf import PERF, StageProfiler
from ..transfer.hardware import DEFAULT_SPEC
from ..transfer.tiered import TieredCache
from .batcher import BatchPolicy, MicroBatcher
from .executor import SERVE_MODES, BatchExecutor
from .metrics import ServeReport
from .precompute import head_memo
from .requests import InferenceResponse

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
        if deadline is not None and deadline <= 0:
            raise ServingError(
                f"deadline must be positive, got {deadline}")
        if fallback and mode != "sampled":
            raise ServingError(
                "fallback degradation only applies to 'sampled' mode "
                f"(mode {mode!r} already serves from the table)")
        if fallback and deadline is None:
            raise ServingError(
                "fallback degradation needs a deadline to degrade "
                "against")
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.policy = policy or BatchPolicy()
        self.max_queue = max_queue
        self.spec = spec or DEFAULT_SPEC
        self.seed = int(seed)
        self.deadline = None if deadline is None else float(deadline)
        self.fallback = bool(fallback)
        self.executor = BatchExecutor(
            dataset, model, mode=mode, fanout=fanout,
            cache_policy=cache_policy, cache_ratio=cache_ratio,
            warm_ratio=warm_ratio, cache_scores=cache_scores,
            spec=self.spec, embeddings=embeddings,
            need_embeddings=self.fallback)

    # Back-compatible views onto the execution layer (the pre-fleet
    # engine owned these directly; tests and callers still read them).
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

    # ------------------------------------------------------------------
    # The simulated-time serving loop
    # ------------------------------------------------------------------
    def run(self, requests):
        """Serve a request trace; returns a
        :class:`~repro.serve.metrics.ServeReport`.

        ``requests`` must be sorted by arrival time (what
        :meth:`LoadGenerator.generate` produces).  The loop is a
        single-server queueing simulation: arrivals at time ``t`` are
        admitted (in order) before any dispatch decision at ``t``; a
        batch launches when the server is free and the batcher is ready
        (full, past the oldest deadline, or draining).  Precomputed
        answers are memoized per vertex for this run only
        (:func:`~repro.serve.precompute.head_memo`).
        """
        was_training = self.model.training
        self.model.eval()
        try:
            with head_memo(self.embeddings):
                return self._run(list(requests))
        finally:
            self.model.train() if was_training else self.model.eval()

    def _run(self, requests):
        if not requests:
            raise ServingError("cannot serve an empty request trace")
        batcher = MicroBatcher(self.policy, self.max_queue)
        metrics = StageProfiler()
        self.executor.reset_counters()
        rng = np.random.default_rng(self.seed)
        labels = self.dataset.labels

        responses = []
        rejected = []
        shed = []
        degraded_count = 0
        service_estimate = None     # EWMA of sampled-path service time
        bp_total = dt_total = nn_total = 0.0
        correct = 0
        clock = 0.0
        i, n = 0, len(requests)
        batch_id = 0

        while i < n or len(batcher):
            if not len(batcher):
                clock = max(clock, requests[i].arrival)
            while i < n and requests[i].arrival <= clock:
                try:
                    batcher.submit(requests[i])
                    metrics.observe("queue_depth", len(batcher))
                except AdmissionError:
                    rejected.append(requests[i])
                i += 1
            if not batcher.ready(clock, draining=(i >= n)):
                flush_at = batcher.oldest_deadline()
                clock = max(clock, min(flush_at, requests[i].arrival))
                continue

            batch = batcher.take()
            if self.deadline is not None:
                # Load shedding: a request already past its deadline at
                # dispatch cannot be answered in time no matter how
                # fast the batch runs — drop it and spend the capacity
                # on requests that can still make it.
                expired = [r for r in batch
                           if clock > r.arrival + self.deadline]
                if expired:
                    shed.extend(expired)
                    batch = [r for r in batch
                             if clock <= r.arrival + self.deadline]
                    if not batch:
                        continue

            # Graceful degradation: when the sampled path's predicted
            # service time would push the batch's oldest request past
            # its deadline, answer from the precomputed table instead.
            degrade = (
                self.fallback and service_estimate is not None
                and clock + service_estimate
                > min(r.arrival for r in batch) + self.deadline)

            vertices = np.array([r.vertex for r in batch],
                                dtype=np.int64)
            if degrade:
                predictions, bp, dt, nn = \
                    self.executor.execute_degraded(vertices)
                degraded_count += len(batch)
            else:
                predictions, bp, dt, nn = self.executor.execute(
                    vertices, rng)
                if self.mode == "sampled":
                    service = bp + dt + nn
                    service_estimate = service \
                        if service_estimate is None \
                        else 0.5 * (service_estimate + service)
            clock += bp + dt + nn
            bp_total += bp
            dt_total += dt
            nn_total += nn
            metrics.observe("batch_size", len(batch))
            for request, prediction in zip(batch, predictions):
                responses.append(InferenceResponse(
                    request=request, prediction=int(prediction),
                    completion=clock, batch_id=batch_id,
                    batch_size=len(batch), degraded=degrade))
                metrics.observe("latency", clock - request.arrival)
                correct += int(prediction == labels[request.vertex])
            batch_id += 1
            PERF.count("serve_batches")

        PERF.count("serve_requests", len(responses))
        latency = metrics.summary("latency")
        batch_stats = metrics.summary("batch_size")
        depth = metrics.summary("queue_depth")
        duration = max(r.completion for r in responses) if responses \
            else 0.0
        tiered = isinstance(self.cache, TieredCache)
        return ServeReport(
            mode=self.mode,
            policy=self.policy.describe(),
            cache_ratio=self.cache_ratio,
            num_requests=n,
            completed=len(responses),
            rejected=len(rejected),
            duration_seconds=duration,
            throughput=len(responses) / duration if duration else 0.0,
            latency_mean=latency["mean"] if latency else 0.0,
            latency_p50=latency["p50"] if latency else 0.0,
            latency_p95=latency["p95"] if latency else 0.0,
            latency_p99=latency["p99"] if latency else 0.0,
            latency_max=latency["max"] if latency else 0.0,
            num_batches=batch_id,
            mean_batch_size=batch_stats["mean"] if batch_stats else 0.0,
            batch_occupancy=(batch_stats["mean"]
                             / self.policy.max_batch_size
                             if batch_stats else 0.0),
            queue_depth_mean=depth["mean"] if depth else 0.0,
            queue_depth_max=depth["max"] if depth else 0.0,
            cache_hit_rate=(self.cache.hit_rate
                            if self.cache is not None else 0.0),
            bp_seconds=bp_total,
            dt_seconds=dt_total,
            nn_seconds=nn_total,
            precompute_seconds=self.precompute_seconds,
            accuracy=correct / len(responses) if responses else 0.0,
            deadline=self.deadline or 0.0,
            shed=len(shed),
            degraded=degraded_count,
            deadline_misses=(sum(
                1 for r in responses
                if r.latency > self.deadline)
                if self.deadline is not None else 0),
            cache_policy=self.cache_policy,
            warm_ratio=self.warm_ratio,
            hot_hit_rate=(self.cache.hot_hit_rate if tiered else 0.0),
            warm_hit_rate=(self.cache.warm_hit_rate if tiered else 0.0),
            tier_seconds=(dict(self.executor.tier_seconds)
                          if tiered else {}),
            responses=responses,
        )
