"""The batch-execution layer: one micro-batch in, answers + billed
seconds out.

:class:`BatchExecutor` is the piece of the old monolithic
``ServeEngine`` that actually *serves* — sampling, feature/embedding
fetches through an optional cache, the model forward — factored out so
the serving event loop can drive it: each
:class:`~repro.fleet.replica.ReplicaServer` wraps one executor *per
shard* (the single :class:`~repro.serve.engine.ServeEngine` is one
replica owning the whole graph), with
:class:`~repro.fleet.replica.ShardExecutor` overriding only the remote
split of a fetch: rows owned by another shard are paid over the cluster
network.

The executor is deliberately ignorant of queueing, clocks, and
routing: it maps a vertex batch to ``(predictions, bp, dt, nn)``
simulated stage seconds, and accumulates cache/tier counters.  Answers
in ``precomputed`` mode flow through
:meth:`~repro.serve.precompute.LayerwiseEmbeddings.rowwise_logits`, so
they are a pure function of the queried vertex — independent of how
requests were batched, spilled, or failed over.
"""

from __future__ import annotations

import numpy as np

from ..errors import ServingError, TransferError
from ..sampling import NeighborSampler
from ..transfer.cache import DegreeCache, LRUCache
from ..transfer.hardware import DEFAULT_SPEC, estimate_flops
from ..transfer.tiered import TieredCache, make_tiered_cache
from .precompute import LayerwiseEmbeddings

__all__ = ["BatchExecutor", "SERVE_MODES", "model_hidden_dim"]

SERVE_MODES = ("sampled", "full", "precomputed")


def model_hidden_dim(model):
    """Output width of the model's conv stack (for FLOP estimates)."""
    conv = model.convs[-1]
    for attr in ("weight", "weight_self"):
        weight = getattr(conv, attr, None)
        if weight is not None:
            return weight.data.shape[1]
    return 128


class BatchExecutor:
    """Executes micro-batches for one serving node.

    Parameters mirror the serving knobs of
    :class:`~repro.serve.engine.ServeEngine` (which documents them);
    ``need_embeddings`` additionally forces the offline table build in
    ``sampled`` mode (the degraded-fallback path needs it).
    """

    def __init__(self, dataset, model, mode="sampled", fanout=(10, 10),
                 cache_policy="lru", cache_ratio=0.0, warm_ratio=0.0,
                 cache_scores=None, spec=None, embeddings=None,
                 need_embeddings=False):
        if mode not in SERVE_MODES:
            raise ServingError(
                f"unknown serve mode {mode!r}; known: {SERVE_MODES}")
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.spec = spec or DEFAULT_SPEC
        self.cache_ratio = float(cache_ratio)
        self.warm_ratio = float(warm_ratio)
        if self.warm_ratio < 0:
            raise ServingError(
                f"warm_ratio must be non-negative, got {warm_ratio}")
        self.cache_policy = cache_policy
        self.cache_scores = cache_scores
        self.hidden_dim = model_hidden_dim(model)
        self._feat_bytes = (dataset.feature_dim
                            * dataset.features.itemsize)

        self.sampler = None
        self.embeddings = None
        self.precompute_seconds = 0.0
        if mode == "sampled":
            self.sampler = NeighborSampler(fanout)
            if need_embeddings:
                self.embeddings = embeddings if embeddings is not None \
                    else LayerwiseEmbeddings(model, dataset.graph,
                                             dataset.features)
                self.precompute_seconds = self._precompute_cost()
        else:
            self.embeddings = embeddings if embeddings is not None else \
                LayerwiseEmbeddings(model, dataset.graph,
                                    dataset.features)
            # Offline pass cost, reported separately from latency: one
            # full feature transfer plus the per-layer full-graph
            # forward.
            self.precompute_seconds = self._precompute_cost()

        self.cache = self._build_cache()
        self.tier_seconds = {"hot": 0.0, "warm": 0.0, "cold": 0.0}

    def _precompute_cost(self):
        """Simulated cost of the one-off offline embedding pass."""
        table_bytes = self.dataset.feature_bytes()
        return (self.spec.gather_time(table_bytes)
                + self.spec.pcie_time(table_bytes)
                + self.spec.compute_time(self.embeddings.build_flops))

    def _build_cache(self):
        if self.cache_ratio <= 0 and self.warm_ratio <= 0:
            return None
        if self.warm_ratio > 0 or self.cache_policy == "lfu":
            # Multi-tier cache over the disk-backed hierarchy — the
            # same TieredCache the training workers use, here caching
            # feature rows (sampled/full) or embedding-table rows
            # (precomputed; row ids are vertex ids, so graph-degree
            # placement stays meaningful).
            try:
                return make_tiered_cache(
                    self.cache_policy, self.dataset.graph,
                    self.cache_ratio, self.warm_ratio,
                    scores=self.cache_scores)
            except TransferError as exc:
                raise ServingError(str(exc)) from exc
        if self.mode == "precomputed":
            # Historical-embedding cache: LRU over table rows.
            return LRUCache(self.embeddings.num_vertices,
                            self.cache_ratio)
        if self.cache_policy == "degree":
            return DegreeCache(self.dataset.graph, self.cache_ratio)
        if self.cache_policy == "lru":
            return LRUCache(self.dataset.graph, self.cache_ratio)
        raise ServingError(
            f"unknown serving cache policy {self.cache_policy!r}; "
            f"known: lru, degree (flat) and lru, lfu, degree, "
            f"presample, static (tiered, warm_ratio > 0)")

    # ------------------------------------------------------------------
    # Transfer billing
    # ------------------------------------------------------------------
    def fetch_seconds(self, row_ids, row_bytes):
        """Simulated time to materialize ``row_ids`` on the GPU through
        the cache (hits are resident; misses cross host + PCIe; with a
        tiered cache each tier is billed its own path and the split is
        accumulated for the report)."""
        if isinstance(self.cache, TieredCache):
            return self._bill_tiered(self.cache.lookup(row_ids),
                                     row_bytes)
        if self.cache is not None:
            _hits, misses = self.cache.lookup(row_ids)
        else:
            misses = np.asarray(row_ids, dtype=np.int64)
        return self._bill_flat(misses, row_bytes)

    def _bill_tiered(self, lookup, row_bytes):
        """Charge one tiered lookup and accumulate the per-tier split.
        Overridden by the fleet's :class:`ShardExecutor` to price
        remote-shard rows over the network instead of local disk."""
        bill = self.cache.bill(lookup, row_bytes, self.spec)
        for tier, value in sorted(bill.tier_seconds().items()):
            self.tier_seconds[tier] += value
        return bill.total_seconds

    def _bill_flat(self, misses, row_bytes):
        """Charge a flat-cache (or cache-less) fetch of ``misses``."""
        num_bytes = len(misses) * row_bytes
        if num_bytes == 0:
            return 0.0
        return (self.spec.gather_time(num_bytes)
                + self.spec.pcie_time(num_bytes))

    # ------------------------------------------------------------------
    # Per-batch execution
    # ------------------------------------------------------------------
    def execute(self, vertices, rng):
        """Run one micro-batch; returns ``(predictions, bp, dt, nn)``
        — per-request predictions plus the simulated seconds of each
        serving stage (batch preparation / data transfer / NN)."""
        if self.mode == "sampled":
            subgraph = self.sampler.sample(self.dataset.graph, vertices,
                                           rng)
            logits = self.model.forward(
                subgraph,
                self.dataset.features[subgraph.input_nodes]).data
            rows = np.searchsorted(subgraph.seeds, vertices)
            predictions = logits.argmax(axis=-1)[rows]
            bp = self.spec.sample_time(subgraph.total_edges)
            dt = self.fetch_seconds(subgraph.input_nodes,
                                    self._feat_bytes)
            nn = self.spec.compute_time(estimate_flops(
                subgraph, self.dataset.feature_dim, self.hidden_dim,
                self.dataset.num_classes, backward_factor=1.0))
            return predictions, bp, dt, nn

        if self.mode == "full":
            logits, stats = self.embeddings.ondemand_logits(vertices)
            predictions = logits.argmax(axis=-1)
            bp = self.spec.sample_time(stats.edges)
            dt = self.fetch_seconds(stats.input_ids, self._feat_bytes)
            nn = self.spec.compute_time(stats.flops)
            return predictions, bp, dt, nn

        # precomputed: row-wise table lookup through the embedding
        # cache + head (row-wise so every answer is batching-invariant
        # — see LayerwiseEmbeddings.rowwise_logits).
        logits = self.embeddings.rowwise_logits(vertices)
        predictions = logits.argmax(axis=-1)
        row_bytes = (self.embeddings.table.shape[1]
                     * self.embeddings.table.itemsize)
        dt = self.fetch_seconds(np.unique(vertices), row_bytes)
        nn = self.spec.compute_time(
            self.embeddings.head_flops(len(vertices)))
        return predictions, 0.0, dt, nn

    def execute_degraded(self, vertices):
        """Degraded-mode batch: answer from the precomputed table
        instead of sampling (no feature cache involved — the fallback
        table rows are fetched directly)."""
        logits = self.embeddings.rowwise_logits(vertices)
        predictions = logits.argmax(axis=-1)
        row_bytes = (self.embeddings.table.shape[1]
                     * self.embeddings.table.itemsize)
        num_bytes = len(np.unique(vertices)) * row_bytes
        dt = (self.spec.gather_time(num_bytes)
              + self.spec.pcie_time(num_bytes)) if num_bytes else 0.0
        nn = self.spec.compute_time(
            self.embeddings.head_flops(len(vertices)))
        return predictions, 0.0, dt, nn
