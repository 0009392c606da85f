"""Layer-wise precomputed embeddings and the exact on-demand reference.

Full-fanout GNN inference has a classic data-management identity: the
seed embeddings a model produces from a query's full L-hop neighborhood
are *the same rows* a layer-by-layer full-graph forward pass produces
for the whole vertex set.  Serving systems exploit it by running the
full-graph pass offline ("layer-wise inference" in DGL's terminology)
and answering queries with an embedding-table lookup plus the final
classifier head — trading one big offline pass for per-query work that
no longer explodes with depth.

:class:`LayerwiseEmbeddings` implements both sides:

* :meth:`logits` — the serving path: gather precomputed final-layer
  embeddings, run the MLP head;
* :meth:`ondemand_logits` — the reference path: expand the query's full
  (every-neighbor) L-hop neighborhood and compute embeddings from raw
  features at query time, metering the edges/vertices/FLOPs a real
  on-demand server would pay.

The two are **bit-identical by construction**, not just numerically
close.  Floating-point addition is order-sensitive, so equality needs
both paths to execute the same per-row operations in the same order:

* both aggregate through one shared CSR operator per layer, dispatched
  through :mod:`repro.kernels` — the on-demand path multiplies *row
  slices* of that operator, and every registered backend evaluates a
  sliced row's dot product over the same stored non-zeros in the same
  order as the full product;
* the on-demand path scatters its intermediate rows into full-width
  ``(num_vertices, dim)`` buffers before every dense transform, so each
  GEMM has exactly the table build's shape and each output row depends
  only on its own (identical) input row.

The full-width buffers make the on-demand path as *computationally*
expensive as a full-graph pass — which is the point it demonstrates:
neighborhood explosion means full-fanout on-demand inference touches
nearly the whole graph anyway.  The metered costs report the honest
needed-set sizes, not the implementation's padded GEMMs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..analysis.sanitize import check_finite
from ..dist.fullbatch import full_aggregation_matrix
from ..errors import ServingError
from ..kernels import gspmm_forward
from ..nn.layers import GCNConv, SAGEConv
from ..nn.tensor import Tensor

__all__ = ["LayerwiseEmbeddings", "OndemandStats", "head_memo"]


@dataclass(frozen=True)
class OndemandStats:
    """Metered cost of one exact on-demand (full-fanout) batch.

    Attributes
    ----------
    edges:
        Aggregation edges touched across all layers (the
        batch-preparation work a real server would do).
    input_ids:
        Distinct vertices whose raw features the batch needs (the rows
        a feature cache is consulted for).
    flops:
        Forward FLOPs over the needed sets (aggregation + dense
        transforms + classifier head).
    """

    edges: int
    input_ids: np.ndarray
    flops: float

    @property
    def input_vertices(self):
        return len(self.input_ids)


def _relu(x):
    """The rectifier both paths share (rows are independent, so the
    table build and the on-demand path produce identical bits)."""
    return np.maximum(x, 0)


class LayerwiseEmbeddings:
    """Full-graph layer-wise embedding table for a trained block model.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.layers.GCN` or
        :class:`~repro.nn.layers.GraphSAGE` (anything stacking
        ``GCNConv``/``SAGEConv`` layers with a ``head`` MLP).  GAT's
        data-dependent attention has no precomputable linear operator,
        so it is rejected.
    graph, features:
        The graph and raw input features served against.

    The build runs eval-mode semantics (dropout is identity), matching
    what on-demand inference computes.
    """

    def __init__(self, model, graph, features):
        convs = getattr(model, "convs", None)
        head = getattr(model, "head", None)
        if not convs or head is None:
            raise ServingError(
                "layer-wise precompute needs a conv-stack model with a "
                "classifier head (GCN or GraphSAGE)")
        for conv in convs:
            if not isinstance(conv, (GCNConv, SAGEConv)):
                raise ServingError(
                    f"layer-wise precompute supports GCNConv/SAGEConv "
                    f"stacks, not {type(conv).__name__}")
        self.graph = graph
        self.convs = list(convs)
        self.head = head
        self.num_vertices = graph.num_vertices
        self.features = np.asarray(features)

        # One shared aggregation operator per self-loop convention;
        # GCN aggregates itself in the mean, SAGE keeps an explicit
        # self path.
        self._operators = {}
        for conv in self.convs:
            loops = isinstance(conv, GCNConv)
            if loops not in self._operators:
                self._operators[loops] = full_aggregation_matrix(
                    graph, self_loops=loops)

        # Offline table build: the full-graph pass every vertex shares.
        self.build_edges = 0
        self.build_flops = 0.0
        everyone = np.arange(self.num_vertices, dtype=np.int64)
        h = self.features
        for conv in self.convs:
            h, edges, flops = self._apply_conv(conv, h, everyone)
            self.build_edges += edges
            self.build_flops += flops
        self.table = check_finite(h, name="precomputed embedding table")
        # vertex -> its (1, C) head logits; a dict only inside
        # head_memo(), i.e. for at most one serving run.
        self._memo = None

    # ------------------------------------------------------------------
    # Shared layer math
    # ------------------------------------------------------------------
    def _operator(self, conv):
        return self._operators[isinstance(conv, GCNConv)]

    def _apply_conv(self, conv, h_in, dst):
        """Rows ``dst`` of ``relu(conv(h_in))`` in a full-width buffer.

        ``h_in`` must be a ``(num_vertices, d_in)`` buffer whose rows
        are valid for ``dst`` and every in-neighbor of ``dst``; the
        returned buffer's rows are valid exactly for ``dst``.  All
        shapes are full-width so the per-row float operations match the
        table build bit-for-bit.
        """
        operator = self._operator(conv)
        rows = operator.take_rows(dst) \
            if len(dst) < self.num_vertices else operator
        aggregated = gspmm_forward(rows, h_in)
        full = np.zeros((self.num_vertices, aggregated.shape[1]),
                        dtype=aggregated.dtype)
        full[dst] = aggregated
        edges = int(rows.nnz)
        if isinstance(conv, GCNConv):
            out = full @ conv.weight.data + conv.bias.data
        else:
            out = (h_in @ conv.weight_self.data
                   + full @ conv.weight_neigh.data + conv.bias.data)
            if conv.normalize:
                norms = np.sqrt((out * out).sum(axis=1, keepdims=True))
                out = out / np.maximum(norms, 1e-12)
        d_in = h_in.shape[1]
        d_out = out.shape[1]
        flops = 2.0 * edges * d_in + 2.0 * len(dst) * d_in * d_out
        if isinstance(conv, SAGEConv):
            flops += 2.0 * len(dst) * d_in * d_out
        result = np.zeros_like(out)
        result[dst] = _relu(out[dst])
        return result, edges, flops

    def _head_logits(self, rows):
        """Classifier head over gathered embedding rows (one shared
        code path, so both serving modes transform identical inputs
        identically)."""
        return self.head.forward(Tensor(np.ascontiguousarray(rows))).data

    def head_flops(self, batch_size):
        """Forward FLOPs of the MLP head for ``batch_size`` rows."""
        flops = 0.0
        for layer in self.head.layers:
            in_dim, out_dim = layer.weight.data.shape
            flops += 2.0 * batch_size * in_dim * out_dim
        return flops

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------
    def logits(self, vertices):
        """Precomputed-mode logits: table lookup + head."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return self._head_logits(self.table[vertices])

    def rowwise_logits(self, vertices):
        """Precomputed-mode logits, one row at a time.

        BLAS dispatches different kernels for ``(1, d)`` and ``(m, d)``
        operands, so the *bits* of a row's logits through
        :meth:`logits` can depend on the size of the batch it rode in.
        Serving answers must instead be a pure function of the queried
        vertex — the property that lets a sharded fleet re-batch,
        spill, and fail over requests while remaining bit-identical to
        a single server.  This method pins one shape: every row is
        evaluated as its own ``(1, d)`` head pass, so identical
        vertices produce identical bits under any batching.

        Inside :func:`head_memo` each vertex's row is computed once and
        reused; the memo stores that same ``(1, d)`` pass's output, so
        answers are unchanged.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            raise ServingError("cannot serve an empty query batch")
        memo = self._memo if self._memo is not None else {}
        rows = []
        for v in vertices.tolist():
            row = memo.get(v)
            if row is None:
                row = memo[v] = self._head_logits(self.table[v:v + 1])
            rows.append(row)
        return np.concatenate(rows, axis=0)

    def ondemand_logits(self, vertices):
        """Exact full-fanout on-demand logits plus metered cost.

        Returns ``(logits, OndemandStats)``; the logits bit-match
        :meth:`logits` on the same ``vertices``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            raise ServingError("cannot serve an empty query batch")

        # Needed row sets, outermost first: needed[l] are the rows of
        # layer l's *output* the query depends on.
        in_indptr, in_indices = self.graph.in_csr()
        needed = [None] * (len(self.convs) + 1)
        needed[-1] = np.unique(vertices)
        for level in range(len(self.convs) - 1, -1, -1):
            out_rows = needed[level + 1]
            chunks = [in_indices[in_indptr[v]:in_indptr[v + 1]]
                      for v in out_rows]
            chunks.append(out_rows)
            needed[level] = np.unique(np.concatenate(chunks))

        total_edges = 0
        total_flops = 0.0
        h = self.features
        for level, conv in enumerate(self.convs):
            h, edges, flops = self._apply_conv(conv, h, needed[level + 1])
            total_edges += edges
            total_flops += flops
        total_flops += self.head_flops(len(vertices))

        logits = self._head_logits(h[vertices])
        return logits, OndemandStats(edges=total_edges,
                                     input_ids=needed[0],
                                     flops=total_flops)


@contextmanager
def head_memo(embeddings):
    """Memoize ``embeddings.rowwise_logits`` per vertex inside the block.

    The serving engines wrap one ``run()`` in it: repeated queries for a
    hot vertex then cost one head pass per run, and a head updated
    between runs is never answered from a stale memo.  ``embeddings``
    may be ``None`` (sampled serving without a table); the block then
    runs unchanged.
    """
    if embeddings is None:
        yield
        return
    saved = embeddings._memo
    embeddings._memo = {}
    try:
        yield
    finally:
        embeddings._memo = saved
