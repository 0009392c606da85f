"""repro.serve — online GNN inference serving.

The training side of this library prepares batches to *learn*; this
package prepares batches to *answer queries*.  The same data-management
steps reappear with serving economics: batch preparation becomes
dynamic micro-batching of user requests under a latency SLO, data
transferring becomes feature/embedding fetches through a GPU cache, and
NN computation can be moved offline entirely via layer-wise
precomputed embedding tables.

Pieces:

* :mod:`~repro.serve.requests` — typed requests/responses and a seeded
  open-loop Poisson :class:`LoadGenerator` (fully reproducible traces);
* :mod:`~repro.serve.batcher` — :class:`MicroBatcher` with
  ``max_batch_size``/``max_wait`` flush policies and bounded-queue
  backpressure (:class:`~repro.errors.AdmissionError`);
* :mod:`~repro.serve.precompute` — :class:`LayerwiseEmbeddings`,
  bit-identical precomputed vs on-demand full-fanout inference;
* :mod:`~repro.serve.engine` — the :class:`ServeEngine` simulated
  single-node server with three execution modes (a 1-replica
  :class:`~repro.fleet.engine.FleetEngine`);
* :mod:`~repro.serve.metrics` — :class:`ServeReport` latency/throughput
  digests built on :meth:`repro.perf.StageProfiler.observe`;
* :mod:`~repro.serve.bench` — the ``repro serve-bench`` sweep.
"""

from .batcher import BatchPolicy, MicroBatcher
from .bench import run_serve_bench
from .engine import SERVE_MODES, ServeEngine
from .metrics import ServeReport
from .precompute import LayerwiseEmbeddings, OndemandStats
from .requests import InferenceRequest, InferenceResponse, LoadGenerator

__all__ = [
    "InferenceRequest", "InferenceResponse", "LoadGenerator",
    "BatchPolicy", "MicroBatcher",
    "LayerwiseEmbeddings", "OndemandStats",
    "ServeEngine", "SERVE_MODES", "ServeReport",
    "run_serve_bench",
]
