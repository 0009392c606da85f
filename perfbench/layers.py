"""The layers the traced run measures, and the per-layer metrics.

Layer names are the program's module names.  Each entry point is the
public call into a layer, patched where its callers look it up: for
example ``percentile`` is wrapped as ``repro.fleet.engine`` imported
it, so only the fleet's hedge-delay calls are counted, and the kernel
dispatch is wrapped as ``repro.kernels.autograd`` calls it (forward and
backward of every model), with the scipy backend's CSR build
(``KernelCSR.to_scipy``) as a child span.  The ``gsddmm`` dispatch only
runs for GAT and the embedding table's ``gspmm`` only in set-up, so
neither is wrapped: a wrapper that never fires would report a zero as
if it were a measurement.  Span names are unique per entry point, so the
self-test can prove each one fires.
"""

from __future__ import annotations

import statistics

from spans import EntryPoint

__all__ = ["ENTRY_POINTS", "ENTRY_SPANS", "LAYERS", "PER_LAYER",
           "layer_metrics"]

#: Spans whose self time is loop code no layer claims: the workload
#: entry points.  ``trace.coverage`` leaves them out.
ENTRY_SPANS = ("core.run", "serve.loop", "fleet.loop")

BATCHER_SPANS = ("serve.submit", "serve.ready", "serve.take")
ROUTE_SPANS = ("fleet.route", "fleet.route_hedge")

LAYERS = ("partition", "sampling", "kernels", "nn", "transfer", "cache",
          "core", "serve", "precompute", "fleet")


def _cache_used(tracer, args, kwargs, result):
    tracer.keep("cache.caches", args[0])


def _partition_done(tracer, args, kwargs, result):
    tracer.keep("partition.results", (args[1], result))


def _sampled(tracer, args, kwargs, result):
    tracer.count("sampling.edges", result.total_edges)


def _transfer_done(tracer, args, kwargs, result):
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    if cache is not None:
        tracer.keep("transfer.caches", cache)


def _rows(name, index):
    def on_return(tracer, args, kwargs, result):
        tracer.count(name, len(args[index]))
    return on_return


ENTRY_POINTS = (
    EntryPoint("repro.partition.base:Partitioner.partition",
               "partition.partition", _partition_done),
    EntryPoint("repro.sampling.neighbor:NeighborSampler.sample",
               "sampling.sample", _sampled),
    EntryPoint("repro.sampling.base:build_block", "sampling.block"),
    EntryPoint("repro.kernels.autograd:gspmm_forward", "kernels.gspmm"),
    EntryPoint("repro.kernels.adjacency:KernelCSR.to_scipy",
               "kernels.to_scipy"),
    EntryPoint("repro.nn.layers:_GNNBase.forward", "nn.forward"),
    EntryPoint("repro.nn.tensor:Tensor.backward", "nn.backward"),
    EntryPoint("repro.nn.optim:Adam.step", "nn.optim"),
    EntryPoint("repro.transfer.methods:TransferMethod.transfer",
               "transfer.transfer", _transfer_done),
    EntryPoint("repro.transfer.tiered:TieredCache.lookup", "cache.lookup",
               _cache_used),
    EntryPoint("repro.transfer.tiered:TieredCache.bill", "cache.bill"),
    EntryPoint("repro.core.trainer:evaluate_model", "core.eval"),
    EntryPoint("repro.core.trainer:Trainer.run", "core.run"),
    EntryPoint("repro.serve.executor:BatchExecutor.execute",
               "serve.execute", _rows("serve.rows", 1)),
    EntryPoint("repro.serve.batcher:MicroBatcher.submit", "serve.submit"),
    EntryPoint("repro.serve.batcher:MicroBatcher.ready", "serve.ready"),
    EntryPoint("repro.serve.batcher:MicroBatcher.take", "serve.take"),
    EntryPoint("repro.serve.engine:ServeEngine.run", "serve.loop"),
    EntryPoint("repro.serve.precompute:LayerwiseEmbeddings.rowwise_logits",
               "precompute.head", _rows("precompute.rows", 1)),
    EntryPoint("repro.fleet.router:Router.route", "fleet.route"),
    EntryPoint("repro.fleet.router:Router.route_hedge",
               "fleet.route_hedge"),
    EntryPoint("repro.fleet.replica:ReplicaServer.next_dispatch_time",
               "fleet.poll"),
    EntryPoint("repro.fleet.replica:ReplicaServer.dispatch",
               "fleet.dispatch"),
    EntryPoint("repro.fleet.engine:percentile", "fleet.percentile"),
    EntryPoint("repro.fleet.engine:FleetEngine.run", "fleet.loop"),
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("partition.busy_s", "s"), ("partition.calls", "count"),
    ("partition.edge_cut", "fraction"),
    ("sampling.busy_s", "s"), ("sampling.calls", "count"),
    ("sampling.edges", "count"), ("sampling.block_s", "s"),
    ("kernels.busy_s", "s"), ("kernels.calls", "count"),
    ("kernels.fallbacks", "count"), ("kernels.flops", "count"),
    ("nn.forward_s", "s"), ("nn.backward_s", "s"), ("nn.optim_s", "s"),
    ("transfer.busy_s", "s"), ("transfer.cache_hit_rate", "fraction"),
    ("cache.lookup_s", "s"), ("cache.lookups", "count"),
    ("cache.hit_rate", "fraction"), ("cache.bill_s", "s"),
    ("core.eval_s", "s"), ("core.run_self_s", "s"),
    ("serve.execute_s", "s"), ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"), ("serve.batch_ms_p50", "ms"),
    ("serve.batch_ms_p99", "ms"), ("serve.batcher_s", "s"),
    ("serve.loop_self_s", "s"),
    ("precompute.head_s", "s"), ("precompute.head_rows", "count"),
    ("fleet.route_s", "s"), ("fleet.routes", "count"),
    ("fleet.routing_locality", "fraction"), ("fleet.poll_s", "s"),
    ("fleet.poll_calls", "count"), ("fleet.dispatch_s", "s"),
    ("fleet.percentile_s", "s"), ("fleet.percentile_calls", "count"),
    ("fleet.hedges", "count"), ("fleet.hedge_win_share", "fraction"),
    ("fleet.loop_self_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.coverage", "fraction"), ("trace.overhead_share", "fraction"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_ms(values, q):
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100,
                                      method="inclusive")[q - 1]


def layer_metrics(tracer, traced_walls, untraced_walls, perf_delta,
                  program):
    """Per-layer metrics, per repetition, of the traced repetitions
    whose timed walls are ``traced_walls``.

    ``untraced_walls`` are the timed walls of untraced repetitions of
    the same inputs (for the overhead); ``perf_delta`` is the program's
    own ``PERF`` counter delta over the traced repetitions; ``program``
    holds counters the workload read from the program's reports (fleet
    locality and hedges).
    """
    per = 1.0 / len(traced_walls)
    span = tracer.stats
    layer = tracer.layer
    out = {}

    cuts = [_edge_cut(graph, result)
            for graph, result in tracer.kept("partition.results")]
    out["partition.busy_s"] = layer("partition").busy_s * per
    out["partition.calls"] = span("partition.partition").calls * per
    out["partition.edge_cut"] = sum(cuts) / len(cuts) if cuts else 0.0

    out["sampling.busy_s"] = layer("sampling").busy_s * per
    out["sampling.calls"] = span("sampling.sample").calls * per
    out["sampling.edges"] = tracer.counts.get("sampling.edges", 0) * per
    out["sampling.block_s"] = span("sampling.block").busy_s * per

    out["kernels.busy_s"] = layer("kernels").busy_s * per
    out["kernels.calls"] = span("kernels.gspmm").calls * per
    out["kernels.fallbacks"] = perf_delta.get("kernel_fallbacks", 0) * per
    out["kernels.flops"] = perf_delta.get("kernel_flops", 0) * per

    out["nn.forward_s"] = span("nn.forward").busy_s * per
    out["nn.backward_s"] = span("nn.backward").busy_s * per
    out["nn.optim_s"] = span("nn.optim").busy_s * per

    flat = tracer.kept("transfer.caches")
    out["transfer.busy_s"] = layer("transfer").busy_s * per
    out["transfer.cache_hit_rate"] = _ratio(
        sum(c.hits for c in flat),
        sum(c.hits + c.misses for c in flat))

    tiered = tracer.kept("cache.caches")
    out["cache.lookup_s"] = span("cache.lookup").busy_s * per
    out["cache.lookups"] = span("cache.lookup").calls * per
    out["cache.hit_rate"] = _ratio(
        sum(c.hot_hits for c in tiered),
        sum(c.hot_hits + c.warm_hits + c.cold_misses for c in tiered))
    out["cache.bill_s"] = span("cache.bill").busy_s * per

    out["core.eval_s"] = span("core.eval").busy_s * per
    out["core.run_self_s"] = span("core.run").self_s * per

    execute = span("serve.execute")
    batch_walls = tracer.durations.get("serve.execute", [])
    out["serve.execute_s"] = execute.busy_s * per
    out["serve.batches"] = execute.calls * per
    out["serve.batch_size_mean"] = _ratio(
        tracer.counts.get("serve.rows", 0), execute.calls)
    out["serve.batch_ms_p50"] = _percentile_ms(batch_walls, 50)
    out["serve.batch_ms_p99"] = _percentile_ms(batch_walls, 99)
    out["serve.batcher_s"] = sum(
        span(name).busy_s for name in BATCHER_SPANS) * per
    out["serve.loop_self_s"] = span("serve.loop").self_s * per

    out["precompute.head_s"] = span("precompute.head").busy_s * per
    out["precompute.head_rows"] = \
        tracer.counts.get("precompute.rows", 0) * per

    out["fleet.route_s"] = sum(
        span(name).busy_s for name in ROUTE_SPANS) * per
    out["fleet.routes"] = sum(
        span(name).calls for name in ROUTE_SPANS) * per
    out["fleet.routing_locality"] = program.get("routing_locality", 0.0)
    out["fleet.poll_s"] = span("fleet.poll").busy_s * per
    out["fleet.poll_calls"] = span("fleet.poll").calls * per
    out["fleet.dispatch_s"] = span("fleet.dispatch").busy_s * per
    out["fleet.percentile_s"] = span("fleet.percentile").busy_s * per
    out["fleet.percentile_calls"] = span("fleet.percentile").calls * per
    out["fleet.hedges"] = program.get("hedges_launched", 0)
    out["fleet.hedge_win_share"] = _ratio(
        program.get("hedges_won", 0), program.get("hedges_launched", 0))
    out["fleet.loop_self_s"] = span("fleet.loop").self_s * per

    for name in LAYERS:
        out[f"{name}.self_s"] = layer(name).self_s * per
    out["trace.coverage"] = tracer.coverage(sum(traced_walls),
                                            ENTRY_SPANS)
    untraced = statistics.median(untraced_walls)
    out["trace.overhead_share"] = _ratio(
        statistics.median(traced_walls) - untraced, untraced)
    return out


def _edge_cut(graph, result):
    from repro.partition.quality import edge_cut_fraction
    return edge_cut_fraction(graph, result.assignment)
