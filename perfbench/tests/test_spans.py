"""Self-tests of the benchmark's span arithmetic and wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from layers import ENTRY_POINTS, ENTRY_SPANS, layer_metrics  # noqa: E402
from spans import EntryPoint, Tracer, installed, resolve  # noqa: E402


def timed_span(tracer, clock, name, seconds):
    """A span of ``seconds`` on the fake clock."""
    tracer.enter(name, name.split(".", 1)[0])
    clock.advance(seconds)
    tracer.exit()


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("core.run", "core")          # 0 .. 10
    clock.advance(1)
    tracer.enter("nn.forward", "nn")          # 1 .. 6
    clock.advance(1)
    tracer.enter("kernels.gspmm", "kernels")  # 2 .. 4
    clock.advance(2)
    tracer.exit()
    clock.advance(2)
    tracer.exit()
    clock.advance(1)
    tracer.enter("kernels.gspmm", "kernels")  # 7 .. 8
    clock.advance(1)
    tracer.exit()
    clock.advance(2)
    tracer.exit()

    assert tracer.stats("core.run").busy_s == 10
    assert tracer.stats("core.run").self_s == 10 - 5 - 1
    assert tracer.stats("nn.forward").self_s == 5 - 2
    assert tracer.stats("kernels.gspmm").calls == 2
    assert tracer.stats("kernels.gspmm").busy_s == 3
    assert tracer.stats("kernels.gspmm").self_s == 3
    # Self times partition the outermost span exactly.
    assert sum(s.self_s for s in tracer.spans.values()) == 10
    assert tracer.top_self(1) == [("core.run", 4)]


def test_reentered_layer_and_name_are_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("sampling.sample", "sampling")
    clock.advance(1)
    tracer.enter("sampling.block", "sampling")
    clock.advance(2)
    tracer.enter("sampling.block", "sampling")
    clock.advance(3)
    tracer.exit()
    tracer.exit()
    clock.advance(1)
    tracer.exit()

    assert tracer.layer("sampling").busy_s == 7
    assert tracer.layer("sampling").self_s == 7
    assert tracer.layer("sampling").calls == 3
    assert tracer.stats("sampling.block").busy_s == 5
    assert tracer.stats("sampling.block").self_s == 5


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(2)
        raise ValueError("boom")

    from spans import traced
    with pytest.raises(ValueError):
        traced(tracer, "fleet.route", boom)()
    assert tracer.stats("fleet.route").busy_s == 2
    assert tracer._stack == []


def test_coverage_leaves_out_the_entry_spans_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("serve.loop", "serve")
    clock.advance(1)
    timed_span(tracer, clock, "serve.execute", 6)
    clock.advance(1)
    tracer.exit()
    clock.advance(2)  # timed, but outside every span

    assert tracer.coverage(10.0, ENTRY_SPANS) == pytest.approx(0.6)
    assert tracer.coverage(10.0) == pytest.approx(0.8)


def test_overhead_and_per_repetition_scaling():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for seconds in (1.0, 3.0):
        timed_span(tracer, clock, "serve.execute", seconds)
    values = layer_metrics(tracer, traced_walls=[5.0, 5.5],
                           untraced_walls=[4.0, 5.0, 6.0],
                           perf_delta={"kernel_flops": 10}, program={})
    assert values["serve.execute_s"] == pytest.approx(2.0)
    assert values["serve.batches"] == pytest.approx(1.0)
    assert values["serve.batch_ms_p50"] == pytest.approx(2000.0)
    assert values["kernels.flops"] == pytest.approx(5.0)
    assert values["trace.overhead_share"] == pytest.approx(0.05)
    assert values["trace.coverage"] == pytest.approx(4.0 / 10.5)


def test_wrapper_at_the_import_site_fires_and_is_removed():
    import repro.fleet.engine as fleet_engine
    import repro.perf.profiler as profiler
    from repro.fleet.resilience import HedgePolicy

    original = fleet_engine.percentile
    latencies = [0.001 * i for i in range(1, 40)]
    hedge = HedgePolicy()

    # Wrapping the definition does not reach the fleet engine, which
    # imported the function by name ...
    tracer = Tracer()
    with installed(tracer, [EntryPoint("repro.perf.profiler:percentile",
                                       "fleet.percentile")]):
        fleet_engine.FleetEngine._hedge_delay(hedge, latencies)
    assert tracer.stats("fleet.percentile").calls == 0
    assert profiler.percentile is original

    # ... wrapping the name the engine looks up does.
    tracer = Tracer()
    with installed(tracer, [EntryPoint("repro.fleet.engine:percentile",
                                       "fleet.percentile")]):
        delay = fleet_engine.FleetEngine._hedge_delay(hedge, latencies)
    assert tracer.stats("fleet.percentile").calls == 1
    assert delay == fleet_engine.FleetEngine._hedge_delay(hedge, latencies)
    assert fleet_engine.percentile is original


def test_inherited_methods_are_refused():
    with pytest.raises(LookupError):
        resolve("repro.fleet.replica:ShardExecutor.execute")


def test_every_entry_point_resolves_to_its_own_span():
    for entry in ENTRY_POINTS:
        resolve(entry.target)
    assert len({entry.span for entry in ENTRY_POINTS}) == len(ENTRY_POINTS)


def test_metric_lists_match_benchmark_json():
    from layers import PER_LAYER
    from run import END_TO_END

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)


@pytest.fixture(scope="module")
def small_workloads():
    """The real workloads, shrunk to run in seconds."""
    from workloads import (FleetCrashStorm, ServeSampledArxiv,
                           TrainSageProducts)

    train = TrainSageProducts()
    train.scale, train.epochs, train.num_requests = 0.15, 1, 40
    serve = ServeSampledArxiv()
    serve.scale, serve.train_epochs, serve.num_requests = 0.2, 1, 60
    fleet = FleetCrashStorm()
    fleet.scale, fleet.train_epochs, fleet.num_requests = 0.3, 1, 300
    return [train, serve, fleet]


def test_wrappers_fire_and_only_observe(small_workloads):
    fired = set()
    for workload in small_workloads:
        setup = workload.setup(workload.default_seed)
        untraced = workload.run(setup)
        tracer = Tracer()
        with installed(tracer, ENTRY_POINTS):
            traced = workload.run(setup)
        assert not untraced.problems and not traced.problems
        assert traced.digest == untraced.digest, workload.name
        for name in workload.expected_spans:
            assert tracer.stats(name).calls > 0, (workload.name, name)
        fired |= set(tracer.spans)
    # A wrapper that never fires on any workload measures nothing.
    assert {entry.span for entry in ENTRY_POINTS} <= fired
