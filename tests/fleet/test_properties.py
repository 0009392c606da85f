"""Property-based tests (hypothesis) for the fleet loop's incremental
state: the running hedge quantile and the cached dispatch readiness,
plus its request accounting.

The suite arms ``FLAGS.sanitize`` (tests/conftest.py), so every fleet
run below also has the loop compare each cached readiness time with a
fresh ``next_dispatch_time`` poll after every refresh, and check that
every request ended exactly once."""

import bisect
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.analysis.sanitize import check_readiness
from repro.errors import SanitizerError
from repro.fleet import (AutoscalePolicy, FleetEngine, HedgePolicy,
                         ResiliencePolicy, RoutingPolicy)
from repro.nn import build_model
from repro.perf import PERF
from repro.perf.profiler import percentile
from repro.serve import BatchPolicy, LayerwiseEmbeddings, LoadGenerator

POLICY = BatchPolicy(max_batch_size=8, max_wait=0.001)


def bits(value):
    return struct.pack("<d", value)


class TestRunningQuantile:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=120),
           st.randoms(use_true_random=False),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_insorted_sample_reads_bit_equal(self, values, rnd, q):
        arrivals = list(values)
        rnd.shuffle(arrivals)
        insorted = []
        for value in arrivals:
            bisect.insort(insorted, value)
        for quantile in [q] + list(range(101)):
            assert bits(percentile(insorted, quantile, presorted=True)) \
                == bits(percentile(arrivals, quantile))


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def embeddings(data, model):
    return LayerwiseEmbeddings(model, data.graph, data.features)


@st.composite
def fleet_configs(draw):
    replicas = draw(st.integers(1, 4))
    span = 120 / 30000.0
    crashes = draw(st.lists(
        st.tuples(st.floats(0.0, span), st.integers(0, replicas - 1),
                  st.floats(1e-4, span)),
        max_size=3))
    resilience = draw(st.sampled_from([
        None,
        ResiliencePolicy(),
        ResiliencePolicy(hedge=HedgePolicy(min_observations=5,
                                           min_delay=1e-4)),
        ResiliencePolicy(detector=None, breaker=None,
                         hedge=HedgePolicy(min_observations=5,
                                           min_delay=1e-4),
                         retry_budget=1),
    ]))
    # The last policy drains replicas whose queues are not yet
    # empty, which moves their readiness from the batch deadline to
    # their free time.
    autoscale = draw(st.sampled_from([
        None,
        AutoscalePolicy(min_replicas=1, high_watermark=3.0,
                        low_watermark=1.0, cooldown=2e-4),
        AutoscalePolicy(min_replicas=1, high_watermark=6.0,
                        low_watermark=4.0, cooldown=1e-4)]))
    spill = draw(st.sampled_from([None, 4]))
    seed = draw(st.integers(0, 50))
    return dict(num_replicas=replicas, crashes=crashes,
                resilience=resilience, autoscale=autoscale,
                routing=RoutingPolicy(spill_threshold=spill), seed=seed)


class TestCachedReadiness:
    @given(fleet_configs())
    @settings(max_examples=25, deadline=None)
    def test_random_fleets_keep_readiness_fresh(self, data, model,
                                                embeddings, config):
        trace = LoadGenerator(data.test_ids, rate=30000.0,
                              num_requests=120, seed=config["seed"],
                              skew=0.8).generate()
        engine = FleetEngine(data, model, partition="hash",
                             mode="precomputed", policy=POLICY,
                             max_queue=16, embeddings=embeddings,
                             **config)
        before = PERF.counters.get("sanitize_readiness_checks", 0)
        report = engine.run(trace)
        assert PERF.counters["sanitize_readiness_checks"] > before
        # No request is answered twice, and none vanishes: each one is
        # answered or rejected (dropped requests count as rejected),
        # exactly once.
        answered = [r.request.request_id for r in report.responses]
        assert len(answered) == len(set(answered))
        assert report.completed + report.rejected == len(trace)

    def test_a_stale_entry_is_caught(self, data, model, embeddings):
        engine = FleetEngine(data, model, partition="hash",
                             num_replicas=2, mode="precomputed",
                             policy=POLICY, embeddings=embeddings)
        replicas = engine._build_replicas()
        request = LoadGenerator(data.test_ids, rate=1000.0,
                                num_requests=1, seed=0).generate()[0]
        replicas[1].submit(request, is_owner=True)
        fresh = [r.next_dispatch_time(False) for r in replicas]
        check_readiness(replicas, fresh, False)
        with pytest.raises(SanitizerError, match="replica 1"):
            check_readiness(replicas, [None, None], False)


class TestAccounting:
    def test_every_request_counted_exactly_once(self, data, model,
                                                embeddings):
        trace = LoadGenerator(data.test_ids, rate=30000.0,
                              num_requests=120, seed=0,
                              skew=0.8).generate()
        report = FleetEngine(
            data, model, partition="hash", num_replicas=2,
            mode="precomputed", policy=POLICY, max_queue=16,
            embeddings=embeddings, resilience=ResiliencePolicy(),
            crashes=[(0.00390625, 0, 0.00390625),
                     (0.003274195819767802, 1, 0.00390625)],
            seed=0).run(trace)
        dropped = report.dropped_request_ids
        assert len(dropped) == len(set(dropped))
        assert report.completed + report.rejected == len(trace)
