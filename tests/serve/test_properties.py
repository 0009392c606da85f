"""Property-based test (hypothesis) of the single server's request
accounting: over random modes, batch policies, admission bounds,
deadlines, fallback and caches, every request of the trace ends exactly
once -- answered, rejected or shed.

The suite arms ``FLAGS.sanitize`` (tests/conftest.py), so every run
below also has the serving loop check the same law itself
(``check_accounting``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.nn import build_model
from repro.perf import PERF
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)

CACHES = {
    "none": {},
    "lru": dict(cache_policy="lru", cache_ratio=0.2),
    "degree": dict(cache_policy="degree", cache_ratio=0.2),
    "lfu": dict(cache_policy="lfu", cache_ratio=0.05, warm_ratio=0.1),
}


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
def server_configs(draw):
    mode = draw(st.sampled_from(["sampled", "full", "precomputed"]))
    deadline = draw(st.one_of(st.none(), st.floats(1e-4, 3e-3)))
    fallback = mode == "sampled" and deadline is not None \
        and draw(st.booleans())
    return dict(
        mode=mode,
        policy=BatchPolicy(draw(st.integers(1, 16)),
                           draw(st.floats(0.0, 2e-3))),
        max_queue=draw(st.one_of(st.none(), st.integers(1, 8))),
        deadline=deadline, fallback=fallback, fanout=(4, 4),
        seed=draw(st.integers(0, 50)),
        **CACHES[draw(st.sampled_from(sorted(CACHES)))])


class TestAccounting:
    @given(server_configs(), st.sampled_from([2000.0, 20000.0]),
           st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_every_request_ends_exactly_once(self, data, model,
                                             embeddings, config, rate,
                                             trace_seed):
        trace = LoadGenerator(data.test_ids, rate=rate, num_requests=60,
                              seed=trace_seed, skew=0.8).generate()
        before = PERF.counters.get("sanitize_accounting_checks", 0)
        report = ServeEngine(data, model, embeddings=embeddings,
                             **config).run(trace)
        assert PERF.counters["sanitize_accounting_checks"] == before + 1

        answered = [r.request.request_id for r in report.responses]
        assert len(answered) == len(set(answered)) == report.completed
        assert report.completed + report.rejected + report.shed \
            == len(trace)
        assert report.degraded == sum(r.degraded
                                      for r in report.responses)
        if not config["fallback"]:
            assert report.degraded == 0
        if config["deadline"] is None:
            assert report.shed == 0
        if config["max_queue"] is None:
            assert report.rejected == 0
        assert all(r.completion > r.request.arrival
                   for r in report.responses)
