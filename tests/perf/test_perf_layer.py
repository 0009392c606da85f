"""The perf subsystem itself: profiler, workspace pool, flags."""

import numpy as np
import pytest

from repro.perf import (FLAGS, PERF, EvalSubgraphCache, StageProfiler,
                        Workspace, percentile, perf_overrides)
from repro.sampling import NeighborSampler


class TestStageProfiler:
    def test_counters_accumulate(self):
        profiler = StageProfiler()
        profiler.count("hits")
        profiler.count("hits", 2)
        assert profiler.snapshot()["hits"] == 3

    def test_timed_context(self):
        profiler = StageProfiler()
        with profiler.timed("stage"):
            pass
        snap = profiler.snapshot()
        assert snap["stage_seconds"] >= 0.0
        assert snap["stage_calls"] == 1

    def test_timed_survives_exception(self):
        profiler = StageProfiler()
        with pytest.raises(ValueError):
            with profiler.timed("stage"):
                raise ValueError
        assert profiler.snapshot()["stage_calls"] == 1

    def test_delta_drops_unmoved(self):
        profiler = StageProfiler()
        profiler.count("old")
        before = profiler.snapshot()
        profiler.count("new")
        assert profiler.delta(before) == {"new": 1}

    def test_reset(self):
        profiler = StageProfiler()
        profiler.count("x")
        profiler.add_seconds("y", 1.0)
        profiler.reset()
        assert profiler.snapshot() == {}

    def test_global_singleton_exists(self):
        assert isinstance(PERF, StageProfiler)


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(0)
        values = list(rng.exponential(1.0, size=137))
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                np.percentile(values, q), rel=1e-12)

    def test_single_value(self):
        assert percentile([4.2], 50) == 4.2
        assert percentile([4.2], 99) == 4.2

    def test_interpolates_between_ranks(self):
        # ranks 0..3; p50 sits exactly between 2.0 and 3.0.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_q_checked_before_the_empty_default(self):
        assert percentile([], 50, default=None) is None
        with pytest.raises(ValueError):
            percentile([], 150, default=None)
        with pytest.raises(ValueError):
            percentile([], -1, default=0.0)

    def test_presorted_skips_the_sort(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50, presorted=True) == 2.5
        # The promise is trusted, not checked: unsorted input is read
        # as given.
        assert percentile([9.0, 1.0, 5.0], 0, presorted=True) == 9.0


class TestObservations:
    def test_observe_and_percentile(self):
        profiler = StageProfiler()
        for value in [5.0, 1.0, 3.0]:
            profiler.observe("latency", value)
        assert profiler.percentile("latency", 50) == 3.0
        assert profiler.snapshot()["latency_observed"] == 3

    def test_summary_shape(self):
        profiler = StageProfiler()
        for value in range(1, 101):
            profiler.observe("depth", float(value))
        summary = profiler.summary("depth")
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(
            np.percentile(np.arange(1.0, 101.0), 50))
        assert summary["p95"] <= summary["p99"] <= summary["max"] == 100.0

    def test_summary_missing_returns_none(self):
        assert StageProfiler().summary("nothing") is None

    def test_percentile_missing_raises(self):
        with pytest.raises(KeyError):
            StageProfiler().percentile("nothing", 50)

    def test_reset_clears_observations(self):
        profiler = StageProfiler()
        profiler.observe("x", 1.0)
        profiler.reset()
        assert profiler.summary("x") is None


class TestWorkspace:
    def test_grows_geometrically_and_reuses(self):
        workspace = Workspace()
        with workspace.id_map(10) as lookup:
            assert len(lookup) >= 10
            assert np.all(lookup == -1)
        first_capacity = workspace.id_map_capacity
        with workspace.id_map(5) as lookup:
            pass
        assert workspace.id_map_capacity == first_capacity

    def test_grow_on_larger_request(self):
        workspace = Workspace()
        with workspace.id_map(10):
            pass
        small = workspace.id_map_capacity
        with workspace.id_map(10 * small) as lookup:
            assert len(lookup) >= 10 * small

    def test_reentrant_borrow_gets_fresh_array(self):
        workspace = Workspace()
        with workspace.id_map(8) as outer:
            outer[3] = 7
            with workspace.id_map(8) as inner:
                assert inner is not outer
                assert np.all(inner == -1)
            outer[3] = -1

    def test_caller_restores_invariant(self):
        workspace = Workspace()
        with workspace.id_map(16) as lookup:
            lookup[[2, 5]] = [0, 1]
            lookup[[2, 5]] = -1
        with workspace.id_map(16) as lookup:
            assert np.all(lookup == -1)


class TestPerfOverrides:
    def test_unknown_flag_rejected(self):
        with pytest.raises(AttributeError):
            with perf_overrides(not_a_flag=True):
                pass

    def test_nested_overrides_restore(self):
        assert FLAGS.memoize_aggregation
        with perf_overrides(memoize_aggregation=False):
            with perf_overrides(memoize_aggregation=True):
                assert FLAGS.memoize_aggregation
            assert not FLAGS.memoize_aggregation
        assert FLAGS.memoize_aggregation

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with perf_overrides(fused_block_assembly=False):
                raise RuntimeError
        assert FLAGS.fused_block_assembly


class TestEvalSubgraphCacheUnit:
    def test_key_depends_on_inputs(self):
        sampler_a = NeighborSampler((4, 4))
        sampler_b = NeighborSampler((4, 4))
        ids = np.arange(10)
        base = EvalSubgraphCache.make_key(sampler_a, ids, 8, 1)
        assert base == EvalSubgraphCache.make_key(sampler_a, ids, 8, 1)
        assert base != EvalSubgraphCache.make_key(sampler_b, ids, 8, 1)
        assert base != EvalSubgraphCache.make_key(sampler_a, ids, 4, 1)
        assert base != EvalSubgraphCache.make_key(sampler_a, ids, 8, 2)
        assert base != EvalSubgraphCache.make_key(sampler_a, ids + 1, 8, 1)

    def test_put_get_clear(self):
        cache = EvalSubgraphCache()
        cache.put("key", ["batch"])
        assert cache.get("key") == ["batch"]
        cache.clear()
        assert cache.get("key") is None

    def test_re_put_replaces_value(self):
        # Last write wins, explicitly: a re-put must not silently keep
        # the stale entry (the pre-fix behavior).
        cache = EvalSubgraphCache()
        cache.put("key", ["stale"])
        cache.put("key", ["fresh"])
        assert cache.get("key") == ["fresh"]

    def test_re_put_does_not_grow_cache(self):
        cache = EvalSubgraphCache(max_entries=2)
        cache.put("a", [1])
        cache.put("a", [2])
        cache.put("b", [3])
        # "a" replaced in place: both keys still resident.
        assert cache.get("a") == [2]
        assert cache.get("b") == [3]
