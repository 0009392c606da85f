"""Runtime sanitizer behaviour: on, off, and zero-cost-when-off.

The suite-wide conftest arms ``FLAGS.sanitize``; the off-path tests
drop it locally with ``perf_overrides(sanitize=False)``.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import (check_accounting, check_contract,
                                     check_csr, check_finite,
                                     sanitize_active)
from repro.errors import SanitizerError
from repro.perf import PERF, perf_overrides
from repro.sampling import block as block_mod
from repro.sampling.block import build_block, build_block_reference
from repro.serve.requests import InferenceRequest, InferenceResponse


def counter(name):
    return PERF.counters.get(name, 0)


class TestCheckFinite:
    def test_clean_array_passes_through(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert check_finite(x, name="x") is x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raises(self, bad):
        x = np.ones(4)
        x[2] = bad
        with pytest.raises(SanitizerError, match="x:"):
            check_finite(x, name="x")

    def test_integer_arrays_exempt(self):
        before = counter("sanitize_finite_checks")
        check_finite(np.arange(5), name="ints")
        assert counter("sanitize_finite_checks") == before

    def test_unwraps_tensor_like(self):
        class Box:
            data = np.array([1.0, np.nan])

        with pytest.raises(SanitizerError, match="boxed"):
            check_finite(Box(), name="boxed")

    def test_off_is_noop(self):
        x = np.array([np.nan])
        with perf_overrides(sanitize=False):
            before = counter("sanitize_finite_checks")
            assert check_finite(x, name="x") is x
            assert counter("sanitize_finite_checks") == before
            assert not sanitize_active()
        assert sanitize_active()


def valid_csr():
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    indices = np.array([0, 2, 1], dtype=np.int64)
    return indptr, indices, 3


class TestCheckCSR:
    def test_valid_passes(self):
        before = counter("sanitize_csr_checks")
        check_csr(*valid_csr(), name="ok", sorted_rows=True)
        assert counter("sanitize_csr_checks") == before + 1

    def test_wrong_dtype(self):
        indptr, indices, n = valid_csr()
        with pytest.raises(SanitizerError, match="int64"):
            check_csr(indptr.astype(np.int32), indices, n)

    def test_wrong_indptr_length(self):
        indptr, indices, n = valid_csr()
        with pytest.raises(SanitizerError, match="entries"):
            check_csr(indptr, indices, n + 1)

    def test_nonzero_start(self):
        indptr, indices, n = valid_csr()
        indptr = indptr + 1
        with pytest.raises(SanitizerError, match=r"indptr\[0\]"):
            check_csr(indptr, indices, n)

    def test_decreasing_indptr(self):
        indptr = np.array([0, 2, 1, 3], dtype=np.int64)
        _, indices, n = valid_csr()
        with pytest.raises(SanitizerError, match="non-decreasing"):
            check_csr(indptr, indices, n)

    def test_endpoint_mismatch(self):
        indptr = np.array([0, 2, 2, 4], dtype=np.int64)
        _, indices, n = valid_csr()
        with pytest.raises(SanitizerError, match="match"):
            check_csr(indptr, indices, n)

    def test_index_out_of_range(self):
        indptr, indices, n = valid_csr()
        indices = indices.copy()
        indices[0] = n
        with pytest.raises(SanitizerError, match="out of range"):
            check_csr(indptr, indices, n)

    def test_unsorted_row_detected(self):
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        indices = np.array([2, 0, 1], dtype=np.int64)
        with pytest.raises(SanitizerError, match="sorted"):
            check_csr(indptr, indices, 3, sorted_rows=True)
        # The same arrays pass without the sorted-rows requirement...
        check_csr(indptr, indices, 3, sorted_rows=False)
        # ...and a drop at a row *boundary* is not a violation.
        check_csr(np.array([0, 1, 2], dtype=np.int64),
                  np.array([1, 0], dtype=np.int64), 2, sorted_rows=True)

    def test_off_accepts_garbage(self):
        with perf_overrides(sanitize=False):
            check_csr(np.array([5, 1], dtype=np.float32),
                      np.array([9], dtype=np.int64), 7)


def answers(*ids):
    return [InferenceResponse(request=InferenceRequest(i, i, 0.0),
                              prediction=0, completion=1.0,
                              batch_id=1, batch_size=1)
            for i in ids]


class TestCheckAccounting:
    def test_consistent_run_passes(self):
        before = counter("sanitize_accounting_checks")
        check_accounting(answers(0, 2), [3], rejected=2, shed=1,
                         num_requests=5)
        assert counter("sanitize_accounting_checks") == before + 1

    @pytest.mark.parametrize("responses, dropped, match", [
        (answers(0, 0), [], "answered twice"),
        (answers(0), [1, 1], "dropped twice"),
        (answers(0, 1), [1], "both answered and dropped"),
    ])
    def test_duplicate_ends_raise(self, responses, dropped, match):
        with pytest.raises(SanitizerError, match=match):
            check_accounting(responses, dropped, rejected=len(dropped),
                             shed=0, num_requests=len(responses)
                             + len(dropped))

    def test_lost_or_extra_request_raises(self):
        for rejected in (0, 2):
            with pytest.raises(SanitizerError, match="!= 3 arrivals"):
                check_accounting(answers(0, 1), [], rejected=rejected,
                                 shed=0, num_requests=3)

    def test_off_is_noop(self):
        before = counter("sanitize_accounting_checks")
        with perf_overrides(sanitize=False):
            check_accounting(answers(0, 0), [0], rejected=9, shed=9,
                             num_requests=1)
        assert counter("sanitize_accounting_checks") == before


class TestCheckContract:
    @staticmethod
    @check_contract(shape=(None, 3), dtype=np.float32)
    def make(rows, dtype=np.float32, cols=3):
        return np.zeros((rows, cols), dtype=dtype)

    def test_conforming_return_passes(self):
        before = counter("sanitize_contract_checks")
        out = self.make(4)
        assert out.shape == (4, 3)
        assert counter("sanitize_contract_checks") == before + 1

    def test_wrong_dtype_raises(self):
        with pytest.raises(SanitizerError, match="dtype"):
            self.make(4, dtype=np.float64)

    def test_wrong_shape_raises(self):
        with pytest.raises(SanitizerError, match="shape"):
            self.make(4, cols=2)

    def test_wrong_rank_raises(self):
        @check_contract(shape=(None,))
        def vector():
            return np.zeros((2, 2))

        with pytest.raises(SanitizerError, match="-D"):
            vector()

    def test_flag_consulted_per_call(self):
        with perf_overrides(sanitize=False):
            out = self.make(4, cols=2)  # violating, but unchecked
            assert out.shape == (4, 2)
        with pytest.raises(SanitizerError):
            self.make(4, cols=2)


class TestHotPathWiring:
    """build_block and from_edges call check_csr only under the flag."""

    @staticmethod
    def sample_edges(num_dst=64, num_edges=600, seed=3):
        rng = np.random.default_rng(seed)
        dst_nodes = np.arange(num_dst, dtype=np.int64) * 7
        edge_dst = rng.choice(dst_nodes, size=num_edges)
        edge_src = rng.integers(0, 1000, size=num_edges, dtype=np.int64)
        return dst_nodes, edge_dst, edge_src

    def test_build_block_checks_when_on(self):
        before = counter("sanitize_csr_checks")
        build_block(*self.sample_edges())
        assert counter("sanitize_csr_checks") == before + 1

    def test_build_block_off_runs_zero_sanitizer_code(self, monkeypatch):
        """Zero-cost proof: with the flag off, the sanitizer is never
        even *called* from the hot path (the call site is guarded), so
        the only off-path cost is one attribute read."""
        def boom(*args, **kwargs):
            raise AssertionError("sanitizer ran with FLAGS.sanitize off")

        monkeypatch.setattr(block_mod, "check_csr", boom)
        edges = self.sample_edges()
        with perf_overrides(sanitize=False):
            before = counter("sanitize_csr_checks")
            got = build_block(*edges)
            assert counter("sanitize_csr_checks") == before
        monkeypatch.undo()
        want = build_block(*edges)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_build_block_output_identical_on_vs_off(self):
        edges = self.sample_edges(seed=11)
        on = build_block(*edges)
        with perf_overrides(sanitize=False):
            off = build_block(*edges)
        ref = build_block_reference(*edges)
        for a in (on, off):
            assert np.array_equal(a.src_nodes, ref.src_nodes)
            assert np.array_equal(a.indptr, ref.indptr)
            assert np.array_equal(a.indices, ref.indices)

    def test_from_edges_checks_when_on(self):
        from repro.graph.build import from_edges

        src = np.array([0, 1, 2, 2], dtype=np.int64)
        dst = np.array([1, 2, 0, 1], dtype=np.int64)
        before = counter("sanitize_csr_checks")
        graph = from_edges(src, dst, num_vertices=3)
        assert counter("sanitize_csr_checks") == before + 1
        assert graph.num_vertices == 3


class TestTrainingBitIdentical:
    """Acceptance bar: sanitizers are observers, not participants —
    loss/accuracy curves bit-match with the flag on vs off."""

    def test_curves_identical(self):
        from repro.core import Trainer, TrainingConfig
        from repro.graph import load_dataset

        dataset = load_dataset("ogb-arxiv", scale=0.05)
        config = TrainingConfig(epochs=3, batch_size=64, num_workers=2,
                                fanout=(4, 4), seed=7)

        assert sanitize_active()
        on = Trainer(dataset, config).run()
        with perf_overrides(sanitize=False):
            off = Trainer(dataset, config).run()

        assert np.array_equal(on.curve.losses, off.curve.losses)
        assert np.array_equal(on.curve.val_accuracies,
                              off.curve.val_accuracies)
        assert on.best_val_accuracy == off.best_val_accuracy
        assert on.test_accuracy == off.test_accuracy
