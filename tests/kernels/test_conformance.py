"""Cross-backend conformance: every backend, byte-identical to the
pinned numpy reference over the full op/reduce/dtype/adjacency matrix.

"Byte-identical" is literal: outputs are compared with ``tobytes()``,
so a backend that is merely *close* (different accumulation order,
different intermediate precision) fails here even when ``allclose``
would pass.  This is the property the golden end-to-end tests rest on.
"""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import (available_backends, edge_softmax_forward,
                           gsddmm_forward, gspmm_forward,
                           resolve_backend)
from repro.perf import PERF, perf_overrides

from .conftest import backend_params

DTYPES = (np.float32, np.float64)


def _features(adj, dtype, seed=0, dim=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((adj.shape[1], dim)).astype(dtype)


def _assert_bytes_equal(out, reference):
    out = np.asarray(out)
    reference = np.asarray(reference)
    assert out.dtype == reference.dtype
    assert out.shape == reference.shape
    assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
@pytest.mark.parametrize("op", ["mul", "copy_rhs"])
class TestGspmmConformance:
    def test_csr(self, backend, dtype, reduce, op, csr_case):
        x = _features(csr_case, dtype)
        reference = gspmm_forward(csr_case, x, op=op, reduce=reduce,
                                  backend="reference")
        out = gspmm_forward(csr_case, x, op=op, reduce=reduce,
                            backend=backend)
        _assert_bytes_equal(out, reference)

    def test_coo(self, backend, dtype, reduce, op, coo_case):
        values = np.linspace(-1.0, 1.0,
                             coo_case.nnz).astype(np.float32)
        x = _features(coo_case, dtype, seed=1)
        reference = gspmm_forward(coo_case, x, values=values, op=op,
                                  reduce=reduce, backend="reference")
        out = gspmm_forward(coo_case, x, values=values, op=op,
                            reduce=reduce, backend=backend)
        _assert_bytes_equal(out, reference)


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", ["add", "mul", "dot"])
class TestGsddmmConformance:
    def test_csr(self, backend, dtype, op, csr_case):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((csr_case.shape[0], 3)).astype(dtype)
        k = rng.standard_normal((csr_case.shape[1], 3)).astype(dtype)
        reference = gsddmm_forward(csr_case, q, k, op=op,
                                   backend="reference")
        out = gsddmm_forward(csr_case, q, k, op=op, backend=backend)
        _assert_bytes_equal(out, reference)

    def test_coo(self, backend, dtype, op, coo_case):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((coo_case.shape[0], 3)).astype(dtype)
        k = rng.standard_normal((coo_case.shape[1], 3)).astype(dtype)
        reference = gsddmm_forward(coo_case, q, k, op=op,
                                   backend="reference")
        out = gsddmm_forward(coo_case, q, k, op=op, backend=backend)
        _assert_bytes_equal(out, reference)


@pytest.mark.parametrize("backend", backend_params())
class TestEdgeSoftmaxConformance:
    def test_coo(self, backend, coo_case):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(coo_case.nnz).astype(np.float32)
        reference = edge_softmax_forward(coo_case, scores,
                                         backend="reference")
        out = edge_softmax_forward(coo_case, scores, backend=backend)
        _assert_bytes_equal(out, reference)
        # Probabilities per populated destination sum to ~1.
        if coo_case.nnz:
            sums = np.zeros(coo_case.shape[0])
            np.add.at(sums, coo_case.edge_dst, out)
            populated = sums > 0
            assert np.allclose(sums[populated], 1.0)


class TestDispatchSemantics:
    def test_unknown_backend_raises(self, csr_case):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            gspmm_forward(csr_case, _features(csr_case, np.float32),
                          backend="cuda")

    def test_numba_is_not_a_backend(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            resolve_backend("numba")
        with perf_overrides(kernel_backend="numba"), \
                pytest.raises(KernelError,
                              match="unknown kernel backend"):
            resolve_backend()

    def test_unknown_op_raises(self, csr_case):
        with pytest.raises(KernelError, match="unknown gspmm op"):
            gspmm_forward(csr_case, _features(csr_case, np.float32),
                          op="divide")

    def test_shape_mismatch_raises(self, csr_case):
        wrong = np.ones((csr_case.shape[1] + 1, 2), dtype=np.float32)
        with pytest.raises(KernelError, match="rows"):
            gspmm_forward(csr_case, wrong)

    def test_flag_selects_backend(self, csr_case):
        x = _features(csr_case, np.float32)
        expected = gspmm_forward(csr_case, x, backend="reference")
        for name in available_backends():
            with perf_overrides(kernel_backend=name):
                assert resolve_backend().name == name
                _assert_bytes_equal(gspmm_forward(csr_case, x),
                                    expected)

    def test_auto_prefers_accelerated(self):
        names = available_backends()
        resolved = resolve_backend("auto").name
        if names == ["reference"]:
            assert resolved == "reference"
        else:
            assert resolved != "reference"

    def test_fallback_is_counted(self, coo_case):
        accelerated = [n for n in available_backends()
                       if n != "reference"]
        if not accelerated:
            pytest.skip("no accelerated backend importable")
        rng = np.random.default_rng(5)
        q = rng.standard_normal((coo_case.shape[0], 2)).astype(np.float32)
        k = rng.standard_normal((coo_case.shape[1], 2)).astype(np.float32)
        before = PERF.snapshot()
        gsddmm_forward(coo_case, q, k, op="add",
                       backend=accelerated[0])
        delta = PERF.delta(before)
        assert delta.get("kernel_fallbacks", 0) == 1
        assert delta.get("kernel_reference_calls", 0) == 1

    def test_max_reduce_detour_is_counted(self, csr_case):
        """``reduce='max'`` always runs the reference scan; resolving
        any other backend must count the detour as a fallback rather
        than silently degrading an explicit request."""
        accelerated = [n for n in available_backends()
                       if n != "reference"]
        if not accelerated:
            pytest.skip("no accelerated backend importable")
        x = _features(csr_case, np.float32)
        before = PERF.snapshot()
        gspmm_forward(csr_case, x, reduce="max",
                      backend=accelerated[0])
        delta = PERF.delta(before)
        assert delta.get("kernel_fallbacks", 0) == 1
        assert delta.get("kernel_reference_calls", 0) == 1
        assert delta.get(f"kernel_{accelerated[0]}_calls", 0) == 0

    def test_max_reduce_reference_is_not_a_fallback(self, csr_case):
        x = _features(csr_case, np.float32)
        before = PERF.snapshot()
        gspmm_forward(csr_case, x, reduce="max", backend="reference")
        delta = PERF.delta(before)
        assert delta.get("kernel_fallbacks", 0) == 0
        assert delta.get("kernel_reference_calls", 0) == 1

    def test_call_and_flop_counters(self, csr_case):
        x = _features(csr_case, np.float32, dim=4)
        before = PERF.snapshot()
        gspmm_forward(csr_case, x, backend="reference")
        delta = PERF.delta(before)
        assert delta.get("kernel_gspmm_calls") == 1
        assert delta.get("kernel_reference_calls") == 1
        assert delta.get("kernel_flops", 0) == 2 * csr_case.nnz * 4

    def test_explicit_unavailable_backend_raises(self, monkeypatch):
        from repro.kernels.registry import _BACKENDS

        class Missing:
            name = "missing"

            def available(self):
                return False

        monkeypatch.setitem(_BACKENDS, "missing", Missing())
        assert "missing" not in available_backends()
        with pytest.raises(KernelError, match="not importable"):
            resolve_backend("missing")


class TestScipyDispatchCaching:
    """Repeated dispatch through a persistent operator must reuse the
    scipy backend's matrices (regression: the ``copy_rhs`` and
    explicit-values paths allocated a fresh ``csr_matrix`` — and a
    fresh ones array — on every call, bypassing the cache)."""

    @pytest.fixture(autouse=True)
    def _require_scipy(self):
        if "scipy" not in available_backends():
            pytest.skip("scipy backend not importable")

    def test_copy_rhs_matrix_is_cached(self, csr_case):
        x = _features(csr_case, np.float32)
        first = gspmm_forward(csr_case, x, op="copy_rhs",
                              backend="scipy")
        cached = csr_case._scipy_ones
        assert cached is not None
        again = gspmm_forward(csr_case, x, op="copy_rhs",
                              backend="scipy")
        assert csr_case._scipy_ones is cached
        _assert_bytes_equal(again, first)

    def test_values_matrix_is_cached_across_value_swaps(self, csr_case):
        x = _features(csr_case, np.float32)
        v1 = np.linspace(0.5, 1.5, csr_case.nnz).astype(np.float32)
        v2 = np.linspace(-2.0, 2.0, csr_case.nnz).astype(np.float32)
        out1 = gspmm_forward(csr_case, x, values=v1, backend="scipy")
        cached = csr_case._scipy_weighted
        assert cached is not None
        out2 = gspmm_forward(csr_case, x, values=v2, backend="scipy")
        assert csr_case._scipy_weighted is cached
        _assert_bytes_equal(out1, gspmm_forward(csr_case, x, values=v1,
                                                backend="reference"))
        _assert_bytes_equal(out2, gspmm_forward(csr_case, x, values=v2,
                                                backend="reference"))

    def test_values_path_does_not_corrupt_copy_rhs(self, csr_case):
        """The two cached matrices are separate: rebinding the values
        matrix's data must leave the all-ones matrix untouched."""
        x = _features(csr_case, np.float32)
        expected = gspmm_forward(csr_case, x, op="copy_rhs",
                                 backend="reference")
        gspmm_forward(csr_case, x, op="copy_rhs", backend="scipy")
        gspmm_forward(csr_case, x,
                      values=np.full(csr_case.nnz, 3.0,
                                     dtype=np.float32),
                      backend="scipy")
        out = gspmm_forward(csr_case, x, op="copy_rhs",
                            backend="scipy")
        _assert_bytes_equal(out, expected)
